// Shared pieces of the shapcq benchmark driver: run configuration, the
// metric report, the in-memory span log, seeded data generation, and
// the correctness checks every workload applies to its outputs.
//
// Conventions (perfbench/README.md has the full story):
//   * Every timing is taken with std::chrono::steady_clock (through
//     shapcq::MonotonicNanos) and reported as a median or percentile
//     over the samples of one run, with the sample count printed
//     beside it.
//   * A "round" of a library workload solves each of its queries once.
//   * Spans: the benchmark records its own spans around each call into
//     a layer's public function, and imports the spans the library
//     records through SolverOptions::trace beneath them. A span's self
//     time is its duration minus the part of it covered by its
//     children.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "shapcq/agg/aggregate.h"
#include "shapcq/data/database.h"
#include "shapcq/obs/trace.h"
#include "shapcq/shapley/session.h"

namespace perfbench {

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;  // measured time of the run
  bool trace = false;   // per-layer (traced) run instead of end-to-end
  bool smoke = false;   // tiny inputs through the same code paths
  std::string out_dir = ".";
};

using Results = std::vector<std::pair<shapcq::FactId, shapcq::SolveResult>>;

double Seconds(uint64_t start_ns, uint64_t end_ns);
// Nearest-rank quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Sum(const std::vector<double>& values);
// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

// The metrics of one run plus its operation accounting.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit,
              int64_t samples);
  // A figure printed in the table only, not in the JSON result: the
  // workload-specific detail behind the shared metrics.
  void Detail(const std::string& name, double value, const std::string& unit,
              int64_t samples);
  // One operation started; Failed/WrongAnswer mark one as failed.
  void Attempted(int64_t count = 1) { attempted_ += count; }
  // A refusal or error: counts as failed, outputs stay trusted.
  void Failed(const std::string& what);
  // A correctness check failed: counts as failed and clears `correct`.
  void WrongAnswer(const std::string& what);
  // A line of context printed with the report (load accounting, notes).
  void Note(const std::string& line) { notes_.push_back(line); }

  bool correct() const { return correct_; }
  int64_t failed() const { return failed_; }

  // Human-readable table (stderr) and the one-line JSON result (stdout).
  void PrintTable(FILE* out) const;
  std::string ResultJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    int64_t samples;
    bool in_result;
  };
  std::vector<Entry> entries_;
  std::vector<std::string> notes_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int failures_logged_ = 0;
  bool correct_ = true;
};

// The per-layer metrics of a traced run: the same names on every
// workload (BENCHMARK.json's per_layer list). A workload sets what its
// path exercises; a layer it bypasses reports 0.
class LayerMetrics {
 public:
  LayerMetrics();
  // Aborts on a name outside the list (a bug in the benchmark).
  void Set(const std::string& name, double value, int64_t samples);
  // Adds every metric to `report`, in list order.
  void Emit(Report* report) const;

 private:
  struct Value {
    std::string unit;
    double value = 0;
    int64_t samples = 0;
  };
  std::vector<std::string> order_;
  std::map<std::string, Value> values_;
};

// One recorded span. Spans of one request share `request`; `parent` is
// the index of the enclosing span (-1 for a root). Spans imported from a
// daemon span dump carry only a duration (start_ns == 0).
struct SpanRecord {
  uint64_t request = 0;
  std::string name;
  int parent = -1;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  std::map<std::string, int64_t> counts;  // numeric annotations
};

// In-memory span store, written out once when the run ends.
class SpanLog {
 public:
  uint64_t NewRequest() { return ++last_request_; }
  int Begin(uint64_t request, std::string name, int parent = -1);
  void End(int span);
  // Adds a span whose timing is already known.
  int Add(uint64_t request, std::string name, int parent, uint64_t start_ns,
          uint64_t end_ns);
  // Copies the spans a library call recorded into `trace`, nesting each
  // under the innermost earlier imported span whose interval contains
  // it, and under `parent` otherwise.
  void Import(const shapcq::TraceContext& trace, uint64_t request,
              int parent);

  const std::vector<SpanRecord>& spans() const { return spans_; }
  SpanRecord& at(int span) { return spans_[static_cast<size_t>(span)]; }
  double DurationMs(int span) const;
  // Self time, in ms, of the spans from index `first` on (duration minus
  // the union of its children's intervals); entry i is span first + i.
  std::vector<double> SelfMs(int first = 0) const;
  // Writes every span as JSON lines; returns false on an I/O error.
  bool Write(const std::string& path) const;

 private:
  std::vector<SpanRecord> spans_;
  uint64_t last_request_ = 0;
};

// The engine family of an engine label ("sum-count/linearity" ->
// "sum-count", "streaming/lineage-circuit" -> "lineage-circuit"), or ""
// for a fallback label.
std::string EngineFamily(const std::string& label);
// The six engine families the per-layer metrics name.
const std::vector<std::string>& EngineFamilies();

// util.convolve_*: the public Convolve timed on two binomial rows whose
// product has n + 1 coefficients, for fixed n near the endogenous fact
// counts of frontier_exact's instances (the lengths its DPs convolve).
// The same lengths on every workload, so the figure is comparable.
void MeasureConvolve(bool smoke, SpanLog* spans, Report* report,
                     LayerMetrics* layers);

// Seeded fixed-size data: every relation of `q` gets exactly `facts`
// distinct facts (fewer when the domains hold fewer) whose variable
// positions draw from the variable's domain [0, domain[var]); exactly
// round(endogenous_share * facts) of each relation's facts are
// endogenous. `structure` decides which facts exist, their order (hence
// the FactIds) and which are endogenous; `labels` renames the values: a
// random shift of each head variable's domain, which keeps the order of
// τ values, and a random permutation of every other variable's domain.
// The work of a solve depends on the structure and the fact order, so
// drawing them from a fixed seed keeps the cost of a run independent of
// the labelling seed.
shapcq::Database FixedSizeDatabase(
    const shapcq::ConjunctiveQuery& q, int facts,
    const std::map<std::string, int>& domain, double endogenous_share,
    std::mt19937_64* structure, std::mt19937_64* labels);

// Builds A = alpha ∘ tau ∘ Q from the spec grammar of agg/spec.h; aborts
// on a malformed spec (the specs are the benchmark's own constants).
shapcq::AggregateQuery MakeQuery(const std::string& query,
                                 const std::string& agg,
                                 const std::string& tau);

// True when two results are bitwise-identical: same exactness, equal
// exact values, and the same bits in every double.
bool SameResult(const shapcq::SolveResult& a, const shapcq::SolveResult& b);
bool SameResults(const Results& a, const Results& b, std::string* why);

// Efficiency of the Shapley value, in exact arithmetic: the exact scores
// sum to A(D) - A(D_x). Requires every result exact.
bool EfficiencyHolds(const shapcq::AggregateQuery& a,
                     const shapcq::Database& db, const Results& results,
                     std::string* why);

// Per-fact SolverSession::Compute on `sample` facts drawn with `rng`
// must equal the batched results bitwise. Returns the mismatch, if any.
bool PerFactAgrees(shapcq::SolverSession* session,
                   const shapcq::SolverOptions& options,
                   const Results& results, int sample, std::mt19937_64* rng,
                   std::string* why);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
