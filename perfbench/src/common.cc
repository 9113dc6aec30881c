#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>

#include "shapcq/agg/spec.h"
#include "shapcq/query/parser.h"
#include "shapcq/shapley/dp_util.h"
#include "shapcq/util/clock.h"
#include "shapcq/util/combinatorics.h"

namespace perfbench {

using shapcq::Database;
using shapcq::FactId;
using shapcq::Rational;
using shapcq::SolveResult;

double Seconds(uint64_t start_ns, uint64_t end_ns) {
  return end_ns > start_ns ? static_cast<double>(end_ns - start_ns) / 1e9 : 0;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double rank = std::ceil(q * static_cast<double>(values.size()));
  size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Sum(const std::vector<double>& values) {
  double total = 0;
  for (double v : values) total += v;
  return total;
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- Report ----------------------------------------------------------------

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, int64_t samples) {
  if (!std::isfinite(value)) value = 0;
  entries_.push_back(Entry{name, value, unit, samples, true});
}

void Report::Detail(const std::string& name, double value,
                    const std::string& unit, int64_t samples) {
  if (!std::isfinite(value)) value = 0;
  entries_.push_back(Entry{name, value, unit, samples, false});
}

void Report::Failed(const std::string& what) {
  ++failed_;
  if (++failures_logged_ <= 20) {
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
}

void Report::WrongAnswer(const std::string& what) {
  correct_ = false;
  Failed("wrong answer: " + what);
}

void Report::PrintTable(FILE* out) const {
  for (const std::string& note : notes_) {
    std::fprintf(out, "  %s\n", note.c_str());
  }
  std::fprintf(out, "  %-34s %16s  %-6s %s\n", "metric", "value", "unit",
               "samples");
  for (const Entry& e : entries_) {
    std::fprintf(out, "  %-34s %16.6g  %-6s %lld%s\n", e.name.c_str(),
                 e.value, e.unit.c_str(), static_cast<long long>(e.samples),
                 e.in_result ? "" : "  (detail)");
  }
  std::fprintf(out, "  attempted %lld, failed %lld, correct %s\n",
               static_cast<long long>(attempted_),
               static_cast<long long>(failed_), correct_ ? "yes" : "NO");
}

std::string Report::ResultJson() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(std::max<int64_t>(attempted_, 1));
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Entry& e : entries_) {
    if (!e.in_result) continue;
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", e.value);
    out += first ? "" : ", ";
    first = false;
    out += "\"" + e.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           e.unit + "\"}";
  }
  out += "}}";
  return out;
}

// --- LayerMetrics ----------------------------------------------------------

LayerMetrics::LayerMetrics() {
  const std::vector<std::pair<std::string, std::string>> kList = {
      {"query.join_ms", "ms"},
      {"query.homs", "count"},
      {"query.join_share", "ratio"},
      {"util.convolve_us", "us"},
      {"util.convolve_coeff_mults", "count"},
      {"shapley.engine_facts.sum-count", "count"},
      {"shapley.engine_facts.min-max", "count"},
      {"shapley.engine_facts.count-distinct", "count"},
      {"shapley.engine_facts.avg-quantile", "count"},
      {"shapley.engine_facts.has-duplicates", "count"},
      {"shapley.engine_facts.lineage-circuit", "count"},
      {"shapley.engine_share", "ratio"},
      {"shapley.rejected_share", "ratio"},
      {"shapley.mc_samples", "count"},
      {"lineage.compile_share", "ratio"},
      {"lineage.wasted_share", "ratio"},
      {"lineage.circuits", "count"},
      {"lineage.circuit_nodes", "count"},
      {"lineage.budget_fallbacks", "count"},
      {"lineage.cache_hit_ratio", "ratio"},
      {"stream.dirty_answers", "count"},
      {"stream.answers_recomputed", "count"},
      {"stream.circuit_reuse_ratio", "ratio"},
      {"serve.serve_share", "ratio"},
      {"serve.admission_rejects", "count"},
      {"serve.degraded", "count"},
      {"serve.journal_bytes_per_op", "bytes"},
      {"obs.trace_overhead_pct", "%"},
  };
  for (const auto& [name, unit] : kList) {
    order_.push_back(name);
    values_[name].unit = unit;
  }
}

void LayerMetrics::Set(const std::string& name, double value,
                       int64_t samples) {
  auto it = values_.find(name);
  if (it == values_.end()) {
    std::fprintf(stderr, "unknown per-layer metric %s\n", name.c_str());
    std::abort();
  }
  it->second.value = value;
  it->second.samples = samples;
}

void LayerMetrics::Emit(Report* report) const {
  for (const std::string& name : order_) {
    const Value& v = values_.at(name);
    report->Metric(name, v.value, v.unit, v.samples);
  }
}

// --- SpanLog ---------------------------------------------------------------

int SpanLog::Begin(uint64_t request, std::string name, int parent) {
  return Add(request, std::move(name), parent, shapcq::MonotonicNanos(), 0);
}

void SpanLog::End(int span) { at(span).end_ns = shapcq::MonotonicNanos(); }

int SpanLog::Add(uint64_t request, std::string name, int parent,
                 uint64_t start_ns, uint64_t end_ns) {
  SpanRecord record;
  record.request = request;
  record.name = std::move(name);
  record.parent = parent;
  record.start_ns = start_ns;
  record.end_ns = end_ns;
  spans_.push_back(std::move(record));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::Import(const shapcq::TraceContext& trace, uint64_t request,
                     int parent) {
  // Library spans are appended when they open, so index order is start
  // order; a stack of open intervals finds each span's innermost parent.
  std::vector<int> open;
  for (const shapcq::TraceSpan& span : trace.spans()) {
    while (!open.empty() &&
           !(at(open.back()).start_ns <= span.start_ns &&
             span.end_ns <= at(open.back()).end_ns)) {
      open.pop_back();
    }
    int index = Add(request, span.stage, open.empty() ? parent : open.back(),
                    span.start_ns, span.end_ns);
    for (const shapcq::TraceAnnotation& note : span.annotations) {
      if (!note.is_text) at(index).counts[note.key] = note.number;
    }
    open.push_back(index);
  }
}

double SpanLog::DurationMs(int span) const {
  const SpanRecord& s = spans_[static_cast<size_t>(span)];
  return Seconds(s.start_ns, s.end_ns) * 1e3;
}

std::vector<double> SpanLog::SelfMs(int first) const {
  const size_t base = static_cast<size_t>(first);
  const size_t count = spans_.size() - base;
  std::vector<std::vector<int>> children(count);
  for (size_t i = base; i < spans_.size(); ++i) {
    const int parent = spans_[i].parent;
    if (parent >= first) {
      children[static_cast<size_t>(parent) - base].push_back(
          static_cast<int>(i));
    }
  }
  std::vector<double> self(count);
  for (size_t k = 0; k < count; ++k) {
    const SpanRecord& s = spans_[base + k];
    std::vector<std::pair<uint64_t, uint64_t>> covered;
    for (int c : children[k]) {
      const SpanRecord& child = spans_[static_cast<size_t>(c)];
      uint64_t lo = std::max(child.start_ns, s.start_ns);
      uint64_t hi = std::min(child.end_ns, s.end_ns);
      if (hi > lo) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    uint64_t union_ns = 0;
    uint64_t reach = 0;
    for (const auto& [lo, hi] : covered) {
      uint64_t from = std::max(lo, reach);
      if (hi > from) union_ns += hi - from;
      reach = std::max(reach, hi);
    }
    uint64_t total = s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
    self[k] = static_cast<double>(total - std::min(total, union_ns)) / 1e6;
  }
  return self;
}

bool SpanLog::Write(const std::string& path) const {
  std::ofstream out(path);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << "{\"span\":" << i << ",\"request\":" << s.request
        << ",\"name\":\"" << s.name << "\",\"parent\":" << s.parent
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns;
    for (const auto& [key, value] : s.counts) {
      out << ",\"" << key << "\":" << value;
    }
    out << "}\n";
  }
  return static_cast<bool>(out);
}

// --- Engines ---------------------------------------------------------------

const std::vector<std::string>& EngineFamilies() {
  static const std::vector<std::string> kFamilies = {
      "sum-count",      "min-max",         "count-distinct",
      "avg-quantile",   "has-duplicates",  "lineage-circuit"};
  return kFamilies;
}

std::string EngineFamily(const std::string& label) {
  const std::string streaming = "streaming/";
  std::string family = label.rfind(streaming, 0) == 0
                           ? label.substr(streaming.size())
                           : label;
  family = family.substr(0, family.find('/'));
  for (const std::string& known : EngineFamilies()) {
    if (family == known) return family;
  }
  return "";
}

// --- util ------------------------------------------------------------------

void MeasureConvolve(bool smoke, SpanLog* spans, Report* report,
                     LayerMetrics* layers) {
  const std::vector<int> lengths =
      smoke ? std::vector<int>{8, 6} : std::vector<int>{150, 80, 40, 20};
  shapcq::Combinatorics comb;
  double total_us = 0;
  double mults = 0;
  int64_t calls = 0;
  for (const int n : lengths) {
    const int m = n / 2;
    std::vector<shapcq::BigInt> a = shapcq::BinomialVector(m, &comb);
    std::vector<shapcq::BigInt> b = shapcq::BinomialVector(n - m, &comb);
    // One span over the batch of calls; each call is timed on its own.
    std::vector<double> us;
    const int span = spans->Begin(spans->NewRequest(), "util.Convolve");
    const uint64_t start = shapcq::MonotonicNanos();
    while (us.size() < 5 || Seconds(start, shapcq::MonotonicNanos()) < 0.02) {
      const uint64_t call = shapcq::MonotonicNanos();
      std::vector<shapcq::BigInt> product = shapcq::Convolve(a, b);
      us.push_back(Seconds(call, shapcq::MonotonicNanos()) * 1e6);
      if (product.size() != static_cast<size_t>(n) + 1) {
        report->WrongAnswer("Convolve returned " +
                            std::to_string(product.size()) + " coefficients");
      }
    }
    spans->End(span);
    total_us += Median(us);
    mults += static_cast<double>(a.size() * b.size());
    calls += static_cast<int64_t>(us.size());
  }
  layers->Set("util.convolve_us", total_us, calls);
  layers->Set("util.convolve_coeff_mults", mults,
              static_cast<int64_t>(lengths.size()));
}

// --- Data ------------------------------------------------------------------

Database FixedSizeDatabase(const shapcq::ConjunctiveQuery& q, int facts,
                           const std::map<std::string, int>& domain,
                           double endogenous_share,
                           std::mt19937_64* structure,
                           std::mt19937_64* labels) {
  // Head variables feed τ, and the order of τ values shapes the DPs of
  // Max, Median, CDist and Dup, so they are shifted (order kept); the
  // other variables are permuted.
  std::map<std::string, std::vector<int>> rename;
  for (const auto& [var, size] : domain) {
    std::vector<int>& perm = rename[var];
    const bool head = std::find(q.head().begin(), q.head().end(), var) !=
                      q.head().end();
    const int shift = std::uniform_int_distribution<int>(0, 999)(*labels);
    for (int v = 0; v < size; ++v) perm.push_back(head ? v + shift : v);
    if (!head) std::shuffle(perm.begin(), perm.end(), *labels);
  }
  Database db;
  std::set<std::string> done;
  for (const shapcq::Atom& atom : q.atoms()) {
    if (!done.insert(atom.relation).second) continue;
    int64_t space = 1;
    for (const shapcq::Term& term : atom.terms) {
      if (term.is_variable()) space *= domain.at(term.variable());
    }
    const int count = static_cast<int>(std::min<int64_t>(facts, space));
    std::set<shapcq::Tuple> chosen;
    std::vector<std::pair<shapcq::Tuple, bool>> rows;
    while (static_cast<int>(rows.size()) < count) {
      shapcq::Tuple row;
      for (const shapcq::Term& term : atom.terms) {
        if (term.is_constant()) {
          row.push_back(term.constant());
        } else {
          const std::vector<int>& labels_of = rename[term.variable()];
          std::uniform_int_distribution<size_t> pick(0, labels_of.size() - 1);
          row.emplace_back(int64_t{labels_of[pick(*structure)]});
        }
      }
      if (chosen.insert(row).second) rows.emplace_back(row, false);
    }
    const int endogenous = static_cast<int>(
        std::lround(endogenous_share * static_cast<double>(count)));
    std::vector<char> flag(rows.size(), 0);
    std::fill(flag.begin(), flag.begin() + endogenous, 1);
    std::shuffle(flag.begin(), flag.end(), *structure);
    for (size_t i = 0; i < rows.size(); ++i) rows[i].second = flag[i] != 0;
    for (auto& [row, endo] : rows) {
      db.AddFact(atom.relation, std::move(row), endo);
    }
  }
  return db;
}

shapcq::AggregateQuery MakeQuery(const std::string& query,
                                 const std::string& agg,
                                 const std::string& tau) {
  shapcq::StatusOr<shapcq::AggregateFunction> alpha =
      shapcq::ParseAggregateSpec(agg);
  shapcq::StatusOr<shapcq::ValueFunctionPtr> value =
      shapcq::ParseTauSpec(tau);
  if (!alpha.ok() || !value.ok()) {
    std::fprintf(stderr, "bad spec %s / %s\n", agg.c_str(), tau.c_str());
    std::abort();
  }
  return shapcq::AggregateQuery{shapcq::MustParseQuery(query), *value,
                                *alpha};
}

// --- Checks ----------------------------------------------------------------

namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

bool SameResult(const SolveResult& a, const SolveResult& b) {
  return a.is_exact == b.is_exact && (!a.is_exact || a.exact == b.exact) &&
         SameBits(a.approximation, b.approximation) &&
         SameBits(a.std_error, b.std_error) && a.samples == b.samples;
}

bool SameResults(const Results& a, const Results& b, std::string* why) {
  if (a.size() != b.size()) {
    *why = "result count " + std::to_string(a.size()) + " vs " +
           std::to_string(b.size());
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].first != b[i].first || !SameResult(a[i].second, b[i].second)) {
      *why = "fact " + std::to_string(a[i].first) + " differs";
      return false;
    }
  }
  return true;
}

bool EfficiencyHolds(const shapcq::AggregateQuery& a, const Database& db,
                     const Results& results, std::string* why) {
  Rational total;
  for (const auto& [fact, result] : results) {
    if (!result.is_exact) {
      *why = "fact " + std::to_string(fact) + " is not exact";
      return false;
    }
    total += result.exact;
  }
  Database exogenous;
  for (FactId id = 0; id < db.num_facts(); ++id) {
    if (db.live(id) && !db.fact(id).endogenous) {
      exogenous.AddFact(db.fact(id).relation, db.fact(id).args, false);
    }
  }
  Rational expected = a.Evaluate(db) - a.Evaluate(exogenous);
  if (total == expected) return true;
  *why = "sum of scores " + total.ToString() + " != A(D) - A(D_x) = " +
         expected.ToString();
  return false;
}

bool PerFactAgrees(shapcq::SolverSession* session,
                   const shapcq::SolverOptions& options,
                   const Results& results, int sample, std::mt19937_64* rng,
                   std::string* why) {
  if (results.empty()) return true;
  std::uniform_int_distribution<size_t> pick(0, results.size() - 1);
  for (int i = 0; i < sample; ++i) {
    const auto& [fact, batched] = results[pick(*rng)];
    shapcq::StatusOr<SolveResult> single = session->Compute(fact, options);
    if (!single.ok()) {
      *why = "Compute(" + std::to_string(fact) +
             ") failed: " + single.status().ToString();
      return false;
    }
    if (!SameResult(*single, batched)) {
      *why = "Compute(" + std::to_string(fact) + ") differs from ComputeAll";
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
