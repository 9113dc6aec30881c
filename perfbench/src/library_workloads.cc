// frontier_exact and beyond_frontier: all-facts ComputeAll through the
// library's public session API, one fresh SolverSession per solve (what
// ShapleySolver::ComputeAll does per call), single-threaded.
//
// A run sets up its databases and plans and solves every query once
// (see MoreSetups, median reported as setup_s; the last set-up's
// results are checked and become the reference), then repeats rounds
// until the time budget is spent. Every timed result must
// be bitwise-equal to the reference. The traced run splits the budget:
// half untraced, half traced, and reports the difference as
// obs.trace_overhead_pct.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "shapcq/lineage/circuit_cache.h"
#include "shapcq/lineage/engine.h"
#include "shapcq/query/evaluator.h"
#include "shapcq/shapley/plan.h"
#include "shapcq/util/clock.h"
#include "workloads.h"

namespace perfbench {
namespace {

using shapcq::MonotonicNanos;

struct QuerySpec {
  std::string name;  // all_facts_s.<name>
  std::string query;
  std::string agg;
  std::string tau;
  int facts;                           // per relation
  std::map<std::string, int> domain;   // per variable
  double endogenous_share;
};

struct Workload {
  std::vector<QuerySpec> specs;
  shapcq::SolverOptions options;
  bool clear_circuit_cache = false;  // before every solve
  int per_fact_checks = 1;           // facts per query re-solved alone
  bool exact_expected = true;        // every fact must come out exact
};

struct Instance {
  const QuerySpec* spec;
  shapcq::AggregateQuery a;
  shapcq::Database db;
  std::shared_ptr<const shapcq::AttributionPlan> plan;
};

// Per-round sums of per-layer quantities, keyed by metric name.
using Tally = std::map<std::string, double>;

// Smallest number of timed rounds per phase, whatever the budget.
constexpr int kMinRounds = 3;

// Which facts join is drawn from this fixed seed; --seed relabels the
// constants and reorders the facts (see FixedSizeDatabase).
constexpr uint64_t kStructureSeed = 20251017;

std::vector<Instance> SetUp(const Workload& workload, uint64_t seed) {
  std::vector<Instance> instances;
  std::mt19937_64 structure(kStructureSeed);
  std::mt19937_64 labels(seed);
  for (const QuerySpec& spec : workload.specs) {
    Instance instance{&spec, MakeQuery(spec.query, spec.agg, spec.tau), {},
                      nullptr};
    instance.db =
        FixedSizeDatabase(instance.a.query, spec.facts, spec.domain,
                          spec.endogenous_share, &structure, &labels);
    instance.plan = shapcq::PlanCache::Global().GetOrCompile(
        instance.a, workload.options.score);
    instances.push_back(std::move(instance));
  }
  return instances;
}

// Adds the per-layer numbers of one traced solve (spans from `first`
// on) to `tally`.
void TallySpans(const SpanLog& log, int first, Tally* tally) {
  const std::vector<double> self = log.SelfMs(first);
  Tally& t = *tally;
  for (size_t k = 0; k < self.size(); ++k) {
    const int index = first + static_cast<int>(k);
    const SpanRecord& span = log.spans()[static_cast<size_t>(index)];
    const double ms = log.DurationMs(index);
    auto count = [&](const char* key) -> double {
      auto it = span.counts.find(key);
      return it == span.counts.end() ? 0 : static_cast<double>(it->second);
    };
    if (span.name.rfind("engine:", 0) == 0) {
      const std::string family = EngineFamily(span.name.substr(7));
      const double facts = count("facts_solved");
      t["attempts"] += 1;
      if (facts > 0) t["useful_attempts"] += 1;
      if (facts == 0) t["shapley.rejected_ms"] += ms;
      t["engine_self_ms"] += self[k];
      if (!family.empty()) t["shapley.engine_ms." + family] += self[k];
    } else if (span.name == "lineage_extract") {
      t["lineage.extract_ms"] += ms;
      t["lineage_ms"] += ms;
    } else if (span.name == "lineage_compile") {
      t["lineage.compile_ms"] += ms;
      t["lineage_ms"] += ms;
      // Compile work inside an engine attempt that hit the budget was
      // thrown away.
      if (span.parent >= 0 &&
          log.spans()[static_cast<size_t>(span.parent)].counts.count(
              "budget_fallbacks") > 0) {
        t["lineage.wasted_compile_ms"] += ms;
      }
    } else if (span.name == "brute_force") {
      t["shapley.brute_ms"] += ms;
    } else if (span.name == "monte_carlo") {
      t["shapley.mc_ms"] += ms;
      t["mc_samples"] += count("facts") * count("samples");
    }
  }
}

// One all-facts solve. When `spans` is set the solve is traced: a bench
// span wraps the ComputeAll call, the library's spans nest beneath it,
// the lineage and circuit-cache counters are read around it, and the
// join the engines run is timed by a separate public call.
bool SolveOnce(const Instance& instance, const Workload& workload,
               SpanLog* spans, Tally* tally, Results* results,
               double* seconds, Report* report) {
  if (workload.clear_circuit_cache) shapcq::CircuitCache::Global().Clear();
  shapcq::SolverOptions options = workload.options;
  std::unique_ptr<shapcq::TraceContext> trace;
  uint64_t request = 0;
  shapcq::LineageStatsSnapshot lineage_before;
  shapcq::CircuitCache::Stats cache_before;
  if (spans != nullptr) {
    request = spans->NewRequest();
    trace = std::make_unique<shapcq::TraceContext>(request);
    options.trace = trace.get();
    lineage_before = shapcq::LineageStats::Global().Snapshot();
    cache_before = shapcq::CircuitCache::Global().stats();
  }
  report->Attempted();
  const uint64_t start = MonotonicNanos();
  shapcq::SolverSession session(instance.plan, instance.db);
  shapcq::StatusOr<Results> solved = session.ComputeAll(options);
  const uint64_t end = MonotonicNanos();
  if (!solved.ok()) {
    report->Failed(instance.spec->name + ": " + solved.status().ToString());
    return false;
  }
  *results = std::move(solved).value();
  *seconds = Seconds(start, end);
  if (spans == nullptr) return true;

  const int root = spans->Add(request, "shapley.ComputeAll", -1, start, end);
  spans->Import(*trace, request, root);
  TallySpans(*spans, root, tally);
  Tally& t = *tally;
  t["solve_ms"] += *seconds * 1e3;
  for (const auto& [fact, result] : *results) {
    const std::string family = EngineFamily(result.algorithm);
    if (!family.empty()) t["shapley.engine_facts." + family] += 1;
  }
  const shapcq::LineageStatsSnapshot lineage = shapcq::LineageStatsDelta(
      shapcq::LineageStats::Global().Snapshot(), lineage_before);
  t["lineage.circuits"] += static_cast<double>(lineage.circuits_compiled);
  t["lineage.circuit_nodes"] += static_cast<double>(lineage.circuit_nodes);
  t["lineage.budget_fallbacks"] +=
      static_cast<double>(lineage.budget_fallbacks);
  const shapcq::CircuitCache::Stats cache =
      shapcq::CircuitCache::Global().stats();
  // A cleared cache restarts its counters at zero.
  const bool cleared = workload.clear_circuit_cache;
  t["cache_hits"] += static_cast<double>(
      cleared ? cache.hits : cache.hits - cache_before.hits);
  t["cache_misses"] += static_cast<double>(
      cleared ? cache.misses : cache.misses - cache_before.misses);

  const int join = spans->Begin(request, "query.EnumerateHomomorphismIds");
  shapcq::IdHomomorphisms homs =
      shapcq::EnumerateHomomorphismIds(instance.a.query, instance.db);
  spans->End(join);
  t["query.join_ms"] += spans->DurationMs(join);
  t["query.homs"] += static_cast<double>(homs.used_facts.size());
  return true;
}

struct Phase {
  std::map<std::string, std::vector<double>> seconds;  // per query name
  std::vector<double> round_ms;  // one round: every query solved once
  std::vector<Tally> rounds;
};

Phase RunPhase(const std::vector<Instance>& instances,
               const Workload& workload, const std::vector<Results>& reference,
               double budget_s, SpanLog* spans, Report* report) {
  Phase phase;
  const uint64_t start = MonotonicNanos();
  while (static_cast<int>(phase.rounds.size()) < kMinRounds ||
         Seconds(start, MonotonicNanos()) < budget_s) {
    Tally tally;
    double round_s = 0;
    for (size_t q = 0; q < instances.size(); ++q) {
      Results results;
      double seconds = 0;
      if (!SolveOnce(instances[q], workload, spans, &tally, &results, &seconds,
                     report)) {
        continue;
      }
      round_s += seconds;
      phase.seconds[instances[q].spec->name].push_back(seconds);
      std::string why;
      if (!SameResults(results, reference[q], &why)) {
        report->WrongAnswer(instances[q].spec->name +
                            ": timed solve differs from the set-up solve: " +
                            why);
      }
    }
    phase.round_ms.push_back(round_s * 1e3);
    phase.rounds.push_back(std::move(tally));
  }
  return phase;
}

// Checks the reference results: efficiency for exact scores, per-fact
// Compute parity for a seeded sample, and for sampled estimates parity
// with per-fact seeded Monte Carlo runs.
void CheckReference(const Instance& instance, const Workload& workload,
                    const Results& results, std::mt19937_64* rng,
                    Report* report) {
  const std::string& name = instance.spec->name;
  std::vector<size_t> sampled;
  for (size_t i = 0; i < results.size(); ++i) {
    if (!results[i].second.is_exact) sampled.push_back(i);
  }
  if (workload.exact_expected && !sampled.empty()) {
    report->WrongAnswer(name + ": " + std::to_string(sampled.size()) +
                        " facts not exact inside the frontier");
  }
  shapcq::SolverSession session(instance.plan, instance.db);
  std::string why;
  if (sampled.empty()) {
    report->Attempted();
    if (!EfficiencyHolds(instance.a, instance.db, results, &why)) {
      report->WrongAnswer(name + ": efficiency: " + why);
    }
    report->Attempted();
    if (!PerFactAgrees(&session, workload.options, results,
                       workload.per_fact_checks, rng, &why)) {
      report->WrongAnswer(name + ": " + why);
    }
    return;
  }
  shapcq::SolverOptions mc = workload.options;
  mc.method = shapcq::SolveMethod::kMonteCarlo;
  std::uniform_int_distribution<size_t> pick(0, sampled.size() - 1);
  for (int i = 0; i < workload.per_fact_checks; ++i) {
    const auto& [fact, batched] = results[sampled[pick(*rng)]];
    report->Attempted();
    shapcq::StatusOr<shapcq::SolveResult> single = session.Compute(fact, mc);
    if (!single.ok() || !SameResult(*single, batched)) {
      report->WrongAnswer(name + ": Monte Carlo estimate of fact " +
                          std::to_string(fact) +
                          " differs from a per-fact seeded run");
    }
  }
}

double RoundValue(const Tally& tally, const std::string& key) {
  auto it = tally.find(key);
  return it == tally.end() ? 0 : it->second;
}

// Median over rounds of a tally entry.
double MedianOf(const Phase& phase, const std::string& key) {
  std::vector<double> values;
  for (const Tally& t : phase.rounds) values.push_back(RoundValue(t, key));
  return Median(values);
}

// Median over rounds of a per-round ratio.
double MedianRatio(const Phase& phase, const std::string& num,
                   const std::string& den, double scale = 1) {
  std::vector<double> values;
  for (const Tally& t : phase.rounds) {
    const double d = RoundValue(t, den);
    values.push_back(d > 0 ? scale * RoundValue(t, num) / d : 0);
  }
  return Median(values);
}

void RunLibraryWorkload(const Config& config, const Workload& workload,
                        Report* report, SpanLog* spans) {
  // Set-up, from cold plan caches to the first answers: data generation,
  // plan compilation and one solve per query. The last repetition's
  // answers are checked and become the reference every timed solve must
  // equal.
  std::vector<double> setup;
  std::vector<Instance> instances;
  std::vector<Results> reference;
  std::vector<char> solved;
  for (int i = 0; MoreSetups(setup); ++i) {
    shapcq::PlanCache::Global().Clear();
    const uint64_t start = MonotonicNanos();
    instances = SetUp(workload, config.seed);
    reference.assign(instances.size(), Results());
    solved.assign(instances.size(), 0);
    for (size_t q = 0; q < instances.size(); ++q) {
      double seconds = 0;
      Tally unused;
      solved[q] = SolveOnce(instances[q], workload, nullptr, &unused,
                            &reference[q], &seconds, report);
    }
    setup.push_back(Seconds(start, MonotonicNanos()));
  }

  std::mt19937_64 check_rng(config.seed ^ 0x5eedc0deULL);
  int64_t answered = 0;
  int64_t exact = 0;
  for (size_t q = 0; q < instances.size(); ++q) {
    if (!solved[q]) continue;
    CheckReference(instances[q], workload, reference[q], &check_rng, report);
    std::map<std::string, int> engines;
    for (const auto& [fact, result] : reference[q]) {
      ++engines[result.algorithm];
      ++answered;
      exact += result.is_exact ? 1 : 0;
    }
    std::string line = instances[q].spec->name + ": " +
                       std::to_string(instances[q].db.num_endogenous()) +
                       " endogenous facts;";
    for (const auto& [engine, facts] : engines) {
      line += " " + engine + " x" + std::to_string(facts);
    }
    report->Note(line);
  }

  if (!config.trace) {
    Phase phase = RunPhase(instances, workload, reference, config.seconds,
                           nullptr, report);
    report->Metric("setup_s", Median(setup), "s",
                   static_cast<int64_t>(setup.size()));
    report->Metric("peak_rss_mb", PeakRssMb(), "MB", 1);
    const int64_t rounds = static_cast<int64_t>(phase.round_ms.size());
    report->Metric("op_ms.p50", Median(phase.round_ms), "ms", rounds);
    report->Metric("exact_share",
                   answered > 0 ? static_cast<double>(exact) /
                                      static_cast<double>(answered)
                                : 0,
                   "ratio", answered);
    report->Detail("op_ms.p10", Quantile(phase.round_ms, 0.1), "ms", rounds);
    for (const Instance& instance : instances) {
      const std::vector<double>& s = phase.seconds[instance.spec->name];
      report->Detail("all_facts_s." + instance.spec->name, Median(s), "s",
                     static_cast<int64_t>(s.size()));
      char line[160];
      std::snprintf(line, sizeof(line),
                    "%s: solve s min %.4f p25 %.4f p75 %.4f max %.4f",
                    instance.spec->name.c_str(), Quantile(s, 0),
                    Quantile(s, 0.25), Quantile(s, 0.75), Quantile(s, 1));
      report->Note(line);
    }
    return;
  }

  Phase untraced = RunPhase(instances, workload, reference,
                            config.seconds / 2, nullptr, report);
  Phase traced = RunPhase(instances, workload, reference, config.seconds / 2,
                          spans, report);
  const int64_t rounds = static_cast<int64_t>(traced.rounds.size());
  LayerMetrics layers;
  for (const std::string& family : EngineFamilies()) {
    const std::string facts = "shapley.engine_facts." + family;
    layers.Set(facts, MedianOf(traced, facts), rounds);
    report->Detail("shapley.engine_ms." + family,
                   MedianOf(traced, "shapley.engine_ms." + family), "ms",
                   rounds);
  }
  layers.Set("shapley.engine_share",
             MedianRatio(traced, "engine_self_ms", "solve_ms"), rounds);
  layers.Set("shapley.rejected_share",
             MedianRatio(traced, "shapley.rejected_ms", "solve_ms"), rounds);
  layers.Set("shapley.mc_samples", MedianOf(traced, "mc_samples"), rounds);
  layers.Set("lineage.compile_share",
             MedianRatio(traced, "lineage_ms", "solve_ms"), rounds);
  layers.Set("lineage.wasted_share",
             MedianRatio(traced, "lineage.wasted_compile_ms", "solve_ms"),
             rounds);
  for (const char* key : {"lineage.circuits", "lineage.circuit_nodes",
                          "lineage.budget_fallbacks"}) {
    layers.Set(key, MedianOf(traced, key), rounds);
  }
  std::vector<double> ratio;
  for (const Tally& t : traced.rounds) {
    const double hits = RoundValue(t, "cache_hits");
    const double lookups = hits + RoundValue(t, "cache_misses");
    ratio.push_back(lookups > 0 ? hits / lookups : 0);
  }
  layers.Set("lineage.cache_hit_ratio", Median(ratio), rounds);
  const double join = MedianOf(traced, "query.join_ms");
  layers.Set("query.join_ms", join, rounds);
  layers.Set("query.homs", MedianOf(traced, "query.homs"), rounds);
  layers.Set("query.join_share",
             MedianRatio(traced, "query.join_ms", "solve_ms"), rounds);
  MeasureConvolve(config.smoke, spans, report, &layers);
  layers.Set("obs.trace_overhead_pct",
             OverheadPct(Median(untraced.round_ms), Median(traced.round_ms)),
             static_cast<int64_t>(untraced.rounds.size()) + rounds);
  layers.Emit(report);

  report->Detail("shapley.rejected_ms",
                 MedianOf(traced, "shapley.rejected_ms"), "ms", rounds);
  report->Detail("shapley.useful_engine_ratio",
                 MedianRatio(traced, "useful_attempts", "attempts"), "ratio",
                 rounds);
  report->Detail("shapley.mc_ms", MedianOf(traced, "shapley.mc_ms"), "ms",
                 rounds);
  report->Detail("shapley.mc_samples_per_s",
                 MedianRatio(traced, "mc_samples", "shapley.mc_ms", 1e3),
                 "1/s", rounds);
  for (const char* key : {"shapley.brute_ms", "lineage.extract_ms",
                          "lineage.compile_ms", "lineage.wasted_compile_ms"}) {
    report->Detail(key, MedianOf(traced, key), "ms", rounds);
  }
}

shapcq::SolverOptions SingleThreaded() {
  shapcq::SolverOptions options;
  options.method = shapcq::SolveMethod::kAuto;
  options.num_threads = 1;
  return options;
}

}  // namespace

void RunFrontierExact(const Config& config, Report* report, SpanLog* spans) {
  const int s = config.smoke ? 1 : 0;  // smoke: tiny sizes
  Workload workload;
  workload.options = SingleThreaded();
  workload.per_fact_checks = 1;
  workload.specs = {
      {"sum", "Q(x) <- R(x), S(x, y), T(y)", "sum", "id:1", s ? 8 : 90,
       {{"x", s ? 6 : 60}, {"y", s ? 6 : 60}}, 0.7},
      {"max", "Q(x) <- R(x, y), S(y)", "max", "id:1", s ? 8 : 70,
       {{"x", s ? 6 : 40}, {"y", s ? 6 : 40}}, 0.7},
      {"cdist", "Q(x) <- R(x, y), S(y)", "cdist", "id:1", s ? 8 : 35,
       {{"x", s ? 5 : 20}, {"y", s ? 5 : 20}}, 0.7},
      {"median", "Q(x, y) <- R(x, y), S(y)", "median", "id:1", s ? 6 : 16,
       {{"x", s ? 4 : 10}, {"y", s ? 4 : 10}}, 0.7},
      {"dup", "Q(x, y) <- R(x, y), S(x)", "dup", "id:1", s ? 8 : 70,
       {{"x", s ? 6 : 40}, {"y", s ? 6 : 40}}, 0.7},
  };
  RunLibraryWorkload(config, workload, report, spans);
}

void RunBeyondFrontier(const Config& config, Report* report, SpanLog* spans) {
  const int s = config.smoke ? 1 : 0;
  Workload workload;
  workload.options = SingleThreaded();
  workload.options.monte_carlo.num_samples = s ? 200 : 1000;
  workload.options.monte_carlo.seed = config.seed;
  // A quarter of the default node budget: the fallback query still
  // compiles until the budget stops it, in a quarter of the time.
  workload.options.lineage.max_circuit_nodes = s ? 256 : (1 << 15);
  workload.clear_circuit_cache = true;
  workload.per_fact_checks = 1;
  workload.exact_expected = false;
  // Every fact of the fallback query is endogenous: an all-exogenous
  // support would make its one answer constant-true and every fact a
  // null player.
  workload.specs = {
      {"lineage", "Q(z) <- R(z, x), S(x, y), T(y)", "sum", "id:1",
       s ? 10 : 150, {{"z", s ? 6 : 40}, {"x", s ? 6 : 25}, {"y", s ? 6 : 25}},
       0.7},
      {"fallback", "Q() <- R(x), S(x, y), T(y)", "count", "const:1",
       s ? 40 : 120, {{"x", s ? 10 : 40}, {"y", s ? 10 : 40}}, 1.0},
  };
  RunLibraryWorkload(config, workload, report, spans);
}

}  // namespace perfbench
