// Experiment E9: localization flips hardness (Proposition 7.3).
//
// Same query Q_xyyz(x, z) <- R(x, y), S(y), T(z); same aggregate Avg; two
// value functions:
//   τ¹_ReLU (reads x, localized on R)  — FP^#P-hard: exact = brute force.
//   τ²_ReLU (reads z, localized on T)  — polynomial: {R, S} only gates.
// Also Dup on Q^full_xyy with τ²_id (tractable) vs τ¹_id (hard).

#include <cstdio>

#include "bench_util.h"
#include "shapcq/agg/aggregate.h"
#include "shapcq/agg/value_function.h"
#include "shapcq/data/database.h"
#include "shapcq/query/parser.h"
#include "shapcq/shapley/avg_quantile.h"
#include "shapcq/shapley/brute_force.h"
#include "shapcq/shapley/has_duplicates.h"
#include "shapcq/shapley/score.h"

using namespace shapcq;  // NOLINT

namespace {

Database MakeQxyyzDb(int n) {
  Database db;
  int groups = n / 4 + 1;
  for (int i = 0; i < n; ++i) {
    db.AddEndogenous("R", {Value((i / groups) % 5 - 2), Value(i % groups)});
  }
  for (int g = 0; g < groups; ++g) db.AddEndogenous("S", {Value(g)});
  for (int t = 0; t < n / 2 + 1; ++t) db.AddEndogenous("T", {Value(t - 1)});
  return db;
}

Database MakeQfullDb(int n) {
  Database db;
  int groups = n / 4 + 1;
  for (int i = 0; i < n; ++i) {
    db.AddEndogenous("R", {Value((i / groups) % 5 - 2), Value(i % groups)});
  }
  for (int g = 0; g < groups; ++g) db.AddEndogenous("S", {Value(g)});
  return db;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args = bench::ParseArgs(argc, argv);
  const std::vector<int> small_sizes =
      args.smoke ? std::vector<int>{6} : std::vector<int>{6, 8, 10, 12};
  std::printf("E9: the atom of localization decides tractability "
              "(Proposition 7.3)\n");
  bench::Rule('=');

  ConjunctiveQuery q_xyyz = MustParseQuery("Q(x, z) <- R(x, y), S(y), T(z)");
  std::printf("Avg over Q_xyyz: tau on x (hard side, brute force) vs tau on "
              "z (exact DP)\n");
  std::printf("%6s %10s %20s %20s\n", "n", "players", "tau1: brute (ms)",
              "tau2: exact DP (ms)");
  bench::Rule();
  for (int n : small_sizes) {
    Database db = MakeQxyyzDb(n);
    AggregateQuery hard{q_xyyz, MakeTauReLU(0), AggregateFunction::Avg()};
    AggregateQuery easy{q_xyyz, MakeTauReLU(1), AggregateFunction::Avg()};
    FactId probe = db.EndogenousFacts().front();
    double hard_ms = bench::TimeMs([&] {
      auto r = BruteForceScore(hard, db, probe);
      if (!r.ok()) std::abort();
    });
    double easy_ms = bench::TimeMs([&] {
      auto r = ScoreViaSumK(easy, db, probe, AvgQuantileSumK);
      if (!r.ok()) std::abort();
    });
    std::printf("%6d %10d %20.2f %20.2f\n", n, db.num_endogenous(), hard_ms,
                easy_ms);
    bench::JsonLine("localization_avg")
        .Int("n", n)
        .Int("players", db.num_endogenous())
        .Num("tau1_brute_ms", hard_ms)
        .Num("tau2_dp_ms", easy_ms)
        .Emit();
  }
  std::printf("beyond the brute-force horizon (tau2 only):\n");
  const std::vector<int> dp_sizes =
      args.smoke ? std::vector<int>{16} : std::vector<int>{32, 64, 96};
  for (int n : dp_sizes) {
    Database db = MakeQxyyzDb(n);
    AggregateQuery easy{q_xyyz, MakeTauReLU(1), AggregateFunction::Avg()};
    FactId probe = db.EndogenousFacts().front();
    double easy_ms = bench::TimeMs([&] {
      auto r = ScoreViaSumK(easy, db, probe, AvgQuantileSumK);
      if (!r.ok()) std::abort();
    });
    std::printf("%6d %10d %20s %20.2f\n", n, db.num_endogenous(),
                "(2^n infeasible)", easy_ms);
    bench::JsonLine("localization_avg_dp_only")
        .Int("n", n)
        .Int("players", db.num_endogenous())
        .Num("tau2_dp_ms", easy_ms)
        .Emit();
  }

  ConjunctiveQuery q_full = MustParseQuery("Q(x, y) <- R(x, y), S(y)");
  std::printf("\nDup over Q^full_xyy: tau1 (hard side) vs tau2 (exact)\n");
  std::printf("%6s %10s %20s %20s\n", "n", "players", "tau1: brute (ms)",
              "tau2: exact DP (ms)");
  bench::Rule();
  for (int n : small_sizes) {
    Database db = MakeQfullDb(n);
    AggregateQuery hard{q_full, MakeTauId(0),
                        AggregateFunction::HasDuplicates()};
    AggregateQuery easy{q_full, MakeTauId(1),
                        AggregateFunction::HasDuplicates()};
    FactId probe = db.EndogenousFacts().front();
    double hard_ms = bench::TimeMs([&] {
      auto r = BruteForceScore(hard, db, probe);
      if (!r.ok()) std::abort();
    });
    double easy_ms = bench::TimeMs([&] {
      auto r = ScoreViaSumK(easy, db, probe, HasDuplicatesSumK);
      if (!r.ok()) std::abort();
    });
    std::printf("%6d %10d %20.2f %20.2f\n", n, db.num_endogenous(), hard_ms,
                easy_ms);
    bench::JsonLine("localization_dup")
        .Int("n", n)
        .Int("players", db.num_endogenous())
        .Num("tau1_brute_ms", hard_ms)
        .Num("tau2_dp_ms", easy_ms)
        .Emit();
  }
  bench::Rule('=');
  std::printf("E9 result: with τ on the last atom both AggCQs admit "
              "polynomial exact computation; with τ on the first atom only "
              "exponential exact methods exist (Prop 7.3).\n");
  return 0;
}
