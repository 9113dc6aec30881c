// Differential testing harness: random queries of every hierarchy class ×
// random databases × every aggregate. Every engine that accepts an
// instance must agree exactly with brute force; engines must accept
// instances inside their frontier (for our standard localized τ). The
// batched scorers are checked fact by fact against brute force too: every
// provider of the default registry that has one, and the monoid Min/Max
// engine, which is reachable only through a direct library call.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "shapcq/agg/aggregate.h"
#include "shapcq/agg/value_function.h"
#include "shapcq/data/database.h"
#include "shapcq/hierarchy/classification.h"
#include "shapcq/shapley/avg_quantile.h"
#include "shapcq/shapley/brute_force.h"
#include "shapcq/shapley/count_distinct.h"
#include "shapcq/shapley/engine_registry.h"
#include "shapcq/shapley/has_duplicates.h"
#include "shapcq/shapley/min_max.h"
#include "shapcq/shapley/min_max_monoid.h"
#include "shapcq/shapley/score.h"
#include "shapcq/shapley/solver.h"
#include "shapcq/shapley/sum_count.h"
#include "shapcq/workload/generators.h"
#include "shapcq/workload/random_query.h"

namespace shapcq {
namespace {

struct DifferentialCase {
  HierarchyClass target;
  uint64_t seed;
};

std::vector<DifferentialCase> MakeCases() {
  std::vector<DifferentialCase> cases;
  for (HierarchyClass target :
       {HierarchyClass::kSqHierarchical, HierarchyClass::kQHierarchical,
        HierarchyClass::kAllHierarchical,
        HierarchyClass::kExistsHierarchical, HierarchyClass::kGeneral}) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      cases.push_back({target, seed});
    }
  }
  return cases;
}

class DifferentialTest : public ::testing::TestWithParam<DifferentialCase> {};

TEST_P(DifferentialTest, GeneratedQueryHasRequestedClass) {
  const DifferentialCase& param = GetParam();
  RandomQueryOptions options;
  options.max_variables = 4;
  options.components = 1 + static_cast<int>(param.seed % 2);
  options.seed = param.seed;
  ConjunctiveQuery q = RandomQueryOfClass(param.target, options);
  EXPECT_EQ(Classify(q), param.target) << q.ToString();
  EXPECT_FALSE(q.HasSelfJoin());
}

TEST_P(DifferentialTest, AllApplicableEnginesAgreeWithBruteForce) {
  const DifferentialCase& param = GetParam();
  RandomQueryOptions query_options;
  query_options.max_variables = 3;
  query_options.components = 1 + static_cast<int>(param.seed % 2);
  query_options.seed = param.seed;
  ConjunctiveQuery q = RandomQueryOfClass(param.target, query_options);

  RandomDatabaseOptions db_options;
  db_options.facts_per_relation = 3;
  db_options.domain_size = 3;
  db_options.seed = param.seed * 1000 + 7;
  Database db = RandomDatabaseForQuery(q, db_options);
  if (db.num_endogenous() == 0 ||
      db.num_endogenous() > kBruteForceMaxPlayers) {
    GTEST_SKIP();
  }

  ValueFunctionPtr tau =
      q.arity() > 0 ? MakeTauId(0) : MakeConstantTau(Rational(1));
  struct EngineCase {
    AggregateFunction alpha;
    SumKEngine engine;
    HierarchyClass frontier;
  };
  std::vector<EngineCase> engines = {
      {AggregateFunction::Sum(), SumCountSumK,
       HierarchyClass::kExistsHierarchical},
      {AggregateFunction::Count(), SumCountSumK,
       HierarchyClass::kExistsHierarchical},
      {AggregateFunction::Max(), MinMaxSumK,
       HierarchyClass::kAllHierarchical},
      {AggregateFunction::Min(), MinMaxSumK,
       HierarchyClass::kAllHierarchical},
      {AggregateFunction::CountDistinct(), CountDistinctSumK,
       HierarchyClass::kAllHierarchical},
      {AggregateFunction::Avg(), AvgQuantileSumK,
       HierarchyClass::kQHierarchical},
      {AggregateFunction::Median(), AvgQuantileSumK,
       HierarchyClass::kQHierarchical},
      {AggregateFunction::HasDuplicates(), HasDuplicatesSumK,
       HierarchyClass::kSqHierarchical},
  };
  for (const EngineCase& engine_case : engines) {
    AggregateQuery a{q, tau, engine_case.alpha};
    StatusOr<SumKSeries> dp = engine_case.engine(a, db, SolverOptions{});
    bool inside = AtLeast(Classify(q), engine_case.frontier);
    if (inside) {
      // Inside the frontier with our localized τ the engine must accept.
      ASSERT_TRUE(dp.ok()) << q.ToString() << " "
                           << engine_case.alpha.ToString() << ": "
                           << dp.status().ToString();
    }
    if (!dp.ok()) continue;  // τ-specific refusals outside are fine
    StatusOr<SumKSeries> bf = BruteForceSumK(a, db);
    ASSERT_TRUE(bf.ok());
    ASSERT_EQ(dp->size(), bf->size());
    for (size_t k = 0; k < bf->size(); ++k) {
      ASSERT_EQ((*dp)[k], (*bf)[k])
          << q.ToString() << " " << engine_case.alpha.ToString() << " k="
          << k;
    }
  }
}

TEST_P(DifferentialTest, SolverAutoAgreesWithBruteForceOnOneFact) {
  const DifferentialCase& param = GetParam();
  RandomQueryOptions query_options;
  query_options.max_variables = 3;
  query_options.seed = param.seed + 500;
  ConjunctiveQuery q = RandomQueryOfClass(param.target, query_options);
  RandomDatabaseOptions db_options;
  db_options.facts_per_relation = 3;
  db_options.seed = param.seed * 77 + 1;
  Database db = RandomDatabaseForQuery(q, db_options);
  if (db.num_endogenous() == 0 ||
      db.num_endogenous() > kBruteForceMaxPlayers) {
    GTEST_SKIP();
  }
  ValueFunctionPtr tau =
      q.arity() > 0 ? MakeTauId(0) : MakeConstantTau(Rational(1));
  for (AggregateFunction alpha :
       {AggregateFunction::Max(), AggregateFunction::Avg()}) {
    AggregateQuery a{q, tau, alpha};
    ShapleySolver solver(a);
    FactId probe = db.EndogenousFacts().front();
    auto result = solver.Compute(db, probe);
    ASSERT_TRUE(result.ok());
    ASSERT_TRUE(result->is_exact);  // brute-force fallback is exact too
    auto bf = BruteForceScore(a, db, probe);
    EXPECT_EQ(result->exact, *bf)
        << q.ToString() << " " << alpha.ToString() << " via "
        << result->algorithm;
  }
}

// The random instance of a case, shared by the batched-scorer checks.
struct Instance {
  ConjunctiveQuery q;
  Database db;
};

Instance MakeInstance(const DifferentialCase& param) {
  RandomQueryOptions query_options;
  query_options.max_variables = 3;
  query_options.components = 1 + static_cast<int>(param.seed % 2);
  query_options.seed = param.seed;
  Instance instance{RandomQueryOfClass(param.target, query_options), {}};
  RandomDatabaseOptions db_options;
  db_options.facts_per_relation = 3;
  db_options.domain_size = 3;
  db_options.seed = param.seed * 1000 + 7;
  instance.db = RandomDatabaseForQuery(instance.q, db_options);
  return instance;
}

// Asserts that a batched result holds one entry per endogenous fact,
// ascending, each equal to the brute-force score.
void ExpectMatchesBruteForce(
    const std::vector<std::pair<FactId, Rational>>& batched,
    const AggregateQuery& reference, const Database& db, ScoreKind kind,
    const std::string& label) {
  StatusOr<std::vector<std::pair<FactId, Rational>>> bf =
      BruteForceScoreAll(reference, db, kind);
  ASSERT_TRUE(bf.ok()) << bf.status().ToString();
  ASSERT_EQ(batched.size(), bf->size()) << label;
  for (size_t i = 0; i < bf->size(); ++i) {
    ASSERT_EQ(batched[i].first, (*bf)[i].first) << label;
    EXPECT_EQ(batched[i].second, (*bf)[i].second)
        << label << " fact " << batched[i].first;
  }
}

TEST_P(DifferentialTest, EveryRegisteredBatchedScorerAgreesWithBruteForce) {
  Instance instance = MakeInstance(GetParam());
  const ConjunctiveQuery& q = instance.q;
  const Database& db = instance.db;
  if (db.num_endogenous() == 0 ||
      db.num_endogenous() > kBruteForceMaxPlayers) {
    GTEST_SKIP();
  }
  ValueFunctionPtr tau =
      q.arity() > 0 ? MakeTauId(0) : MakeConstantTau(Rational(1));
  int checked = 0;
  for (AggregateFunction alpha :
       {AggregateFunction::Sum(), AggregateFunction::Count(),
        AggregateFunction::Max(), AggregateFunction::Min(),
        AggregateFunction::CountDistinct(), AggregateFunction::Avg(),
        AggregateFunction::Median(), AggregateFunction::HasDuplicates()}) {
    AggregateQuery a{q, tau, alpha};
    for (const EngineProvider* provider :
         EngineRegistry::Global().CandidatesFor(a)) {
      if (provider->score_all == nullptr) continue;
      for (ScoreKind kind : {ScoreKind::kShapley, ScoreKind::kBanzhaf}) {
        SolverOptions options;
        options.score = kind;
        auto batched = provider->score_all(a, db, options);
        if (!batched.ok()) continue;  // shape refusals are the solver's job
        ExpectMatchesBruteForce(*batched, a, db, kind,
                                q.ToString() + " " + alpha.ToString() +
                                    " via " + provider->name);
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 0) << q.ToString();
}

TEST_P(DifferentialTest, MonoidEngineAgreesWithBruteForce) {
  Instance instance = MakeInstance(GetParam());
  const ConjunctiveQuery& q = instance.q;
  const Database& db = instance.db;
  if (q.arity() == 0 ||
      !AtLeast(Classify(q), HierarchyClass::kAllHierarchical) ||
      db.num_endogenous() == 0 ||
      db.num_endogenous() > kBruteForceMaxPlayers) {
    GTEST_SKIP();
  }
  std::vector<int> positions;
  for (int position = 0; position < q.arity(); ++position) {
    positions.push_back(position);
  }
  struct MonoidCase {
    MonoidKind kind;
    bool is_max;
  };
  for (MonoidCase monoid : {MonoidCase{MonoidKind::kPlus, true},
                            MonoidCase{MonoidKind::kMax, true},
                            MonoidCase{MonoidKind::kPlus, false},
                            MonoidCase{MonoidKind::kMin, false}}) {
    AggregateQuery reference{
        q, MakeMonoidTau(monoid.kind, positions),
        monoid.is_max ? AggregateFunction::Max() : AggregateFunction::Min()};
    const std::string label = q.ToString() + " " + reference.ToString();
    auto dp = MonoidMinMaxSumK(q, monoid.kind, positions, monoid.is_max, db);
    ASSERT_TRUE(dp.ok()) << label << ": " << dp.status().ToString();
    auto bf = BruteForceSumK(reference, db);
    ASSERT_TRUE(bf.ok());
    ASSERT_EQ(dp->size(), bf->size());
    for (size_t k = 0; k < bf->size(); ++k) {
      EXPECT_EQ((*dp)[k], (*bf)[k]) << label << " k=" << k;
    }
    for (ScoreKind kind : {ScoreKind::kShapley, ScoreKind::kBanzhaf}) {
      SolverOptions options;
      options.score = kind;
      auto batched = MinMaxMonoidScoreAll(q, monoid.kind, positions,
                                          monoid.is_max, db, options);
      ASSERT_TRUE(batched.ok()) << label << ": "
                                << batched.status().ToString();
      ExpectMatchesBruteForce(*batched, reference, db, kind, label);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllClasses, DifferentialTest,
                         ::testing::ValuesIn(MakeCases()));

}  // namespace
}  // namespace shapcq
