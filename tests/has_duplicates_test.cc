// Has-duplicates DP over sq-hierarchical CQs (Section 6 / Appendix E.2),
// series and batched scores cross-validated against brute force.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "shapcq/agg/aggregate.h"
#include "shapcq/agg/value_function.h"
#include "shapcq/data/database.h"
#include "shapcq/query/parser.h"
#include "shapcq/shapley/brute_force.h"
#include "shapcq/shapley/has_duplicates.h"
#include "shapcq/shapley/score.h"
#include "shapcq/shapley/solver_options.h"
#include "shapcq/workload/generators.h"

namespace shapcq {
namespace {

Rational R(int64_t n) { return Rational(n); }

// sq-hierarchical query shapes (Section 6 examples included).
const char* kSqHierarchicalQueries[] = {
    "Q(x) <- R(x)",
    "Q(x, y) <- R(x, y)",
    "Q(x) <- R(x, y)",
    "Q(x) <- R(x, y), S(x)",
    "Q(x, y) <- R(x, y), S(x, y, z)",
    "Q(x, z) <- R(x, y), S(x), T(z)",
    "Q(x, z) <- R(x), T(z)",
    "Q(x) <- R(x, 1), S(x)",
};

struct SweepCase {
  std::string query;
  uint64_t seed;
};

std::vector<SweepCase> MakeSweep() {
  std::vector<SweepCase> cases;
  for (const char* q : kSqHierarchicalQueries) {
    for (uint64_t seed = 1; seed <= 4; ++seed) cases.push_back({q, seed});
  }
  return cases;
}

class DupSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(DupSweepTest, MatchesBruteForce) {
  const SweepCase& param = GetParam();
  ConjunctiveQuery q = MustParseQuery(param.query);
  RandomDatabaseOptions options;
  options.facts_per_relation = 4;
  options.domain_size = 3;  // small domain: duplicates are common
  options.seed = param.seed;
  Database db = RandomDatabaseForQuery(q, options);
  // τ_>0 is not injective: slices with different x share a group.
  for (const ValueFunctionPtr& tau :
       {MakeTauId(0), MakeTauGreaterThan(0, R(0))}) {
    AggregateQuery a{q, tau, AggregateFunction::HasDuplicates()};
    auto dp = HasDuplicatesSumK(a, db);
    auto bf = BruteForceSumK(a, db);
    ASSERT_TRUE(dp.ok()) << dp.status().ToString();
    ASSERT_TRUE(bf.ok());
    EXPECT_EQ(*dp, *bf) << a.ToString();
    for (ScoreKind kind : {ScoreKind::kShapley, ScoreKind::kBanzhaf}) {
      SolverOptions score_options;
      score_options.score = kind;
      auto batched = HasDuplicatesScoreAll(a, db, score_options);
      auto oracle = BruteForceScoreAll(a, db, kind);
      ASSERT_TRUE(batched.ok()) << batched.status().ToString();
      ASSERT_TRUE(oracle.ok());
      EXPECT_EQ(*batched, *oracle) << a.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SqHierarchicalSweep, DupSweepTest,
                         ::testing::ValuesIn(MakeSweep()));

TEST(HasDuplicatesTest, ShapleyScoresMatchBruteForce) {
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(x)");
  RandomDatabaseOptions options;
  options.facts_per_relation = 4;
  options.domain_size = 3;
  options.seed = 6;
  Database db = RandomDatabaseForQuery(q, options);
  AggregateQuery a{q, MakeTauId(0), AggregateFunction::HasDuplicates()};
  for (FactId f : db.EndogenousFacts()) {
    auto dp = ScoreViaSumK(a, db, f, HasDuplicatesSumK);
    auto bf = BruteForceScore(a, db, f);
    ASSERT_TRUE(dp.ok());
    EXPECT_EQ(*dp, *bf) << db.fact(f).ToString();
  }
}

TEST(HasDuplicatesTest, HandcraftedDuplicateScenario) {
  // Q(x) <- R(x, y): two R-facts with the same x produce ONE answer (set
  // semantics), so no duplicate; duplicates need τ-collisions across
  // different x. τ = x mod nothing... use τ_>0: x=1 and x=2 both map to 1.
  Database db;
  db.AddEndogenous("R", {Value(1), Value(5)});
  db.AddEndogenous("R", {Value(2), Value(6)});
  db.AddEndogenous("R", {Value(-1), Value(7)});
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y)");
  AggregateQuery a{q, MakeTauGreaterThan(0, R(0)),
                   AggregateFunction::HasDuplicates()};
  auto dp = HasDuplicatesSumK(a, db);
  auto bf = BruteForceSumK(a, db);
  ASSERT_TRUE(dp.ok());
  for (size_t k = 0; k < bf->size(); ++k) EXPECT_EQ((*dp)[k], (*bf)[k]);
  // Sanity: with both positive x present the bag is {1, 1, 0} -> Dup = 1.
  EXPECT_EQ(a.Evaluate(db), R(1));
}

TEST(HasDuplicatesTest, Proposition73ThirdCase) {
  // Dup ∘ τ²_id ∘ Q^full_xyy: q-hierarchical but NOT sq-hierarchical, yet
  // tractable because τ²_id depends on y, which occurs in every atom
  // (Proposition 7.3(3)). The engine must accept it and agree with brute
  // force.
  ConjunctiveQuery q = MustParseQuery("Q(x, y) <- R(x, y), S(y)");
  RandomDatabaseOptions options;
  options.facts_per_relation = 5;
  options.domain_size = 3;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    options.seed = seed;
    Database db = RandomDatabaseForQuery(q, options);
    AggregateQuery a{q, MakeTauId(1), AggregateFunction::HasDuplicates()};
    auto dp = HasDuplicatesSumK(a, db);
    auto bf = BruteForceSumK(a, db);
    ASSERT_TRUE(dp.ok()) << dp.status().ToString();
    for (size_t k = 0; k < bf->size(); ++k) {
      EXPECT_EQ((*dp)[k], (*bf)[k]) << "seed " << seed << " k=" << k;
    }
  }
}

TEST(HasDuplicatesTest, RejectsHardLocalization) {
  // Dup ∘ τ¹_id ∘ Q^full_xyy is the FP^#P-hard case of Lemma E.2(2):
  // τ depends on x, which is missing from the S atom.
  ConjunctiveQuery q = MustParseQuery("Q(x, y) <- R(x, y), S(y)");
  Database db;
  db.AddEndogenous("R", {Value(1), Value(2)});
  db.AddEndogenous("S", {Value(2)});
  AggregateQuery a{q, MakeTauId(0), AggregateFunction::HasDuplicates()};
  EXPECT_FALSE(HasDuplicatesSumK(a, db).ok());
}

TEST(HasDuplicatesTest, RejectsNonQHierarchical) {
  ConjunctiveQuery q_xyy = MustParseQuery("Q(x) <- R(x, y), S(y)");
  Database db;
  db.AddEndogenous("R", {Value(1), Value(2)});
  db.AddEndogenous("S", {Value(2)});
  AggregateQuery a{q_xyy, MakeTauReLU(0), AggregateFunction::HasDuplicates()};
  EXPECT_FALSE(HasDuplicatesSumK(a, db).ok());
}

TEST(HasDuplicatesTest, ConstantTauOnCrossProduct) {
  // With τ ≡ c, Dup = [#answers >= 2]; exercised on a cross product where
  // the replication logic matters.
  ConjunctiveQuery q = MustParseQuery("Q(x, z) <- R(x), T(z)");
  RandomDatabaseOptions options;
  options.facts_per_relation = 4;
  options.seed = 44;
  Database db = RandomDatabaseForQuery(q, options);
  AggregateQuery a{q, MakeConstantTau(R(9)),
                   AggregateFunction::HasDuplicates()};
  auto dp = HasDuplicatesSumK(a, db);
  auto bf = BruteForceSumK(a, db);
  ASSERT_TRUE(dp.ok());
  for (size_t k = 0; k < bf->size(); ++k) EXPECT_EQ((*dp)[k], (*bf)[k]);
}

TEST(HasDuplicatesTest, TauOnALaterComponent) {
  // τ reads head position 1, which the localization component's own head
  // holds at position 0: the component's values must come from the full
  // head.
  ConjunctiveQuery q = MustParseQuery("Q(z, x) <- T(z), R(x, y), S(x)");
  RandomDatabaseOptions options;
  options.facts_per_relation = 3;
  options.domain_size = 3;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    options.seed = seed;
    Database db = RandomDatabaseForQuery(q, options);
    AggregateQuery a{q, MakeTauGreaterThan(1, R(0)),
                     AggregateFunction::HasDuplicates()};
    auto dp = HasDuplicatesSumK(a, db);
    auto bf = BruteForceSumK(a, db);
    ASSERT_TRUE(dp.ok()) << dp.status().ToString();
    EXPECT_EQ(*dp, *bf) << "seed " << seed;
    auto batched = HasDuplicatesScoreAll(a, db);
    ASSERT_TRUE(batched.ok()) << batched.status().ToString();
    EXPECT_EQ(*batched, *BruteForceScoreAll(a, db, ScoreKind::kShapley))
        << "seed " << seed;
  }
}

TEST(HasDuplicatesTest, TauIsOnlyReadWhereItsVariablesAreBound) {
  // τ = 1/x is undefined at x = 0, the placeholder of an unbound head
  // position: the T(z) component, which lacks x, must not evaluate it.
  ConjunctiveQuery q = MustParseQuery("Q(z, x) <- T(z), R(x)");
  Database db;
  db.AddEndogenous("T", {Value(5)});
  db.AddEndogenous("T", {Value(6)});
  db.AddEndogenous("R", {Value(1)});
  db.AddEndogenous("R", {Value(2)});
  db.AddEndogenous("R", {Value(-1)});
  ValueFunctionPtr inverse = MakeCallbackTau(
      [](const Tuple& t) { return Rational(1) / t[1].AsRational(); }, {1},
      "inverse");
  AggregateQuery a{q, inverse, AggregateFunction::HasDuplicates()};
  auto dp = HasDuplicatesSumK(a, db);
  ASSERT_TRUE(dp.ok()) << dp.status().ToString();
  EXPECT_EQ(*dp, *BruteForceSumK(a, db));
}

TEST(HasDuplicatesTest, BooleanQueryNeverHasDuplicates) {
  ConjunctiveQuery q = MustParseQuery("Q() <- R(x, y), S(y)");
  RandomDatabaseOptions options;
  options.facts_per_relation = 4;
  options.seed = 15;
  Database db = RandomDatabaseForQuery(q, options);
  AggregateQuery a{q, MakeConstantTau(R(1)),
                   AggregateFunction::HasDuplicates()};
  auto dp = HasDuplicatesSumK(a, db);
  ASSERT_TRUE(dp.ok());
  for (const Rational& v : *dp) EXPECT_TRUE(v.is_zero());
}

}  // namespace
}  // namespace shapcq
