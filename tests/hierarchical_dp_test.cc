// The shared Figure-2 skeleton (shapley/hierarchical_dp.h): for each of
// the five data structures on it, every leave-one-out variant must equal
// a fresh solve with that fact made exogenous — compared structure for
// structure, not only through scores — and the batched all-facts shell
// must not depend on the thread count.

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "shapcq/agg/value_function.h"
#include "shapcq/data/database.h"
#include "shapcq/query/decomposition.h"
#include "shapcq/query/parser.h"
#include "shapcq/shapley/answer_counts.h"
#include "shapcq/shapley/avg_quantile_dp.h"
#include "shapcq/shapley/has_duplicates.h"
#include "shapcq/shapley/hierarchical_dp.h"
#include "shapcq/shapley/membership.h"
#include "shapcq/shapley/min_max.h"
#include "shapcq/workload/generators.h"

namespace shapcq {
namespace {

// The query shapes the skeleton must get right.
struct Shape {
  const char* name;
  const char* query;
};

const Shape kShapes[] = {
    // Root split on x; R facts whose x has no S fact are consistent with
    // no candidate value, so they pad the split.
    {"root split with padding", "Q(x) <- R(x, y), S(x)"},
    // Three components: the ones without x only gate.
    {"three-component cross product", "Q(x) <- R(x), S(y), T(z)"},
    // x, then y, then z bind on the way down; T(x) splits off after x.
    {"nested bindings", "Q(x, y) <- R(x, y, z), S(x, y), T(x)"},
};

Database MakeDatabase(const ConjunctiveQuery& q, uint64_t seed) {
  RandomDatabaseOptions options;
  options.facts_per_relation = 5;
  options.domain_size = 3;
  options.seed = seed;
  return RandomDatabaseForQuery(q, options);
}

// Every variant of one leave-one-out pass against a fresh solve of the
// database with that fact exogenous (same fact ids, same relevant subset).
template <typename S>
void ExpectVariantsMatchFreshSolves(const S& structure,
                                    const ConjunctiveQuery& q,
                                    const typename S::Context& top,
                                    const Database& db,
                                    const std::string& label) {
  Combinatorics comb;
  HierarchicalDp<S> dp(structure, &comb);
  Database work = db;
  const RelevanceSplit split = SplitRelevantIndexed(q, work);
  LeaveOneOut<typename S::P> loo =
      dp.SolveLeaveOneOut(q, split.relevant, top, &work);
  EXPECT_TRUE(loo.full == dp.Solve(q, split.relevant, top)) << label;
  const std::vector<FactId> endogenous = split.relevant.EndogenousFacts();
  ASSERT_FALSE(endogenous.empty()) << label;
  EXPECT_EQ(loo.minus.size(), endogenous.size()) << label;
  for (FactId f : endogenous) {
    Database with_f_exogenous = db.WithFactExogenous(f);
    const FactSubset subset{&with_f_exogenous, split.relevant.facts};
    auto it = loo.minus.find(f);
    ASSERT_NE(it, loo.minus.end()) << label << " fact " << f;
    EXPECT_TRUE(it->second == dp.Solve(q, subset, top))
        << label << " fact " << f;
  }
  // The pass restores every flag it flipped.
  for (FactId id = 0; id < db.num_facts(); ++id) {
    EXPECT_EQ(work.fact(id).endogenous, db.fact(id).endogenous) << label;
  }
}

TEST(HierarchicalDpTest, SatisfactionVariantsMatchFreshSolves) {
  for (const Shape& shape : kShapes) {
    ConjunctiveQuery q = MustParseQuery(shape.query).AsBoolean();
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      ExpectVariantsMatchFreshSolves(SatisfactionStructure(), q, {},
                                     MakeDatabase(q, seed), shape.name);
    }
  }
}

TEST(HierarchicalDpTest, AnswerCountVariantsMatchFreshSolves) {
  for (const Shape& shape : kShapes) {
    ConjunctiveQuery q = MustParseQuery(shape.query);
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      ExpectVariantsMatchFreshSolves(AnswerCountStructure(), q, {},
                                     MakeDatabase(q, seed), shape.name);
    }
  }
}

TEST(HierarchicalDpTest, BagProfileVariantsMatchFreshSolves) {
  for (const Shape& shape : kShapes) {
    ConjunctiveQuery q = MustParseQuery(shape.query);
    ValueFunctionPtr tau = MakeTauId(q.arity() - 1);
    AggregateQuery a{q, tau, AggregateFunction::Median()};
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      Database db = MakeDatabase(q, seed);
      std::vector<Rational> anchors = AvgQuantileAnchors(a, db);
      if (anchors.empty()) continue;
      BagProfileStructure<CountValue> structure(a, anchors);
      ExpectVariantsMatchFreshSolves(structure, q, structure.Top(), db,
                                     shape.name);
    }
  }
}

TEST(HierarchicalDpTest, MaxRowsVariantsMatchFreshSolves) {
  for (const Shape& shape : kShapes) {
    ConjunctiveQuery q = MustParseQuery(shape.query);
    ValueFunctionPtr tau = MakeTauId(q.arity() - 1);
    for (bool negate : {false, true}) {
      MaxRowsStructure localized =
          MaxRowsStructure::Localized(q, *tau, negate);
      for (uint64_t seed = 1; seed <= 4; ++seed) {
        ExpectVariantsMatchFreshSolves(localized, q, localized.Top(),
                                       MakeDatabase(q, seed), shape.name);
      }
    }
  }
  // Non-localized: every component of the product carries a key.
  ConjunctiveQuery q = MustParseQuery("Q(x, y, z) <- R(x), S(y), T(z)");
  for (MonoidKind kind : {MonoidKind::kPlus, MonoidKind::kMax}) {
    MaxRowsStructure monoid = MaxRowsStructure::Monoid(q, kind, {0, 1, 2},
                                                       /*negate=*/false);
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      ExpectVariantsMatchFreshSolves(monoid, q, monoid.Top(),
                                     MakeDatabase(q, seed), "monoid product");
    }
  }
}

TEST(HierarchicalDpTest, DupVariantsMatchFreshSolves) {
  // τ reads the root variable x, so every shape's localization component
  // holds it in every atom (the engine's gate). A non-injective τ merges
  // slices into shared groups; a constant τ makes the whole query a leaf.
  ConjunctiveQuery root = MustParseQuery("Q(x) <- R(x, y), S(x)");
  ConjunctiveQuery product = MustParseQuery("Q(x) <- R(x), S(y), T(z)");
  for (const ConjunctiveQuery& q : {root, product}) {
    for (const ValueFunctionPtr& tau :
         {MakeTauId(0), MakeTauGreaterThan(0, Rational(0)),
          MakeConstantTau(Rational(2))}) {
      DupStructure structure(q, *tau);
      for (uint64_t seed = 1; seed <= 4; ++seed) {
        ExpectVariantsMatchFreshSolves(structure, q, structure.Top(),
                                       MakeDatabase(q, seed),
                                       q.ToString() + " " + tau->ToString());
      }
    }
  }
}

// ScoreAllLeaveOneOut at 1, 2 and 7 threads.
template <typename S>
void ExpectThreadCountInvariant(
    const S& structure, const ConjunctiveQuery& q,
    const typename S::Context& top, const Database& db,
    const std::function<SumKSeries(const typename S::P&)>& series_of) {
  std::vector<std::vector<std::pair<FactId, Rational>>> runs;
  for (int threads : {1, 2, 7}) {
    SolverOptions options;
    options.num_threads = threads;
    runs.push_back(
        ScoreAllLeaveOneOut(structure, q, top, db, series_of, options));
  }
  ASSERT_EQ(runs[0].size(), static_cast<size_t>(db.num_endogenous()));
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[0], runs[2]);
}

TEST(HierarchicalDpTest, ShellIsThreadCountInvariant) {
  for (const Shape& shape : kShapes) {
    ConjunctiveQuery q = MustParseQuery(shape.query);
    ValueFunctionPtr tau = MakeTauId(q.arity() - 1);
    Database db = MakeDatabase(q, 11);
    ExpectThreadCountInvariant(
        SatisfactionStructure(), q.AsBoolean(), {}, db,
        [](const SatisfactionStructure::P& p) {
          Combinatorics local;
          std::vector<BigInt> sat = SatisfactionStructure::Satisfying(p,
                                                                      &local);
          return SumKSeries(sat.begin(), sat.end());
        });
    ExpectThreadCountInvariant(
        AnswerCountStructure(), q, {}, db, [](const AnswerCountMap& p) {
          SumKSeries series;
          for (const auto& [key, count] : p) {
            if (series.size() <= static_cast<size_t>(key.first)) {
              series.resize(static_cast<size_t>(key.first) + 1);
            }
            series[static_cast<size_t>(key.first)] +=
                Rational(key.second) * Rational(count);
          }
          return series;
        });
    MaxRowsStructure max = MaxRowsStructure::Localized(q, *tau, false);
    ExpectThreadCountInvariant(max, q, max.Top(), db,
                               &MaxRowsStructure::Series);
    AggregateQuery a{q, tau, AggregateFunction::Median()};
    BagProfileStructure<CountValue> bags(a, AvgQuantileAnchors(a, db));
    ExpectThreadCountInvariant(
        bags, q, bags.Top(), db,
        [&](const BagProfile<CountValue>& p) { return bags.Series(p); });
    DupStructure dup(q, *tau);
    ExpectThreadCountInvariant(dup, q, dup.Top(), db, &DupStructure::Series);
  }
}

}  // namespace
}  // namespace shapcq
