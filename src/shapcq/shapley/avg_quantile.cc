#include "shapcq/shapley/avg_quantile.h"

#include <utility>
#include <vector>

#include "shapcq/shapley/avg_quantile_dp.h"
#include "shapcq/shapley/engine_registry.h"
#include "shapcq/shapley/hierarchical_dp.h"
#include "shapcq/util/check.h"

namespace shapcq {

QuantilePositions::QuantilePositions(const Rational& q, int64_t size) {
  SHAPCQ_CHECK(size >= 1);
  Rational qn = q * Rational(size);
  first = qn.Ceil().ToInt64();                     // ⌈q·|B|⌉
  second = (qn + Rational(1)).Floor().ToInt64();   // ⌊q·|B|+1⌋
}

Rational QuantileContribution(const Rational& q, int64_t less, int64_t equal,
                              int64_t greater) {
  int64_t total = less + equal + greater;
  if (total == 0 || equal == 0) return Rational(0);
  return Rational(QuantilePositions(q, total).TwiceContribution(less, equal),
                  2);
}

StatusOr<SumKSeries> AvgQuantileSumK(const AggregateQuery& a,
                                     const Database& db,
                                     const SolverOptions& /*options*/) {
  return AvgQuantileSumKWith<CountValue>(a, db);
}

StatusOr<std::vector<std::pair<FactId, Rational>>> AvgQuantileScoreAll(
    const AggregateQuery& a, const Database& db,
    const SolverOptions& options) {
  Status shape = CheckAvgQuantileShape(a);
  if (!shape.ok()) return shape;
  // F_f has exactly D's facts, hence D's answers and anchors, so one
  // anchor vector serves every variant of the leave-one-out pass.
  std::vector<Rational> anchors = AvgQuantileAnchors(a, db);
  if (anchors.empty()) {
    // No answers over the full database: every F/G series is zero.
    std::vector<std::pair<FactId, Rational>> scores;
    for (FactId f : db.EndogenousFacts()) scores.emplace_back(f, Rational());
    return scores;
  }
  using Structure = BagProfileStructure<CountValue>;
  Structure structure(a, std::move(anchors));
  return ScoreAllLeaveOneOut(
      structure, a.query, structure.Top(), db,
      [&](const Structure::P& p) { return structure.Series(p); }, options);
}

void RegisterAvgQuantileEngine(EngineRegistry& registry) {
  EngineProvider provider;
  provider.name = "avg-quantile/q-hierarchical-dp";
  provider.priority = 10;
  provider.applies = [](const AggregateQuery& a) {
    return a.alpha.kind() == AggKind::kAvg ||
           a.alpha.kind() == AggKind::kQuantile;
  };
  provider.sum_k = AvgQuantileSumK;
  provider.score_all = AvgQuantileScoreAll;
  registry.Register(std::move(provider));
}

}  // namespace shapcq
