#include "shapcq/shapley/avg_quantile.h"

#include <utility>
#include <vector>

#include "shapcq/shapley/avg_quantile_dp.h"
#include "shapcq/shapley/engine_registry.h"
#include "shapcq/shapley/hierarchical_dp.h"

namespace shapcq {

Rational QuantileContribution(const Rational& q, int64_t less, int64_t equal,
                              int64_t greater) {
  int64_t total = less + equal + greater;
  if (total == 0 || equal == 0) return Rational(0);
  Rational qn = q * Rational(total);
  int64_t i1 = qn.Ceil().ToInt64();                   // ⌈q·|B|⌉
  int64_t i2 = (qn + Rational(1)).Floor().ToInt64();  // ⌊q·|B|+1⌋
  Rational contribution;
  if (less < i1 && less + equal >= i1) contribution += Rational(1);
  if (less < i2 && less + equal >= i2) contribution += Rational(1);
  return contribution / Rational(2);
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
  Structure structure(a.query, *a.tau, std::move(anchors));
  return ScoreAllLeaveOneOut(
      structure, a.query, structure.Top(), db,
      [&](const Structure::P& p) { return structure.Series(p, a.alpha); },
      options);
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
