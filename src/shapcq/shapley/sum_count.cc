#include "shapcq/shapley/sum_count.h"

#include <unordered_map>
#include <utility>
#include <vector>

#include "shapcq/hierarchy/classification.h"
#include "shapcq/query/decomposition.h"
#include "shapcq/query/evaluator.h"
#include "shapcq/shapley/dp_util.h"
#include "shapcq/shapley/engine_registry.h"
#include "shapcq/shapley/hierarchical_dp.h"
#include "shapcq/shapley/membership.h"
#include "shapcq/util/check.h"
#include "shapcq/util/combinatorics.h"
#include "shapcq/util/fixed_int.h"
#include "shapcq/util/parallel.h"

namespace shapcq {

namespace {

// The gate of SumCountSumK, shared with the batched scorer so both fail
// identically.
Status CheckSumCountShape(const AggregateQuery& a) {
  if (a.alpha.kind() != AggKind::kSum && a.alpha.kind() != AggKind::kCount) {
    return UnsupportedError("SumCountSumK handles Sum and Count only");
  }
  if (a.query.HasSelfJoin()) {
    return UnsupportedError("SumCountSumK requires a self-join-free CQ");
  }
  if (!IsExistsHierarchical(a.query)) {
    return UnsupportedError("Sum/Count requires an exists-hierarchical CQ: " +
                            a.query.ToString());
  }
  return Status::Ok();
}

// Binds the head variables of `a.query` to `answer`, yielding the Boolean
// query "answer still present". Repeated head variables bind once.
ConjunctiveQuery BindAnswer(const ConjunctiveQuery& q, const Tuple& answer) {
  ConjunctiveQuery q_t = q;
  for (size_t i = 0; i < answer.size(); ++i) {
    const std::string& head_var = q.head()[i];
    if (q_t.IsFreeVariable(head_var)) {
      q_t = q_t.Bind(head_var, answer[i]);
    }
  }
  SHAPCQ_CHECK(q_t.is_boolean());
  return q_t;
}

// acc += part, element-wise; an empty series is zero.
template <typename T>
void AddSeries(std::vector<T>* acc, std::vector<T>&& part) {
  if (part.empty()) return;
  if (acc->empty()) {
    *acc = std::move(part);
    return;
  }
  for (size_t k = 0; k < acc->size(); ++k) (*acc)[k] += part[k];
}

}  // namespace

StatusOr<SumKSeries> SumCountSumK(const AggregateQuery& a, const Database& db,
                                  const SolverOptions& /*options*/) {
  Status shape = CheckSumCountShape(a);
  if (!shape.ok()) return shape;
  int n = db.num_endogenous();
  SumKSeries series(static_cast<size_t>(n) + 1);
  for (const Tuple& answer : Evaluate(a.query, db)) {
    ConjunctiveQuery q_t = BindAnswer(a.query, answer);
    StatusOr<std::vector<BigInt>> counts = SatisfactionCounts(q_t, db);
    if (!counts.ok()) return counts.status();
    Rational weight = a.alpha.kind() == AggKind::kCount
                          ? Rational(1)
                          : a.tau->Evaluate(answer);
    if (weight.is_zero()) continue;
    for (int k = 0; k <= n; ++k) {
      series[static_cast<size_t>(k)] +=
          weight * Rational((*counts)[static_cast<size_t>(k)]);
    }
  }
  return series;
}

StatusOr<std::vector<std::pair<FactId, Rational>>> SumCountScoreAll(
    const AggregateQuery& a, const Database& db,
    const SolverOptions& options) {
  Status shape = CheckSumCountShape(a);
  if (!shape.ok()) return shape;
  const int64_t n = db.num_endogenous();
  std::vector<FactId> endo = db.EndogenousFacts();
  if (n == 0) return std::vector<std::pair<FactId, Rational>>{};

  // Equivalence with the per-fact path (ScoreViaSumK over SumCountSumK):
  // by linearity, Shapley(f) = Σ_t w(t) · ScoreFromSumK(c(Q_t, F_f),
  // c(Q_t, G_f)). Answers of F_f equal the answers of D (same fact set);
  // answers of G_f are a subset, and for the missing ones c(Q_t, G_f) ≡ 0,
  // so iterating over answers of D covers both series. Facts irrelevant to
  // Q_t yield identical F/G counts, hence an exact zero term — they are
  // skipped. All arithmetic is exact, so the reordering is value-preserving.
  //
  // The cheap per-answer work (binding, gates, weights) runs serially so
  // the batch fails on exactly the answer the serial path would; the
  // expensive accumulation shards over contiguous answer chunks below.
  struct AnswerTask {
    ConjunctiveQuery q_t;
    Rational weight;
  };
  std::vector<AnswerTask> tasks;
  for (const Tuple& answer : Evaluate(a.query, db)) {
    ConjunctiveQuery q_t = BindAnswer(a.query, answer);
    // Mirror the SatisfactionCounts gates so the batch fails exactly where
    // the per-fact path would.
    if (q_t.HasSelfJoin()) {
      return UnsupportedError(
          "satisfaction counts require a self-join-free CQ");
    }
    if (!IsAllHierarchical(q_t)) {
      return UnsupportedError(
          "satisfaction counts require a hierarchical CQ: " + q_t.ToString());
    }
    Rational weight = a.alpha.kind() == AggKind::kCount
                          ? Rational(1)
                          : a.tau->Evaluate(answer);
    if (weight.is_zero()) continue;
    tasks.push_back(AnswerTask{std::move(q_t), std::move(weight)});
  }

  // Accumulated per-fact delta series: delta[f][k] =
  //   Σ_t w(t) · (c_k(Q_t, F_f) − c_k(Q_t, G_f)),  k = 0..n−1.
  // Integer answer weights (the common case) accumulate in fixed-width
  // CountValue arithmetic (escaping to BigInt on overflow, still exact);
  // fractional weights go to a separate Rational series. The split keeps
  // gcd normalization and heap allocation out of the hot accumulation loop
  // without changing the exact value of the sum.
  struct DeltaSeries {
    std::vector<CountValue> integral;  // Σ over integer-weight answers
    SumKSeries fractional;             // Σ over fractional-weight answers
  };
  using DeltaMap = std::unordered_map<FactId, DeltaSeries>;

  // Shard the per-answer accumulation: worker c owns the contiguous answer
  // chunk [c·size/C, (c+1)·size/C), a private mutable database copy (the
  // leave-one-out pass flips flags on it), a private Combinatorics cache,
  // and a private delta map. Chunk boundaries depend only on the answer
  // count, never on scheduling.
  const int num_chunks = EffectiveThreadCount(
      options.num_threads, static_cast<int64_t>(tasks.size()));
  std::vector<DeltaMap> chunk_delta(static_cast<size_t>(num_chunks));
  ParallelFor(
      num_chunks,
      [&](int64_t c) {
        const auto [chunk_begin, chunk_end] =
            ChunkBounds(static_cast<int64_t>(tasks.size()), num_chunks, c);
        const size_t begin = static_cast<size_t>(chunk_begin);
        const size_t end = static_cast<size_t>(chunk_end);
        Database work = db;  // leaf variants flip flags on the private copy
        Combinatorics comb;
        const SatisfactionStructure satisfaction{};
        DeltaMap& delta = chunk_delta[static_cast<size_t>(c)];
        for (size_t t = begin; t < end; ++t) {
          const ConjunctiveQuery& q_t = tasks[t].q_t;
          const Rational& weight = tasks[t].weight;
          // Hoisted once per answer: the integral-path weight factor in the
          // fixed-width representation.
          const CountValue weight_cv = weight.is_integer()
                                           ? CountValue(weight.numerator())
                                           : CountValue();
          // Bitset relevance split over dense fact ids via the posting
          // lists — O(matching facts) per answer, not a database scan.
          RelevanceSplit split = SplitRelevantIndexed(q_t, work);
          const int pad = split.irrelevant_endogenous;
          // One leave-one-out pass: the unsatisfying counts u of the
          // relevant facts and u_f of each F_f. With G_f from the
          // partition identity u[k] = u_G[k] + u_f[k−1], the satisfying
          // difference c_k(F_f) − c_k(G_f) is u[k] − u_f[k] − u_f[k−1].
          LeaveOneOut<std::vector<BigInt>> loo =
              HierarchicalDp<SatisfactionStructure>(satisfaction, &comb)
                  .SolveLeaveOneOut(q_t, split.relevant, {}, &work);
          for (auto& [f, minus] : loo.minus) {
            std::vector<BigInt> diff(minus.size());
            for (size_t k = 0; k < diff.size(); ++k) {
              diff[k] = loo.full[k] - minus[k];
              if (k > 0) diff[k] -= minus[k - 1];
            }
            diff = PadCounts(diff, pad, &comb);
            SHAPCQ_CHECK(static_cast<int64_t>(diff.size()) == n);
            DeltaSeries& acc = delta[f];
            if (weight.is_integer()) {
              acc.integral.resize(static_cast<size_t>(n));
              for (size_t k = 0; k < diff.size(); ++k) {
                if (!diff[k].is_zero()) {
                  acc.integral[k].AddProduct(weight_cv, diff[k]);
                }
              }
            } else {
              acc.fractional.resize(static_cast<size_t>(n));
              for (size_t k = 0; k < diff.size(); ++k) {
                if (!diff[k].is_zero()) {
                  acc.fractional[k] += weight * Rational(diff[k]);
                }
              }
            }
          }
        }
      },
      num_chunks);

  // Merge the per-worker maps in chunk (= answer) order. Exact rational /
  // BigInt addition makes the merge value-preserving: any grouping of the
  // same terms produces the same canonical Rational, so the result is
  // bitwise-identical to the serial accumulation for every thread count.
  DeltaMap delta;
  for (DeltaMap& part : chunk_delta) {
    for (auto& [f, d] : part) {
      DeltaSeries& acc = delta[f];
      AddSeries(&acc.integral, std::move(d.integral));
      AddSeries(&acc.fractional, std::move(d.fractional));
    }
  }

  // One set of integer weights over the shared denominator (n! or
  // 2^(n−1)): one normalisation per fact instead of one per (fact, k)
  // term. Per-fact scoring reads the merged map and the weights only —
  // slot i writes fact endo[i], so the fan-out is deterministic.
  const ScoreWeights weights(n, options.score);
  std::vector<std::pair<FactId, Rational>> scores(endo.size());
  ParallelFor(
      static_cast<int64_t>(endo.size()),
      [&](int64_t i) {
        FactId f = endo[static_cast<size_t>(i)];
        Rational score;
        auto it = delta.find(f);
        if (it != delta.end()) {
          const DeltaSeries& d = it->second;
          WeightedSum sum(weights);
          for (size_t k = 0; k < d.integral.size(); ++k) {
            if (!d.integral[k].is_zero()) sum.Add(k, d.integral[k]);
          }
          for (size_t k = 0; k < d.fractional.size(); ++k) {
            if (!d.fractional[k].is_zero()) sum.Add(k, d.fractional[k]);
          }
          score = sum.Result();
        }
        scores[static_cast<size_t>(i)] = {f, std::move(score)};
      },
      options.num_threads);
  return scores;
}

void RegisterSumCountEngine(EngineRegistry& registry) {
  EngineProvider provider;
  provider.name = "sum-count/linearity";
  provider.priority = 10;
  provider.applies = [](const AggregateQuery& a) {
    return a.alpha.kind() == AggKind::kSum ||
           a.alpha.kind() == AggKind::kCount;
  };
  provider.sum_k = SumCountSumK;
  provider.score_all = SumCountScoreAll;
  registry.Register(std::move(provider));
}

}  // namespace shapcq
