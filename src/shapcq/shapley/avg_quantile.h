// Avg and Qnt_q over q-hierarchical CQs (Section 5.1, Appendix D).
//
// Instantiates the generic algorithm (hierarchical_dp.h) with the
// quintuple data structure of avg_quantile_dp.h
//
//   P[Q', D'](a, k, ℓ<, ℓ=, ℓ>) = #{ E ∈ (D'_n choose k) :
//       the bag (τ ∘ Q')(E ∪ D'_x) has exactly ℓ= copies of a,
//       ℓ< elements < a and ℓ> elements > a },
//
// for anchors a over the τ-values of the full query's answers. Free root
// variables keep the answer sets of the slices disjoint (the quintuples
// add); cross products multiply the bag by the partner's answer count; the
// "non-R" side uses answer-count distributions (answer_counts.h). The final
// series follow the paper's formulas:
//
//   sum_k(Avg)   = Σ_a Σ_ℓ  a · ℓ= / (ℓ< + ℓ= + ℓ>) · P(a, k, ℓ)
//   sum_k(Qnt_q) = Σ_a Σ_ℓ  a · f_q(ℓ<, ℓ=, ℓ>)      · P(a, k, ℓ).
//
// Proposition 7.3. Avg ∘ τ²_ReLU ∘ Q_xyyz and Med ∘ τ²_>0 ∘ Q_xyyz, with
// Q_xyyz(x, z) <- R(x, y), S(y), T(z), are FP^#P-hard when τ reads the
// first head component (localized on R) but polynomial when it reads the
// last one (localized on T). The query factors as Q = Q1 × Q2 with τ
// localized in Q1, so the bag of Q is Q1's bag replicated |Q2| times, and
// Avg and Median are invariant under uniform replication of the bag:
//
//   A(E) = (α ∘ τ ∘ Q1)(E ∩ D1) · [ Q2(E ∩ D2) ≠ ∅ ].
//
// So a component that the top-level cross product splits off without τ's
// variables (or the whole query, when τ reads none) keeps only the answer
// counts of its Boolean version: all-hierarchy suffices there, and the
// full query may lie outside the q-hierarchical frontier. The rule holds
// only at the top: under a root split, a τ-free component replicates one
// slice's bag, by a factor that differs across slices (Q(x, y, z) <-
// R(x, y), S(x, z) with τ on y), so its answer counts stay. Other
// quantiles keep the q-hierarchical requirement on every component.

#ifndef SHAPCQ_SHAPLEY_AVG_QUANTILE_H_
#define SHAPCQ_SHAPLEY_AVG_QUANTILE_H_

#include <utility>
#include <vector>

#include "shapcq/agg/aggregate.h"
#include "shapcq/data/database.h"
#include "shapcq/shapley/score.h"
#include "shapcq/shapley/solver_options.h"
#include "shapcq/util/status.h"

namespace shapcq {

// sum_k series for A = Avg ∘ τ ∘ Q or Qnt_q ∘ τ ∘ Q. Returns UNSUPPORTED
// unless the query is self-join-free, τ is localized on some atom of Q,
// and every component of Q is q-hierarchical — for Avg and Median, a
// component without τ's variables need only be all-hierarchical (Prop
// 7.3 above). The quintuple counts run on CountValue (fixed-width
// fast path, escaping to BigInt on overflow); arithmetic is exact, so the
// series is bitwise-identical to a pure-BigInt instantiation.
StatusOr<SumKSeries> AvgQuantileSumK(const AggregateQuery& a,
                                     const Database& db,
                                     const SolverOptions& options = {});

// Batched all-facts scorer with the same gates as AvgQuantileSumK: the
// anchors are computed once and one leave-one-out pass of the quintuple
// DP yields every fact's F-variant; query-irrelevant facts score an exact
// 0. Shards the per-fact assembly over options.num_threads (options.score
// selects Shapley/Banzhaf); values are bitwise-identical to per-fact
// ScoreViaSumK for every thread count.
StatusOr<std::vector<std::pair<FactId, Rational>>> AvgQuantileScoreAll(
    const AggregateQuery& a, const Database& db,
    const SolverOptions& options = {});

// The paper's f_q(ℓ<, ℓ=, ℓ>): the contribution (0, 1/2 or 1) of the anchor
// to the q-quantile of a bag with that profile. Exposed for testing.
Rational QuantileContribution(const Rational& q, int64_t less, int64_t equal,
                              int64_t greater);

// The two 1-based positions ⌈q·|B|⌉ and ⌊q·|B|+1⌋ whose elements the
// q-quantile of a bag of |B| = size ≥ 1 elements averages.
struct QuantilePositions {
  QuantilePositions(const Rational& q, int64_t size);
  // 2·f_q(ℓ<, ℓ=, ℓ>) for a bag of this size: how many of the two
  // positions the ℓ= copies of the anchor occupy.
  int TwiceContribution(int64_t less, int64_t equal) const {
    return (less < first && less + equal >= first ? 1 : 0) +
           (less < second && less + equal >= second ? 1 : 0);
  }
  int64_t first;
  int64_t second;
};

class EngineRegistry;

// Registers the "avg-quantile/q-hierarchical-dp" provider (with the
// batched scorer).
void RegisterAvgQuantileEngine(EngineRegistry& registry);

}  // namespace shapcq

#endif  // SHAPCQ_SHAPLEY_AVG_QUANTILE_H_
