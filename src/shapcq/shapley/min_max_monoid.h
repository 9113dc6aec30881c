// Min/Max with NON-localized monotone-monoid value functions (Section 7.3).
//
// The paper observes that the all-hierarchical Min/Max algorithm extends
// beyond localized τ when τ is a fold x_{p1} ⊗ x_{p2} ⊗ ... of numeric head
// variables under a monotone (non-decreasing) monoid ⊗ — e.g.
// Max(x1 + x2) or Max(max(x1, x2)) over a cross product — because
//
//   max over Q1 × Q2 of (v1 ⊗ v2) = (max v1) ⊗ (max v2),
//
// so cross products combine by a ⊗-convolution of per-side maxima instead
// of requiring the whole value inside one atom. (The same section shows
// that SOME restriction on τ is necessary: a poly-time but non-monotone τ
// makes even Max over a Cartesian product FP^#P-hard.) This module
// implements that extension, promised by the paper for its extended
// version, on the keyed-rows Max structure of min_max.h.

#ifndef SHAPCQ_SHAPLEY_MIN_MAX_MONOID_H_
#define SHAPCQ_SHAPLEY_MIN_MAX_MONOID_H_

#include <utility>
#include <vector>

#include "shapcq/agg/value_function.h"
#include "shapcq/data/database.h"
#include "shapcq/query/cq.h"
#include "shapcq/shapley/min_max.h"
#include "shapcq/shapley/score.h"
#include "shapcq/shapley/solver_options.h"
#include "shapcq/util/status.h"

namespace shapcq {

// τ(t) = t[p1] ⊗ t[p2] ⊗ ... over the given (possibly non-localized) head
// positions; used for evaluation and brute-force cross-checks.
ValueFunctionPtr MakeMonoidTau(MonoidKind kind, std::vector<int> positions);

// sum_k series for Max ∘ (⊗ over positions) ∘ Q (is_max) or the dual
// Min ∘ (⊗ over positions) ∘ Q. Requirements: Q self-join-free and
// all-hierarchical; positions non-empty head indices (INVALID_ARGUMENT
// otherwise); for Max the monoid must be non-decreasing (kPlus or kMax),
// for Min non-increasing in the dual sense (kPlus or kMin).
StatusOr<SumKSeries> MonoidMinMaxSumK(const ConjunctiveQuery& q,
                                      MonoidKind kind,
                                      std::vector<int> positions, bool is_max,
                                      const Database& db);

// Batched all-facts scorer for the monoid engine, with the same gates as
// MonoidMinMaxSumK: one leave-one-out pass of the hierarchical DP
// (hierarchical_dp.h), facts irrelevant to the query scoring an exact 0.
// Shards the per-fact assembly over options.num_threads (options.score
// selects Shapley/Banzhaf); values are bitwise-identical to per-fact
// ScoreViaSumK over MonoidMinMaxSumK for every thread count.
StatusOr<std::vector<std::pair<FactId, Rational>>> MinMaxMonoidScoreAll(
    const ConjunctiveQuery& q, MonoidKind kind, std::vector<int> positions,
    bool is_max, const Database& db, const SolverOptions& options = {});

}  // namespace shapcq

#endif  // SHAPCQ_SHAPLEY_MIN_MAX_MONOID_H_
