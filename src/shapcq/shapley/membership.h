// Satisfaction-count dynamic program for Boolean hierarchical CQs.
//
// For a Boolean self-join-free hierarchical CQ Q and a database D, computes
//
//   c_k = #{ E ⊆ D_n, |E| = k : Q(E ∪ D_x) is true },   k = 0..|D_n|,
//
// by the hierarchical recursion of hierarchical_dp.h (root-variable split
// / cross product / ground base case) — the algorithm of Livshits,
// Bertossi, Kimelfeld and Sebag underlying the paper's Theorem 3.1 and
// reused by the CDist reduction (Lemma 4.3) and the Sum/Count engine.
//
// The Shapley value of a fact for *membership* (the Boolean query as a 0/1
// utility) follows from the counts of F (f exogenous) and G (f removed).

#ifndef SHAPCQ_SHAPLEY_MEMBERSHIP_H_
#define SHAPCQ_SHAPLEY_MEMBERSHIP_H_

#include <string>
#include <vector>

#include "shapcq/data/database.h"
#include "shapcq/query/cq.h"
#include "shapcq/query/decomposition.h"
#include "shapcq/shapley/dp_util.h"
#include "shapcq/shapley/hierarchical_dp.h"
#include "shapcq/shapley/score.h"
#include "shapcq/util/bigint.h"
#include "shapcq/util/combinatorics.h"
#include "shapcq/util/status.h"

namespace shapcq {

// The satisfaction-count structure for HierarchicalDp. P holds the
// complements — per size k, the k-subsets that do NOT satisfy the query —
// so that combine_∪, a disjunction over disjoint slices, is a single
// convolution; combine_× (a conjunction) multiplies satisfying counts.
class SatisfactionStructure : public ContextFreeStructure {
 public:
  using P = std::vector<BigInt>;  // unsatisfying counts, length m + 1
  static constexpr bool kFreeRootsOnly = false;

  bool IsLeaf(const ConjunctiveQuery& q, const Context&) const {
    return IsGround(q);
  }
  // All atoms ground: Q holds iff every atom's fact is present.
  P Leaf(const ConjunctiveQuery& q, const FactSubset& facts, const Context&,
         Combinatorics* comb) const;
  P Empty(const Context&) const { return {BigInt(1)}; }
  P Union(const P& lhs, const P& rhs, Combinatorics*) const {
    return Convolve(lhs, rhs);
  }
  P Cross(const P& lhs, const P& rhs, Combinatorics* comb) const;
  P Pad(const P& p, int pad, Combinatorics* comb) const {
    return PadCounts(p, pad, comb);
  }

  // The satisfying counts C(m, k) − unsat[k].
  static std::vector<BigInt> Satisfying(const P& unsat, Combinatorics* comb);
};

// Counts over ALL endogenous facts of `db` (irrelevant facts pad the counts
// binomially). Requires: q Boolean (or treated as Boolean), self-join-free,
// hierarchical w.r.t. all its variables. Returns UNSUPPORTED otherwise.
StatusOr<std::vector<BigInt>> SatisfactionCounts(const ConjunctiveQuery& q,
                                                 const Database& db);

// Low-level entry point used by the per-aggregate dynamic programs: counts
// over exactly the endogenous facts of `facts`, which must all match their
// atom of `q` (no relevance splitting, no padding). `q` is treated as
// Boolean and must be self-join-free and hierarchical; aborts otherwise.
std::vector<BigInt> SatisfactionCountsOnSubset(const ConjunctiveQuery& q,
                                               const FactSubset& facts,
                                               Combinatorics* comb);

// Shapley/Banzhaf value of `fact` for the Boolean membership game of `q`.
StatusOr<Rational> MembershipScore(const ConjunctiveQuery& q,
                                   const Database& db, FactId fact,
                                   ScoreKind kind = ScoreKind::kShapley);

// The paper's original "membership" task (Figure 1, outermost box): the
// contribution of `fact` to a specific answer tuple of a non-Boolean query.
// Binds the head of `q` to `answer` and scores the resulting Boolean game;
// polynomial exactly when q is ∃-hierarchical. `answer` must have arity
// ar(q).
StatusOr<Rational> AnswerMembershipScore(const ConjunctiveQuery& q,
                                         const Database& db,
                                         const Tuple& answer, FactId fact,
                                         ScoreKind kind = ScoreKind::kShapley);

}  // namespace shapcq

#endif  // SHAPCQ_SHAPLEY_MEMBERSHIP_H_
