// Answer-count distributions for q-hierarchical CQs.
//
// For a sub-problem (Q', D') of the generic algorithm, computes the map
//
//   N(k, ℓ) = #{ E ⊆ D'_n, |E| = k : |Q'(E ∪ D'_x)| = ℓ },
//
// the "non-R side" data structure of Section 5.1, computed by the
// hierarchical recursion of hierarchical_dp.h. The recursion splits on
// free root variables only (answer sets of the slices are disjoint, so
// sizes add); once the head is fully bound the query is Boolean and the
// distribution collapses to satisfaction counts; cross products multiply
// answer counts. This is exactly where the q-hierarchical property is
// needed: it guarantees a free root variable exists whenever the connected
// query is non-Boolean.

#ifndef SHAPCQ_SHAPLEY_ANSWER_COUNTS_H_
#define SHAPCQ_SHAPLEY_ANSWER_COUNTS_H_

#include <map>
#include <string>
#include <utility>

#include "shapcq/query/cq.h"
#include "shapcq/query/decomposition.h"
#include "shapcq/shapley/hierarchical_dp.h"
#include "shapcq/util/bigint.h"
#include "shapcq/util/combinatorics.h"

namespace shapcq {

// Sparse (k, ℓ) -> count map. Entries with zero counts are absent; for each
// k the entries sum to C(m, k).
using AnswerCountMap = std::map<std::pair<int, int>, BigInt>;

// The answer-count structure for HierarchicalDp.
class AnswerCountStructure : public ContextFreeStructure {
 public:
  using P = AnswerCountMap;
  static constexpr bool kFreeRootsOnly = true;

  bool IsLeaf(const ConjunctiveQuery& q, const Context&) const {
    return q.is_boolean();
  }
  // Boolean sub-query: ℓ ∈ {0, 1}, from satisfaction counts.
  P Leaf(const ConjunctiveQuery& q, const FactSubset& facts, const Context&,
         Combinatorics* comb) const;
  P Empty(const Context&) const { return {{{0, 0}, BigInt(1)}}; }
  // combine_∪ at a free root: disjoint answer sets, sizes add.
  P Union(const P& lhs, const P& rhs, Combinatorics*) const;
  // combine_×: answer counts multiply.
  P Cross(const P& lhs, const P& rhs, Combinatorics*) const;
  P Pad(const P& p, int pad, Combinatorics* comb) const;
};

// Computes the distribution for `q` over the facts of `facts` (which must
// all match their atoms). Requires q self-join-free and q-hierarchical;
// aborts otherwise (callers validate first).
AnswerCountMap AnswerCountDistribution(const ConjunctiveQuery& q,
                                       const FactSubset& facts,
                                       Combinatorics* comb);

// Adds `pad` endogenous facts that never affect answers (k-convolution).
AnswerCountMap PadAnswerCounts(const AnswerCountMap& counts, int pad,
                               Combinatorics* comb);

}  // namespace shapcq

#endif  // SHAPCQ_SHAPLEY_ANSWER_COUNTS_H_
