#include "shapcq/shapley/answer_counts.h"

#include <vector>

#include "shapcq/shapley/hierarchical_dp.h"
#include "shapcq/shapley/membership.h"

namespace shapcq {

namespace {

// Σ over pairs of entries: key `combine`d, counts multiplied.
template <typename KeyCombine>
AnswerCountMap CombineKeys(const AnswerCountMap& lhs,
                           const AnswerCountMap& rhs, KeyCombine combine) {
  AnswerCountMap out;
  for (const auto& [lk, lcount] : lhs) {
    for (const auto& [rk, rcount] : rhs) {
      out[{lk.first + rk.first, combine(lk.second, rk.second)}] +=
          lcount * rcount;
    }
  }
  return out;
}

}  // namespace

AnswerCountMap AnswerCountStructure::Leaf(const ConjunctiveQuery& q,
                                          const FactSubset& facts,
                                          const Context&,
                                          Combinatorics* comb) const {
  const int m = facts.CountEndogenous();
  std::vector<BigInt> sat = SatisfactionCountsOnSubset(q, facts, comb);
  AnswerCountMap out;
  for (int k = 0; k <= m; ++k) {
    const BigInt& yes = sat[static_cast<size_t>(k)];
    BigInt no = comb->Binomial(m, k) - yes;
    if (!yes.is_zero()) out[{k, 1}] = yes;
    if (!no.is_zero()) out[{k, 0}] = no;
  }
  return out;
}

AnswerCountMap AnswerCountStructure::Union(const AnswerCountMap& lhs,
                                           const AnswerCountMap& rhs,
                                           Combinatorics*) const {
  return CombineKeys(lhs, rhs, [](int l, int r) { return l + r; });
}

AnswerCountMap AnswerCountStructure::Cross(const AnswerCountMap& lhs,
                                           const AnswerCountMap& rhs,
                                           Combinatorics*) const {
  return CombineKeys(lhs, rhs, [](int l, int r) { return l * r; });
}

AnswerCountMap AnswerCountStructure::Pad(const AnswerCountMap& p, int pad,
                                         Combinatorics* comb) const {
  return PadAnswerCounts(p, pad, comb);
}

AnswerCountMap AnswerCountDistribution(const ConjunctiveQuery& q,
                                       const FactSubset& facts,
                                       Combinatorics* comb) {
  AnswerCountStructure structure;
  return HierarchicalDp<AnswerCountStructure>(structure, comb)
      .Solve(q, facts, {});
}

AnswerCountMap PadAnswerCounts(const AnswerCountMap& counts, int pad,
                               Combinatorics* comb) {
  if (pad == 0) return counts;
  AnswerCountMap out;
  for (const auto& [key, count] : counts) {
    for (int extra = 0; extra <= pad; ++extra) {
      out[{key.first + extra, key.second}] +=
          count * comb->Binomial(pad, extra);
    }
  }
  return out;
}

}  // namespace shapcq
