// Has-duplicates (Dup) over sq-hierarchical CQs (Section 6, Appendix E.2).
//
// Instantiates the generic algorithm (hierarchical_dp.h) with the
// structure of the paper's Figure 5. Once every head variable τ reads is
// bound, all answers of a sub-problem share one τ-value, so the facts fall
// into groups by that value, and the bag has no duplicate iff every group
// realizes its value at most once:
//
//   no-dup_k = [x^k] Π_v (zero_v + one_v),   sum_k(Dup) = C(m, k) − no-dup_k,
//
// where zero_v / one_v count the subsets of group v's facts with exactly 0
// / 1 answers. Slices of a free root variable with equal τ-values merge
// into one group (combine_∪); a disconnected query Q = Q1 × Q2 replicates
// Q1's bag |Q2| times (App. E.2.3), so combine_× keeps only whether each
// side is empty or duplicate-free:
//
//   Dup = (Q1 nonempty ∧ |Q2| ≥ 2)  ∨  (Q1 has duplicates ∧ |Q2| = 1).
//
// The structural requirement actually used is that every head position τ
// depends on occurs in every atom of the localization component: binding
// a root then never disconnects that component before τ's variables are
// all bound, so a cross product happens only at the top of the recursion
// and every fact lands in exactly one τ-value group. For sq-hierarchical
// queries this holds for EVERY localized τ (Theorem 6.1), and for some
// q-hierarchical queries it holds for specific τ — e.g. Dup ∘ τ²_id ∘
// Q^full_xyy of Proposition 7.3(3), which this engine therefore also
// solves. Groups merge by τ-value, not by key tuple, so τ need not be
// injective.

#ifndef SHAPCQ_SHAPLEY_HAS_DUPLICATES_H_
#define SHAPCQ_SHAPLEY_HAS_DUPLICATES_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "shapcq/agg/aggregate.h"
#include "shapcq/agg/value_function.h"
#include "shapcq/data/database.h"
#include "shapcq/query/cq.h"
#include "shapcq/query/decomposition.h"
#include "shapcq/shapley/hierarchical_dp.h"
#include "shapcq/shapley/score.h"
#include "shapcq/shapley/solver_options.h"
#include "shapcq/util/bigint.h"
#include "shapcq/util/combinatorics.h"
#include "shapcq/util/status.h"

namespace shapcq {

// sum_k series for A = Dup ∘ τ ∘ Q. Returns UNSUPPORTED unless the query is
// self-join-free and q-hierarchical, τ is localized, and every τ-relevant
// head variable occurs in every atom of the localization component (always
// true when Q is sq-hierarchical).
StatusOr<SumKSeries> HasDuplicatesSumK(const AggregateQuery& a,
                                       const Database& db,
                                       const SolverOptions& options = {});

// Batched all-facts scorer with the same gates as HasDuplicatesSumK: one
// leave-one-out pass of the hierarchical DP, facts irrelevant to the query
// scoring an exact 0. Shards the per-fact assembly over
// options.num_threads (options.score selects Shapley/Banzhaf); values are
// bitwise-identical to per-fact ScoreViaSumK for every thread count.
StatusOr<std::vector<std::pair<FactId, Rational>>> HasDuplicatesScoreAll(
    const AggregateQuery& a, const Database& db,
    const SolverOptions& options = {});

// One τ-value's group: per size k, the subsets of the group's facts under
// which the value occurs in the bag zero times / exactly once. A group
// made by combine_× stands for the whole product's bag: zero counts the
// empty bags, one the nonempty bags without duplicates.
struct DupGroup {
  std::vector<BigInt> zero;
  std::vector<BigInt> one;

  bool operator==(const DupGroup& other) const {
    return zero == other.zero && one == other.one;
  }
};

// P of the Dup structure: the groups by τ-value, plus the facts that
// affect none of them.
struct DupCounts {
  std::map<Rational, DupGroup> groups;
  int pad = 0;

  bool operator==(const DupCounts& other) const {
    return pad == other.pad && groups == other.groups;
  }
};

// The Dup structure for HierarchicalDp. τ's head variables bind at free
// root splits; a sub-problem with none left unbound is a leaf whose
// answers all carry one τ-value.
class DupStructure {
 public:
  using P = DupCounts;
  struct Context {
    Tuple head;                      // bound head values
    std::vector<std::string> scope;  // τ's head variables still unbound
    bool keyed = true;               // false: a component without them
  };
  static constexpr bool kFreeRootsOnly = true;

  DupStructure(const ConjunctiveQuery& q, const ValueFunction& tau)
      : tau_(tau), head_arity_(q.arity()), key_(q, tau.DependsOn()) {}

  Context Top() const {
    return {Tuple(static_cast<size_t>(head_arity_), Value(0)),
            key_.variables(), true};
  }

  bool IsLeaf(const ConjunctiveQuery&, const Context& ctx) const {
    return ctx.scope.empty();
  }
  // The answer-count distribution, capped at one answer, as the group of
  // τ(head). A component without τ's variables is collapsed by the cross
  // product above it, so its key is never read.
  P Leaf(const ConjunctiveQuery& q, const FactSubset& facts,
         const Context& ctx, Combinatorics* comb) const;
  Context Bind(const Context& ctx, const std::string& x,
               const Value& a) const {
    Context child = ctx;
    key_.BindHead(x, a, &child.scope, &child.head);
    return child;
  }
  Context Component(const Context& ctx, const ConjunctiveQuery& sub_q,
                    bool) const {
    std::vector<std::string> scope = KeyScope::Within(ctx.scope, sub_q);
    const bool keyed = !scope.empty();
    return {ctx.head, std::move(scope), keyed};
  }
  P Empty(const Context&) const { return {}; }
  // combine_∪ at a free root: disjoint answer sets, so equal τ-values
  // merge — none twice iff neither side has it twice nor both once.
  P Union(const P& lhs, const P& rhs, Combinatorics* comb) const;
  // combine_×: one group for the product's bag.
  P Cross(const P& lhs, const P& rhs, Combinatorics* comb) const;
  P Pad(const P& p, int pad, Combinatorics*) const {
    P out = p;
    out.pad += pad;
    return out;
  }

  // sum_k series: per size k, the subsets whose bag has a duplicate
  // (length m + 1).
  static SumKSeries Series(const P& p);

 private:
  const ValueFunction& tau_;
  int head_arity_;
  KeyScope key_;
};

class EngineRegistry;

// Registers the "has-duplicates/sq-hierarchical-dp" provider (with the
// batched scorer).
void RegisterHasDuplicatesEngine(EngineRegistry& registry);

}  // namespace shapcq

#endif  // SHAPCQ_SHAPLEY_HAS_DUPLICATES_H_
