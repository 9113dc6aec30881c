// Min and Max over all-hierarchical CQs (Section 4.2, Appendix C), and
// their Section 7.3 extension to monotone-monoid value functions
// (min_max_monoid.h).
//
// Instantiates the generic algorithm of Figure 2 (hierarchical_dp.h) with
// the data structure P[Q', D'](a, k) = number of k-subsets E of D'_n such
// that max (τ ∘ Q')(E ∪ D'_x) = a, kept as keyed rows: one row per value a
// some subset attains. combine_∪ composes maxima over disjoint
// sub-databases; combine_× folds the maxima of the components, which is
// sound for a monotone fold (max over Q1 × Q2 of v1 ⊗ v2 is (max v1) ⊗
// (max v2)). A τ localized on an atom is the case where only the component
// holding that atom carries a value: the others only gate by
// non-emptiness. Min runs as Max on negated keys.

#ifndef SHAPCQ_SHAPLEY_MIN_MAX_H_
#define SHAPCQ_SHAPLEY_MIN_MAX_H_

#include <map>
#include <optional>
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
#include "shapcq/util/combinatorics.h"
#include "shapcq/util/status.h"

namespace shapcq {

// sum_k series for A = Min ∘ τ ∘ Q or Max ∘ τ ∘ Q. Returns UNSUPPORTED
// unless the query is self-join-free and all-hierarchical and τ is
// localized on some atom of Q.
StatusOr<SumKSeries> MinMaxSumK(const AggregateQuery& a, const Database& db,
                                const SolverOptions& options = {});

// Batched all-facts scorer with the same gates as MinMaxSumK: one
// leave-one-out pass of the hierarchical DP (hierarchical_dp.h), facts
// irrelevant to the query scoring an exact 0. Shards the per-fact
// assembly over options.num_threads (options.score selects
// Shapley/Banzhaf); values are bitwise-identical to per-fact ScoreViaSumK
// for every thread count.
StatusOr<std::vector<std::pair<FactId, Rational>>> MinMaxScoreAll(
    const AggregateQuery& a, const Database& db,
    const SolverOptions& options = {});

class EngineRegistry;

// Registers the "min-max/all-hierarchical-dp" provider (with the batched
// scorer).
void RegisterMinMaxEngine(EngineRegistry& registry);

// The supported monotone monoids over rationals (min_max_monoid.h).
enum class MonoidKind {
  kPlus,  // a ⊗ b = a + b   (identity 0; non-decreasing)
  kMax,   // a ⊗ b = max(a,b) (non-decreasing)
  kMin,   // a ⊗ b = min(a,b) (non-increasing: valid for Min aggregation)
};

// The keyed-rows Max structure: per key — the maximum value over the
// sub-problem's answers — the per-size counts of the subsets attaining it.
// Subsets without answers are implicit (C(m, k) − Σ rows). The nullopt
// key belongs to a component that carries no value: its answers only gate.
// All-zero rows are never stored.
struct MaxRows {
  std::map<std::optional<Rational>, std::vector<BigInt>> rows;
  int num_endogenous = 0;

  bool operator==(const MaxRows& other) const {
    return num_endogenous == other.num_endogenous && rows == other.rows;
  }
};

// The Max structure for HierarchicalDp. The key variables (the head
// variables τ reads) bind at root splits; a sub-problem with none left
// unbound is a leaf whose answers all share one key.
class MaxRowsStructure {
 public:
  using P = MaxRows;
  struct Context {
    std::vector<std::string> scope;  // key variables still unbound
    Tuple head;                      // bound head values (localized τ)
    std::optional<Rational> key;     // the key folded so far
  };
  static constexpr bool kFreeRootsOnly = false;

  // τ localized on an atom of q; keys are τ-values, or −τ with `negate`.
  static MaxRowsStructure Localized(const ConjunctiveQuery& q,
                                    const ValueFunction& tau, bool negate);
  // τ(t) = t[p1] ⊗ t[p2] ⊗ ... for a non-decreasing ⊗; with `negate` keys
  // fold the negated values (the Min dual, whose monoid the caller picks).
  static MaxRowsStructure Monoid(const ConjunctiveQuery& q, MonoidKind kind,
                                 const std::vector<int>& positions,
                                 bool negate);

  // The context of the whole query.
  Context Top() const;

  bool IsLeaf(const ConjunctiveQuery&, const Context& ctx) const {
    return ctx.scope.empty();
  }
  // Every answer carries ctx.key: satisfaction counts under that key.
  P Leaf(const ConjunctiveQuery& q, const FactSubset& facts,
         const Context& ctx, Combinatorics* comb) const;
  Context Bind(const Context& ctx, const std::string& x, const Value& a) const;
  // The first component also carries the key folded above the split.
  Context Component(const Context& ctx, const ConjunctiveQuery& sub_q,
                    bool first) const;
  P Empty(const Context&) const { return {}; }
  // combine_∪ (Appendix C): the union's maximum is a iff one side attains
  // a and the other is ≤ a or empty.
  P Union(const P& lhs, const P& rhs, Combinatorics* comb) const;
  // combine_×: keys fold, counts convolve; an empty side empties the
  // product.
  P Cross(const P& lhs, const P& rhs, Combinatorics* comb) const;
  P Pad(const P& p, int pad, Combinatorics* comb) const;

  // sum_k series Σ_key key · count (length m + 1).
  static SumKSeries Series(const P& p);

 private:
  MaxRowsStructure(const ConjunctiveQuery& q, const ValueFunction* tau,
                   MonoidKind kind, const std::vector<int>& positions,
                   bool negate);
  Rational Signed(const Rational& value) const {
    return negate_ ? -value : value;
  }

  const ValueFunction* tau_;  // localized; null for a monoid
  MonoidKind kind_;           // folds keys across components
  bool negate_;
  int head_arity_;
  KeyScope key_;
};

}  // namespace shapcq

#endif  // SHAPCQ_SHAPLEY_MIN_MAX_H_
