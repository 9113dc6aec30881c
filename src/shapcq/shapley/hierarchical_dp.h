// The generic algorithm of the paper's Figure 2, written once.
//
// Every exact dynamic program for a hierarchical CQ in this library
// recurses the same way over a (sub-query, fact subset) pair:
//
//   * leaf — the structure solves the sub-problem directly (a ground
//     query, a Boolean one, or one whose τ-value is already fixed);
//   * root split — a root variable x (one occurring in every atom) splits
//     the facts by the value of x; the slices are disjoint sub-databases,
//     merged by combine_∪, and endogenous facts consistent with no value
//     pad the result;
//   * cross product — a disconnected query splits into components over
//     disjoint relations, merged by combine_×.
//
// HierarchicalDp<S> owns that recursion: the leaf / root / cross dispatch,
// binding, covered-fact accounting and padding, and a leave-one-out pass.
// The aggregate supplies only its data structure S (the paper's P), which
// must provide:
//
//   using P;        the structure of one sub-problem;
//   using Context;  what the recursion carries down (bound head values,
//                   the key folded so far); copied per branch;
//   static constexpr bool kFreeRootsOnly;  split only on free root
//                   variables (structures over answer multiplicities need
//                   the slices' answer sets disjoint);
//   bool IsLeaf(q, ctx) const;
//   P Leaf(q, facts, ctx, comb) const;
//   Context Bind(ctx, x, a) const;             ctx of the slice x -> a
//   Context Component(ctx, sub_q, first) const;  ctx of a cross component
//   P Empty(ctx) const;                        zero facts: combine_∪ identity
//   P Union(lhs, rhs, comb) const;             combine_∪
//   P Cross(lhs, rhs, comb) const;             combine_×
//   P Pad(p, pad, comb) const;                 add `pad` facts that never
//                                              affect the query.
//
// Leave-one-out. Next to the structure of the full fact subset, one pass
// yields the structure of every derived database F_f (endogenous fact f
// made exogenous, one coalition size narrower). Each fact lives in at most
// one slice of a root split and exactly one component of a cross product,
// so its variant is prefix ∘ variant ∘ suffix of the combined siblings —
// one or two combines per ancestor instead of a fresh solve. At a leaf
// the variant is the leaf re-solved with the fact's flag flipped on a work
// copy of the database; a fact in no slice pads the split, and its variant
// is the combined structure with one padding fact fewer. Structures count
// subsets with exact integers, so any combine grouping yields the
// identical structure. All n variants are resident at once (O(n²) counts
// at the top node).
//
// The batched all-facts shell (ScoreAllLeaveOneOut) turns one pass into
// every fact's score: G_f (f removed) follows from the partition identity
//
//   sum_k(A, D) = sum_k(A, G_f) + sum_{k−1}(A, F_f)
//
// (split the k-subsets of D_n by membership of f), so no G solve runs.

#ifndef SHAPCQ_SHAPLEY_HIERARCHICAL_DP_H_
#define SHAPCQ_SHAPLEY_HIERARCHICAL_DP_H_

#include <algorithm>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "shapcq/data/database.h"
#include "shapcq/query/cq.h"
#include "shapcq/query/decomposition.h"
#include "shapcq/shapley/score.h"
#include "shapcq/shapley/solver_options.h"
#include "shapcq/util/check.h"
#include "shapcq/util/combinatorics.h"
#include "shapcq/util/parallel.h"

namespace shapcq {

// The structure of a fact subset plus, for every endogenous fact f in it,
// the structure with f exogenous.
template <typename P>
struct LeaveOneOut {
  P full;
  std::unordered_map<FactId, P> minus;
};

// Base of the structures whose recursion carries no context.
struct ContextFreeStructure {
  struct Context {};
  Context Bind(const Context&, const std::string&, const Value&) const {
    return {};
  }
  Context Component(const Context&, const ConjunctiveQuery&, bool) const {
    return {};
  }
};

// The head variables a keyed structure's key reads, each with its head
// positions (one entry per position). Structures carry the unbound ones
// down the recursion and bind them at root splits.
class KeyScope {
 public:
  KeyScope(const ConjunctiveQuery& q, const std::vector<int>& positions) {
    for (int position : positions) {
      const std::string& variable = q.head()[static_cast<size_t>(position)];
      std::vector<int>& of_var = positions_[variable];
      if (of_var.empty()) variables_.push_back(variable);
      of_var.push_back(position);
    }
  }

  const std::vector<std::string>& variables() const { return variables_; }

  // Binds x: erases it from `unbound` and returns its head positions; null
  // when x is not an unbound key variable.
  const std::vector<int>* Bind(const std::string& x,
                               std::vector<std::string>* unbound) const {
    auto it = std::find(unbound->begin(), unbound->end(), x);
    if (it == unbound->end()) return nullptr;
    unbound->erase(it);
    return &positions_.at(x);
  }

  // Bind, then writes a at x's head positions of `head`.
  void BindHead(const std::string& x, const Value& a,
                std::vector<std::string>* unbound, Tuple* head) const {
    if (const std::vector<int>* positions = Bind(x, unbound)) {
      for (int position : *positions) {
        (*head)[static_cast<size_t>(position)] = a;
      }
    }
  }

  // The unbound key variables that occur in a cross-product component.
  static std::vector<std::string> Within(
      const std::vector<std::string>& unbound, const ConjunctiveQuery& sub_q) {
    std::vector<std::string> out;
    for (const std::string& variable : unbound) {
      if (sub_q.HasVariable(variable)) out.push_back(variable);
    }
    return out;
  }

 private:
  std::vector<std::string> variables_;
  std::unordered_map<std::string, std::vector<int>> positions_;
};

template <typename S>
class HierarchicalDp {
 public:
  using P = typename S::P;
  using Context = typename S::Context;

  HierarchicalDp(const S& structure, Combinatorics* comb)
      : s_(structure), comb_(comb) {}

  // The structure of `facts` (all matching their atoms of q).
  P Solve(const ConjunctiveQuery& q, const FactSubset& facts,
          const Context& ctx) const {
    return Recurse(q, facts, ctx, nullptr).full;
  }

  // Solve plus every endogenous fact's F-variant. `facts` must point into
  // `work`, on which leaf variants flip flags; every flag is restored.
  LeaveOneOut<P> SolveLeaveOneOut(const ConjunctiveQuery& q,
                                  const FactSubset& facts, const Context& ctx,
                                  Database* work) const {
    SHAPCQ_CHECK(facts.db == work);
    return Recurse(q, facts, ctx, work);
  }

 private:
  using Combine = P (S::*)(const P&, const P&, Combinatorics*) const;

  // Node of the recursion; variants only when `work` is set.
  LeaveOneOut<P> Recurse(const ConjunctiveQuery& q, const FactSubset& facts,
                         const Context& ctx, Database* work) const {
    if (s_.IsLeaf(q, ctx)) return LeafNode(q, facts, ctx, work);
    for (const std::string& x : RootVariables(q)) {
      if (!S::kFreeRootsOnly || q.IsFreeVariable(x)) {
        return RootNode(q, x, facts, ctx, work);
      }
    }
    return CrossNode(q, facts, ctx, work);
  }

  LeaveOneOut<P> LeafNode(const ConjunctiveQuery& q, const FactSubset& facts,
                          const Context& ctx, Database* work) const {
    LeaveOneOut<P> out{s_.Leaf(q, facts, ctx, comb_), {}};
    if (work == nullptr) return out;
    for (FactId f : facts.EndogenousFacts()) {
      work->SetEndogenous(f, false);
      out.minus.emplace(f, s_.Leaf(q, facts, ctx, comb_));
      work->SetEndogenous(f, true);
    }
    return out;
  }

  LeaveOneOut<P> RootNode(const ConjunctiveQuery& q, const std::string& x,
                          const FactSubset& facts, const Context& ctx,
                          Database* work) const {
    std::vector<LeaveOneOut<P>> slices;
    int covered_endogenous = 0;
    for (const Value& a : CandidateValues(q, x, facts)) {
      FactSubset sub{facts.db, FactsConsistentWith(q, x, a, facts)};
      covered_endogenous += sub.CountEndogenous();
      slices.push_back(Recurse(q.Bind(x, a), sub, s_.Bind(ctx, x, a), work));
    }
    const int pad = facts.CountEndogenous() - covered_endogenous;
    SHAPCQ_CHECK(pad >= 0);
    // With no slice at all every fact pads the empty structure.
    LeaveOneOut<P> out =
        slices.empty() ? LeaveOneOut<P>{s_.Empty(ctx), {}}
                       : Merge(std::move(slices), &S::Union, work != nullptr);
    for (auto& [f, variant] : out.minus) {
      variant = s_.Pad(std::move(variant), pad, comb_);
    }
    if (work != nullptr && pad > 0) {
      for (FactId f : facts.EndogenousFacts()) {
        if (out.minus.count(f) == 0) {
          out.minus.emplace(f, s_.Pad(out.full, pad - 1, comb_));
        }
      }
    }
    out.full = s_.Pad(std::move(out.full), pad, comb_);
    return out;
  }

  LeaveOneOut<P> CrossNode(const ConjunctiveQuery& q, const FactSubset& facts,
                           const Context& ctx, Database* work) const {
    std::vector<std::vector<int>> components = ConnectedComponents(q);
    SHAPCQ_CHECK(components.size() > 1 &&
                 "a connected non-leaf hierarchical sub-query must have a "
                 "root variable");
    std::vector<LeaveOneOut<P>> parts;
    int covered_endogenous = 0;
    for (size_t i = 0; i < components.size(); ++i) {
      ConjunctiveQuery sub_q = q.Project(components[i], nullptr);
      FactSubset sub = FactsOfQueryRelations(sub_q, facts);
      covered_endogenous += sub.CountEndogenous();
      parts.push_back(
          Recurse(sub_q, sub, s_.Component(ctx, sub_q, i == 0), work));
    }
    // Components cover every atom, hence every fact of q's relations.
    SHAPCQ_CHECK(covered_endogenous == facts.CountEndogenous());
    return Merge(std::move(parts), &S::Cross, work != nullptr);
  }

  // Folds the (non-empty) children left to right; with `variants`, each
  // child's variants become prefix ∘ variant ∘ suffix.
  LeaveOneOut<P> Merge(std::vector<LeaveOneOut<P>> children, Combine combine,
                       bool variants) const {
    const size_t count = children.size();
    // prefix[i] folds children [0, i]; suffix[i] folds (i, count).
    std::vector<P> prefix(count);
    prefix[0] = std::move(children[0].full);
    for (size_t i = 1; i < count; ++i) {
      prefix[i] = (s_.*combine)(prefix[i - 1], children[i].full, comb_);
      if (!variants) prefix[i - 1] = P();  // only the running fold is needed
    }
    LeaveOneOut<P> out{std::move(prefix[count - 1]), {}};
    if (!variants) return out;
    std::vector<P> suffix(count);
    for (size_t i = count - 1; i-- > 0;) {
      suffix[i] = i + 2 == count ? std::move(children[i + 1].full)
                                 : (s_.*combine)(children[i + 1].full,
                                                 suffix[i + 1], comb_);
    }
    for (size_t i = 0; i < count; ++i) {
      for (auto& [f, variant] : children[i].minus) {
        P combined = std::move(variant);
        if (i > 0) combined = (s_.*combine)(prefix[i - 1], combined, comb_);
        if (i + 1 < count) {
          combined = (s_.*combine)(combined, suffix[i], comb_);
        }
        out.minus.emplace(f, std::move(combined));
      }
      // Child i's siblings are no longer needed: release them early, the
      // variants of the top node are what peaks.
      children[i].minus.clear();
      if (i > 0) prefix[i - 1] = P();
      suffix[i] = P();
    }
    return out;
  }

  const S& s_;
  Combinatorics* comb_;
};

// The structure of all of db's facts for the top-level query `q`: facts
// irrelevant to q pad the structure of the relevant ones.
template <typename S>
typename S::P SolveWholeDatabase(const S& structure, const ConjunctiveQuery& q,
                                 const typename S::Context& top,
                                 const Database& db, Combinatorics* comb) {
  RelevanceSplit split = SplitRelevantIndexed(q, db);
  HierarchicalDp<S> dp(structure, comb);
  return structure.Pad(dp.Solve(q, split.relevant, top),
                       split.irrelevant_endogenous, comb);
}

// The batched all-facts shell: one leave-one-out pass over the facts
// relevant to `q`, then every endogenous fact's score, one entry per fact
// ascending by FactId. `series_of` maps a padded structure over m facts to
// its sum_k series (length m + 1).
//  * F_f has exactly D's facts, so it shares D's relevance split; its
//    structure is the pass's variant, padded like the full one.
//  * G_f follows from the partition identity — exact rational subtraction
//    on canonical forms, so no G solve runs at all.
//  * Facts irrelevant to q leave every answer set unchanged, so their F
//    and G series coincide and the score is an exact 0.
// The score weights are built once per call. Per-fact assembly shards over
// contiguous fact chunks with worker-private binomial caches; slot i holds
// the i-th endogenous fact, so values do not depend on options.num_threads.
template <typename S>
std::vector<std::pair<FactId, Rational>> ScoreAllLeaveOneOut(
    const S& structure, const ConjunctiveQuery& q,
    const typename S::Context& top, const Database& db,
    const std::function<SumKSeries(const typename S::P&)>& series_of,
    const SolverOptions& options) {
  const std::vector<FactId> endo = db.EndogenousFacts();
  const int n = db.num_endogenous();
  std::vector<std::pair<FactId, Rational>> scores(endo.size());
  for (size_t i = 0; i < endo.size(); ++i) scores[i].first = endo[i];
  if (n == 0) return scores;
  const RelevanceSplit split = SplitRelevantIndexed(q, db);
  const int pad = split.irrelevant_endogenous;
  Database work = db;
  FactSubset relevant{&work, split.relevant.facts};
  Combinatorics comb;
  LeaveOneOut<typename S::P> loo =
      HierarchicalDp<S>(structure, &comb)
          .SolveLeaveOneOut(q, relevant, top, &work);
  const SumKSeries full_series =
      series_of(structure.Pad(std::move(loo.full), pad, &comb));
  SHAPCQ_CHECK(static_cast<int>(full_series.size()) == n + 1);
  const ScoreWeights weights(n, options.score);
  const int num_chunks =
      EffectiveThreadCount(options.num_threads, static_cast<int64_t>(n));
  ParallelFor(
      num_chunks,
      [&](int64_t c) {
        const auto [begin, end] =
            ChunkBounds(static_cast<int64_t>(endo.size()), num_chunks, c);
        Combinatorics worker_comb;
        for (int64_t i = begin; i < end; ++i) {
          auto it = loo.minus.find(endo[static_cast<size_t>(i)]);
          if (it == loo.minus.end()) continue;  // irrelevant: exact 0
          SumKSeries series_f =
              series_of(structure.Pad(it->second, pad, &worker_comb));
          SumKSeries series_g =
              RemovedSeriesFromIdentity(full_series, series_f);
          scores[static_cast<size_t>(i)].second =
              ScoreFromSumK(series_f, series_g, weights);
        }
      },
      num_chunks);
  return scores;
}

}  // namespace shapcq

#endif  // SHAPCQ_SHAPLEY_HIERARCHICAL_DP_H_
