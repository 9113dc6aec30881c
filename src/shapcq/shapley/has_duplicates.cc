#include "shapcq/shapley/has_duplicates.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "shapcq/hierarchy/classification.h"
#include "shapcq/shapley/answer_counts.h"
#include "shapcq/shapley/dp_util.h"
#include "shapcq/shapley/engine_registry.h"

namespace shapcq {

namespace {

// All groups and padding folded: per size k, the subsets with a nonempty
// bag, and those among them whose bag has no duplicate.
struct Collapsed {
  std::vector<BigInt> nonempty;
  std::vector<BigInt> clean;
};

Collapsed Collapse(const DupCounts& p, Combinatorics* comb) {
  std::vector<BigInt> zero = {BigInt(1)};
  std::vector<BigInt> no_dup = {BigInt(1)};
  for (const auto& [value, group] : p.groups) {
    std::vector<BigInt> at_most_once = group.zero;
    AddInto(&at_most_once, group.one);
    zero = Convolve(zero, group.zero);
    no_dup = Convolve(no_dup, at_most_once);
  }
  zero = PadCounts(zero, p.pad, comb);
  no_dup = PadCounts(no_dup, p.pad, comb);
  const int m = static_cast<int>(zero.size()) - 1;
  return {SubtractCounts(comb->BinomialRow(m), zero),
          SubtractCounts(no_dup, zero)};
}

// The gates of the engine, shared by both entry points so the batch fails
// exactly where the per-fact path would.
Status CheckDupShape(const AggregateQuery& a) {
  if (a.alpha.kind() != AggKind::kHasDuplicates) {
    return UnsupportedError("HasDuplicatesSumK handles Dup only");
  }
  if (a.query.HasSelfJoin()) {
    return UnsupportedError("Dup requires a self-join-free CQ");
  }
  if (!IsQHierarchical(a.query)) {
    return UnsupportedError(
        "Dup requires (at least) a q-hierarchical CQ: " + a.query.ToString());
  }
  const std::vector<int> localization = LocalizationAtoms(a.query, *a.tau);
  if (localization.empty()) {
    return UnsupportedError("value function is not localized on any atom of " +
                            a.query.ToString());
  }
  // Every atom of the localization component must hold all of τ's
  // variables, i.e. be a localization atom itself: a component holds
  // either only localization atoms or none.
  for (const std::vector<int>& component : ConnectedComponents(a.query)) {
    const size_t localized = static_cast<size_t>(std::count_if(
        component.begin(), component.end(), [&](int atom) {
          return std::count(localization.begin(), localization.end(), atom);
        }));
    if (localized != 0 && localized != component.size()) {
      return UnsupportedError(
          "Dup requires every tau-relevant head variable in every atom of "
          "the localization component (guaranteed for sq-hierarchical CQs): " +
          a.query.ToString());
    }
  }
  return Status::Ok();
}

}  // namespace

DupCounts DupStructure::Leaf(const ConjunctiveQuery& q,
                             const FactSubset& facts, const Context& ctx,
                             Combinatorics* comb) const {
  const size_t width = static_cast<size_t>(facts.CountEndogenous()) + 1;
  DupGroup group{std::vector<BigInt>(width), std::vector<BigInt>(width)};
  for (const auto& [key, count] : AnswerCountDistribution(q, facts, comb)) {
    if (key.second == 0) group.zero[static_cast<size_t>(key.first)] = count;
    if (key.second == 1) group.one[static_cast<size_t>(key.first)] = count;
  }
  DupCounts out;
  out.groups.emplace(ctx.keyed ? tau_.Evaluate(ctx.head) : Rational(),
                     std::move(group));
  return out;
}

DupCounts DupStructure::Union(const DupCounts& lhs, const DupCounts& rhs,
                              Combinatorics*) const {
  DupCounts out = lhs;
  out.pad += rhs.pad;
  for (const auto& [value, group] : rhs.groups) {
    auto [it, inserted] = out.groups.try_emplace(value, group);
    if (inserted) continue;
    DupGroup& merged = it->second;
    std::vector<BigInt> one = Convolve(merged.zero, group.one);
    AddInto(&one, Convolve(merged.one, group.zero));
    merged.zero = Convolve(merged.zero, group.zero);
    merged.one = std::move(one);
  }
  return out;
}

DupCounts DupStructure::Cross(const DupCounts& lhs, const DupCounts& rhs,
                              Combinatorics* comb) const {
  const Collapsed a = Collapse(lhs, comb);
  const Collapsed b = Collapse(rhs, comb);
  const int m = static_cast<int>(a.nonempty.size() + b.nonempty.size()) - 2;
  // The product is nonempty iff both sides are, and then duplicate-free
  // iff both sides are (a side with two answers replicates the other's
  // bag).
  DupGroup product{
      SubtractCounts(comb->BinomialRow(m), Convolve(a.nonempty, b.nonempty)),
      Convolve(a.clean, b.clean)};
  // Under the engine's gate a cross product happens only at the top of the
  // recursion, so this group never meets another one.
  DupCounts out;
  out.groups.emplace(Rational(), std::move(product));
  return out;
}

SumKSeries DupStructure::Series(const DupCounts& p) {
  Combinatorics comb;
  const Collapsed collapsed = Collapse(p, &comb);
  const std::vector<BigInt> counts =
      SubtractCounts(collapsed.nonempty, collapsed.clean);
  return SumKSeries(counts.begin(), counts.end());
}

StatusOr<SumKSeries> HasDuplicatesSumK(const AggregateQuery& a,
                                       const Database& db,
                                       const SolverOptions& /*options*/) {
  Status shape = CheckDupShape(a);
  if (!shape.ok()) return shape;
  DupStructure structure(a.query, *a.tau);
  Combinatorics comb;
  return DupStructure::Series(
      SolveWholeDatabase(structure, a.query, structure.Top(), db, &comb));
}

StatusOr<std::vector<std::pair<FactId, Rational>>> HasDuplicatesScoreAll(
    const AggregateQuery& a, const Database& db,
    const SolverOptions& options) {
  Status shape = CheckDupShape(a);
  if (!shape.ok()) return shape;
  DupStructure structure(a.query, *a.tau);
  return ScoreAllLeaveOneOut(structure, a.query, structure.Top(), db,
                             &DupStructure::Series, options);
}

void RegisterHasDuplicatesEngine(EngineRegistry& registry) {
  EngineProvider provider;
  provider.name = "has-duplicates/sq-hierarchical-dp";
  provider.priority = 10;
  provider.applies = [](const AggregateQuery& a) {
    return a.alpha.kind() == AggKind::kHasDuplicates;
  };
  provider.sum_k = HasDuplicatesSumK;
  provider.score_all = HasDuplicatesScoreAll;
  registry.Register(std::move(provider));
}

}  // namespace shapcq
