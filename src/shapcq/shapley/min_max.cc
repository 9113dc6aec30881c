#include "shapcq/shapley/min_max.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "shapcq/hierarchy/classification.h"
#include "shapcq/shapley/dp_util.h"
#include "shapcq/shapley/engine_registry.h"
#include "shapcq/shapley/hierarchical_dp.h"
#include "shapcq/shapley/membership.h"
#include "shapcq/shapley/min_max_monoid.h"
#include "shapcq/util/check.h"

namespace shapcq {

namespace {

// A partial fold: nullopt is the identity (nothing folded yet).
using PartialValue = std::optional<Rational>;

PartialValue Fold(MonoidKind kind, const PartialValue& a,
                  const PartialValue& b) {
  if (!a.has_value()) return b;
  if (!b.has_value()) return a;
  switch (kind) {
    case MonoidKind::kPlus:
      return *a + *b;
    case MonoidKind::kMax:
      return *a > *b ? a : b;
    case MonoidKind::kMin:
      return *a < *b ? a : b;
  }
  SHAPCQ_UNREACHABLE();
}

bool IsZero(const std::vector<BigInt>& counts) {
  return std::all_of(counts.begin(), counts.end(),
                     [](const BigInt& c) { return c.is_zero(); });
}

// Per size k, the subsets without answers: C(m, k) − Σ rows.
std::vector<BigInt> NoAnswerCounts(const MaxRows& p, Combinatorics* comb) {
  std::vector<BigInt> out = comb->BinomialRow(p.num_endogenous);
  for (const auto& [key, row] : p.rows) {
    for (size_t k = 0; k < out.size(); ++k) out[k] -= row[k];
  }
  return out;
}

// The Max engine over `structure`: the sum_k series of the whole
// database, negated back for the Min dual.
SumKSeries MaxSeries(const MaxRowsStructure& structure,
                     const ConjunctiveQuery& q, const Database& db,
                     bool negate) {
  Combinatorics comb;
  SumKSeries series = MaxRowsStructure::Series(
      SolveWholeDatabase(structure, q, structure.Top(), db, &comb));
  if (negate) {
    for (Rational& value : series) value = -value;
  }
  return series;
}

// Batched scores over `structure`. Min(B) = −Max(−B) and the score is
// linear in the series, so the Min scores are the negated Max scores.
std::vector<std::pair<FactId, Rational>> MaxScores(
    const MaxRowsStructure& structure, const ConjunctiveQuery& q,
    const Database& db, bool negate, const SolverOptions& options) {
  std::vector<std::pair<FactId, Rational>> scores = ScoreAllLeaveOneOut(
      structure, q, structure.Top(), db, &MaxRowsStructure::Series, options);
  if (negate) {
    for (auto& [fact, score] : scores) score = -score;
  }
  return scores;
}

// The gates of the localized engine, shared by both entry points so the
// batch fails exactly where the per-fact path would.
Status CheckMinMaxShape(const AggregateQuery& a) {
  if (a.alpha.kind() != AggKind::kMin && a.alpha.kind() != AggKind::kMax) {
    return UnsupportedError("MinMaxSumK handles Min and Max only");
  }
  if (a.query.HasSelfJoin()) {
    return UnsupportedError("Min/Max requires a self-join-free CQ");
  }
  if (!IsAllHierarchical(a.query)) {
    return UnsupportedError("Min/Max requires an all-hierarchical CQ: " +
                            a.query.ToString());
  }
  if (LocalizationAtoms(a.query, *a.tau).empty()) {
    return UnsupportedError("value function is not localized on any atom of " +
                            a.query.ToString());
  }
  return Status::Ok();
}

// The gates of the monoid engine, shared by both entry points.
Status CheckMonoidShape(const ConjunctiveQuery& q, MonoidKind kind,
                        const std::vector<int>& positions, bool is_max) {
  if (positions.empty()) {
    return InvalidArgumentError("monoid value function needs positions");
  }
  for (int position : positions) {
    if (position < 0 || position >= q.arity()) {
      return InvalidArgumentError("monoid position " +
                                  std::to_string(position) +
                                  " is not a head index of " + q.ToString());
    }
  }
  if (q.HasSelfJoin()) {
    return UnsupportedError("monoid Min/Max requires a self-join-free CQ");
  }
  if (!IsAllHierarchical(q)) {
    return UnsupportedError("monoid Min/Max requires an all-hierarchical CQ: " +
                            q.ToString());
  }
  if (is_max && kind == MonoidKind::kMin) {
    return UnsupportedError("Max aggregation needs a non-decreasing monoid");
  }
  if (!is_max && kind == MonoidKind::kMax) {
    return UnsupportedError("Min aggregation needs a non-increasing monoid");
  }
  return Status::Ok();
}

// Min(⊗ values) = −Max(⊗' negated values): negation keeps + and turns
// min into max.
MaxRowsStructure MonoidStructure(const ConjunctiveQuery& q, MonoidKind kind,
                                 const std::vector<int>& positions,
                                 bool is_max) {
  MonoidKind dual = kind == MonoidKind::kMin ? MonoidKind::kMax : kind;
  return MaxRowsStructure::Monoid(q, is_max ? kind : dual, positions,
                                  /*negate=*/!is_max);
}

}  // namespace

MaxRowsStructure::MaxRowsStructure(const ConjunctiveQuery& q,
                                   const ValueFunction* tau, MonoidKind kind,
                                   const std::vector<int>& positions,
                                   bool negate)
    : tau_(tau),
      kind_(kind),
      negate_(negate),
      head_arity_(q.arity()),
      key_(q, positions) {}

MaxRowsStructure MaxRowsStructure::Localized(const ConjunctiveQuery& q,
                                             const ValueFunction& tau,
                                             bool negate) {
  return MaxRowsStructure(q, &tau, MonoidKind::kMax, tau.DependsOn(), negate);
}

MaxRowsStructure MaxRowsStructure::Monoid(const ConjunctiveQuery& q,
                                          MonoidKind kind,
                                          const std::vector<int>& positions,
                                          bool negate) {
  return MaxRowsStructure(q, nullptr, kind, positions, negate);
}

MaxRowsStructure::Context MaxRowsStructure::Top() const {
  Context ctx{key_.variables(),
              Tuple(static_cast<size_t>(head_arity_), Value(0)), std::nullopt};
  // A τ reading no position has one value for every answer.
  if (tau_ != nullptr && ctx.scope.empty()) {
    ctx.key = Signed(tau_->Evaluate(ctx.head));
  }
  return ctx;
}

MaxRows MaxRowsStructure::Leaf(const ConjunctiveQuery& q,
                               const FactSubset& facts, const Context& ctx,
                               Combinatorics* comb) const {
  std::vector<BigInt> sat = SatisfactionCountsOnSubset(q, facts, comb);
  MaxRows out;
  out.num_endogenous = static_cast<int>(sat.size()) - 1;
  if (!IsZero(sat)) out.rows.emplace(ctx.key, std::move(sat));
  return out;
}

MaxRowsStructure::Context MaxRowsStructure::Bind(const Context& ctx,
                                                 const std::string& x,
                                                 const Value& a) const {
  Context child = ctx;
  const std::vector<int>* positions = key_.Bind(x, &child.scope);
  if (positions == nullptr) return child;
  for (int position : *positions) {
    if (tau_ != nullptr) {
      child.head[static_cast<size_t>(position)] = a;
    } else {
      child.key = Fold(kind_, child.key, Signed(a.AsRational()));
    }
  }
  if (tau_ != nullptr && child.scope.empty()) {
    child.key = Signed(tau_->Evaluate(child.head));
  }
  return child;
}

MaxRowsStructure::Context MaxRowsStructure::Component(
    const Context& ctx, const ConjunctiveQuery& sub_q, bool first) const {
  return {KeyScope::Within(ctx.scope, sub_q), ctx.head,
          first ? ctx.key : std::nullopt};
}

MaxRows MaxRowsStructure::Union(const MaxRows& lhs, const MaxRows& rhs,
                                Combinatorics* comb) const {
  MaxRows out;
  out.num_endogenous = lhs.num_endogenous + rhs.num_endogenous;
  // Per side, the subsets whose maximum is ≤ the current key or that have
  // no answers; before a side's own row is added, < the key.
  std::vector<BigInt> lhs_le = NoAnswerCounts(lhs, comb);
  std::vector<BigInt> rhs_le = NoAnswerCounts(rhs, comb);
  auto l = lhs.rows.begin();
  auto r = rhs.rows.begin();
  while (l != lhs.rows.end() || r != rhs.rows.end()) {
    const bool at_l =
        l != lhs.rows.end() && (r == rhs.rows.end() || l->first <= r->first);
    const bool at_r =
        r != rhs.rows.end() && (l == lhs.rows.end() || r->first <= l->first);
    const PartialValue& key = at_l ? l->first : r->first;
    std::vector<BigInt> row(static_cast<size_t>(out.num_endogenous) + 1);
    if (at_r) AddInto(&rhs_le, r->second);
    // max = key: (lhs = key, rhs ≤ key or empty) or (lhs < key or empty,
    // rhs = key).
    if (at_l) AddInto(&row, Convolve(l->second, rhs_le));
    if (at_r) AddInto(&row, Convolve(lhs_le, r->second));
    if (at_l) AddInto(&lhs_le, l->second);
    if (!IsZero(row)) {
      out.rows.emplace_hint(out.rows.end(), key, std::move(row));
    }
    if (at_l) ++l;
    if (at_r) ++r;
  }
  return out;
}

MaxRows MaxRowsStructure::Cross(const MaxRows& lhs, const MaxRows& rhs,
                                Combinatorics*) const {
  MaxRows out;
  out.num_endogenous = lhs.num_endogenous + rhs.num_endogenous;
  for (const auto& [lkey, lrow] : lhs.rows) {
    for (const auto& [rkey, rrow] : rhs.rows) {
      std::vector<BigInt> product = Convolve(lrow, rrow);
      auto [it, inserted] =
          out.rows.try_emplace(Fold(kind_, lkey, rkey), std::move(product));
      if (!inserted) AddInto(&it->second, product);
    }
  }
  return out;
}

MaxRows MaxRowsStructure::Pad(const MaxRows& p, int pad,
                              Combinatorics* comb) const {
  MaxRows out = p;
  if (pad == 0) return out;
  for (auto& [key, row] : out.rows) row = PadCounts(row, pad, comb);
  out.num_endogenous += pad;
  return out;
}

SumKSeries MaxRowsStructure::Series(const MaxRows& p) {
  SumKSeries series(static_cast<size_t>(p.num_endogenous) + 1);
  for (const auto& [key, row] : p.rows) {
    SHAPCQ_CHECK(key.has_value());  // some component carries the value
    for (size_t k = 0; k < series.size(); ++k) {
      if (!row[k].is_zero()) series[k] += *key * Rational(row[k]);
    }
  }
  return series;
}

StatusOr<SumKSeries> MinMaxSumK(const AggregateQuery& a, const Database& db,
                                const SolverOptions& /*options*/) {
  Status shape = CheckMinMaxShape(a);
  if (!shape.ok()) return shape;
  const bool negate = a.alpha.kind() == AggKind::kMin;
  return MaxSeries(MaxRowsStructure::Localized(a.query, *a.tau, negate),
                   a.query, db, negate);
}

StatusOr<std::vector<std::pair<FactId, Rational>>> MinMaxScoreAll(
    const AggregateQuery& a, const Database& db,
    const SolverOptions& options) {
  Status shape = CheckMinMaxShape(a);
  if (!shape.ok()) return shape;
  const bool negate = a.alpha.kind() == AggKind::kMin;
  return MaxScores(MaxRowsStructure::Localized(a.query, *a.tau, negate),
                   a.query, db, negate, options);
}

void RegisterMinMaxEngine(EngineRegistry& registry) {
  EngineProvider provider;
  provider.name = "min-max/all-hierarchical-dp";
  provider.priority = 10;
  provider.applies = [](const AggregateQuery& a) {
    return a.alpha.kind() == AggKind::kMin || a.alpha.kind() == AggKind::kMax;
  };
  provider.sum_k = MinMaxSumK;
  provider.score_all = MinMaxScoreAll;
  registry.Register(std::move(provider));
}

ValueFunctionPtr MakeMonoidTau(MonoidKind kind, std::vector<int> positions) {
  SHAPCQ_CHECK(!positions.empty());
  const char* name = kind == MonoidKind::kPlus  ? "plus"
                     : kind == MonoidKind::kMax ? "max"
                                                : "min";
  std::vector<int> captured = positions;
  return MakeCallbackTau(
      [kind, captured](const Tuple& t) {
        PartialValue acc;
        for (int position : captured) {
          acc = Fold(kind, acc,
                     t[static_cast<size_t>(position)].AsRational());
        }
        return *acc;
      },
      std::move(positions), std::string("monoid-") + name);
}

StatusOr<SumKSeries> MonoidMinMaxSumK(const ConjunctiveQuery& q,
                                      MonoidKind kind,
                                      std::vector<int> positions, bool is_max,
                                      const Database& db) {
  Status shape = CheckMonoidShape(q, kind, positions, is_max);
  if (!shape.ok()) return shape;
  return MaxSeries(MonoidStructure(q, kind, positions, is_max), q, db,
                   !is_max);
}

StatusOr<std::vector<std::pair<FactId, Rational>>> MinMaxMonoidScoreAll(
    const ConjunctiveQuery& q, MonoidKind kind, std::vector<int> positions,
    bool is_max, const Database& db, const SolverOptions& options) {
  Status shape = CheckMonoidShape(q, kind, positions, is_max);
  if (!shape.ok()) return shape;
  return MaxScores(MonoidStructure(q, kind, positions, is_max), q, db,
                   !is_max, options);
}

}  // namespace shapcq
