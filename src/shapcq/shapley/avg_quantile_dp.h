// The Avg/Qnt_q data structure (Section 5.1, Appendix D) for the
// hierarchical recursion of hierarchical_dp.h, templated on the count
// representation: CountValue (fixed-width, escaping to BigInt on
// overflow) is the production path of avg_quantile.cc; the tests
// instantiate it on BigInt as a differential oracle. Both are exact, so
// their series agree bitwise.

#ifndef SHAPCQ_SHAPLEY_AVG_QUANTILE_DP_H_
#define SHAPCQ_SHAPLEY_AVG_QUANTILE_DP_H_

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "shapcq/agg/aggregate.h"
#include "shapcq/agg/value_function.h"
#include "shapcq/hierarchy/classification.h"
#include "shapcq/query/decomposition.h"
#include "shapcq/query/evaluator.h"
#include "shapcq/shapley/answer_counts.h"
#include "shapcq/shapley/avg_quantile.h"
#include "shapcq/shapley/dp_util.h"
#include "shapcq/shapley/hierarchical_dp.h"
#include "shapcq/shapley/membership.h"
#include "shapcq/util/check.h"
#include "shapcq/util/fixed_int.h"

namespace shapcq {

// The count arithmetic of the structure beyond construction from a
// BigInt: acc += a · b, and the canonical BigInt value.
inline void AddCountProduct(BigInt& acc, const BigInt& a, const BigInt& b) {
  acc += a * b;
}
inline void AddCountProduct(CountValue& acc, const CountValue& a,
                            const CountValue& b) {
  acc.AddProduct(a, b);
}
inline void AddCountProduct(CountValue& acc, const CountValue& a,
                            const BigInt& b) {
  acc.AddProduct(a, b);
}
inline const BigInt& CountToBigInt(const BigInt& value) { return value; }
inline BigInt CountToBigInt(const CountValue& value) {
  return value.ToBigInt();
}

// Avg and Median: aggregates that uniform replication of the whole bag
// leaves unchanged.
inline bool IsReplicationInvariant(const AggregateFunction& alpha) {
  return alpha.kind() == AggKind::kAvg ||
         (alpha.kind() == AggKind::kQuantile &&
          alpha.quantile() == Rational(BigInt(1), BigInt(2)));
}

// (k, ℓ<, ℓ=, ℓ>) -> count, sparse.
template <typename Count>
using QuintupleMap = std::map<std::array<int, 4>, Count>;

// P[Q', D'] of one sub-problem. The component holding τ's variables is
// keyed: per anchor a, the (k, ℓ<, ℓ=, ℓ>) profiles of the bag of
// τ-values relative to a. Every other component only multiplies that bag
// by its number of answers, so it keeps the answer-count distribution —
// except that for Avg and Median a component split off at the top only
// gates the bag (Prop 7.3): it keeps, per size k, the subsets under which
// it has answers, and a cross product multiplies such gates into one
// factor of the series instead of into every profile.
template <typename Count>
struct BagProfile {
  bool keyed = false;
  std::vector<QuintupleMap<Count>> by_anchor;  // keyed
  AnswerCountMap answers;                      // not keyed, not a gate
  std::vector<BigInt> gate;  // gating components and padding; empty: none
  int num_endogenous = 0;

  bool operator==(const BagProfile& other) const {
    return keyed == other.keyed && num_endogenous == other.num_endogenous &&
           by_anchor == other.by_anchor && answers == other.answers &&
           gate == other.gate;
  }
};

template <typename Count>
class BagProfileStructure {
 public:
  using P = BagProfile<Count>;
  struct Context {
    Tuple head;  // bound head values
    std::vector<std::string> scope;  // τ's head variables still unbound
    bool keyed = true;
    bool whole_bag = true;  // no root split above: the bag is the query's
  };
  static constexpr bool kFreeRootsOnly = true;

  // `anchors`: the distinct τ-values of the answers of a over the full
  // database, ascending.
  BagProfileStructure(const AggregateQuery& a, std::vector<Rational> anchors)
      : tau_(*a.tau),
        alpha_(a.alpha),
        anchors_(std::move(anchors)),
        head_arity_(a.query.arity()),
        key_(a.query, a.tau->DependsOn()) {}

  Context Top() const {
    return {Tuple(static_cast<size_t>(head_arity_), Value(0)),
            key_.variables(), true, true};
  }

  bool IsLeaf(const ConjunctiveQuery&, const Context& ctx) const {
    return !ctx.keyed || ctx.scope.empty();
  }

  // An unkeyed component is its answer-count distribution. A keyed one
  // whose τ-value a0 is fixed puts its ℓ answers in the a0 slot. Avg and
  // Median ignore uniform replication of the whole bag, so a leaf with no
  // root split above only says whether it has answers (Prop 7.3).
  P Leaf(const ConjunctiveQuery& q, const FactSubset& facts,
         const Context& ctx, Combinatorics* comb) const {
    P out;
    out.keyed = ctx.keyed;
    out.num_endogenous = facts.CountEndogenous();
    const bool gate = ctx.whole_bag && IsReplicationInvariant(alpha_);
    if (gate && !ctx.keyed) {
      out.gate = SatisfactionCountsOnSubset(q, facts, comb);
      return out;
    }
    AnswerCountMap counts =
        AnswerCountDistribution(gate ? q.AsBoolean() : q, facts, comb);
    if (!ctx.keyed) {
      out.answers = std::move(counts);
      return out;
    }
    Rational value = tau_.Evaluate(ctx.head);
    auto it = std::lower_bound(anchors_.begin(), anchors_.end(), value);
    const bool anchored = it != anchors_.end() && *it == value;
    out.by_anchor.resize(anchors_.size());
    for (size_t i = 0; i < anchors_.size(); ++i) {
      // A value outside the anchors is never realized by an answer of
      // the full database: all its subsets have ℓ = 0.
      const int comparison = Rational::Compare(value, anchors_[i]);
      const size_t slot = comparison < 0 ? 1 : comparison == 0 ? 2 : 3;
      for (const auto& [key, count] : counts) {
        SHAPCQ_CHECK(anchored || key.second == 0);
        std::array<int, 4> quintuple = {key.first, 0, 0, 0};
        quintuple[slot] = key.second;
        out.by_anchor[i][quintuple] += Count(count);
      }
    }
    return out;
  }

  Context Bind(const Context& ctx, const std::string& x,
               const Value& a) const {
    Context child = ctx;
    child.whole_bag = false;
    key_.BindHead(x, a, &child.scope, &child.head);
    return child;
  }

  Context Component(const Context& ctx, const ConjunctiveQuery& sub_q,
                    bool) const {
    std::vector<std::string> scope = KeyScope::Within(ctx.scope, sub_q);
    const bool keyed = ctx.keyed && !scope.empty();
    return {ctx.head, std::move(scope), keyed, ctx.whole_bag};
  }

  P Empty(const Context& ctx) const {
    P out;
    out.keyed = ctx.keyed;
    if (ctx.keyed) {
      out.by_anchor.assign(anchors_.size(), {{{0, 0, 0, 0}, Count(1)}});
    } else {
      out.answers = {{{0, 0}, BigInt(1)}};
    }
    return out;
  }

  // combine_∪ at a free root: disjoint answer sets, the bags add.
  P Union(const P& lhs, const P& rhs, Combinatorics* comb) const {
    SHAPCQ_CHECK(lhs.keyed == rhs.keyed);
    SHAPCQ_CHECK(lhs.gate.empty() && rhs.gate.empty());  // gates: top only
    if (!lhs.keyed) {
      return Unkeyed(
          AnswerCountStructure().Union(lhs.answers, rhs.answers, comb), lhs,
          rhs);
    }
    P out = Keyed(lhs, rhs);
    for (size_t i = 0; i < anchors_.size(); ++i) {
      for (const auto& [lkey, lcount] : lhs.by_anchor[i]) {
        for (const auto& [rkey, rcount] : rhs.by_anchor[i]) {
          AddCountProduct(
              out.by_anchor[i][{lkey[0] + rkey[0], lkey[1] + rkey[1],
                                lkey[2] + rkey[2], lkey[3] + rkey[3]}],
              lcount, rcount);
        }
      }
    }
    return out;
  }

  // combine_×: the keyed bag is replicated once per answer of the other
  // side (an empty side empties the bag).
  P Cross(const P& lhs, const P& rhs, Combinatorics* comb) const {
    SHAPCQ_CHECK(!(lhs.keyed && rhs.keyed));
    if (!lhs.gate.empty() || !rhs.gate.empty()) return Gated(lhs, rhs);
    if (!lhs.keyed && !rhs.keyed) {
      return Unkeyed(AnswerCountStructure().Cross(lhs.answers, rhs.answers,
                                                  comb),
                     lhs, rhs);
    }
    const P& bag = lhs.keyed ? lhs : rhs;
    const AnswerCountMap& other = lhs.keyed ? rhs.answers : lhs.answers;
    P out = Keyed(lhs, rhs);
    for (size_t i = 0; i < anchors_.size(); ++i) {
      for (const auto& [lkey, lcount] : bag.by_anchor[i]) {
        const bool bag_empty = lkey[1] == 0 && lkey[2] == 0 && lkey[3] == 0;
        for (const auto& [rkey, rcount] : other) {
          const int times = bag_empty ? 0 : rkey.second;
          AddCountProduct(out.by_anchor[i][{lkey[0] + rkey.first,
                                            lkey[1] * times, lkey[2] * times,
                                            lkey[3] * times}],
                          lcount, rcount);
        }
      }
    }
    return out;
  }

  P Pad(const P& p, int pad, Combinatorics* comb) const {
    if (pad == 0) return p;
    P out = p;
    out.num_endogenous += pad;
    if (!p.gate.empty()) {
      out.gate = PadCounts(p.gate, pad, comb);
      return out;
    }
    if (!p.keyed) {
      out.answers = PadAnswerCounts(p.answers, pad, comb);
      return out;
    }
    const std::vector<BigInt>& binomials = comb->BinomialRow(pad);
    const std::vector<Count> row(binomials.begin(), binomials.end());
    for (QuintupleMap<Count>& per_anchor : out.by_anchor) {
      QuintupleMap<Count> padded;
      for (const auto& [key, count] : per_anchor) {
        for (int extra = 0; extra <= pad; ++extra) {
          AddCountProduct(padded[{key[0] + extra, key[1], key[2], key[3]}],
                          count, row[static_cast<size_t>(extra)]);
        }
      }
      per_anchor = std::move(padded);
    }
    return out;
  }

  // The paper's sum_k(Avg) / sum_k(Qnt_q) formulas (avg_quantile.h),
  // assembled in integers: a profile's weight is a small numerator over a
  // denominator — Avg ℓ= over ℓ<+ℓ=+ℓ>, Qnt 2·f_q over 2 — so the counts
  // sum as count·numerator per (k, anchor, denominator) and each bucket
  // becomes one Rational, not one per profile.
  SumKSeries Series(const P& p) const {
    const int gated = p.gate.empty() ? 0 : static_cast<int>(p.gate.size()) - 1;
    SumKSeries series(static_cast<size_t>(p.num_endogenous - gated) + 1);
    const bool is_avg = alpha_.kind() == AggKind::kAvg;
    std::map<int64_t, QuantilePositions> positions;  // by bag size
    for (size_t i = 0; i < anchors_.size(); ++i) {
      std::map<std::pair<int, int64_t>, Count> buckets;
      for (const auto& [key, count] : p.by_anchor[i]) {
        const int64_t less = key[1], equal = key[2], greater = key[3];
        if (equal == 0 || count.is_zero()) continue;
        const int64_t size = less + equal + greater;
        int64_t numerator = equal;
        int64_t denominator = size;
        if (!is_avg) {
          numerator = positions.try_emplace(size, alpha_.quantile(), size)
                          .first->second.TwiceContribution(less, equal);
          denominator = 2;
        }
        if (numerator == 0) continue;
        AddCountProduct(buckets[{key[0], denominator}], count,
                        Count(numerator));
      }
      for (const auto& [bucket, sum] : buckets) {
        series[static_cast<size_t>(bucket.first)] +=
            anchors_[i] * Rational(CountToBigInt(sum), BigInt(bucket.second));
      }
    }
    if (p.gate.empty()) return series;
    // A subset contributes iff every gate has answers: convolve.
    SumKSeries out(static_cast<size_t>(p.num_endogenous) + 1);
    for (size_t k = 0; k < series.size(); ++k) {
      if (series[k].is_zero()) continue;
      for (size_t g = 0; g < p.gate.size(); ++g) {
        if (!p.gate[g].is_zero()) out[k + g] += series[k] * Rational(p.gate[g]);
      }
    }
    return out;
  }

 private:
  // combine_× at the top with a gating side: the product's bag is the
  // keyed side's when every gate has answers and empty otherwise, and an
  // empty bag adds nothing to an Avg/Median series — so the gates
  // multiply into one factor and the profiles stay as they are.
  static P Gated(const P& lhs, const P& rhs) {
    P out = lhs.keyed ? lhs : rhs;
    const P& gate = lhs.keyed ? rhs : lhs;
    SHAPCQ_CHECK(!gate.keyed && !gate.gate.empty());
    out.gate = out.gate.empty() ? gate.gate : Convolve(out.gate, gate.gate);
    out.num_endogenous += gate.num_endogenous;
    return out;
  }

  // Empty results of a combine, sized for both sides.
  P Keyed(const P& lhs, const P& rhs) const {
    P out;
    out.keyed = true;
    out.num_endogenous = lhs.num_endogenous + rhs.num_endogenous;
    out.by_anchor.resize(anchors_.size());
    return out;
  }
  static P Unkeyed(AnswerCountMap answers, const P& lhs, const P& rhs) {
    P out;
    out.answers = std::move(answers);
    out.num_endogenous = lhs.num_endogenous + rhs.num_endogenous;
    return out;
  }

  const ValueFunction& tau_;
  AggregateFunction alpha_;
  std::vector<Rational> anchors_;  // ascending
  int head_arity_;
  KeyScope key_;
};

// The gates of the Avg/Qnt engine, shared by every entry point so the
// batch fails exactly where the per-fact path would.
inline Status CheckAvgQuantileShape(const AggregateQuery& a) {
  if (a.alpha.kind() != AggKind::kAvg &&
      a.alpha.kind() != AggKind::kQuantile) {
    return UnsupportedError("AvgQuantileSumK handles Avg and Qnt_q only");
  }
  if (a.query.HasSelfJoin()) {
    return UnsupportedError("Avg/Qnt requires a self-join-free CQ");
  }
  if (LocalizationAtoms(a.query, *a.tau).empty()) {
    return UnsupportedError("value function is not localized on any atom of " +
                            a.query.ToString());
  }
  // τ's component must be q-hierarchical. A component without τ's
  // variables only replicates the bag, so for Avg and Median it only gates
  // by non-emptiness (Prop 7.3) and all-hierarchy suffices.
  const std::vector<int> depends_on = a.tau->DependsOn();
  for (const std::vector<int>& atoms : ConnectedComponents(a.query)) {
    const ConjunctiveQuery component = a.query.Project(atoms, nullptr);
    const bool gate_only =
        IsReplicationInvariant(a.alpha) &&
        std::none_of(depends_on.begin(), depends_on.end(), [&](int position) {
          return component.HasVariable(
              a.query.head()[static_cast<size_t>(position)]);
        });
    if (gate_only ? !IsAllHierarchical(component)
                  : !IsQHierarchical(component)) {
      return UnsupportedError("Avg/Qnt requires a q-hierarchical CQ: " +
                              a.query.ToString());
    }
  }
  return Status::Ok();
}

// The distinct τ-values over the answers of `db`, ascending.
inline std::vector<Rational> AvgQuantileAnchors(const AggregateQuery& a,
                                                const Database& db) {
  std::set<Rational> anchors;
  for (const Tuple& answer : Evaluate(a.query, db)) {
    anchors.insert(a.tau->Evaluate(answer));
  }
  return {anchors.begin(), anchors.end()};
}

// AvgQuantileSumK on the given count representation.
template <typename Count>
StatusOr<SumKSeries> AvgQuantileSumKWith(const AggregateQuery& a,
                                         const Database& db) {
  Status shape = CheckAvgQuantileShape(a);
  if (!shape.ok()) return shape;
  std::vector<Rational> anchors = AvgQuantileAnchors(a, db);
  if (anchors.empty()) {
    return SumKSeries(static_cast<size_t>(db.num_endogenous()) + 1);
  }
  BagProfileStructure<Count> structure(a, std::move(anchors));
  Combinatorics comb;
  return structure.Series(
      SolveWholeDatabase(structure, a.query, structure.Top(), db, &comb));
}

}  // namespace shapcq

#endif  // SHAPCQ_SHAPLEY_AVG_QUANTILE_DP_H_
