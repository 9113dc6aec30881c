#include "shapcq/shapley/membership.h"

#include <string>

#include "shapcq/hierarchy/classification.h"
#include "shapcq/shapley/hierarchical_dp.h"
#include "shapcq/util/check.h"

namespace shapcq {

SatisfactionStructure::P SatisfactionStructure::Leaf(
    const ConjunctiveQuery& q, const FactSubset& facts, const Context&,
    Combinatorics* comb) const {
  const int m = facts.CountEndogenous();
  P unsat = comb->BinomialRow(m);
  int required_endogenous = 0;
  for (const Atom& atom : q.atoms()) {
    Tuple args;
    args.reserve(atom.terms.size());
    for (const Term& term : atom.terms) args.push_back(term.constant());
    const Fact* match = nullptr;
    for (FactId id : facts.facts) {
      const Fact& fact = facts.db->fact(id);
      if (fact.relation == atom.relation && fact.args == args) {
        match = &fact;
        break;
      }
    }
    if (match == nullptr) return unsat;  // never satisfiable
    if (match->endogenous) ++required_endogenous;
  }
  for (int k = required_endogenous; k <= m; ++k) {
    unsat[static_cast<size_t>(k)] -=
        comb->Binomial(m - required_endogenous, k - required_endogenous);
  }
  return unsat;
}

SatisfactionStructure::P SatisfactionStructure::Cross(
    const P& lhs, const P& rhs, Combinatorics* comb) const {
  std::vector<BigInt> sat = Convolve(Satisfying(lhs, comb),
                                     Satisfying(rhs, comb));
  return SubtractCounts(comb->BinomialRow(static_cast<int64_t>(sat.size()) - 1),
                        sat);
}

std::vector<BigInt> SatisfactionStructure::Satisfying(const P& unsat,
                                                      Combinatorics* comb) {
  return SubtractCounts(
      comb->BinomialRow(static_cast<int64_t>(unsat.size()) - 1), unsat);
}

std::vector<BigInt> SatisfactionCountsOnSubset(const ConjunctiveQuery& q,
                                               const FactSubset& facts,
                                               Combinatorics* comb) {
  SatisfactionStructure structure;
  HierarchicalDp<SatisfactionStructure> dp(structure, comb);
  return SatisfactionStructure::Satisfying(
      dp.Solve(q.is_boolean() ? q : q.AsBoolean(), facts, {}), comb);
}

StatusOr<std::vector<BigInt>> SatisfactionCounts(const ConjunctiveQuery& q,
                                                 const Database& db) {
  if (q.HasSelfJoin()) {
    return UnsupportedError("satisfaction counts require a self-join-free CQ");
  }
  // The DP treats all variables as existential; hierarchy w.r.t. all
  // variables is exactly what the recursion needs.
  if (!IsAllHierarchical(q)) {
    return UnsupportedError("satisfaction counts require a hierarchical CQ: " +
                            q.ToString());
  }
  Combinatorics comb;
  std::vector<BigInt> counts = SatisfactionStructure::Satisfying(
      SolveWholeDatabase(SatisfactionStructure(),
                         q.is_boolean() ? q : q.AsBoolean(), {}, db, &comb),
      &comb);
  SHAPCQ_CHECK(static_cast<int>(counts.size()) == db.num_endogenous() + 1);
  return counts;
}

StatusOr<Rational> AnswerMembershipScore(const ConjunctiveQuery& q,
                                         const Database& db,
                                         const Tuple& answer, FactId fact,
                                         ScoreKind kind) {
  if (static_cast<int>(answer.size()) != q.arity()) {
    return InvalidArgumentError("answer arity does not match the query head");
  }
  // Bind the head to the answer; repeated head variables must agree.
  ConjunctiveQuery bound = q;
  for (size_t i = 0; i < answer.size(); ++i) {
    const std::string& head_var = q.head()[i];
    if (bound.IsFreeVariable(head_var)) {
      bound = bound.Bind(head_var, answer[i]);
    } else if (!bound.HasVariable(head_var)) {
      // Already bound earlier: verify consistency against the original head.
      for (size_t j = 0; j < i; ++j) {
        if (q.head()[j] == head_var && answer[j] != answer[i]) {
          return InvalidArgumentError(
              "answer disagrees on a repeated head variable");
        }
      }
    }
  }
  SHAPCQ_CHECK(bound.is_boolean());
  return MembershipScore(bound, db, fact, kind);
}

StatusOr<Rational> MembershipScore(const ConjunctiveQuery& q,
                                   const Database& db, FactId fact,
                                   ScoreKind kind) {
  SHAPCQ_CHECK(db.fact(fact).endogenous);
  Database with_f_exogenous = db.WithFactExogenous(fact);
  Database without_f = db.WithoutFact(fact, /*old_to_new=*/nullptr);
  StatusOr<std::vector<BigInt>> counts_f =
      SatisfactionCounts(q, with_f_exogenous);
  if (!counts_f.ok()) return counts_f.status();
  StatusOr<std::vector<BigInt>> counts_g = SatisfactionCounts(q, without_f);
  if (!counts_g.ok()) return counts_g.status();
  SumKSeries series_f(counts_f->begin(), counts_f->end());
  SumKSeries series_g(counts_g->begin(), counts_g->end());
  return ScoreFromSumK(series_f, series_g, kind);
}

}  // namespace shapcq
