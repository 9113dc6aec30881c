#include "tests/support/naive_join.h"

#include <utility>

#include "shapcq/util/check.h"

namespace shapcq {

namespace {

// The original unindexed backtracking join over Values, retained verbatim
// as the differential-testing oracle for the id join.
class NaiveJoin {
 public:
  NaiveJoin(const ConjunctiveQuery& q, const Database& db) : q_(q), db_(db) {}

  std::vector<Homomorphism> Run() {
    results_.clear();
    Binding binding;
    std::vector<FactId> used(q_.atoms().size(), -1);
    std::vector<bool> done(q_.atoms().size(), false);
    Recurse(&binding, &used, &done, 0);
    return std::move(results_);
  }

 private:
  int PickNextAtom(const Binding& binding, const std::vector<bool>& done) {
    int best = -1;
    long best_score = -1;
    for (int i = 0; i < static_cast<int>(q_.atoms().size()); ++i) {
      if (done[static_cast<size_t>(i)]) continue;
      const Atom& atom = q_.atoms()[static_cast<size_t>(i)];
      long unbound = 0;
      for (const Term& term : atom.terms) {
        if (term.is_variable() && binding.count(term.variable()) == 0) {
          ++unbound;
        }
      }
      long candidates =
          static_cast<long>(db_.FactsOf(atom.relation).size());
      long score = candidates * (unbound + 1);
      if (best == -1 || score < best_score) {
        best = i;
        best_score = score;
      }
    }
    return best;
  }

  void Recurse(Binding* binding, std::vector<FactId>* used,
               std::vector<bool>* done, size_t depth) {
    if (depth == q_.atoms().size()) {
      Homomorphism hom;
      hom.binding = *binding;
      hom.answer.reserve(q_.head().size());
      for (const std::string& head_var : q_.head()) {
        auto it = binding->find(head_var);
        SHAPCQ_CHECK(it != binding->end());
        hom.answer.push_back(it->second);
      }
      hom.used_facts = *used;
      results_.push_back(std::move(hom));
      return;
    }
    int atom_index = PickNextAtom(*binding, *done);
    SHAPCQ_CHECK(atom_index >= 0);
    const Atom& atom = q_.atoms()[static_cast<size_t>(atom_index)];
    (*done)[static_cast<size_t>(atom_index)] = true;
    for (FactId fact_id : db_.FactsOf(atom.relation)) {
      if (!db_.live(fact_id)) continue;
      Binding saved = *binding;
      if (MatchAtom(atom, db_.fact(fact_id).args, binding)) {
        (*used)[static_cast<size_t>(atom_index)] = fact_id;
        Recurse(binding, used, done, depth + 1);
        (*used)[static_cast<size_t>(atom_index)] = -1;
      }
      *binding = std::move(saved);
    }
    (*done)[static_cast<size_t>(atom_index)] = false;
  }

  const ConjunctiveQuery& q_;
  const Database& db_;
  std::vector<Homomorphism> results_;
};

}  // namespace

std::vector<Homomorphism> EnumerateHomomorphismsNaive(
    const ConjunctiveQuery& q, const Database& db) {
  NaiveJoin join(q, db);
  return join.Run();
}

}  // namespace shapcq
