// Decomposition machinery for the paper's generic algorithm (Figure 2).
//
// The dynamic programs for hierarchical CQs recurse on the structure of the
// query: pick a root variable x (one occurring in every atom), split the
// database by the value of x, or split a disconnected query into a cross
// product of components. This module provides those structural steps over
// (query, fact-subset) pairs so the per-aggregate algorithms only implement
// their combine_∪ / combine_× logic.

#ifndef SHAPCQ_QUERY_DECOMPOSITION_H_
#define SHAPCQ_QUERY_DECOMPOSITION_H_

#include <string>
#include <vector>

#include "shapcq/data/database.h"
#include "shapcq/query/cq.h"

namespace shapcq {

// A sub-database: a subset of the facts of `db`, by id.
struct FactSubset {
  const Database* db = nullptr;
  std::vector<FactId> facts;

  int CountEndogenous() const;
  std::vector<FactId> EndogenousFacts() const;
};

// All of db's facts as a FactSubset.
FactSubset AllFacts(const Database& db);

// Variables occurring in every atom of `q` (the paper's root variables).
// Empty if any atom is ground or the query has no variables.
std::vector<std::string> RootVariables(const ConjunctiveQuery& q);

// Partitions atom indices into connected components (atoms connected iff
// they share a variable). Ground atoms form singleton components. The result
// is ordered by smallest atom index.
std::vector<std::vector<int>> ConnectedComponents(const ConjunctiveQuery& q);

// True iff all atoms of `q` are ground (no variables anywhere).
bool IsGround(const ConjunctiveQuery& q);

// The values the root variable `x` can take: constants of `subset` that
// occur, for every (atom, position) where x occurs in q, in that column of
// the corresponding relation. Sorted ascending, distinct.
std::vector<Value> CandidateValues(const ConjunctiveQuery& q,
                                   const std::string& x,
                                   const FactSubset& subset);

// Facts of `subset` consistent with x -> a: fact f of relation R matches R's
// atom after substituting a for x (constants agree, repeated variables
// agree). Requires self-join-free q.
std::vector<FactId> FactsConsistentWith(const ConjunctiveQuery& q,
                                        const std::string& x, const Value& a,
                                        const FactSubset& subset);

// Splits `subset` into facts that match their relation's atom in `q`
// (relevant: they can participate in a homomorphism at this level) and the
// rest (irrelevant: padding for subset counting). Facts whose relation does
// not occur in `q` are irrelevant. Requires self-join-free q.
struct RelevanceSplit {
  FactSubset relevant;
  int irrelevant_endogenous = 0;
  int irrelevant_exogenous = 0;
};
RelevanceSplit SplitRelevant(const ConjunctiveQuery& q,
                             const FactSubset& subset);

// Relevance split over the whole database without scanning it: candidates
// per atom come from intersecting the dense posting lists of the atom's
// constant positions, and the union over atoms is accumulated as bitset
// operations over dense fact ids. Equivalent to
// SplitRelevant(q, AllFacts(db)) for self-join-free q (relevant facts
// ascending), but costs O(matching facts) instead of O(|db|) per call —
// the batched engines call it once per answer.
RelevanceSplit SplitRelevantIndexed(const ConjunctiveQuery& q,
                                    const Database& db);

// The facts of `subset` whose relation occurs in `q` (used to route facts to
// cross-product components). Requires self-join-free q.
FactSubset FactsOfQueryRelations(const ConjunctiveQuery& q,
                                 const FactSubset& subset);

}  // namespace shapcq

#endif  // SHAPCQ_QUERY_DECOMPOSITION_H_
