// Query-transfer constructions from the paper's reductions.
//
// * TransferQxyy (Lemma 5.3 / Lemma D.1): embeds an input database of
//   Q_xyy(x) <- R(x, y), S(y) into an input database of ANY self-join-free
//   CQ Q0 that is all-hierarchical but not q-hierarchical, preserving the
//   Shapley value of every endogenous fact (same aggregate, value function
//   lifted through the head position of Q0's dominated free variable).
//
// * TransferQxyyFull (Lemma E.4): the analogous embedding of
//   Q^full_xyy(x, y) <- R(x, y), S(y) into any self-join-free CQ that is
//   q-hierarchical but not sq-hierarchical.
//
// These are the paper's tools for propagating hardness from the two
// minimal queries to entire classes; here they double as adversarial
// workload generators and as strong numeric tests (Shapley values must be
// preserved exactly).
//
// * ApplyMonotoneMap (Observation F.3 / Theorem 7.1): rewrites a database
//   so that the value function γ ∘ τ_id^i becomes τ_id^i — the mechanism
//   behind "hardness is robust to monotone changes of the value function".

#ifndef SHAPCQ_TESTS_SUPPORT_TRANSFER_H_
#define SHAPCQ_TESTS_SUPPORT_TRANSFER_H_

#include <functional>
#include <vector>

#include "shapcq/agg/value_function.h"
#include "shapcq/data/database.h"
#include "shapcq/query/cq.h"
#include "shapcq/util/status.h"

namespace shapcq {

struct TransferResult {
  Database d0;
  // Maps each fact id of the source database to its image in d0
  // (the bijection h of Lemma D.1 on endogenous facts; exogenous facts are
  // mapped too). -1 for facts of relations other than R/S.
  std::vector<FactId> fact_map;
  // The lifted value function τ0 of the lemma.
  ValueFunctionPtr tau0;
};

// Lemma 5.3: requires q0 self-join-free, all-hierarchical, NOT
// q-hierarchical; `db` over relations R (binary) and S (unary); `tau` over
// arity-1 answers of Q_xyy.
StatusOr<TransferResult> TransferQxyy(const ConjunctiveQuery& q0,
                                      const Database& db,
                                      ValueFunctionPtr tau);

// Lemma E.4: requires q0 self-join-free, q-hierarchical, NOT
// sq-hierarchical; `tau` over arity-2 answers of Q^full_xyy.
StatusOr<TransferResult> TransferQxyyFull(const ConjunctiveQuery& q0,
                                          const Database& db,
                                          ValueFunctionPtr tau);

// Observation F.3: returns the database π(D) in which, for every atom of
// `q` and every position where the `head_index`-th head variable occurs,
// the value v is replaced by gamma(v). Endogenous/exogenous flags carry
// over; `fact_map`, if non-null, receives the fact bijection. `gamma` must
// be injective on the values that occur (duplicate collapses abort).
Database ApplyMonotoneMap(const ConjunctiveQuery& q, int head_index,
                          const std::function<Value(const Value&)>& gamma,
                          const Database& db,
                          std::vector<FactId>* fact_map = nullptr);

}  // namespace shapcq

#endif  // SHAPCQ_TESTS_SUPPORT_TRANSFER_H_
