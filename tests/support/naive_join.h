// Reference implementation of EnumerateHomomorphisms (query/evaluator.h):
// the original unindexed backtracking join that scans every fact of an
// atom's relation. The differential-testing oracle for the indexed join;
// both must produce the same homomorphism set (possibly in different
// order).

#ifndef SHAPCQ_TESTS_SUPPORT_NAIVE_JOIN_H_
#define SHAPCQ_TESTS_SUPPORT_NAIVE_JOIN_H_

#include <vector>

#include "shapcq/data/database.h"
#include "shapcq/query/cq.h"
#include "shapcq/query/evaluator.h"

namespace shapcq {

std::vector<Homomorphism> EnumerateHomomorphismsNaive(
    const ConjunctiveQuery& q, const Database& db);

}  // namespace shapcq

#endif  // SHAPCQ_TESTS_SUPPORT_NAIVE_JOIN_H_
