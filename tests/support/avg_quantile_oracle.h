// The Avg/Qnt quintuple DP instantiated on pure BigInt counts — the
// differential oracle for the CountValue production path of
// AvgQuantileSumK. Tests compare the two series element for element.

#ifndef SHAPCQ_TESTS_SUPPORT_AVG_QUANTILE_ORACLE_H_
#define SHAPCQ_TESTS_SUPPORT_AVG_QUANTILE_ORACLE_H_

#include "shapcq/agg/aggregate.h"
#include "shapcq/data/database.h"
#include "shapcq/shapley/score.h"
#include "shapcq/shapley/solver_options.h"
#include "shapcq/util/status.h"

namespace shapcq {

StatusOr<SumKSeries> AvgQuantileSumKBigInt(const AggregateQuery& a,
                                           const Database& db,
                                           const SolverOptions& options = {});

}  // namespace shapcq

#endif  // SHAPCQ_TESTS_SUPPORT_AVG_QUANTILE_ORACLE_H_
