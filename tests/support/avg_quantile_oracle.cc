#include "tests/support/avg_quantile_oracle.h"

#include "shapcq/shapley/avg_quantile_dp.h"

namespace shapcq {

StatusOr<SumKSeries> AvgQuantileSumKBigInt(const AggregateQuery& a,
                                           const Database& db,
                                           const SolverOptions& /*options*/) {
  return AvgQuantileSumKWith<BigInt>(a, db);
}

}  // namespace shapcq
