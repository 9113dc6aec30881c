#include "shapcq/shapley/engine_registry.h"

#include <algorithm>

#include "shapcq/lineage/engine.h"
#include "shapcq/shapley/avg_quantile.h"
#include "shapcq/shapley/closed_forms.h"
#include "shapcq/shapley/count_distinct.h"
#include "shapcq/shapley/has_duplicates.h"
#include "shapcq/shapley/min_max.h"
#include "shapcq/shapley/sum_count.h"
#include "shapcq/util/check.h"

namespace shapcq {

EngineRegistry& EngineRegistry::Global() {
  // The manifest of built-in engines. Adding an engine means registering it
  // here (or from user code via Register); the solver façade never changes.
  static EngineRegistry* registry = [] {
    auto* r = new EngineRegistry();
    RegisterClosedFormEngines(*r);
    RegisterSumCountEngine(*r);
    RegisterMinMaxEngine(*r);
    RegisterCountDistinctEngines(*r);
    RegisterAvgQuantileEngine(*r);
    RegisterHasDuplicatesEngine(*r);
    // The knowledge-compilation engine for the hard side of the frontier:
    // slots after every frontier DP and before the brute-force / Monte
    // Carlo fallback (priority 60).
    RegisterLineageCircuitEngine(*r);
    return r;
  }();
  return *registry;
}

void EngineRegistry::Register(EngineProvider provider) {
  SHAPCQ_CHECK(!provider.name.empty());
  SHAPCQ_CHECK(provider.applies != nullptr);
  SHAPCQ_CHECK(provider.sum_k != nullptr || provider.score_one != nullptr ||
               provider.score_all != nullptr);
  providers_.push_back(
      std::make_unique<EngineProvider>(std::move(provider)));
}

std::vector<const EngineProvider*> EngineRegistry::CandidatesFor(
    const AggregateQuery& a) const {
  std::vector<const EngineProvider*> candidates;
  for (const auto& provider : providers_) {
    if (provider->applies(a)) candidates.push_back(provider.get());
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const EngineProvider* x, const EngineProvider* y) {
                     return x->priority < y->priority;
                   });
  return candidates;
}

}  // namespace shapcq
