// The four workloads of the shapcq benchmark. Each fills `report` with
// its end-to-end metrics (untraced run) or its per-layer metrics
// (traced run), counts the operations it attempted and failed, and
// checks its outputs; `spans` receives the run's span log.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <vector>

#include "common.h"

namespace perfbench {

// Set-up is repeated and reported as the median: at least
// kMinSetups times, and for cheap set-ups until kSetupSeconds have
// passed (at most kMaxSetups times). The first repetition also pays the
// process's own warm-up (page faults, allocator growth), which the
// median leaves out.
inline constexpr int kMinSetups = 5;
inline constexpr int kMaxSetups = 25;
inline constexpr double kSetupSeconds = 1.0;
inline bool MoreSetups(const std::vector<double>& setup_s) {
  const int done = static_cast<int>(setup_s.size());
  return done < kMinSetups ||
         (done < kMaxSetups && Sum(setup_s) < kSetupSeconds);
}

void RunFrontierExact(const Config& config, Report* report, SpanLog* spans);
void RunBeyondFrontier(const Config& config, Report* report, SpanLog* spans);
void RunServeMixed(const Config& config, Report* report, SpanLog* spans);
void RunStreamUpdates(const Config& config, Report* report, SpanLog* spans);

// obs.trace_overhead_pct: how much slower `traced` is than `untraced`,
// in percent of `untraced`.
inline double OverheadPct(double untraced, double traced) {
  return untraced > 0 ? 100.0 * (traced - untraced) / untraced : 0;
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
