// shapbench: the shapcq benchmark driver (built and run by
// perfbench/run.py).
//
//   shapbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--smoke]
//
// Prints a human-readable report on stderr and, as the last line on
// stdout, one JSON object {"correct", "attempted", "failed", "metrics"}.
// The run's spans are written to DIR/spans-<workload>-<seed>.jsonl.
// Exit code 0 when nothing failed, 1 otherwise, 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"
#include "workloads.h"

using perfbench::Config;

namespace {

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: shapbench --workload frontier_exact|beyond_frontier|"
               "serve_mixed|stream_updates --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR] [--smoke]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage();
      return argv[++i];
    };
    if (arg == "--workload") {
      config.workload = value();
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      config.trace = value() == "1";
    } else if (arg == "--out-dir") {
      config.out_dir = value();
    } else if (arg == "--smoke") {
      config.smoke = true;
    } else {
      Usage();
    }
  }
  if (!have_seed || !(config.seconds > 0)) Usage();

  perfbench::Report report;
  perfbench::SpanLog spans;
  if (config.workload == "frontier_exact") {
    perfbench::RunFrontierExact(config, &report, &spans);
  } else if (config.workload == "beyond_frontier") {
    perfbench::RunBeyondFrontier(config, &report, &spans);
  } else if (config.workload == "serve_mixed") {
    perfbench::RunServeMixed(config, &report, &spans);
  } else if (config.workload == "stream_updates") {
    perfbench::RunStreamUpdates(config, &report, &spans);
  } else {
    Usage();
  }

  const std::string span_path = config.out_dir + "/spans-" + config.workload +
                                "-" + std::to_string(config.seed) + ".jsonl";
  if (!spans.spans().empty() && !spans.Write(span_path)) {
    std::fprintf(stderr, "cannot write %s\n", span_path.c_str());
  }
  std::fprintf(stderr, "%s seed %llu (%s run, %.1f s):\n",
               config.workload.c_str(),
               static_cast<unsigned long long>(config.seed),
               config.trace ? "traced" : "untraced", config.seconds);
  report.PrintTable(stderr);
  std::printf("%s\n", report.ResultJson().c_str());
  std::fflush(stdout);
  return report.correct() && report.failed() == 0 ? 0 : 1;
}
