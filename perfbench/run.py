#!/usr/bin/env python3
"""Builds the shapcq benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload frontier_exact --seed 1 \
        --seconds 20 --trace 0

The first call configures and builds `.bench_build/perfbench` (the
library through the repository's own CMakeLists.txt, plus the
`shapbench` driver); later calls only re-run the incremental build.
Build output goes to stderr. The driver's human-readable report also
goes to stderr, and the last line on stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
ones (see perfbench/README.md); every workload reports every metric of
that list in BENCHMARK.json, and a result whose metric names or units
differ from the list is refused rather than printed. `--smoke` runs the same code paths on
tiny inputs; perfbench/test_perfbench.py uses it. The exit code is 0
when every operation succeeded and every output checked out, 1 when a
check failed, and 2 when the benchmark could not run at all (for
example, when the sources of the program are missing).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "shapbench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ("frontier_exact", "beyond_frontier", "serve_mixed",
             "stream_updates")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src", "shapcq"))):
        die("the shapcq sources (CMakeLists.txt, src/shapcq) are not "
            "next to perfbench/; run from the root of a full checkout")
    if shutil.which("cmake") is None:
        die("cmake is not on PATH")
    # A compiler cache would write outside the checkout.
    env = dict(os.environ, CCACHE_DISABLE="1")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "shapbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, env=env,
                                  stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            die("build step timed out: " + " ".join(step))
        if done.returncode != 0:
            die("build step failed: " + " ".join(step))


def declared_units(trace):
    """Metric name -> unit of the list a run with `trace` must print."""
    try:
        with open(SPEC) as f:
            spec = json.load(f)
    except (OSError, ValueError) as error:
        die("cannot read BENCHMARK.json: %s" % error)
    section = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, same code paths")
    args = parser.parse_args()
    if args.seconds <= 0:
        die("--seconds must be positive")

    build()
    command = [BINARY, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--out-dir", BUILD_DIR]
    if args.smoke:
        command.append("--smoke")
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("shapbench did not finish within %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        die("shapbench printed no result (exit code %d)" % done.returncode)
    if set(result) != RESULT_KEYS:
        die("malformed result keys: %s" % sorted(result))
    emitted = {name: m.get("unit") for name, m in result["metrics"].items()}
    declared = declared_units(args.trace)
    if emitted != declared:
        die("metrics differ from BENCHMARK.json: missing %s, extra or "
            "mismatched %s" % (
                sorted(set(declared) - set(emitted)),
                sorted(n for n in emitted if declared.get(n) != emitted[n])))
    print(json.dumps(result, sort_keys=True))
    ok = (done.returncode == 0 and result["correct"]
          and result["failed"] == 0)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
