#!/usr/bin/env python3
"""Tests of the shapcq benchmark itself.

Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

Each workload runs at smoke size (`run.py --smoke`: tiny inputs, the
same code paths, the same correctness checks) untraced and traced. The
tests check that every run succeeds and checks out, that the metric
names and units every run emits are exactly the ones BENCHMARK.json
declares for its mode, and that the benchmark refuses to run without the program's
sources next to it.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
SMOKE_SECONDS = "1"


def run_bench(workload, trace, cwd=ROOT, script=None):
    script = script or os.path.join(HERE, "run.py")
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "7",
         "--seconds", SMOKE_SECONDS, "--trace", str(trace), "--smoke"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)


class SmokeRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(SPEC_PATH) as f:
            cls.spec = json.load(f)
        cls.results = {}
        for workload in (w["name"] for w in cls.spec["workloads"]):
            for trace in (0, 1):
                done = run_bench(workload, trace)
                cls.results[(workload, trace)] = done

    def parsed(self, workload, trace):
        done = self.results[(workload, trace)]
        self.assertEqual(done.returncode, 0,
                         "%s trace=%d failed:\n%s" % (workload, trace,
                                                      done.stderr[-3000:]))
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        return result

    def test_every_run_checks_out(self):
        for workload, trace in self.results:
            result = self.parsed(workload, trace)
            self.assertTrue(result["correct"], (workload, trace))
            self.assertEqual(result["failed"], 0, (workload, trace))
            self.assertGreaterEqual(result["attempted"], 1)

    def check_names(self, trace, section):
        # Every workload reports every metric of the list, in its unit.
        declared = {m["name"]: m["unit"] for m in self.spec[section]}
        for workload in (w["name"] for w in self.spec["workloads"]):
            metrics = self.parsed(workload, trace)["metrics"]
            emitted = {}
            for name, metric in metrics.items():
                self.assertEqual(set(metric), {"value", "unit"}, name)
                self.assertIsInstance(metric["value"], (int, float), name)
                emitted[name] = metric["unit"]
            self.assertEqual(emitted, declared, workload)

    def test_untraced_names_equal_end_to_end(self):
        self.check_names(0, "end_to_end")

    def test_traced_names_equal_per_layer(self):
        self.check_names(1, "per_layer")

    def test_end_to_end_metrics_are_never_zero(self):
        for workload in (w["name"] for w in self.spec["workloads"]):
            metrics = self.parsed(workload, 0)["metrics"]
            for name, metric in metrics.items():
                self.assertGreater(metric["value"], 0, (workload, name))


class WithoutSources(unittest.TestCase):
    def test_refuses_to_run(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(SPEC_PATH, bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = run_bench("frontier_exact", 0, cwd=bare,
                             script=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
