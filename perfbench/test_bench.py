#!/usr/bin/env python3
"""Self-test of the benchmark at tiny scale.

    python3 perfbench/test_bench.py

Runs every workload of BENCHMARK.json untraced and traced at tiny
scale (--tiny), checks that the result line names every end-to-end
(resp. per-layer) metric with the unit BENCHMARK.json gives and that
nothing failed, then checks that an injected hit mismatch, and a
cycle-limited run that stores no hits, count as failed operations and
make the run exit nonzero. Run from the
repository root; builds the benchmark first if needed.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run_bench(workload, trace, *extra):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "7",
                             "--seconds", "0.1", "--trace", str(trace),
                             "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, result


class BenchmarkSelfTest(unittest.TestCase):
    def check_metrics(self, workload, trace, key):
        proc, result = run_bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        printed = result["metrics"]
        for metric in SPEC[key]:
            name = metric["name"]
            self.assertIn(name, printed, f"{workload}: {name} missing")
            self.assertEqual(printed[name]["unit"], metric["unit"], name)
            self.assertIsInstance(printed[name]["value"], (int, float))
        self.assertEqual(set(printed), {m["name"] for m in SPEC[key]})

    def test_every_workload_prints_every_metric(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload, trace=0):
                self.check_metrics(workload, 0, "end_to_end")
            with self.subTest(workload=workload, trace=1):
                self.check_metrics(workload, 1, "per_layer")

    def test_injected_hit_mismatch_is_a_failed_operation(self):
        for workload in ("paper_uk", "drain_nocache"):
            with self.subTest(workload=workload):
                proc, result = run_bench(workload, 0, "--inject-mismatch")
                self.assertNotEqual(proc.returncode, 0)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], 1)
                self.assertIn("differ from the CPU reference", proc.stdout)

    def test_cycle_limited_run_without_hits_fails(self):
        # Both the benchmark's calls and runExperiment see no hits, so
        # only the count of exact records against completed items can
        # catch it.
        for workload in ("paper_uk", "paper_pdom"):
            with self.subTest(workload=workload):
                proc, result = run_bench(workload, 0, "--inject-clear-hits")
                self.assertNotEqual(proc.returncode, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertIn("exact hit records for", proc.stdout)
                self.assertNotIn("differ from harness::runExperiment",
                                 proc.stdout)


if __name__ == "__main__":
    unittest.main()
