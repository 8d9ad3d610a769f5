#!/usr/bin/env python3
"""The benchmark's own tests: a small-size smoke of every workload.

    python3 perfbench/test_smoke.py

Runs each workload at smoke size (alg5 n=200, dolev-strong n=50, 64 daemon
operations on two deployments) in both modes through run.py, and asserts that the result line
has exactly the keys correct/attempted/failed/metrics, that every metric
BENCHMARK.json names is emitted with its unit, and that an injected
mismatch is counted as a
failure and makes the command exit non-zero. It also checks that the
benchmark refuses to run, without printing a result, when the program's
sources are missing.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
UNITS = {m["name"]: m["unit"]
         for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}


def run(root, workload, trace, *extra):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--smoke", *extra]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=900)


class Smoke(unittest.TestCase):
    def check_result(self, proc, trace):
        lines = proc.stdout.strip().splitlines()
        self.assertGreaterEqual(len(lines), 2, proc.stderr)
        meta = json.loads(lines[-2])["meta"]
        for key in ("hash_backend", "cores", "git_sha", "source_digest"):
            self.assertIn(key, meta)
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        names = [m["name"] for m in
                 BENCHMARK["per_layer" if trace else "end_to_end"]]
        self.assertEqual(sorted(result["metrics"]), sorted(names))
        for name, metric in result["metrics"].items():
            self.assertEqual(set(metric), {"value", "unit"})
            self.assertEqual(metric["unit"], UNITS[name], name)
            self.assertTrue(math.isfinite(metric["value"]), name)
        return result

    def test_workloads_emit_every_metric(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    proc = run(ROOT, workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = self.check_result(proc, trace)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    if not trace:
                        for name, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)

    def test_failures_are_counted(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    proc = run(ROOT, workload, trace, "--inject-failure")
                    self.assertNotEqual(proc.returncode, 0)
                    result = self.check_result(proc, trace)
                    self.assertFalse(result["correct"])
                    self.assertGreater(result["failed"], 0)
                    if trace:
                        self.assertGreater(
                            result["metrics"]["failed_share"]["value"], 0)

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run(tmp, WORKLOADS[0], 0)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
