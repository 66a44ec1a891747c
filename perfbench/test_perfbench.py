#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Builds the benchmark (as run.py does) and drives the binary on the tiny
configuration (two triggers per run, no measuring interval): every metric
BENCHMARK.json names is emitted with its unit, a failing probe shows up as a
failed operation, and the seed changes the pb146 pebble layout and nothing
else.
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, *extra, trace=0, seed=1):
    """Run the tiny configuration; returns (detail line, result line)."""
    with tempfile.TemporaryDirectory(dir=os.path.join(run.ROOT, ".bench_build")) as out:
        proc = subprocess.run(
            [run.BINARY, "--workload", workload, "--seed", str(seed),
             "--seconds", "0", "--trace", str(trace), "--out", out, "--tiny",
             *extra],
            capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def dump_case(workload, seed):
    proc = subprocess.run(
        [run.BINARY, "--workload", workload, "--seed", str(seed), "--seconds",
         "0", "--trace", "0", "--dump-case"],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("benchmark build failed")

    def test_every_metric_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    detail, result = bench(workload, trace=trace)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], detail["check_error"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    expected = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for name, metric in result["metrics"].items():
                        self.assertIsInstance(metric["value"], (int, float), name)
                    self.assertEqual(detail["failed_ops_share"], 0)
                    for field in ("nproc", "cpu_model", "compiler", "build_type"):
                        self.assertIn(field, detail["host"])

    def test_failing_probe_counts_as_failed_operation(self):
        for workload in ("insitu_catalyst_async", "intransit_catalyst"):
            with self.subTest(workload=workload):
                detail, result = bench(workload, "--probe-fail")
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertGreater(detail["failed_ops_share"], 0)
                self.assertLess(result["metrics"]["ok_ops_share"]["value"], 1)

    def test_seed_changes_only_the_pebble_layout(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                a, b = dump_case(workload, 1), dump_case(workload, 2)
                if workload.startswith("insitu"):
                    self.assertNotEqual(a.pop("pebble_centers"),
                                        b.pop("pebble_centers"))
                self.assertEqual(a, b)
                self.assertEqual(dump_case(workload, 1), dump_case(workload, 1))


if __name__ == "__main__":
    unittest.main()
