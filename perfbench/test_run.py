#!/usr/bin/env python3
"""Self-test of the edgestab benchmark.

Run from the root of a source checkout:

    python3 perfbench/test_run.py

Builds the driver as run.py does, then runs every workload at smoke
size in both modes and checks that each prints every metric
BENCHMARK.json names, with its unit, and passes its correctness check;
that a wrong reference digest comes back as failed shots, not a pass;
and that run.py refuses, without a result, a directory that holds only
the benchmark.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402

ROOT = Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.driver, cls.env, cls.out_dir = run.prepare(ROOT)

    def drive(self, workload, trace, *extra):
        done = subprocess.run(
            [str(self.driver), "--workload", workload, "--seed", "3",
             "--seconds", "1", "--trace", str(trace), "--size", "tiny",
             "--out", str(self.out_dir), *extra],
            stdout=subprocess.PIPE, env=self.env, text=True,
            timeout=run.RUN_TIMEOUT_S, check=True)
        return json.loads(done.stdout.splitlines()[-1])

    def test_every_metric_printed_with_unit_and_check_passes(self):
        for workload in WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = self.drive(workload, trace)
                    self.assertEqual(
                        set(result),
                        {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(result["failed"], 0)
                    units = {name: m["unit"]
                             for name, m in result["metrics"].items()}
                    self.assertEqual(
                        units, {m["name"]: m["unit"] for m in SPEC[kind]})
                    for m in result["metrics"].values():
                        self.assertIsInstance(m["value"], (int, float))

    def test_wrong_reference_digest_counts_as_failed_shots(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = self.drive(workload, 0, "--tamper-reference")
                self.assertFalse(result["correct"])
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(result["failed"], result["attempted"])

    def test_refuses_a_directory_without_sources(self):
        bare = self.out_dir.parent / "selftest_bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload",
             WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=180)
        shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
