#!/usr/bin/env python3
"""The benchmark's own tests.  Run from the root of the repository:

    python3 -m unittest fetchbench/test_fetchbench.py

Builds the benchmark like run.py does, then runs each workload briefly.
"""

import json
import pathlib
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the entry point, for build() and paths)

WORKLOADS = ("fig2_generative", "bulk_asset", "small_requests")


def via_run_py(workload, seed, trace=0, seconds=1):
    """One short run through run.py, the benchmark's command."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def value(result, name):
    return result["metrics"][name]["value"]


class FetchBenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def test_missing_path_is_a_failed_op(self):
        out = subprocess.run(
            [str(self.binary), "--workload", "small_requests", "--seed", "7",
             "--seconds", "1", "--trace", "0", "--missing-paths", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertLess(result["failed"], result["attempted"])
        self.assertIn("status 404", out.stderr)

    def test_same_seed_gives_same_wire_bytes(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = via_run_py(workload, seed=11)
                second = via_run_py(workload, seed=11)
                self.assertTrue(first["correct"] and second["correct"])
                self.assertEqual(value(first, "wire_bytes_per_op"),
                                 value(second, "wire_bytes_per_op"))

    def test_same_seed_gives_same_unverified_items(self):
        # At the Figure 2 page's own seed, landscape-18 and landscape-34
        # fail digest verification on every fetch.
        first = via_run_py("fig2_generative", seed=2025, trace=1)
        second = via_run_py("fig2_generative", seed=2025, trace=1)
        self.assertTrue(first["correct"] and second["correct"])
        self.assertEqual(value(first, "core.unverified_items_per_op"), 2)
        self.assertEqual(value(second, "core.unverified_items_per_op"), 2)

    def test_layer_self_times_add_up_to_the_op_wall(self):
        tolerance = json.loads((HERE / "targets.json").read_text())[
            "layer_sum_tolerance"]
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = via_run_py(workload, seed=5, trace=1, seconds=4)
                self.assertTrue(result["correct"])
                ratio = value(result, "trace.layer_sum_ratio")
                self.assertLessEqual(abs(ratio - 1.0), tolerance)

    def test_every_layer_metric_has_a_target(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        targets = json.loads((HERE / "targets.json").read_text())
        self.assertEqual({m["name"] for m in spec["per_layer"]},
                         set(targets["layers"]))

    def test_bulk_rungs_below_16_mb_succeed(self):
        # A pass holds 11 fetches per ladder order and one of them is 16 MB,
        # so at most one in 11 may fail.
        result = via_run_py("bulk_asset", seed=3)
        self.assertTrue(result["correct"])
        self.assertLessEqual(result["failed"] * 11, result["attempted"])


if __name__ == "__main__":
    unittest.main()
