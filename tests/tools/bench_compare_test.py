#!/usr/bin/env python3
"""Tests of tools/bench_compare.py, the CI perf gate, on crafted
google-benchmark JSON.

    python3 tests/tools/bench_compare_test.py

The gate compares time per item where both sides report
items_per_second, and time per iteration otherwise; a slowdown beyond
the 15% tolerance exits 1, and a base benchmark missing from the
candidate exits 3.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

SCRIPT = (Path(__file__).resolve().parent.parent.parent / "tools" /
          "bench_compare.py")


def row(name, real_time, items_per_second=None):
    bench = {"name": name, "run_name": name, "run_type": "iteration",
             "real_time": real_time, "cpu_time": real_time,
             "time_unit": "ns"}
    if items_per_second is not None:
        bench["items_per_second"] = items_per_second
    return bench


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.dir.cleanup()

    def write(self, name, rows):
        path = os.path.join(self.dir.name, name)
        with open(path, "w") as f:
            json.dump({"benchmarks": rows}, f)
        return path

    def gate(self, base_rows, cand_rows):
        base = self.write("base.json", base_rows)
        cand = self.write("cand.json", cand_rows)
        return subprocess.run(
            [sys.executable, str(SCRIPT), "--base", base, "--candidate",
             cand, "--tolerance", "0.15"],
            capture_output=True, text=True)

    def test_fixture_change_at_equal_time_per_item_passes(self):
        # One iteration now processes nine items instead of one, at the
        # same 1 us per item: nine times the real_time per iteration.
        result = self.gate([row("BM_X", 1000.0, 1e6)],
                           [row("BM_X", 9000.0, 1e6)])
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("ns/item", result.stdout)

    def test_time_per_item_slowdown_fails(self):
        # 20% more time per item at the same real_time per iteration.
        result = self.gate([row("BM_X", 1000.0, 1e6)],
                           [row("BM_X", 1000.0, 1e6 / 1.2)])
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("REGRESSION", result.stdout)

    def test_minimum_over_rounds_is_compared(self):
        # The candidate's best round is 10% slower per item: within 15%.
        result = self.gate(
            [row("BM_X", 1000.0, 1e6), row("BM_X", 1000.0, 0.8e6)],
            [row("BM_X", 1000.0, 1e6 / 1.1), row("BM_X", 1000.0, 0.5e6)])
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_real_time_without_items_per_second(self):
        self.assertEqual(
            self.gate([row("BM_Y", 1000.0)],
                      [row("BM_Y", 1100.0)]).returncode, 0)
        self.assertEqual(
            self.gate([row("BM_Y", 1000.0)],
                      [row("BM_Y", 1200.0)]).returncode, 1)

    def test_real_time_when_one_side_lacks_items_per_second(self):
        # Equal time per item, but only the candidate reports it: the
        # gate falls back to real_time, which is 20% slower.
        result = self.gate([row("BM_Z", 1000.0)],
                           [row("BM_Z", 1200.0, 1e6)])
        self.assertEqual(result.returncode, 1, result.stdout)

    def test_missing_candidate_benchmark_exits_three(self):
        result = self.gate([row("BM_X", 1000.0, 1e6), row("BM_Gone", 5.0)],
                           [row("BM_X", 1000.0, 1e6)])
        self.assertEqual(result.returncode, 3, result.stdout)
        self.assertIn("BM_Gone", result.stderr)


if __name__ == "__main__":
    unittest.main()
