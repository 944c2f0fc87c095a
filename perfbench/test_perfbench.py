#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/test_perfbench.py

Runs every workload's experiment set under --smoke in both modes and
checks that each metric BENCHMARK.json declares is printed with its
unit, that the traced reports match vrdrepro's (the run reports
`correct`), and that the output parsers count what they should.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


class ParserTest(unittest.TestCase):
    def test_fidelity_counts_every_check_line(self):
        report = "\n".join([
            "CHECK a: paper=1,000 measured=1,100",
            "CHECK b: paper=50% measured=40%",
            "CHECK c (S6): paper=1 measured=2",
            "CHECK d: paper=0 measured=3",
            "CHECK e: paper=yes measured=no",
            "not a check line",
        ]).encode()
        total, parsed, numeric, median = run.fidelity({"x": report})
        self.assertEqual((total, parsed, numeric), (5, 4, 2))
        self.assertAlmostEqual(median, 0.15)

    def test_failures(self):
        clean = b"shards: 3 total, 3 ok, 0 retried, 0 quarantined\n"
        bad = b"shards: 3 total, 2 ok, 0 retried, 1 quarantined\n"
        reports = {"clean": clean, "bad": bad, "empty": b"", "gone": None}
        self.assertEqual(set(run.failures(reports, 0, [])),
                         {"bad", "empty", "gone"})
        self.assertEqual(set(run.failures({"clean": clean}, 2, [])),
                         {"clean"})
        stderr = ("vrdrepro: fig01 -> out/fig01.txt\n"
                  "vrdrepro: cache hits=0 misses=1 stores=1\n"
                  "vrdrepro: unknown flag --iters\n")
        self.assertEqual(run.error_lines(stderr, "vrdrepro"),
                         ["vrdrepro: unknown flag --iters"])

    def test_workload_sizes_match_the_baseline(self):
        baseline = json.loads(run.BASELINE.read_text())
        for workload in run.WORKLOADS:
            expected = baseline["workloads"][workload]["per_layer"]
            sizes = {name: expected[name] for name in run.WORKLOAD_SIZE}
            self.assertEqual(run.size_failures(workload, sizes), {})
            sizes["campaign.series"] -= 1
            self.assertEqual(set(run.size_failures(workload, sizes)),
                             {"campaign.series"})

    def test_declared_metrics_match_the_runner(self):
        self.assertEqual([(m["name"], m["unit"]) for m in BENCH["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in BENCH["per_layer"]],
                         run.PER_LAYER)
        self.assertEqual([w["name"] for w in BENCH["workloads"]],
                         list(run.WORKLOADS))


class SmokeTest(unittest.TestCase):
    def run_bench(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "2025", "--seconds", "1", "--trace", str(trace),
             "--smoke"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        lines = proc.stdout.strip().splitlines()
        return lines, json.loads(lines[-1])

    def test_every_metric_is_printed_with_its_unit(self):
        for workload in BENCH["workloads"]:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload["name"], trace=trace):
                    lines, result = self.run_bench(workload["name"], trace)
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"], lines)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    declared = {m["name"]: m["unit"] for m in BENCH[kind]}
                    self.assertEqual(set(result["metrics"]), set(declared))
                    for name, unit in declared.items():
                        metric = result["metrics"][name]
                        self.assertEqual(metric["unit"], unit)
                        self.assertIn(f"{name} = {metric['value']} {unit}",
                                      lines)


if __name__ == "__main__":
    unittest.main()
