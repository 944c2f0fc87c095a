#!/usr/bin/env python3
"""Runs perfbench/run.py over seeds 1-10 and summarizes the spread.

    python3 perfbench/collect.py [--trace] [--out perfbench/baseline.json]

Every workload of BENCHMARK.json runs for its run_seconds, once per
seed. For each workload and end-to-end metric it prints the median, the
quartiles (statistics.quantiles(values, n=4)) and the spread, i.e. the
distance between the quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json. With --trace it also makes one
traced run per workload (seed 1) and records each layer's share of
the traced wall time. --out writes all of it as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = list(range(1, 11))
LAYERS = ["layer.min_rdt_s", "layer.series_s", "layer.campaign_s",
          "layer.guardband_s", "layer.memsim_s", "layer.ecc_s",
          "layer.analysis_other_s", "driver.parse_s", "driver.write_s",
          "cache.lookup_s", "cache.store_s"]


def run(workload, seed, trace):
    start = time.perf_counter()
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(BENCH["run_seconds"]),
            "--trace", str(int(trace))]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} failed:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{' '.join(argv)} reported incorrect output:\n"
                 f"{proc.stderr[-2000:]}")
    result["run_s"] = time.perf_counter() - start
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}

    summary = {"seeds": SEEDS, "run_seconds": BENCH["run_seconds"],
               "workloads": {}}
    for workload in (w["name"] for w in BENCH["workloads"]):
        values = {name: [] for name in bounds}
        run_s = []
        for seed in SEEDS:
            result = run(workload, seed, trace=False)
            run_s.append(result["run_s"])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed={seed} " + " ".join(
                f"{name}={values[name][-1]:.6g}" for name in bounds),
                flush=True)
        entry = {"end_to_end": {}, "run_s": run_s}
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else 0.0
            entry["end_to_end"][name] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread,
                "values": series}
            flag = "" if spread < bounds[name] / 3 else "  <-- >= bound/3"
            print(f"  {name}: median {median:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {spread:.4f} (bound {bounds[name]}){flag}",
                  flush=True)
        if args.trace:
            traced = run(workload, SEEDS[0], trace=True)
            metrics = {k: v["value"] for k, v in traced["metrics"].items()}
            wall = metrics["trace.wall_s"]
            entry["layer_shares"] = {
                name: metrics[name] / wall for name in LAYERS}
            entry["per_layer"] = metrics
            entry["traced_run_s"] = traced["run_s"]
            print("  shares: " + " ".join(
                f"{name}={share:.3f}"
                for name, share in entry["layer_shares"].items()), flush=True)
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
