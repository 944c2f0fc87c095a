#!/usr/bin/env python3
"""Compare google-benchmark JSON runs of a base build and a candidate.

CI perf gate (DESIGN.md section 9): the perf job builds
bench_perf_throughput for the change and for its base, runs the two
binaries in interleaved rounds on the same machine, and this script
compares them. A benchmark that got more than --tolerance slower than
the base fails the gate.

Each side may be given several raw google-benchmark JSON files (one per
round). Only benchmarks present on both sides are compared, and each
side is reduced to its minimum across all of its files and repetitions
-- on shared CI boxes the minimum is the least-interference estimate,
so the gate measures the code, not the neighbours.

The compared quantity is the time per item, 1 / items_per_second, when
both sides report items_per_second for a benchmark, so a change to the
fixture (how many items one iteration processes) is not read as a
speed-up or a regression; otherwise it is the time per iteration,
real_time.

Usage:
  bench_compare.py --base BASE.json... --candidate CAND.json...
                   [--tolerance 0.15]
"""

import argparse
import json
import sys


def load_runs(paths):
    """Map benchmark name -> {"real": minimum real_time (ns), "item":
    minimum time per item (ns), or None if a row lacks items_per_second}."""
    runs = {}
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        for bench in doc.get("benchmarks", []):
            # Skip _mean/_median/_stddev aggregate rows; keep iterations.
            if bench.get("run_type", "iteration") != "iteration":
                continue
            name = bench.get("run_name", bench["name"])
            rate = float(bench.get("items_per_second", 0.0))
            item = 1e9 / rate if rate > 0 else None
            entry = runs.setdefault(
                name, {"real": float("inf"), "item": float("inf")})
            entry["real"] = min(entry["real"], float(bench["real_time"]))
            if item is None or entry["item"] is None:
                entry["item"] = None
            else:
                entry["item"] = min(entry["item"], item)
    return runs


def compared(base, cand):
    """The (base, candidate, unit) pair the gate compares."""
    if base["item"] is not None and cand["item"] is not None:
        return base["item"], cand["item"], "ns/item"
    return base["real"], cand["real"], "ns"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--base", nargs="+", required=True,
                        help="JSON runs of the base build")
    parser.add_argument("--candidate", nargs="+", required=True,
                        help="JSON runs of the candidate build")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.15,
        help="allowed slowdown fraction before failing (default 0.15)",
    )
    args = parser.parse_args(argv)

    baseline = load_runs(args.base)
    candidate = load_runs(args.candidate)
    shared = sorted(set(baseline) & set(candidate))
    if not shared:
        print("bench_compare: no shared benchmarks between base and "
              "candidate", file=sys.stderr)
        return 2

    width = max(len(name) for name in shared)
    regressions = []
    for name in shared:
        base, cand, unit = compared(baseline[name], candidate[name])
        ratio = cand / base if base > 0 else float("inf")
        verdict = "ok"
        if ratio > 1.0 + args.tolerance:
            verdict = "REGRESSION"
            regressions.append(name)
        elif ratio < 1.0:
            verdict = "faster"
        print(f"{name:<{width}}  base {base:>12.1f} {unit:<7}  "
              f"cand {cand:>12.1f} {unit:<7}  x{ratio:.2f}  {verdict}")

    extra = sorted(set(candidate) - set(baseline))
    if extra:
        print(f"bench_compare: not in base, not gated: "
              f"{', '.join(extra)}")
    # A base benchmark with no candidate counterpart usually means a
    # benchmark was renamed or silently dropped -- a gap the regression
    # gate cannot see through, so it gets its own exit code (3)
    # distinct from a measured regression (1).
    missing = sorted(set(baseline) - set(candidate))
    if missing:
        print(f"bench_compare: {len(missing)} base benchmark(s) "
              f"missing from candidate: {', '.join(missing)}",
              file=sys.stderr)
    if regressions:
        print(f"bench_compare: {len(regressions)} benchmark(s) regressed "
              f"beyond {args.tolerance:.0%}: {', '.join(regressions)}",
              file=sys.stderr)
        return 1
    if missing:
        return 3
    print(f"bench_compare: {len(shared)} benchmark(s) within "
          f"{args.tolerance:.0%} of base")
    return 0


if __name__ == "__main__":
    sys.exit(main())
