#!/usr/bin/env python3
"""Compare a google-benchmark JSON run against a committed baseline.

CI perf gate (DESIGN.md section 9): the perf job runs
bench_perf_throughput (which self-records BENCH_perf.json) and this
script diffs it against the committed BENCH_pr<N>.json snapshot. A
benchmark that got more than --tolerance slower than the baseline
fails the gate.

Both inputs may be either a raw google-benchmark JSON file or a
committed BENCH_pr<N>.json wrapper (with "before"/"after" sections);
for wrappers the "after" section is the baseline. Only benchmarks
present in both files are compared, and each side is reduced to the
minimum real_time across its repetitions -- on shared CI boxes the
minimum is the least-interference estimate, so the gate measures the
code, not the neighbours.

Usage:
  bench_compare.py BASELINE.json CANDIDATE.json [--tolerance 0.15]
"""

import argparse
import json
import sys


def load_runs(path):
    """Map benchmark name -> minimum real_time (ns) across repetitions."""
    with open(path) as f:
        doc = json.load(f)
    if "after" in doc and "benchmarks" not in doc:
        doc = doc["after"]
    runs = {}
    for bench in doc.get("benchmarks", []):
        # Skip _mean/_median/_stddev aggregate rows; keep iteration runs.
        if bench.get("run_type", "iteration") != "iteration":
            continue
        name = bench.get("run_name", bench["name"])
        time = float(bench["real_time"])
        runs[name] = min(runs.get(name, float("inf")), time)
    return runs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("candidate", help="fresh BENCH_perf.json run")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.15,
        help="allowed slowdown fraction before failing (default 0.15)",
    )
    args = parser.parse_args(argv)

    baseline = load_runs(args.baseline)
    candidate = load_runs(args.candidate)
    shared = sorted(set(baseline) & set(candidate))
    if not shared:
        print("bench_compare: no shared benchmarks between "
              f"{args.baseline} and {args.candidate}", file=sys.stderr)
        return 2

    width = max(len(name) for name in shared)
    regressions = []
    for name in shared:
        base = baseline[name]
        cand = candidate[name]
        ratio = cand / base if base > 0 else float("inf")
        verdict = "ok"
        if ratio > 1.0 + args.tolerance:
            verdict = "REGRESSION"
            regressions.append(name)
        elif ratio < 1.0:
            verdict = "faster"
        print(f"{name:<{width}}  base {base:>12.0f} ns  "
              f"cand {cand:>12.0f} ns  x{ratio:.2f}  {verdict}")

    extra = sorted(set(candidate) - set(baseline))
    if extra:
        print(f"bench_compare: not in baseline, skipped: "
              f"{', '.join(extra)}")
    # A baseline benchmark with no candidate counterpart usually means
    # a benchmark was renamed or silently dropped — a gap the
    # regression gate cannot see through, so it gets its own exit code
    # (3) distinct from a measured regression (1).
    missing = sorted(set(baseline) - set(candidate))
    if missing:
        print(f"bench_compare: {len(missing)} baseline benchmark(s) "
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
          f"{args.tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
