#!/usr/bin/env python3
"""End-to-end benchmark of the `vrdrepro` reproduction driver.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--smoke]

Builds the tree in Release (target `vrdrepro` plus the traced harness
`perfbench_trace`, under .bench_build/ at the root of the checkout),
then runs one workload. Every workload is one `vrdrepro run` invocation
at paper default scale with `--threads=2 --seed=<seed>`; two threads fit
a shared 4-core box and still show a parallel speedup, with less
run-to-run noise than four.

--trace 0 times the unmodified `vrdrepro` binary from outside, repeating
the invocation until --seconds have passed, and reports the end-to-end
metrics (medians over the invocations of the run).
--trace 1 runs the workload through `perfbench_trace`, which mirrors
the driver loop over the experiment registry with spans around each
layer, times a few probes, runs the workload once untraced (see below)
and reports the per-layer metrics.

Both modes check the outputs: an experiment fails when vrdrepro exits
nonzero or prints an error line, when its report is missing or empty,
when a shard was quarantined, or when its report bytes differ from
another run of the same binary and seed (earlier invocations of this
run, earlier runs recorded under .bench_build/, and in trace mode the
traced harness). A run also fails when a workload-size count (CHECK
lines; in trace mode also campaign shards, series and measurements and
cache stores) differs from the seed commit's, recorded in
perfbench/baseline.json: these counts are fixed by the workload, so a
change means the program does less or other work, not faster work.
In trace mode the untraced twin runs when it fits in the run's time
limit or when no untraced run of the same binary, workload and seed is
recorded yet; otherwise the latest such run gives the reference wall
and CPU time. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--smoke substitutes each experiment's tiny CI parameters (the
benchmark's own test uses it); its timings mean nothing.
"""

import argparse
import fcntl
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build"
BUILD = WORK / "perfbench"
STATE = WORK / "perfbench-digests.json"
BASELINE = Path(__file__).resolve().parent / "baseline.json"
VRDREPRO = BUILD / "bench" / "vrdrepro"
HARNESS = BUILD / "perfbench" / "perfbench_trace"

THREADS = 2
SETUP_REPS = 301
# One run must end within 180 s; stop starting invocations after this.
RUN_DEADLINE_S = 150.0
CHILD_TIMEOUT_S = 170.0

# Why each workload exists: see BENCHMARK.json.
WORKLOADS = {
    "repro_full": {"experiments": None, "cache": True},
    "measure_series": {
        "experiments": ["fig01_rdt_series", "fig03_rdt_distribution",
                        "fig04_rdt_histograms", "fig05_run_lengths",
                        "fig07_cv_scurve"],
        "cache": False,
    },
}

# Which layer an experiment's analyze span belongs to. Anything not
# listed is layer.analysis_other_s.
ANALYZE_LAYER = {
    "fig08_min_rdt_probability": "min_rdt",
    "fig09_density_die_rev": "min_rdt",
    "fig10_data_pattern": "min_rdt",
    "fig11_taggon": "min_rdt",
    "fig12_temperature": "min_rdt",
    "fig15_guardband_probability": "min_rdt",
    "table07_module_summary": "min_rdt",
    "fig01_rdt_series": "series",
    "fig03_rdt_distribution": "series",
    "fig04_rdt_histograms": "series",
    "fig05_run_lengths": "series",
    "fig16_guardband_bitflips": "guardband",
    "fig14_mitigation_overhead": "memsim",
    "table03_ecc": "ecc",
}
LAYERS = ["min_rdt", "series", "campaign", "guardband", "memsim", "ecc",
          "analysis_other"]
EXPERIMENTS = [
    "ablation_fault_model", "ablation_security", "appendix_test_time",
    "blast_radius", "fig01_rdt_series", "fig03_rdt_distribution",
    "fig04_rdt_histograms", "fig05_run_lengths", "fig06_autocorrelation",
    "fig07_cv_scurve", "fig08_min_rdt_probability", "fig09_density_die_rev",
    "fig10_data_pattern", "fig11_taggon", "fig12_temperature",
    "fig13_true_anti_cell", "fig14_mitigation_overhead",
    "fig15_guardband_probability", "fig16_guardband_bitflips",
    "future_ddr5", "spatial_variation", "table01_population", "table03_ecc",
    "table07_module_summary",
]
CAMPAIGN_EXPERIMENTS = [
    "fig07_cv_scurve", "fig08_min_rdt_probability", "fig09_density_die_rev",
    "fig10_data_pattern", "fig11_taggon", "fig12_temperature",
    "fig15_guardband_probability", "table07_module_summary",
]

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
]
PER_LAYER = (
    [(f"layer.{layer}_s", "s") for layer in LAYERS]
    + [("driver.parse_s", "s"), ("driver.write_s", "s")]
    + [("cache.lookup_s", "s"), ("cache.store_s", "s"), ("cache.load_s", "s"),
       ("cache.hits", "count"), ("cache.misses", "count"),
       ("cache.stores", "count"), ("cache.bytes", "bytes")]
    + [("campaign.shards", "count"), ("campaign.series", "count"),
       ("campaign.measurements", "count"), ("campaign.meas_per_s", "1/s"),
       ("campaign.shard_s_max", "s"), ("campaign.busy_frac", "ratio"),
       ("campaign.retried", "count"), ("campaign.quarantined", "count")]
    + [(f"analyze.{name}_s", "s") for name in EXPERIMENTS]
    + [(f"campaign.{name}_s", "s") for name in CAMPAIGN_EXPERIMENTS]
    + [("probe.series_ns_per_meas", "ns"), ("probe.device_build_ms", "ms"),
       ("probe.memsim_ns_per_req", "ns"), ("probe.ecc_decode_ns", "ns")]
    + [("process.cpu_s", "s"), ("process.cpu_per_wall", "ratio")]
    + [("trace.wall_s", "s"), ("trace.overhead_frac", "ratio"),
       ("trace.coverage", "ratio")]
    + [("checks.total", "count"), ("checks.parsed", "count"),
       ("checks.numeric", "count"), ("checks.rel_err_median", "ratio")]
)

# Counts fixed by the workload (see the docstring); checked against
# BASELINE at paper scale.
WORKLOAD_SIZE = ["checks.total", "campaign.shards", "campaign.series",
                 "campaign.measurements", "cache.stores"]

CHECK_LINE = re.compile(r"^CHECK (\S+): paper=(.*) measured=(.*)$")
QUARANTINED = re.compile(r"(\d+) quarantined")
SHARD_LINE = re.compile(
    r"^campaign: .* degC: (\d+) rows, (\d+) series, (\d+) measurements "
    r"in (\S+) s")
DONE_LINE = re.compile(
    r"^campaign: done: (\d+) shards \((\d+) ok, (\d+) retried, "
    r"(\d+) quarantined, \d+ restored\), (\d+) series, (\d+) measurements "
    r"in (\S+) s wall on (\d+) thread")


def log(message):
    print(message, file=sys.stderr, flush=True)


def fail(message):
    log(f"perfbench: {message}")
    sys.exit(2)


# --------------------------------------------------------------- build


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no source tree at {ROOT}: nothing to build")
    WORK.mkdir(exist_ok=True)
    build_log = WORK / "perfbench-build.log"
    with open(WORK / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        commands = []
        if not (BUILD / "CMakeCache.txt").is_file():
            generator = "Ninja" if shutil.which("ninja") else "Unix Makefiles"
            commands.append([
                "cmake", "-S", str(ROOT), "-B", str(BUILD), "-G", generator,
                "-DCMAKE_BUILD_TYPE=Release",
                f"-DCMAKE_PROJECT_INCLUDE={ROOT / 'perfbench' / 'hook.cmake'}",
            ])
        commands.append([
            "cmake", "--build", str(BUILD), "--target", "vrdrepro",
            "perfbench_trace", "-j", str(min(4, os.cpu_count() or 1)),
        ])
        with open(build_log, "w") as out:
            for command in commands:
                if subprocess.run(command, stdout=out,
                                  stderr=subprocess.STDOUT).returncode != 0:
                    tail = build_log.read_text(errors="replace")[-3000:]
                    fail(f"build failed: {' '.join(command)}\n{tail}")


# ------------------------------------------------------------- children


def run_child(argv, stdout_path, stderr_path):
    """Runs argv to completion; returns (exit code, wall s, rusage).
    A timeout, SIGTERM or SIGINT kills the child and waits for it."""
    stopped = []

    def stop(*_):
        stopped.append(True)
        proc.kill()

    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        handlers = {sig: signal.signal(sig, stop)
                    for sig in (signal.SIGTERM, signal.SIGINT)}
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            for sig, handler in handlers.items():
                signal.signal(sig, handler)
        wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code
    if stopped:
        fail(f"stopped while running {argv[0]}")
    return code, wall, usage


def fresh_dirs(base):
    shutil.rmtree(base, ignore_errors=True)
    (base / "out").mkdir(parents=True)
    (base / "cache").mkdir()


def setup_once(base):
    """Fresh output and cache directories plus one `vrdrepro list`,
    whose output goes to a file so that no pipe is timed."""
    shutil.rmtree(base, ignore_errors=True)
    start = time.perf_counter()
    (base / "out").mkdir(parents=True)
    (base / "cache").mkdir()
    with open(base / "list", "wb") as out:
        code = subprocess.Popen([str(VRDREPRO), "list"], stdout=out,
                                cwd=ROOT).wait()
    seconds = time.perf_counter() - start
    if code != 0:
        fail(f"vrdrepro list failed with exit code {code}")
    names = [line.split()[0] for line in
             (base / "list").read_text().splitlines() if line.strip()]
    return seconds, names


def workload_args(workload, seed, base, smoke):
    spec = WORKLOADS[workload]
    args = list(spec["experiments"] or ["--all"])
    if smoke:
        args.append("--smoke")
    args += [f"--threads={THREADS}", f"--seed={seed}"]
    if spec["cache"]:
        args.append(f"--cache_dir={base / 'cache'}")
    else:
        args.append("--no-cache")
    args.append(f"--out_dir={base / 'out'}")
    return args


# ----------------------------------------------------------- evaluation


def error_lines(stderr_text, program):
    """Lines where the program reports an error, not progress."""
    prefix = f"{program}: "
    return [line for line in stderr_text.splitlines()
            if line.startswith(prefix) and " -> " not in line
            and not line.startswith(prefix + "cache hits=")]


def collect_reports(out_dir, names):
    reports = {}
    for name in names:
        path = out_dir / f"{name}.txt"
        reports[name] = path.read_bytes() if path.is_file() else None
    return reports


def failures(reports, code, errors):
    """Experiment name -> reason, for each failed experiment."""
    failed = {}
    for name, data in reports.items():
        if code != 0 or errors:
            failed[name] = f"exit {code}, errors: {errors[:2]}"
        elif not data:
            failed[name] = "report missing or empty"
        else:
            for line in data.decode(errors="replace").splitlines():
                match = QUARANTINED.search(line)
                if line.startswith("shards:") and match and int(match[1]):
                    failed[name] = f"quarantined shards: {line}"
    return failed


def digests(reports):
    return {name: hashlib.sha256(data).hexdigest()
            for name, data in reports.items() if data}


def report_digest(reports):
    whole = hashlib.sha256()
    for name in sorted(reports):
        whole.update(name.encode() + b"\0" + (reports[name] or b"") + b"\0")
    return whole.hexdigest()


def binary_id():
    return hashlib.sha256(VRDREPRO.read_bytes()).hexdigest()[:16]


def load_state():
    return json.loads(STATE.read_text()) if STATE.is_file() else {}


def save_state(state):
    tmp = STATE.with_suffix(".tmp")
    tmp.write_text(json.dumps(state, indent=1, sort_keys=True))
    tmp.replace(STATE)


def check_repeatable(key, reports, failed):
    """Marks experiments whose report differs from an earlier run with
    the same binary, workload and seed; records new digests."""
    state = load_state()
    known = state.setdefault(key, {})
    for name, digest in digests(reports).items():
        if name in known and known[name] != digest:
            failed.setdefault(name, "report differs from an earlier run")
        known.setdefault(name, digest)
    save_state(state)


def record_reference(key, untraced):
    """Keeps the latest untraced wall and CPU time of a binary, workload
    and seed, for traced runs that have no time for their own."""
    state = load_state()
    state[key] = {"wall": untraced["wall"], "cpu": untraced["cpu"]}
    save_state(state)


def size_failures(workload, counts):
    """Workload-size counts that differ from the seed commit's, as
    failure reasons keyed by metric name."""
    expected = json.loads(BASELINE.read_text())["workloads"][workload][
        "per_layer"]
    return {name: f"{counts[name]} where the seed commit has "
                  f"{expected[name]}"
            for name in counts if counts[name] != expected[name]}


def parse_number(text):
    try:
        return float(text.replace(",", "").replace("%", "").strip())
    except ValueError:
        return None


def fidelity(reports):
    """(lines, parsed, numeric, median |measured - paper| / |paper|)."""
    total = parsed = 0
    errors = []
    for data in reports.values():
        for line in (data or b"").decode(errors="replace").splitlines():
            if not line.startswith("CHECK "):
                continue
            total += 1
            match = CHECK_LINE.match(line)
            if not match:
                continue
            parsed += 1
            paper, measured = parse_number(match[2]), parse_number(match[3])
            if paper is None or measured is None or paper == 0:
                continue
            errors.append(abs(measured - paper) / abs(paper))
    return total, parsed, len(errors), (
        statistics.median(errors) if errors else 0.0)


# ------------------------------------------------------------- untraced


def untraced_invocation(workload, seed, base, smoke, names):
    fresh_dirs(base)
    argv = [str(VRDREPRO), "run"] + workload_args(workload, seed, base, smoke)
    code, wall, usage = run_child(argv, base / "stdout", base / "stderr")
    stderr_text = (base / "stderr").read_text(errors="replace")
    reports = collect_reports(base / "out", names)
    failed = failures(reports, code, error_lines(stderr_text, "vrdrepro"))
    return {
        "wall": wall,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "cpu": usage.ru_utime + usage.ru_stime,
        "reports": reports,
        "failed": failed,
    }


def measure_untraced(args, names, base, setup_samples):
    start = time.perf_counter()
    runs = []
    while not runs or (
            time.perf_counter() - start < args.seconds and
            time.perf_counter() - start + runs[-1]["wall"] < RUN_DEADLINE_S):
        runs.append(untraced_invocation(args.workload, args.seed, base,
                                        args.smoke, names))
        if len(runs) > 1:
            for name, digest in digests(runs[-1]["reports"]).items():
                if digests(runs[0]["reports"]).get(name, digest) != digest:
                    runs[-1]["failed"].setdefault(
                        name, "report differs within the run")
    total, _, _, rel_err = fidelity(runs[0]["reports"])
    log(f"perfbench: {len(runs)} invocation(s), wall "
        + ", ".join(f"{run['wall']:.3f}" for run in runs) + " s")
    # Deterministic for a seed but not across seeds, so it is printed
    # here and recorded as the per-layer checks.rel_err_median.
    print(f"check_rel_err_median = {rel_err} ratio")
    return runs, {
        "wall_s": statistics.median(run["wall"] for run in runs),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": statistics.median(run["rss_mb"] for run in runs),
    }, {"checks.total": total}


# --------------------------------------------------------------- traced


def self_times(spans):
    child = [0.0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            child[span["parent"]] += span["end"] - span["start"]
    return [span["end"] - span["start"] - child[i]
            for i, span in enumerate(spans)]


def campaign_counters(trace, spans, selves):
    counters = {key: 0 for key in ("shards", "series", "measurements",
                                   "retried", "quarantined")}
    shard_seconds, shard_max, capacity = 0.0, 0.0, 0.0
    span_of = {span["experiment"]: selves[i] for i, span in enumerate(spans)
               if span["name"] == "campaign"}
    for campaign in trace["campaigns"]:
        for line in campaign["progress"].splitlines():
            shard = SHARD_LINE.match(line)
            if shard:
                seconds = float(shard[4])
                shard_seconds += seconds
                shard_max = max(shard_max, seconds)
            done = DONE_LINE.match(line)
            if done:
                counters["shards"] += int(done[1])
                counters["retried"] += int(done[3])
                counters["quarantined"] += int(done[4])
                counters["series"] += int(done[5])
                counters["measurements"] += int(done[6])
                capacity += (span_of.get(campaign["experiment"], 0.0)
                             * int(done[8]))
    campaign_s = sum(span_of.values())
    metrics = {f"campaign.{key}": value for key, value in counters.items()}
    metrics["campaign.meas_per_s"] = (
        counters["measurements"] / campaign_s if campaign_s else 0.0)
    metrics["campaign.shard_s_max"] = shard_max
    metrics["campaign.busy_frac"] = (
        shard_seconds / capacity if capacity else 0.0)
    return metrics


def layer_metrics(trace, reference, cache_bytes):
    spans = trace["spans"]
    selves = self_times(spans)
    metrics = {name: 0.0 for name, unit in PER_LAYER
               if name.startswith(("layer.", "driver.", "cache.",
                                   "analyze.", "campaign."))}
    leaves = 0.0
    for span, self_s in zip(spans, selves):
        name, experiment = span["name"], span["experiment"]
        if name == "analyze":
            layer = ANALYZE_LAYER.get(experiment, "analysis_other")
            metrics[f"layer.{layer}_s"] += self_s
            if f"analyze.{experiment}_s" in metrics:
                metrics[f"analyze.{experiment}_s"] = self_s
        elif name == "campaign":
            metrics["layer.campaign_s"] += self_s
            if f"campaign.{experiment}_s" in metrics:
                metrics[f"campaign.{experiment}_s"] = self_s
        elif name in ("driver.parse", "driver.write", "cache.lookup",
                      "cache.store", "cache.load"):
            metrics[f"{name}_s"] += self_s
        if name not in ("run", "experiment", "cache.load"):
            leaves += self_s
    run_s = next(span["end"] - span["start"] for span in spans
                 if span["name"] == "run")
    cache = trace["cache"]
    metrics.update({
        "cache.hits": cache["hits"],
        "cache.misses": cache["misses"],
        "cache.stores": cache["stores"],
        "cache.bytes": cache_bytes,
        "trace.wall_s": run_s,
        "trace.overhead_frac": run_s / reference["wall"] - 1.0,
        "trace.coverage": leaves / run_s if run_s else 0.0,
        "process.cpu_s": reference["cpu"],
        "process.cpu_per_wall": reference["cpu"] / reference["wall"],
    })
    metrics.update(campaign_counters(trace, spans, selves))
    return metrics


def measure_traced(args, names, base, ref_key):
    start = time.perf_counter()
    traced_base = base.with_name(base.name + "-traced")
    fresh_dirs(traced_base)
    trace_file = traced_base / "trace.json"
    argv = ([str(HARNESS), "run"]
            + workload_args(args.workload, args.seed, traced_base, args.smoke)
            + [f"--trace_out={trace_file}"])
    code, traced_wall, _ = run_child(argv, traced_base / "stdout",
                                     traced_base / "stderr")
    stderr_text = (traced_base / "stderr").read_text(errors="replace")
    if code != 0 or not trace_file.is_file():
        fail(f"traced harness failed (exit {code}):\n{stderr_text[-2000:]}")
    traced = {"reports": collect_reports(traced_base / "out", names)}
    traced["failed"] = failures(traced["reports"], code,
                                error_lines(stderr_text, "perfbench_trace"))

    probe_file = traced_base / "probe.json"
    probe_argv = [str(HARNESS), "probe", f"--seed={args.seed}",
                  f"--trace_out={probe_file}"] + (
                      ["--smoke"] if args.smoke else [])
    code, _, _ = run_child(probe_argv, traced_base / "probe.stdout",
                           traced_base / "probe.stderr")
    if code != 0:
        fail("probe failed:\n" + (traced_base / "probe.stderr").read_text(
            errors="replace")[-2000:])
    probes = json.loads(probe_file.read_text())

    # The untraced twin of this run doubles its length. When it would
    # not fit in the run's time limit, the latest untraced run of this
    # binary, workload and seed stands in for its wall and CPU time, and
    # the traced reports are checked against the digests recorded for
    # this seed (check_repeatable).
    runs = [traced]
    if (time.perf_counter() - start + traced_wall < RUN_DEADLINE_S
            or ref_key not in load_state()):
        untraced = untraced_invocation(args.workload, args.seed, base,
                                       args.smoke, names)
        record_reference(ref_key, untraced)
        for name, data in traced["reports"].items():
            if data != untraced["reports"][name]:
                traced["failed"].setdefault(
                    name, "traced report differs from vrdrepro's")
        runs.insert(0, untraced)
    reference = load_state()[ref_key]
    if len(runs) == 1:
        log("perfbench: untraced reference taken from an earlier run "
            "of this seed")

    metrics = layer_metrics(
        json.loads(trace_file.read_text()), reference,
        sum(p.stat().st_size for p in (traced_base / "cache").glob("*")))
    for key in ("series_ns_per_meas", "device_build_ms", "memsim_ns_per_req",
                "ecc_decode_ns"):
        metrics[f"probe.{key}"] = probes[key]
    total, parsed, numeric, rel_err = fidelity(traced["reports"])
    metrics.update({"checks.total": total, "checks.parsed": parsed,
                    "checks.numeric": numeric,
                    "checks.rel_err_median": rel_err})
    return runs, metrics, {name: metrics[name] for name in WORKLOAD_SIZE}


# ----------------------------------------------------------------- main


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    build()
    base = WORK / "perfbench-work" / args.workload
    setup_samples = []
    for _ in range(SETUP_REPS):
        seconds, listed = setup_once(base)
        setup_samples.append(seconds)
    names = WORKLOADS[args.workload]["experiments"] or listed

    key = f"{binary_id()}|{args.workload}|{args.seed}|{int(args.smoke)}"
    ref_key = f"{key}|reference"
    if args.trace:
        runs, values, sizes = measure_traced(args, names, base, ref_key)
        declared = PER_LAYER
    else:
        runs, values, sizes = measure_untraced(args, names, base,
                                               setup_samples)
        record_reference(ref_key, runs[0])
        declared = END_TO_END
    # --smoke shrinks every workload, so its sizes are not the baseline's.
    if not args.smoke:
        runs[0]["failed"].update(size_failures(args.workload, sizes))

    for run in runs:
        check_repeatable(key, run["reports"], run["failed"])
        for name, reason in sorted(run["failed"].items()):
            log(f"perfbench: FAILED {name}: {reason}")
    attempted = (sum(len(run["reports"]) for run in runs)
                 + (0 if args.smoke else len(sizes)))
    failed = sum(len(run["failed"]) for run in runs)
    values["ok_frac"] = 1.0 - failed / attempted
    print(f"failed_frac = {failed / attempted} ratio ({failed} of "
          f"{attempted} experiments and size checks)")

    print(f"report digest {args.workload} seed={args.seed}: "
          f"{report_digest(runs[0]['reports'])}")
    metrics = {}
    for name, unit in declared:
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name} = {values[name]} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
