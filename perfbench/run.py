"""oqmetro benchmark: the three README headline CLI runs, end to end and
layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload advantage-map --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --trace 0    # every workload
    python3 perfbench/run.py --workload all --trace 1 --smoke --seconds 1

Each workload runs ``oqmetro.cli.main`` closed-loop, one pass after
another in a single process, with ``OQMETRO_THREADS`` removed from the
environment so the default single-thread path runs, and with one BLAS
thread.  Every pass's output
is checked against a reference (see ``workloads.py``).

``--trace 0`` reports the end-to-end metrics.  Fresh worker processes
run passes until ``--seconds`` have passed, with import-only
interpreters between them.  ``setup_s`` is the median time a fresh
interpreter takes to import ``oqmetro.cli``.  Each worker gives one cold
pass, whose median over the workers is ``first_pass_s``, and warm
passes, whose median sets ``throughput``.  An item is a grid point
(advantage-map), an output row (fi-sweep) or a Monte-Carlo trial
(estimate).  ``peak_rss_mb`` is the median peak RSS of the workers.
``error_rate`` is failed over attempted passes.  It is printed in the
report but is not a metric of BENCHMARK.json, whose end-to-end metrics
must never be 0; the result's ``attempted`` and ``failed`` carry it.

``--trace 1`` reports the per-layer metrics from one worker that runs
untraced passes for half the time and traced passes (``tracer.py``) for
the other half.  Layers are the package modules; ``linalg``, which only
``measurement`` calls, counts as ``measurement`` self time.  A layer's
``self_s`` is the per-pass self time of all its traced functions and
``.calls`` are exact counts per pass.  The call counts of the parent
commit are listed in ``workloads.py``; a mismatch is reported.

Times are scaled to a nominal host speed (see NOMINAL_CALIBRATION_S).

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A results file with the
samples and provenance is written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_CHILDREN = 9
SMOKE_SETUP_CHILDREN = 3
# Each worker of an end-to-end run passes for 1/WORKER_SHARE of --seconds
# (at least one cold and one warm pass), and at least MIN_WORKERS run.
# Cold passes vary by about 20% between processes, so first_pass_s needs
# many short-lived workers rather than a few long ones.
WORKER_SHARE = 20
MIN_WORKERS = 3
CHILD_GRACE_S = 30
# The shared host's speed drifts by up to 2x over seconds to minutes, so
# raw medians of whole runs spread by 25-45%.  Every timing is scaled by
# NOMINAL_CALIBRATION_S over the mean of the calibration runs the worker
# made just before and after it: times are reported at the host speed at
# which the calibration kernel (worker.calibrate) takes 20 ms.  Raw times
# stay in the results file.
NOMINAL_CALIBRATION_S = 0.02

LAYERS = ("measurement", "probe", "oq", "fisher", "estimation", "cli")
# traced functions reported one by one, with the counters reported for each
FUNCTION_METRICS = {
    "measurement.bloch_povm": ("calls", "self_s"),
    "measurement.sequential_povm": ("calls", "self_s"),
    "measurement.build_hovm": ("calls", "self_s"),
    "probe.make_state": ("calls", "self_s"),
    "oq.evaluate_oq": ("calls", "self_s"),
    "oq.oq_derivatives": ("calls", "self_s"),
    "fisher.advantage": ("calls", "self_s"),
    "fisher.oqfi": ("calls", "self_s"),
    "fisher.qfi_pure": ("calls", "self_s"),
    "fisher.fisher_discrete": ("calls", "self_s"),
    "estimation.sample_counts": ("calls", "self_s"),
    "estimation.model_values": ("calls", "self_s"),
    "estimation.log_likelihood": ("calls", "self_s"),
    "estimation.golden_section_maximize": ("calls", "self_s"),
    "estimation.mle_estimate": ("calls", "self_s", "raised"),
    "estimation.lep_estimate": ("calls", "self_s", "raised"),
    "cli.write_table": ("self_s",),
}
# calls of one function per item: wasted or repeated work shows here
PER_ITEM = {
    "probe.make_state.per_item": ("probe.make_state", "calls/item"),
    "fisher.useful_share": ("fisher.advantage", "fraction"),
    "estimation.model_values.per_trial": ("estimation.model_values", "calls/trial"),
}
UNITS = {"calls": "count", "self_s": "s", "raised": "count"}


class WorkerFailed(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("OQMETRO_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    # oqmetro's linear algebra is on 2x2 matrices, where BLAS threads never
    # engage, but numpy's import starts a BLAS thread pool whose start-up
    # time on a loaded 2-core host swings between 0.06 and 0.15 s
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def run_worker(args: list, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *map(str, args)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), timeout=timeout,
                              capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker {args[0]} timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        raise WorkerFailed(f"worker {args[0]} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    report = json.loads(proc.stdout.splitlines()[-1])
    if not Path(report["module_file"]).resolve().is_relative_to(SRC):
        raise WorkerFailed(f"imported {report['module_file']}, not the checkout's src")
    return report


def pass_scales(report: dict, passes: list) -> list:
    """Factor taking each pass's seconds to nominal host speed."""
    runs = report["calibration"][1:] + [p["calibration"] for p in passes]
    return [2 * NOMINAL_CALIBRATION_S / (a + b) for a, b in zip(runs, runs[1:])]


def import_split(reports: list) -> dict:
    """Medians over fresh interpreters of the import split and its total."""
    scales = [2 * NOMINAL_CALIBRATION_S / sum(r["calibration"]) for r in reports]
    numpy_s = [r["import"]["numpy_s"] * f for r, f in zip(reports, scales)]
    oqmetro_s = [r["import"]["oqmetro_s"] * f for r, f in zip(reports, scales)]
    return {
        "numpy_s": statistics.median(numpy_s),
        "oqmetro_s": statistics.median(oqmetro_s),
        "setup_s": statistics.median(a + b for a, b in zip(numpy_s, oqmetro_s)),
        "samples": [r["import"] for r in reports],
        "numpy_version": reports[0]["numpy_version"],
    }


def count_failures(passes: list) -> tuple:
    errors = [p["error"] for p in passes if p["error"]]
    return len(passes), len(errors), errors[:1]


def end_to_end(workload, seed: int, seconds: float, smoke: bool) -> dict:
    workers, problems, interpreters = [], [], []
    attempted = failed = 0
    start = time.monotonic()
    while len(workers) < MIN_WORKERS or time.monotonic() - start < seconds:
        share = seconds / WORKER_SHARE
        # import-only interpreters run between the workers, so set-up is
        # sampled across the whole run like the passes are
        interpreters.append(run_worker(["import"], CHILD_GRACE_S))
        try:
            report = run_worker(["passes", workload.name, seed, share, int(smoke)],
                                share + CHILD_GRACE_S)
        except WorkerFailed as exc:
            attempted, failed = attempted + 1, failed + 1
            problems.append(str(exc))
            break
        n, bad, errors = count_failures(report["passes"])
        if workers and report["sha256"] != workers[0]["sha256"]:
            bad = n
            errors = ["output differs between worker processes"]
        attempted, failed = attempted + n, failed + bad
        problems += errors
        workers.append(report)
        interpreters.append(report)
    if not workers:
        raise WorkerFailed("; ".join(problems))
    imports = import_split(interpreters)
    cold, warm = [], []
    for w in workers:
        seconds = [p["seconds"] * f
                   for p, f in zip(w["passes"], pass_scales(w, w["passes"]))]
        cold.append(seconds[0])
        warm += seconds[1:]
    metrics = {
        "setup_s": (imports["setup_s"], "s"),
        "first_pass_s": (statistics.median(cold), "s"),
        "throughput": (workload.item_count(smoke) / statistics.median(warm), "items/s"),
        "peak_rss_mb": (statistics.median(w["rss_mb"] for w in workers), "MB"),
    }
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems, "imports": imports, "workers": workers}


def _self_s(spans: dict, prefix: str) -> float:
    return sum(v[1] for k, v in spans.items() if k.startswith(prefix))


def per_layer(workload, seed: int, seconds: float, smoke: bool) -> dict:
    interpreters = [run_worker(["import"], CHILD_GRACE_S)
                    for _ in range(SMOKE_SETUP_CHILDREN if smoke else SETUP_CHILDREN)]
    report = run_worker(["trace", workload.name, seed, seconds, int(smoke)],
                        seconds + CHILD_GRACE_S)
    imports = import_split(interpreters + [report])
    trace = report["trace"]
    traced = trace["passes"]
    attempted, failed, problems = count_failures(report["passes"] + traced)
    if not trace["restored"]:
        problems.append("traced functions were not restored")
    first = traced[0]
    scales = pass_scales(report, report["passes"] + traced)
    untraced_scales = scales[:len(report["passes"])]
    traced_scales = scales[len(report["passes"]):]
    counts = [({k: v[0::2] for k, v in p["spans"].items()}, p["layer_raised"], p["omitted"])
              for p in traced]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("call counts differ between traced passes")
    items = workload.item_count(smoke)

    def spans(key: str, p: dict = first) -> list:
        return p["spans"].get(key, [0, 0.0, 0])

    def median_over_passes(fn) -> float:
        """Median over the traced passes of a time, at nominal host speed."""
        return statistics.median(fn(p) * f for p, f in zip(traced, traced_scales))

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (median_over_passes(
            lambda p: _self_s(p["spans"], layer + ".")), "s")
    for key, fields in FUNCTION_METRICS.items():
        for f in fields:
            if f == "self_s":
                value = median_over_passes(lambda p: spans(key, p)[1])
            else:
                value = spans(key)[0 if f == "calls" else 2]
            metrics[f"{key}.{f}"] = (value, UNITS[f])
    for name, (key, unit) in PER_ITEM.items():
        metrics[name] = (spans(key)[0] / items, unit)
    metrics["fisher.raised"] = (first["layer_raised"].get("fisher", 0), "count")
    metrics["estimation.omitted"] = (first["omitted"], "count")
    metrics["cli.write_table.bytes"] = (report["bytes"], "bytes")
    metrics["import.numpy_s"] = (imports["numpy_s"], "s")
    metrics["import.oqmetro_s"] = (imports["oqmetro_s"], "s")
    untraced_warm = statistics.median(
        p["seconds"] * f for p, f in zip(report["passes"][1:], untraced_scales[1:]))
    metrics["trace.overhead_s"] = (
        median_over_passes(lambda p: p["seconds"]) - untraced_warm, "s")
    metrics["trace.unattributed_s"] = (median_over_passes(
        lambda p: p["seconds"] - _self_s(p["spans"], "")), "s")
    # The table in workloads.py holds the counts of the benchmark's parent
    # commit.  A change may reduce them on purpose, so a mismatch is
    # reported, not treated as a wrong result.
    reference_counts = {k: spans(k)[0] for k in workload.calls}
    counts_match = smoke or reference_counts == workload.calls
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems, "imports": imports, "worker": report,
            "reference_counts": {"expected": workload.calls,
                                 "measured": reference_counts,
                                 "match": counts_match}}


def provenance(seed: int, seconds: float, trace: bool, smoke: bool,
               numpy_version: str) -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                                 capture_output=True, text=True).stdout.strip() or sha
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": sha,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "nominal_calibration_s": NOMINAL_CALIBRATION_S,
        "oqmetro_threads": "cleared",
        "openblas_num_threads": "1",
        "oqmetro_threads_in_caller": os.environ.get("OQMETRO_THREADS"),
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_workload(workload, args) -> dict:
    measure = per_layer if args.trace else end_to_end
    result = measure(workload, args.seed, args.seconds, args.smoke)
    result["workload"] = workload.name
    result["argv"] = workload.command(args.seed, args.smoke)
    numpy_version = result["imports"]["numpy_version"]
    result["provenance"] = provenance(args.seed, args.seconds, bool(args.trace),
                                      args.smoke, numpy_version)
    result["provenance"]["tracing_overhead_s"] = (
        result["metrics"]["trace.overhead_s"][0] if args.trace else None)
    RESULTS.mkdir(exist_ok=True)
    size = "smoke-" if args.smoke else ""
    path = RESULTS / f"{size}{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    return result


def print_report(result: dict) -> None:
    name = result["workload"]
    rows = dict(result["metrics"])
    rows["error_rate"] = (result["failed"] / result["attempted"], "fraction")
    for metric, (value, unit) in rows.items():
        print(f"{name:14} {metric:42} {value:14.6g} {unit}")
    for problem in result["problems"]:
        print(f"{name:14} FAILED: {problem}")
    counts = result.get("reference_counts")
    if counts and not counts["match"]:
        print(f"{name:14} call counts differ from the parent-commit table: "
              f"{counts['measured']} (table {counts['expected']})")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed of the estimate workload (default %(default)s)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, to check that the benchmark runs")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "oqmetro" / "cli.py").is_file():
        print(f"error: no oqmetro package under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        run_worker(["import"], CHILD_GRACE_S)  # fills the bytecode cache
        results = [run_workload(WORKLOADS[n], args) for n in names]
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for result in results:
        print_report(result)
    correct = all(not r["problems"] and r["failed"] == 0 for r in results)
    multi = len(results) > 1
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}/{m}" if multi else m): {"value": v, "unit": u}
            for r in results for m, (v, u) in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
