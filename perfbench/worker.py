"""One fresh interpreter of the benchmark.

It times its own import of numpy and ``oqmetro.cli`` (the package must be
on ``PYTHONPATH``), then runs passes of one workload through
``oqmetro.cli.main`` with stdout captured in memory, and prints one JSON
report on stdout:

    python3 perfbench/worker.py import
    python3 perfbench/worker.py passes WORKLOAD SEED SECONDS SMOKE
    python3 perfbench/worker.py trace WORKLOAD SEED SECONDS SMOKE

``passes`` runs a cold pass, then warm passes until SECONDS have passed.
``trace`` does the same untraced for half the time, then traced for the
other half.  Every pass's output is checked.  Calibration runs come
before and after the import and after every pass, so the caller can tell
how fast the host ran around each timing.
"""

import sys
import time

CALIBRATION_ROUNDS = 80_000


def calibrate() -> float:
    """Seconds this process takes for a fixed piece of interpreter work.

    It imports nothing and calls none of the program's functions, so it
    can run before the timed import and does not warm the cold pass.
    """
    acc = 0.0
    parts = []
    table = {}
    start = time.perf_counter()
    for i in range(CALIBRATION_ROUNDS):
        x = (i % 97) * 0.5 + 1.0
        acc += x * x / (x + 1.0)
        table[i & 255] = acc
        if i % 16 == 0:
            parts.append(repr(acc))
    "".join(parts)
    return time.perf_counter() - start


# nothing else is imported before these timers, so they see what a fresh
# CLI process pays
_calibration_before_import = calibrate()
_t0 = time.perf_counter()
import numpy  # noqa: E402
_t1 = time.perf_counter()
import oqmetro.cli  # noqa: E402
_t2 = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 2  # a cold pass and at least one warm pass


def run_pass(argv: list) -> tuple:
    """Seconds, captured stdout and error (None on success) of one CLI run."""
    out = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = oqmetro.cli.main(list(argv))
        if code != 0:
            error = f"exit code {code}"
    except SystemExit as exc:
        error = f"exit code {exc.code}"
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, out.getvalue(), error


class Passes:
    """Runs passes of one workload and checks each output.

    The first output is checked against the reference; every later one
    must be byte-identical to it.
    """

    def __init__(self, workload, seed: int, smoke: bool):
        self.workload = workload
        self.seed = seed
        self.argv = workload.command(seed, smoke)
        self.reference = workloads.load_reference(workload, smoke)
        self.first = None
        self.first_error = None
        self.records = []

    def run(self) -> dict:
        seconds, text, error = run_pass(self.argv)
        if error is None:
            if self.first is None:
                self.first = text
                self.first_error = workloads.check_output(
                    self.workload, text, self.seed, self.reference)
                error = self.first_error
            elif text != self.first:
                error = "output differs from the first pass in this process"
            else:
                error = self.first_error
        record = {"seconds": seconds, "error": error, "calibration": calibrate()}
        self.records.append(record)
        return record

    def run_until(self, deadline: float, minimum: int) -> list:
        start = len(self.records)
        while len(self.records) - start < minimum or time.perf_counter() < deadline:
            self.run()
        return self.records[start:]

    def summary(self) -> dict:
        text = self.first or ""
        return {
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "bytes": len(text.encode()),
        }


def traced_passes(passes: Passes, deadline: float) -> dict:
    tr = tracer.Tracer()
    tr.install()
    traced = []
    try:
        while len(traced) < MIN_PASSES or time.perf_counter() < deadline:
            tr.reset()
            record = passes.run()
            traced.append({
                **record,
                "spans": {k: list(v) for k, v in tr.spans.items()},
                "layer_raised": dict(tr.layer_raised),
                "omitted": tr.omitted,
            })
    finally:
        tr.uninstall()
    return {"passes": traced, "restored": tr.restored()}


def main() -> None:
    report = {
        "numpy_version": numpy.__version__,
        "module_file": oqmetro.cli.__file__,
        "import": {"numpy_s": _t1 - _t0, "oqmetro_s": _t2 - _t1},
        "calibration": [_calibration_before_import, calibrate()],
    }
    mode = sys.argv[1]
    if mode != "import":
        name, seed, seconds, smoke = sys.argv[2:6]
        seed, seconds, smoke = int(seed), float(seconds), smoke == "1"
        passes = Passes(workloads.WORKLOADS[name], seed, smoke)
        start = time.perf_counter()
        if mode == "passes":
            report["passes"] = passes.run_until(start + seconds, MIN_PASSES)
        else:
            report["passes"] = passes.run_until(start + seconds / 2, MIN_PASSES + 1)
            report["trace"] = traced_passes(passes, start + seconds)
        report.update(passes.summary())
    report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
