"""The benchmark's workloads and the check of their outputs.

Each workload is one README headline command, run through
``oqmetro.cli.main``; BENCHMARK.json says why each was chosen.  Its
output is compared with a reference captured by ``capture_reference.py``
at the parent commit of the benchmark.
"""

from __future__ import annotations

import csv
import lzma
import math
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_SEED = 20260823
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Numeric cells may differ from the reference by 1e-12 relative.  Angles,
# probabilities, Fisher information and log10 ratios are O(1) quantities,
# so their tolerance never drops below 1e-12 absolute; a recomputation
# that moves float noise around a negativity of 0 or an advantage near its
# zero crossing stays correct.  Variances are small numbers checked purely
# relatively.
TOLERANCE = 1e-12
RELATIVE_ONLY = frozenset({"emp_var", "pred_var"})

ESTIMATE_DOMAIN = (0.7631710069701012, 1.2631710069701012)


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple
    items: int
    smoke_argv: tuple
    smoke_items: int
    # exact call counts of one full-size traced pass, keyed "layer.function"
    calls: dict = field(default_factory=dict)
    seeded: bool = False

    def command(self, seed: int, smoke: bool) -> list:
        argv = list(self.smoke_argv if smoke else self.argv)
        if self.seeded:
            argv += ["--seed", str(seed)]
        return argv

    def item_count(self, smoke: bool) -> int:
        return self.smoke_items if smoke else self.items

    def reference_path(self, smoke: bool) -> Path:
        stem = ("smoke-" if smoke else "") + self.name
        return REFERENCE_DIR / f"{stem}.csv.xz"


_ESTIMATE_COMMON = (
    "estimate", "--target", "theta", "--lambda", "0.9",
    "--theta", "1.0131710069701012", "--phi", "2.3038346126325147",
    "--domain", f"{ESTIMATE_DOMAIN[0]!r}:{ESTIMATE_DOMAIN[1]!r}",
    "--n", "100000",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="advantage-map",
            argv=("advantage-map", "--lambda", "0.995",
                  "--theta", "0.02:3.12:0.02", "--phi", "0.02:3.12:0.02"),
            items=156 * 156,
            smoke_argv=("advantage-map", "--lambda", "0.995",
                        "--theta", "0.02:3.12:0.26", "--phi", "0.02:3.12:0.26"),
            smoke_items=13 * 13,
            calls={
                "probe.make_state": 40438,
                "oq.evaluate_oq": 32387,
                "fisher.advantage": 8051,
                "fisher.oqfi": 8051,
                "fisher.fisher_discrete": 8051,
            },
        ),
        Workload(
            name="fi-sweep",
            argv=("fi-sweep", "--target", "theta", "--theta", "pi/2",
                  "--phi", "0", "--lambda", "0:0.995:0.005"),
            items=200,
            smoke_argv=("fi-sweep", "--target", "theta", "--theta", "pi/2",
                        "--phi", "0", "--lambda", "0:0.995:0.1"),
            smoke_items=11,
            calls={
                "measurement.sequential_povm": 200,
                "measurement.bloch_povm": 400,
            },
        ),
        Workload(
            name="estimate",
            argv=_ESTIMATE_COMMON + ("--trials", "200"),
            items=200,
            smoke_argv=_ESTIMATE_COMMON + ("--trials", "4"),
            smoke_items=4,
            calls={
                "estimation.model_values": 12200,
                "estimation.log_likelihood": 6200,
                "estimation.golden_section_maximize": 400,
                "measurement.sequential_povm": 201,
            },
            seeded=True,
        ),
    )
}


def load_reference(workload: Workload, smoke: bool) -> str:
    with lzma.open(workload.reference_path(smoke), "rt") as fh:
        return fh.read()


def _close(got: str, ref: str, floor: float) -> bool:
    try:
        a, b = float(got), float(ref)
    except ValueError:
        return False
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    return abs(a - b) <= TOLERANCE * max(abs(a), abs(b), floor)


def compare_tables(got: str, ref: str) -> str | None:
    """None when ``got`` matches ``ref`` within tolerance, else the reason.

    The schema line, the header, empty cells and non-numeric tokens such
    as ``inf`` or ``True`` must match exactly.
    """
    got_lines, ref_lines = got.splitlines(), ref.splitlines()
    if len(got_lines) != len(ref_lines):
        return f"{len(got_lines)} lines, reference has {len(ref_lines)}"
    if got_lines[:2] != ref_lines[:2]:
        return "schema line or header differs from the reference"
    header = ref_lines[1].split(",")
    floors = [0.0 if h in RELATIVE_ONLY else 1.0 for h in header]
    for number, (g, r) in enumerate(zip(got_lines[2:], ref_lines[2:]), 3):
        if g == r:
            continue
        g_cells, r_cells = g.split(","), r.split(",")
        if len(g_cells) != len(r_cells):
            return f"line {number}: {len(g_cells)} cells, reference has {len(r_cells)}"
        for name, floor, a, b in zip(header, floors, g_cells, r_cells):
            if a != b and not _close(a, b, floor):
                return f"line {number} column {name}: {a!r}, reference {b!r}"
    return None


def check_estimate_structure(got: str, ref: str) -> str | None:
    """Check an ``estimate`` table drawn with a seed that has no reference.

    The configuration columns and the seed-free ``advantage`` must match
    the reference; the sampled columns must be plausible.
    """
    got_lines, ref_lines = got.splitlines(), ref.splitlines()
    if got_lines[:2] != ref_lines[:2]:
        return "schema line or header differs from the reference"
    rows = list(csv.DictReader(got_lines[1:]))
    refs = list(csv.DictReader(ref_lines[1:]))
    if [r["estimator"] for r in rows] != ["mle", "lep"]:
        return "expected one mle row and one lep row"
    fixed = ("target", "theta0", "phi0", "lambda", "n", "trials", "estimator")
    lo, hi = ESTIMATE_DOMAIN
    for row, ref_row in zip(rows, refs):
        name = row["estimator"]
        if any(row[k] != ref_row[k] for k in fixed):
            return f"{name}: configuration columns differ from the reference"
        if not _close(row["advantage"], ref_row["advantage"], 1.0):
            return f"{name}: advantage {row['advantage']} differs from the reference"
        try:
            mean = float(row["mean_estimate"])
            omission = float(row["omission_rate"])
            variances = [float(row[k]) for k in ("emp_var", "pred_var")]
        except ValueError:
            return f"{name}: non-numeric estimator cell"
        if not lo <= mean <= hi:
            return f"{name}: mean_estimate {mean} outside the domain"
        if not 0.0 <= omission <= 1.0:
            return f"{name}: omission_rate {omission} outside [0, 1]"
        if not all(math.isfinite(v) for v in variances):
            return f"{name}: non-finite variance"
    return None


def check_output(workload: Workload, text: str, seed: int,
                 reference: str) -> str | None:
    """None when one pass's output is correct, else the reason."""
    if workload.seeded and seed != DEFAULT_SEED:
        return check_estimate_structure(text, reference)
    return compare_tables(text, reference)
