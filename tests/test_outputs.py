"""Byte-identity guard: the benchmark's headline commands must print
exactly the tables captured in ``perfbench/reference/``.

The arguments and the seed are copied from ``perfbench/workloads.py``,
not imported, so this test only reads that directory.
"""

import contextlib
import io
import lzma
from pathlib import Path

import pytest

from oqmetro.cli import main

REFERENCE_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "reference"
DEFAULT_SEED = 20260823

_ESTIMATE = (
    "estimate", "--target", "theta", "--lambda", "0.9",
    "--theta", "1.0131710069701012", "--phi", "2.3038346126325147",
    "--domain", "0.7631710069701012:1.2631710069701012",
    "--n", "100000", "--seed", str(DEFAULT_SEED),
)

# reference file stem -> command
COMMANDS = {
    "advantage-map": ("advantage-map", "--lambda", "0.995",
                      "--theta", "0.02:3.12:0.02", "--phi", "0.02:3.12:0.02"),
    "smoke-advantage-map": ("advantage-map", "--lambda", "0.995",
                            "--theta", "0.02:3.12:0.26",
                            "--phi", "0.02:3.12:0.26"),
    "fi-sweep": ("fi-sweep", "--target", "theta", "--theta", "pi/2",
                 "--phi", "0", "--lambda", "0:0.995:0.005"),
    "smoke-fi-sweep": ("fi-sweep", "--target", "theta", "--theta", "pi/2",
                       "--phi", "0", "--lambda", "0:0.995:0.1"),
    "estimate": _ESTIMATE + ("--trials", "200"),
    "smoke-estimate": _ESTIMATE + ("--trials", "4"),
}


@pytest.mark.parametrize("stem", sorted(COMMANDS))
def test_output_is_byte_identical_to_the_reference(stem):
    with lzma.open(REFERENCE_DIR / f"{stem}.csv.xz", "rb") as fh:
        reference = fh.read()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(COMMANDS[stem])) == 0
    assert out.getvalue().encode() == reference
