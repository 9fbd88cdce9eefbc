"""Byte-identity guard: the benchmark's headline commands must print
exactly the tables captured in ``perfbench/reference/``, and the phi
target's commands, the smoke maps' JSON and three more ``estimate``
paths those captured in ``tests/reference/``; a sweep over signed
sharpness values and ``compat`` on general pairs are pinned the same way.

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
PHI_REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
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


# reference file stem -> command: the azimuthal target's paths, which the
# benchmark's commands do not take
PHI_COMMANDS = {
    "phi-estimate": ("estimate", "--target", "phi", "--lambda", "0.9",
                     "--theta", "1.1", "--phi", "1.9", "--domain", "1.5:2.3",
                     "--n", "20000", "--trials", "50", "--seed", "4"),
    "phi-advantage-map": ("advantage-map", "--target", "phi",
                          "--lambda", "0.995", "--theta", "0.02:3.12:0.1",
                          "--phi", "0.02:6.2:0.1"),
    "phi-fi-sweep": ("fi-sweep", "--target", "phi", "--lambda", "0:1:0.01",
                     "--theta", "0.1:3.1:0.3", "--phi", "0:6.2:0.4"),
}


@pytest.mark.parametrize("stem", sorted(PHI_COMMANDS))
def test_phi_target_output_is_byte_identical_to_the_reference(stem):
    with lzma.open(PHI_REFERENCE_DIR / f"{stem}.csv.xz", "rb") as fh:
        reference = fh.read()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(PHI_COMMANDS[stem])) == 0
    assert out.getvalue().encode() == reference


# reference file name -> (command, exit code, stderr): estimate's paths
# with many omissions (JSON), a segment whose last point is negative, and
# injected expected counts
ESTIMATE_COMMANDS = {
    "omissions-estimate.json": (
        ("estimate", "--target", "theta", "--lambda", "0.97", "--theta", "pi/2",
         "--phi", "0.1", "--n", "60", "--trials", "2000", "--seed", "9",
         "--domain", "1.2:2.0", "--format", "json"), 0, ""),
    "segment-estimate.csv": (
        ("estimate", "--target", "theta", "--lambda", "0.9",
         "--theta", "0.95:1.05:0.05", "--phi", "2.2:2.4:0.1",
         "--domain", "0.7:1.3", "--n", "20000", "--trials", "40",
         "--seed", "11"), 3,
        "point theta=1.05 phi=2.4: negativity 1.174e-02 exceeds 1.0e-10\n"),
    "inject-estimate.csv": (
        ("estimate", "--target", "phi", "--lambda", "0.9", "--theta", "1.2",
         "--phi", "1.0,1.3", "--n", "50000", "--domain", "0.6:1.8",
         "--inject-expected"), 0, ""),
}


@pytest.mark.parametrize("name", sorted(ESTIMATE_COMMANDS))
def test_estimate_paths_are_byte_identical_to_the_reference(name):
    with lzma.open(PHI_REFERENCE_DIR / f"{name}.xz", "rb") as fh:
        reference = fh.read()
    command, code, stderr = ESTIMATE_COMMANDS[name]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(list(command)) == code
    assert out.getvalue().encode() == reference
    assert err.getvalue() == stderr


# reference file stem -> command: the JSON writer, which no other
# reference pins to bytes
JSON_COMMANDS = {stem: COMMANDS[stem] + ("--format", "json")
                 for stem in ("smoke-advantage-map", "smoke-fi-sweep")}


@pytest.mark.parametrize("stem", sorted(JSON_COMMANDS))
def test_json_output_is_byte_identical_to_the_reference(stem):
    with lzma.open(PHI_REFERENCE_DIR / f"{stem}.json.xz", "rb") as fh:
        reference = fh.read()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(JSON_COMMANDS[stem])) == 0
    assert out.getvalue().encode() == reference


# a sweep through every sign of the sharpness: -1, -0.0, 0 and 1 are where
# the sequential effects hold exact zeros of either sign
SIGNED_LAMBDAS = ",".join([str(k / 20) for k in range(-20, 21)] + ["-0.0"])


def test_signed_sharpness_sweep_is_byte_identical_to_the_reference():
    with lzma.open(PHI_REFERENCE_DIR / "signed-fi-sweep.json.xz", "rb") as fh:
        reference = fh.read()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["fi-sweep", f"--lambda={SIGNED_LAMBDAS}",
                     "--theta", "0.3,pi/2,2.6", "--phi", "0,1.1",
                     "--format", "json"]) == 0
    assert out.getvalue().encode() == reference


# general (not mutually unbiased) pairs: compatible, incompatible, and
# compatible just below the boundary of its directions (0.75 < 0.75199)
COMPAT_OUTPUTS = {
    ("0.3,0.4,0.5", "-0.6,0.2,0.1"):
        '{"busch": true, "hovm_povm": true, "boundary_lambda": 0.7081904805652576}\n',
    ("0.1,-0.7,0.2", "0.5,0.5,-0.3"):
        '{"busch": false, "hovm_povm": false, "boundary_lambda": 0.7516018707288051}\n',
    ("0.45,0,0.6", "0,0.45,0.6"):
        '{"busch": true, "hovm_povm": true, "boundary_lambda": 0.7519913204715831}\n',
}


@pytest.mark.parametrize("mu, nu", sorted(COMPAT_OUTPUTS))
def test_compat_on_general_pairs_is_byte_identical(mu, nu):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["compat", f"--mu={mu}", f"--nu={nu}"]) == 0
    assert out.getvalue() == COMPAT_OUTPUTS[mu, nu]
