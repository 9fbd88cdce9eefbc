"""Budget invariance: how many probe points one kernel call evaluates
(``oq.BLOCK_POINTS``) must not change a byte of what a command prints.

Each command runs at the default budget and again at budgets around the
width of one row of its grid: a phi row for ``advantage-map``, the probe
points for ``fi-sweep`` and the MLE/LEP grid for ``estimate``.  Budgets
of 1 and of ``width`` and neighbours give one row per call, ``5 * width
+ 3`` five rows with a shorter last block, and 10**9 the whole grid in
one call.
"""

import contextlib
import io

import pytest

import oqmetro.cli
import oqmetro.oq
from oqmetro.cli import _fields, build_parser, main, parse_values
from oqmetro.estimation import GRID_STEP, _grid
from oqmetro.oq import row_blocks

CASES = {
    "smoke-map": ["advantage-map", "--lambda", "0.995",
                  "--theta", "0.02:3.12:0.26", "--phi", "0.02:3.12:0.26"],
    # -inf where the information vanishes, empty at the poles
    "phi-target-map": ["advantage-map", "--target", "phi", "--lambda", "0",
                       "--theta", "0:pi:pi/8", "--phi", "0:6.2:pi/8"],
    # inf where a vanishing cell has a nonzero slope, empty where negative
    "sharp-map": ["advantage-map", "--lambda", "1",
                  "--theta", "0:pi:pi/8", "--phi", "0:6.2:pi/8"],
    "no-theta-map": ["advantage-map", "--theta", "1:0:0.1",
                     "--phi", "0.2,0.4"],
    "no-phi-map": ["advantage-map", "--theta", "0.2,0.4",
                   "--phi", "1:0:0.1"],
    "sweep": ["fi-sweep", "--lambda", "0:1:0.05", "--theta", "0:pi:0.3",
              "--phi", "0:6.2:0.4"],
    # one probe point and more sharpness values than one call takes
    "one-point-sweep": ["fi-sweep", "--theta", "pi/2", "--phi", "0",
                        "--lambda", "0:1:0.0002"],
    # the examples of test_lockstep's lockstep test, as estimate commands
    "headline-point": ["estimate", "--lambda", "0.9",
                       "--theta", "1.0131710069701012",
                       "--phi", "2.3038346126325147",
                       "--domain", "0.7631710069701012:1.2631710069701012",
                       "--n", "100000", "--trials", "30", "--seed", "20260823"],
    "flat-parity-slope": ["estimate", "--target", "phi", "--lambda", "0.6",
                          "--theta", "1.2", "--phi", "0.2",
                          "--domain=-0.5:0.5", "--n", "5000",
                          "--trials", "6", "--seed", "5"],
    "truth-below-domain": ["estimate", "--lambda", "0.85", "--theta", "1.2",
                           "--phi", "1.0", "--domain", "1.3:1.6",
                           "--n", "20000", "--trials", "10", "--seed", "2"],
    "truth-above-domain": ["estimate", "--target", "phi", "--lambda", "0.6",
                           "--theta", "1.1", "--phi", "1.9",
                           "--domain", "1.3:1.8", "--n", "20000",
                           "--trials", "10", "--seed", "25"],
    "few-samples": ["estimate", "--lambda", "0.97", "--theta", "pi/2",
                    "--phi", "0.1", "--domain", "pi/2-0.4:pi/2+0.4",
                    "--n", "60", "--trials", "30", "--seed", "9"],
}


def _width(argv):
    args = build_parser().parse_args(argv)
    if args.command == "advantage-map":
        return len(parse_values(args.phi))
    if args.command == "fi-sweep":
        return len(parse_values(args.theta)) * len(parse_values(args.phi))
    return len(_grid(_fields(args.domain, "lo:hi"), GRID_STEP))


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_does_not_depend_on_the_block_budget(monkeypatch, name):
    argv = CASES[name]
    want = _run(argv)
    width = _width(argv)
    for budget in (1, width - 1, width, width + 1, 5 * width + 3, 10**9):
        monkeypatch.setattr(oqmetro.oq, "BLOCK_POINTS", max(budget, 1))
        assert _run(argv) == want, f"BLOCK_POINTS={budget}"


@pytest.mark.parametrize("argv, rows, width, calls", [
    # the benchmark's fi-sweep: 200 sharpness values at one probe point
    (["--theta", "pi/2", "--phi", "0", "--lambda", "0:0.995:0.005"],
     200, 1, 1),
    (["--theta", "pi/2", "--phi", "0", "--lambda", "0:1:0.0002"],
     5001, 1, 2),
    (["--theta", "0:pi:0.3", "--phi", "0:6.2:0.4", "--lambda", "0:1:0.05"],
     21, 176, 1),
    (["--theta", "0:3:0.01", "--phi", "0:6:0.2", "--lambda", "0.2,0.5,0.9"],
     3, 9331, 9),
], ids=["benchmark", "two-calls", "one-call", "call-per-lambda"])
def test_fi_sweep_hands_the_writer_one_block_per_kernel_call(
        monkeypatch, argv, rows, width, calls):
    blocks = []
    write = oqmetro.cli._write_table

    def counted(path, fmt, name, header, table):
        write(path, fmt, name, header,
              (blocks.append(block) or block for block in table))

    monkeypatch.setattr(oqmetro.cli, "_write_table", counted)
    assert _run(["fi-sweep", "--target", "theta"] + argv)[0] == 0
    # a row wider than the budget is cut into pieces of at most the budget
    pieces = len(row_blocks(width, 1))
    assert len(blocks) == len(row_blocks(rows, width)) * pieces == calls


@pytest.mark.parametrize("argv, rows, width", [
    (["advantage-map", "--theta", "0.5,1,2", "--phi", "0:6.28:0.001"],
     3, 6281),
    (["fi-sweep", "--lambda", "0.5,0.9", "--theta", "0.01:3.1:0.05",
      "--phi", "0:6.2:0.05"], 2, 63 * 125),
], ids=["map", "sweep"])
def test_no_kernel_call_exceeds_the_budget_on_wide_rows(monkeypatch, argv,
                                                        rows, width):
    # each row is wider than the budget, so it is cut into pieces
    assert width > oqmetro.oq.BLOCK_POINTS
    sizes = []
    oq_values = oqmetro.cli.oq_values

    def counted(w, psi):
        values = oq_values(w, psi)
        sizes.append(values[0, 0].size)
        return values

    monkeypatch.setattr(oqmetro.cli, "oq_values", counted)
    assert _run(argv)[0] == 0
    assert max(sizes) <= oqmetro.oq.BLOCK_POINTS
    assert sum(sizes) == rows * width
