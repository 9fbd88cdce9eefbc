"""Command-line front-end emitting figure data as CSV or JSON.

Subcommands: ``fi-sweep`` (information vs sharpness), ``advantage-map``
(theta-phi advantage grids), ``estimate`` (Monte-Carlo estimator
comparison), ``compat`` (compatibility certificate for a Bloch pair).
Output is data only; plotting is left to external tools.

Numeric arguments accept ``pi`` arithmetic (numbers, ``pi``, unary signs
and ``+ - * /``), parsed without ``eval``; a range may ask for at most
``MAX_RANGE_POINTS`` points, and so may the grid of a sweep or map and
the trials of an ``estimate`` over all its points.
``fi-sweep`` and ``advantage-map`` evaluate whole batches of probe points
per kernel call, and each probe point once: ``fi-sweep`` builds all its
measurements as one stack and makes one kernel call per sweep over every
(sharpness, point) pair, ``advantage-map`` one call per theta row.  The
cells, their slopes and the quantum information then go to ``fisher``
as arrays.

Each subcommand hands ``_write_table`` its table as blocks of columns of
plain Python values: one block per theta row for ``advantage-map``, each
formatted as soon as it is computed, one per sharpness value for
``fi-sweep`` and one per probe point for ``estimate``.  A CSV cell is
Python's shortest round-trip text for a float (``inf``/``-inf`` for
infinities), ``str`` for a bool, int or token, and empty for None; no
cell is ever quoted.  ``_fmt`` is the JSON cell rule, and ``_emit`` the
one place output is written.

Exit codes: 0 success, 2 configuration error, 3 runtime statistical
failure.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import operator
import sys

import numpy as np

from .errors import AllTrialsOmitted, NegativeOq, OqMetroError, ZeroQfi
from .estimation import TrialConfig, TrialSummary, run_trials
from .fisher import advantage, oqfi, qfi_pure
from .measurement import (
    build_hovm,
    bloch_povm,
    busch_compatible,
    hovm_is_povm,
    mutually_unbiased_pair,
    sequential_povm,
    sharpness_threshold,
)
from .oq import POSITIVITY_TOL, negativity, oq_slopes, oq_values
from .probe import Target, amplitude_slopes, amplitudes, check_angles

SCHEMA_VERSION = "oqmetro-csv v1"

# The most points a range start:stop:step may ask for, (stop - start) / step;
# a longer range is refused before anything is allocated.
MAX_RANGE_POINTS = 1_000_000

_UNARY = {ast.UAdd: operator.pos, ast.USub: operator.neg}
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv}


def _eval_node(node):
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return node.value
    if isinstance(node, ast.Name) and node.id == "pi":
        return math.pi
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
        return _UNARY[type(node.op)](_eval_node(node.operand))
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        return _BINARY[type(node.op)](_eval_node(node.left),
                                      _eval_node(node.right))
    raise ValueError


def _eval_number(token: str) -> float:
    """Parse a number, allowing 'pi' arithmetic like 'pi/2' or '7*pi/10'."""
    try:
        return float(token)
    except ValueError:
        pass
    try:
        return float(_eval_node(ast.parse(token.strip(), mode="eval").body))
    # the parser reports input nested too deeply as MemoryError
    except (SyntaxError, ValueError, ArithmeticError, RecursionError,
            MemoryError):
        raise ValueError(f"not a number: {token!r}") from None


def _fields(spec: str, form: str) -> list:
    """The numbers of a colon-separated ``spec`` of the given form, such as
    'lo:hi'."""
    tokens = spec.split(":")
    if len(tokens) != form.count(":") + 1:
        raise ValueError(f"expected {form}, got {spec!r}")
    return [_eval_number(t) for t in tokens]


def parse_values(spec: str) -> list:
    """A value, a comma list, or an inclusive range 'start:stop:step'."""
    if ":" in spec:
        start, stop, step = _fields(spec, "start:stop:step")
        if not all(map(math.isfinite, (start, stop, step))):
            raise ValueError(f"range {spec!r} is not finite")
        if step <= 0:
            raise ValueError("range step must be positive")
        if (stop - start) / step > MAX_RANGE_POINTS:
            raise ValueError(f"range {spec!r} has more than "
                             f"{MAX_RANGE_POINTS} points")
        vals = np.arange(start, stop + step / 2, step)
        return np.where(vals > stop, stop, vals).tolist()
    return [_eval_number(t) for t in spec.split(",")]


def _check_grid_size(*axes: list) -> None:
    """Refuse a grid of more than MAX_RANGE_POINTS points over the given
    axes, before any of its arrays is built."""
    if math.prod(map(len, axes)) > MAX_RANGE_POINTS:
        raise ValueError(f"grid has more than {MAX_RANGE_POINTS} points")


def _target(name: str) -> Target:
    return Target.POLAR if name == "theta" else Target.AZIMUTHAL


def _fmt(v):
    """The JSON cell rule: numpy scalars become Python ones and infinities
    the tokens 'inf'/'-inf'; the result is written as a number, bool,
    string or null."""
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, float) and math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return v


def _gapped(values: np.ndarray, present: np.ndarray) -> list:
    """A column holding ``values`` at the present positions, None (an empty
    cell) at the others."""
    col = np.empty(present.shape, dtype=object)  # all None
    col[present] = values
    return col.tolist()


def _block_length(block: list) -> int:
    """Rows in a block: the length of its list columns; any other column
    is one cell repeated down the block, and a block of such cells alone
    is one row."""
    return next((len(col) for col in block if isinstance(col, list)), 1)


def _csv_cells(col: list) -> list:
    """CSV text of a column of Python values: ``str``, which is the
    shortest round-trip text for a float and 'inf'/'-inf' for infinities,
    and '' for None."""
    texts = list(map(str, col))
    if "None" in texts:
        cells = np.array(texts, dtype=object)
        cells[np.equal(np.array(col, dtype=object), None)] = ""
        texts = cells.tolist()
    return texts


def _csv_text(header: list, blocks) -> str:
    """The CSV lines of ``blocks``, each column turned into text once.

    A list column passed again as the same object at the same position
    keeps its text from the block before.  No cell is quoted: cells are
    numbers, bools and plain tokens.
    """
    parts = [",".join(header) + "\n"]
    held = {}  # column position -> (list column, its text)
    for block in blocks:
        n = _block_length(block)
        cols = []
        for j, col in enumerate(block):
            if not isinstance(col, list):
                cols.append(["" if col is None else str(col)] * n)
                continue
            if j not in held or held[j][0] is not col:
                held[j] = (col, _csv_cells(col))
            cols.append(held[j][1])
        if n:
            parts.append("\n".join(map(",".join, zip(*cols))) + "\n")
    return "".join(parts)


def _json_rows(header: list, blocks) -> list:
    """The row dicts of ``blocks``, each cell passed through ``_fmt``."""
    rows = []
    for block in blocks:
        n = _block_length(block)
        cols = [col if isinstance(col, list) else [col] * n for col in block]
        rows.extend(dict(zip(header, map(_fmt, row))) for row in zip(*cols))
    return rows


def _emit(path: str | None, text: str) -> None:
    """Write text to the file at path, or to stdout without a path."""
    if not path:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _write_table(path: str | None, fmt: str, name: str, header: list,
                 blocks) -> None:
    """Write a table given as an iterable of blocks of equal-length columns.

    A column is a list of Python values, None for an empty cell, or a
    single value repeated down its block.  Blocks are consumed one at a
    time, so a subcommand may compute each block as it is asked for.  A
    list passed again at the same position keeps the text it had, so it
    must not change in between.
    """
    if fmt == "csv":
        text = f"# {SCHEMA_VERSION} {name}\n" + _csv_text(header, blocks)
    else:
        payload = {
            "schema": f"{SCHEMA_VERSION} {name}",
            "rows": _json_rows(header, blocks),
        }
        text = json.dumps(payload, indent=1) + "\n"
    _emit(path, text)


def cmd_fi_sweep(args) -> int:
    target = _target(args.target)
    lams = parse_values(args.lam)
    axes = parse_values(args.theta), parse_values(args.phi)
    _check_grid_size(lams, *axes)
    grid = np.meshgrid(*axes, indexing="ij")
    theta, phi = (g.ravel() for g in grid)
    check_angles(theta, phi)
    psi = amplitudes(theta, phi)
    dpsi = amplitude_slopes(theta, phi, target)
    thetas, phis = theta.tolist(), phi.tolist()
    qfi = qfi_pure(psi, dpsi).tolist()

    # every measurement in one stack of batch shape (lambda, 1), which
    # broadcasts against the probe points: cells have shape (lambda, point)
    a, b = mutually_unbiased_pair(np.array(lams)[:, None])
    w = build_hovm(a, b, sequential_povm(a, b))
    values = oq_values(w, psi)
    neg = negativity(values)
    positive = neg <= POSITIVITY_TOL
    slopes = oq_slopes(w, psi, dpsi)
    info = oqfi(values[positive], slopes[positive])
    blocks = [[lam, thetas, phis, args.target, info_row, qfi, neg_row, pos_row]
              for lam, info_row, neg_row, pos_row in
              zip(lams, _gapped(info, positive), neg.tolist(),
                  positive.tolist())]
    _write_table(args.out, args.format, "fi-sweep",
                 ["lambda", "theta", "phi", "target", "oqfi", "qfi",
                  "negativity", "positive"], blocks)
    return 0


def cmd_advantage_map(args) -> int:
    target = _target(args.target)
    lam = _eval_number(args.lam)
    thetas = parse_values(args.theta)
    phis = parse_values(args.phi)
    _check_grid_size(thetas, phis)
    check_angles(thetas, phis)
    a, b = mutually_unbiased_pair(lam)
    w = build_hovm(a, b, sequential_povm(a, b))
    phi = np.array(phis, dtype=float)

    def blocks():
        # one theta row per kernel call keeps the working set small, and
        # each row is formatted before the next is computed
        for theta in thetas:
            psi = amplitudes(theta, phi)
            dpsi = amplitude_slopes(theta, phi, target)
            values = oq_values(w, psi)
            qfi = qfi_pure(psi, dpsi)
            slopes = oq_slopes(w, psi, dpsi)
            neg = negativity(values)
            # the advantage is undefined at negative points and where the
            # quantum information vanishes: those cells stay empty
            defined = (neg <= POSITIVITY_TOL) & (qfi > 0)
            adv = advantage(values[defined], slopes[defined], qfi[defined])
            yield [theta, phis, _gapped(adv, defined), neg.tolist()]

    _write_table(args.out, args.format, "advantage-map",
                 ["theta", "phi", "advantage", "negativity"], blocks())
    return 0


def _segment_points(thetas: list, phis: list) -> list:
    if not thetas or not phis:
        raise ValueError("theta and phi ranges must not be empty")
    if len(thetas) > 1 and len(phis) > 1:
        if len(thetas) != len(phis):
            raise ValueError(
                "theta and phi ranges must pair up into a segment"
            )
        return list(zip(thetas, phis))
    if len(thetas) > 1:
        return [(t, phis[0]) for t in thetas]
    return [(thetas[0], p) for p in phis]


ESTIMATE_FIELDS = [
    "target", "theta0", "phi0", "lambda", "n", "trials", "estimator",
    "mean_estimate", "emp_var", "pred_var", "omission_rate", "ratio",
    "advantage",
]


def _estimate_rows(config: TrialConfig, summary: TrialSummary | None) -> list:
    """One row per estimator; without a summary the result cells stay empty."""
    cells = [config.target.value, config.theta0, config.phi0,
             config.sharpness, config.n, config.trials]
    if summary is None:
        return [cells + [name] + [None] * 6 for name in ("mle", "lep")]
    return [cells + [est.estimator, est.mean_estimate, est.emp_var,
                     est.mean_pred_var, est.omission_rate, est.ratio,
                     summary.advantage]
            for est in (summary.mle, summary.lep)]


def cmd_estimate(args) -> int:
    target = _target(args.target)
    lam = _eval_number(args.lam)
    points = _segment_points(parse_values(args.theta), parse_values(args.phi))
    if len(points) * args.trials > MAX_RANGE_POINTS:
        raise ValueError(f"more than {MAX_RANGE_POINTS} trials in all")
    domain = _fields(args.domain, "lo:hi") if args.domain else None
    point_seeds = np.random.SeedSequence(args.seed).generate_state(
        len(points), np.uint64
    )
    blocks = []
    failed = False
    for (theta0, phi0), seed in zip(points, point_seeds):
        config = TrialConfig(
            theta0=theta0, phi0=phi0, target=target, sharpness=lam,
            n=args.n, trials=args.trials, seed=int(seed), domain=domain,
            inject_expected=args.inject_expected,
        )
        try:
            summary = run_trials(config)
        except (AllTrialsOmitted, NegativeOq, ZeroQfi) as exc:
            # no estimate or no advantage here: keep the point's rows with
            # empty result cells, as advantage-map does, and go on
            print(f"point theta={theta0} phi={phi0}: {exc}", file=sys.stderr)
            failed = True
            summary = None
        # one block per point: the columns of its mle and lep rows
        blocks.append(list(map(list, zip(*_estimate_rows(config, summary)))))
    _write_table(args.out, args.format, "estimate", ESTIMATE_FIELDS, blocks)
    return 3 if failed else 0


def cmd_compat(args) -> int:
    mu = np.array([_eval_number(t) for t in args.mu.split(",")])
    nu = np.array([_eval_number(t) for t in args.nu.split(",")])
    busch = bool(busch_compatible(mu, nu))
    a, b = bloch_povm(mu), bloch_povm(nu)
    povm = hovm_is_povm(build_hovm(a, b, sequential_povm(a, b)))
    if busch != povm:
        raise OqMetroError("compatibility predicates disagree")
    boundary = None
    if np.linalg.norm(mu) > 0 and np.linalg.norm(nu) > 0:
        boundary = sharpness_threshold(mu, nu)
    verdict = {"busch": busch, "hovm_povm": povm, "boundary_lambda": boundary}
    _emit(args.out, json.dumps(verdict) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oqmetro",
        description="Quasiprobability metrology with incompatible qubit "
                    "measurements: Fisher-information sweeps, advantage "
                    "maps and Monte-Carlo estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, lam_default=None):
        p.add_argument("--target", choices=("theta", "phi"), default="theta")
        p.add_argument("--lambda", dest="lam", default=lam_default,
                       help="sharpness value or range start:stop:step")
        p.add_argument("--theta", default="pi/2",
                       help="value, comma list, or range start:stop:step")
        p.add_argument("--phi", default="0",
                       help="value, comma list, or range start:stop:step")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("fi-sweep", help="OQFI and QFI over a sharpness grid")
    common(p, lam_default="0:0.995:0.005")
    p.set_defaults(func=cmd_fi_sweep)

    p = sub.add_parser("advantage-map", help="advantage over a theta-phi grid")
    common(p, lam_default="0.995")
    p.set_defaults(func=cmd_advantage_map)

    p = sub.add_parser("estimate", help="Monte-Carlo MLE/LEP comparison")
    common(p, lam_default="0.9")
    p.add_argument("--n", type=int, default=100_000,
                   help="samples per measurement setting")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--domain", default=None,
                   help="search interval lo:hi (default 0:pi)")
    p.add_argument("--inject-expected", action="store_true",
                   help="replace sampling with exact expected counts")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("compat", help="compatibility certificate for a Bloch pair")
    p.add_argument("--mu", required=True, help="Bloch vector x,y,z")
    p.add_argument("--nu", required=True, help="Bloch vector x,y,z")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compat)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OqMetroError, ValueError, OSError) as exc:
        # OSError: an --out path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
