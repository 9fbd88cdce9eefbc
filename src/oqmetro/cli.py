"""Command-line front-end emitting figure data as CSV or JSON.

Subcommands: ``fi-sweep`` (information vs sharpness), ``advantage-map``
(theta-phi advantage grids), ``estimate`` (Monte-Carlo estimator
comparison), ``compat`` (compatibility certificate for a Bloch pair).
Output is data only; plotting is left to external tools.

Numeric arguments accept ``pi`` arithmetic (numbers, ``pi``, unary signs
and ``+ - * /``), parsed without ``eval``.  ``fi-sweep`` and
``advantage-map`` evaluate whole batches of probe points per kernel call:
``fi-sweep`` one call per sharpness value, ``advantage-map`` one call per
theta row.

Each subcommand lays out its own rows of plain values; ``_fmt`` is the one
rule that turns a cell into CSV text or a JSON value, and ``_emit`` the one
place output is written.

Exit codes: 0 success, 2 configuration error, 3 runtime statistical
failure.
"""

from __future__ import annotations

import argparse
import ast
import csv
import io
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
from .oq import POSITIVITY_TOL, negativity, oq_values
from .probe import Target, amplitude_slopes, amplitudes, check_angles

SCHEMA_VERSION = "oqmetro-csv v1"

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
        if step <= 0:
            raise ValueError("range step must be positive")
        vals = list(np.arange(start, stop + step / 2, step))
        return [float(min(v, stop)) for v in vals]
    return [_eval_number(t) for t in spec.split(",")]


def _target(name: str) -> Target:
    return Target.POLAR if name == "theta" else Target.AZIMUTHAL


def _fmt(v):
    """The one cell rule: numpy scalars become Python ones and infinities
    the tokens 'inf'/'-inf'.  CSV writes the result with str (repr for
    floats, '' for None), JSON as a number, bool, string or null."""
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, float) and math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return v


def _emit(path: str | None, text: str) -> None:
    """Write text to the file at path, or to stdout without a path."""
    if not path:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _write_table(path: str | None, fmt: str, name: str, header: list,
                 rows: list) -> None:
    if fmt == "csv":
        buf = io.StringIO()
        buf.write(f"# {SCHEMA_VERSION} {name}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(map(_fmt, row) for row in rows)
        text = buf.getvalue()
    else:
        payload = {
            "schema": f"{SCHEMA_VERSION} {name}",
            "rows": [dict(zip(header, map(_fmt, row))) for row in rows],
        }
        text = json.dumps(payload, indent=1) + "\n"
    _emit(path, text)


def cmd_fi_sweep(args) -> int:
    target = _target(args.target)
    lams = parse_values(args.lam)
    grid = np.meshgrid(parse_values(args.theta), parse_values(args.phi),
                       indexing="ij")
    theta, phi = (g.ravel() for g in grid)
    check_angles(theta, phi)
    psi = amplitudes(theta, phi)
    dpsi = amplitude_slopes(theta, phi, target)
    qfi = qfi_pure(psi, dpsi).tolist()
    points = list(zip(theta.tolist(), phi.tolist(), qfi))
    rows = []
    for lam in lams:
        a, b = mutually_unbiased_pair(lam)
        w = build_hovm(a, b, sequential_povm(a, b))
        neg = negativity(oq_values(w, psi))
        positive = neg <= POSITIVITY_TOL
        info = iter(oqfi(w, psi[positive], dpsi[positive]).tolist())
        for (t, p, q), n, pos in zip(points, neg.tolist(), positive.tolist()):
            rows.append([lam, t, p, args.target, next(info) if pos else None,
                         q, n, pos])
    _write_table(args.out, args.format, "fi-sweep",
                 ["lambda", "theta", "phi", "target", "oqfi", "qfi",
                  "negativity", "positive"], rows)
    return 0


def cmd_advantage_map(args) -> int:
    target = _target(args.target)
    lam = _eval_number(args.lam)
    thetas = parse_values(args.theta)
    phis = parse_values(args.phi)
    check_angles(thetas, phis)
    a, b = mutually_unbiased_pair(lam)
    w = build_hovm(a, b, sequential_povm(a, b))
    phi = np.array(phis, dtype=float)
    rows = []
    # one theta row per kernel call keeps the working set small
    for theta in thetas:
        psi = amplitudes(theta, phi)
        dpsi = amplitude_slopes(theta, phi, target)
        neg = negativity(oq_values(w, psi))
        # the advantage is undefined at negative points and where the
        # quantum information vanishes: those cells stay empty
        defined = (neg <= POSITIVITY_TOL) & (qfi_pure(psi, dpsi) > 0)
        adv = iter(advantage(w, psi[defined], dpsi[defined]).tolist())
        for p, n, ok in zip(phis, neg.tolist(), defined.tolist()):
            rows.append([theta, p, next(adv) if ok else None, n])
    _write_table(args.out, args.format, "advantage-map",
                 ["theta", "phi", "advantage", "negativity"], rows)
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
    domain = _fields(args.domain, "lo:hi") if args.domain else None
    point_seeds = np.random.SeedSequence(args.seed).generate_state(
        len(points), np.uint64
    )
    rows = []
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
        rows.extend(_estimate_rows(config, summary))
    _write_table(args.out, args.format, "estimate", ESTIMATE_FIELDS, rows)
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
        if boundary is not None:
            boundary = float(boundary)
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
