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
from .estimation import (
    CSV_FIELDS,
    TrialConfig,
    failed_csv_rows,
    run_trials,
    summary_csv_rows,
)
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


def parse_values(spec: str) -> list:
    """A value, a comma list, or an inclusive range 'start:stop:step'."""
    if ":" in spec:
        start, stop, step = (_eval_number(t) for t in spec.split(":"))
        if step <= 0:
            raise ValueError("range step must be positive")
        vals = list(np.arange(start, stop + step / 2, step))
        return [float(min(v, stop)) for v in vals]
    return [_eval_number(t) for t in spec.split(",")]


def _target(name: str) -> Target:
    return Target.POLAR if name == "theta" else Target.AZIMUTHAL


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        x = float(x)
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return repr(x)
    return str(x)


def _write_table(path: str | None, fmt: str, name: str, header: list,
                 rows: list) -> None:
    if fmt == "csv":
        buf = io.StringIO()
        buf.write(f"# {SCHEMA_VERSION} {name}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if v is None else _fmt(v) for v in row])
        text = buf.getvalue()
    else:
        def jsonify(v):
            if isinstance(v, (float, np.floating)):
                v = float(v)
                if math.isinf(v):
                    return "inf" if v > 0 else "-inf"
            elif isinstance(v, (bool, np.bool_)):
                v = bool(v)
            elif isinstance(v, np.integer):
                v = int(v)
            return v

        payload = {
            "schema": f"{SCHEMA_VERSION} {name}",
            "rows": [dict(zip(header, map(jsonify, row))) for row in rows],
        }
        text = json.dumps(payload, indent=1) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


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


def cmd_estimate(args) -> int:
    if args.trials < 2:
        raise ValueError("at least 2 trials are required")
    target = _target(args.target)
    lam = _eval_number(args.lam)
    points = _segment_points(parse_values(args.theta), parse_values(args.phi))
    domain = None
    if args.domain:
        lo, hi = (_eval_number(t) for t in args.domain.split(":"))
        domain = (lo, hi)
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
            result = run_trials(config)
        except AllTrialsOmitted as exc:
            print(f"point theta={theta0} phi={phi0}: {exc}", file=sys.stderr)
            failed = True
            continue
        except (NegativeOq, ZeroQfi) as exc:
            # the advantage is undefined here: keep the point's rows with
            # empty result cells, as advantage-map does, and go on
            print(f"point theta={theta0} phi={phi0}: {exc}", file=sys.stderr)
            failed = True
            rows.extend(row + [None] for row in failed_csv_rows(config))
            continue
        for row in summary_csv_rows(result):
            rows.append(row + [_fmt(result.advantage)])
    header = CSV_FIELDS.split(",") + ["advantage"]
    _write_table(args.out, args.format, "estimate", header, rows)
    return 3 if failed else 0


def cmd_compat(args) -> int:
    mu = np.array([_eval_number(t) for t in args.mu.split(",")])
    nu = np.array([_eval_number(t) for t in args.nu.split(",")])
    busch = bool(busch_compatible(mu, nu))
    a, b = bloch_povm(mu), bloch_povm(nu)
    povm = bool(hovm_is_povm(build_hovm(a, b, sequential_povm(a, b)), 1e-10))
    if busch != povm:
        raise OqMetroError("compatibility predicates disagree")
    boundary = None
    if np.linalg.norm(mu) > 0 and np.linalg.norm(nu) > 0:
        boundary = sharpness_threshold(mu, nu)
        if boundary is not None:
            boundary = float(boundary)
    verdict = {"busch": busch, "hovm_povm": povm, "boundary_lambda": boundary}
    text = json.dumps(verdict) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
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
    except (OqMetroError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
