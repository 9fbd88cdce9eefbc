"""Command-line front-end emitting figure data as CSV or JSON.

Subcommands: ``fi-sweep`` (information vs sharpness), ``advantage-map``
(theta-phi advantage grids), ``estimate`` (Monte-Carlo estimator
comparison), ``compat`` (compatibility certificate for a Bloch pair).
Output is data only; plotting is left to external tools.

Numeric arguments accept ``pi`` arithmetic (numbers, ``pi``, unary signs
and ``+ - * /``), parsed without ``eval``; a range may ask for at most
``MAX_RANGE_POINTS`` points, and so may the grid of a sweep or map and
the trials of an ``estimate`` over all its points.
``fi-sweep`` and ``advantage-map`` evaluate each probe point once, in
kernel calls of at most ``oq.BLOCK_POINTS`` points (``oq.row_blocks``):
``advantage-map`` one call per block of theta rows, ``fi-sweep`` one per
block of sharpness values, whose measurements it builds as one stack and
evaluates at every probe point.  A row wider than the budget (phi points
of the map, probe points of the sweep) is cut into pieces of at most
``oq.BLOCK_POINTS`` points, one call each.  The cells, their slopes and
the quantum information then go to ``fisher`` as arrays.
``advantage-map`` builds a block's kets with their slopes in one
``amplitudes`` call, and gathers its cells, kets and ket slopes at its
positive points with one ``compress`` each; cell slopes and quantum
information are computed there only.  Only the azimuthal target's
information vanishes, at and next to the poles, so cells, slopes and
information are masked again only in a block where some of it does.
The cells and slopes reach ``fisher`` component first and C-contiguous,
of shape (2, 2, points) as the kernel returns slopes; a boolean gather
``values[..., mask]`` lays them out point-major, which gives the same
bits but makes every pass of ``fisher`` stride.

Each subcommand hands ``_write_table`` its table as blocks of columns,
each formatted as soon as it is computed: one block per kernel call for
``advantage-map`` (a grid of its theta rows by the phi points) and for
``fi-sweep`` (its sharpness values by the probe points), and one per
probe point for ``estimate``.  Columns hold plain Python values, with
two exceptions.  A column with empty cells, such as the information
where it is undefined, is handed as its values with the mask of their
positions.  The map's negativity and advantage values are float arrays,
which the writer turns into text with one orjson call each; only the
cells where orjson's layout differs from ``repr`` go through the cell
rule (13 of the benchmark map's 32,387 values).  One writer serves both
formats with two cell rules: a CSV cell is Python's shortest round-trip
text for a float (``inf``/``-inf`` for infinities), ``str`` for a bool,
int or token, and empty for None, never quoted; a JSON cell is
``json.dumps`` of the value (for a finite float the same text,
``float.__repr__``, without the encoder), with the strings
``"inf"``/``"-inf"`` for infinities, after its key, framed as
``json.dumps(..., indent=1)`` frames the row objects.  A block's text is
one join of a list of its rows' separators and cells, filled with the
most common separator and then given each other separator and each
column's cells by one strided slice assignment.  Output is all or
nothing, so a refused block leaves no partial table: text for an
``--out`` file goes block by block to a temporary file beside it,
renamed onto it at the end, and text for stdout (or a device) is held
until the last block is done.  ``_emit`` is the one place output is
written.

Exit codes: 0 success, 2 configuration error, 3 runtime statistical
failure.
"""

from __future__ import annotations

import argparse
import ast
import math
import operator
import os
import sys
from contextlib import contextmanager
from functools import cache
from itertools import chain, repeat

import numpy as np

from .errors import AllTrialsOmitted, NegativeOq, OqMetroError, ZeroQfi
from .estimation import TrialConfig, TrialSummary, run_trials
from .fisher import advantage, oqfi, qfi_pure
from .measurement import (
    build_hovm,
    busch_compatible,
    mutually_unbiased_pair,
    sequential_povm,
    sharpness_threshold,
)
from .oq import POSITIVITY_TOL, negativity, oq_slopes, oq_values, row_blocks
from .probe import Target, amplitudes, check_angles

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


class _Gapped:
    """A column with empty cells: ``values``, a list or a 1-d float
    ndarray, at the positions where the boolean array ``present`` holds."""

    __slots__ = ("values", "present")

    def __init__(self, values, present: np.ndarray):
        self.values, self.present = values, present

    def __len__(self) -> int:
        return len(self.present)


# the column types that take a list's roles in a block
_LISTS = (list, np.ndarray, _Gapped)


def _csv_cells(col: list) -> list:
    """CSV text of a column of Python values: ``str``, which is the
    shortest round-trip text for a float and 'inf'/'-inf' for infinities,
    and '' for None."""
    return ["" if v is None else str(v) for v in col]


def _json_cells(col: list) -> list:
    """JSON text of a column of Python values: ``json.dumps`` of the
    value, with the strings 'inf'/'-inf' for infinities.  A finite float
    skips the encoder: its text is ``float.__repr__``, which is what
    ``json.dumps`` writes for it (``repr`` is not: numpy 2 writes a
    ``np.float64`` as ``np.float64(...)``)."""
    import json

    return [float.__repr__(v) if isinstance(v, float) and math.isfinite(v)
            else json.dumps("inf" if v == math.inf else
                            "-inf" if v == -math.inf else v) for v in col]


def _put(texts: list, at: np.ndarray, new: list) -> list:
    """``texts`` with ``new`` at the positions ``at``, in order."""
    for i, text in zip(at.tolist(), new):
        texts[i] = text
    return texts


def _float_texts(rule, col: np.ndarray) -> list:
    """The cell texts of a 1-d float64 ndarray under ``rule``: orjson's
    text of the whole column, split at its commas.  Below 1e-11 and from
    1e-4 up to 1e15 in magnitude orjson writes a float as ``repr`` does,
    which is the text both cell rules give; between and beyond those
    bounds it may write another layout (0.00001 for 1e-05, 1e16 for
    1e+16), and null for inf and nan, so ``rule`` formats those cells."""
    # orjson is imported only where an array column is written, which
    # only advantage-map does; it loads json with it
    import orjson

    text = orjson.dumps(col, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1]
    texts = text.decode().split(",") if len(col) else []
    size = np.abs(col)
    fix = np.flatnonzero((size >= 1e-11) & (size < 1e-4) | ~(size < 1e15))
    return _put(texts, fix, rule(col[fix].tolist()))


def _texts(rule, col) -> list:
    """The cell texts of a column under ``rule``: of a list cell by cell,
    of a float ndarray by ``_float_texts``, and of a ``_Gapped`` column
    its values' texts at their positions in the empty cell's text."""
    if isinstance(col, list):
        return rule(col)
    if isinstance(col, np.ndarray):
        return _float_texts(rule, col)
    return _put(rule([None]) * len(col), np.flatnonzero(col.present),
                _texts(rule, col.values))


@contextmanager
def _emit(path: str | None):
    """A write function for text bound for the file at path, or for stdout
    without a path, which receives it only if the block exits cleanly.

    A regular file, new or old, gets the text as it comes, in a temporary
    file beside it (beside the file a symlink names) with the mode
    ``open(path, "w")`` would leave, which ``os.replace`` moves onto it at
    the end and which is removed on an error.  So memory holds one piece
    of text at a time, and the file is the whole output or left as it
    was.  Stdout and any other target, such as a device, cannot be
    replaced: their text is held and written at the end.
    """
    if not path or os.path.exists(path) and not os.path.isfile(path):
        parts = []
        yield parts.append
        if not path:
            sys.stdout.writelines(parts)
        else:
            with open(path, "w") as fh:
                fh.writelines(parts)
        return
    # tempfile is imported only where a file is written
    import tempfile

    target = os.path.realpath(path)
    try:
        fd, temp = tempfile.mkstemp(dir=os.path.dirname(target),
                                    prefix=".oqmetro-", suffix=".tmp")
    except OSError as exc:
        # name the path given, not the temporary file
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "w") as fh:
            os.chmod(temp, _file_mode(target))
            yield fh.write
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise


def _file_mode(path: str) -> int:
    """The permission bits ``open(path, "w")`` leaves: an existing file's,
    else 0o666 less the umask."""
    try:
        return os.stat(path).st_mode & 0o7777
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        return 0o666 & ~umask


def _write_table(path: str | None, fmt: str, name: str, header: list,
                 blocks) -> None:
    """Write a table given as an iterable of blocks of columns.

    A block's rows are a row-major grid of outer rows, as many as its
    tuple columns are long (one without any), by inner points, as many as
    its shortest list is long (one without any).  A column holds Python
    values, None for an empty cell: a tuple one per outer row, a list that
    short one per inner point (tiled down the outer rows), a longer list
    one per row, and any other value is one cell for the whole block.  A
    C-contiguous 1-d float64 ndarray takes a list's roles and is formatted
    with one orjson call (``_texts``), and so does a ``_Gapped`` column,
    whose values are such an array or a list.
    Blocks are consumed one at a time, and each is turned into text and
    handed to ``_emit`` before the next is asked for, so a subcommand may
    compute them lazily; the output appears only once the last one is
    done.  A list or array passed again as the same object at the same
    position keeps its text, so it must not change in between.
    """
    if fmt == "csv":
        head = f"# {SCHEMA_VERSION} {name}\n" + ",".join(header) + "\n"
        rule, keys = _csv_cells, [""] * len(header)
        sep, row_open, row_close, row_join = ",", "", "\n", ""
        tails = ("", "")  # without rows, after rows
    else:
        # json is imported only where JSON is written (here, _json_cells
        # and cmd_compat) and by orjson (_float_texts)
        import json

        # the bytes of json.dumps({"schema": ..., "rows": [...]}, indent=1)
        head = ('{\n "schema": ' + json.dumps(f"{SCHEMA_VERSION} {name}")
                + ',\n "rows": [')
        rule, keys = _json_cells, [f"   {json.dumps(key)}: " for key in header]
        sep, row_open, row_close, row_join = ",\n", "\n  {\n", "\n  }", ","
        tails = ("]\n}\n", "\n ]\n}\n")
    # a row's text before each of its cells, the first after an earlier
    # row; a block's text fills every such slot with the most common one
    # and then the others, one strided slice each
    gaps = [row_close + row_join + row_open + keys[0]]
    gaps += [sep + key for key in keys[1:]]
    common = max(gaps, key=gaps.count)
    others = [(2 * k, gap) for k, gap in enumerate(gaps) if gap != common]
    width = 2 * len(gaps)  # a row's entries: each gap and its cell
    held = {}  # column position -> (list column, its text)

    def rows_text(block, after_rows: bool) -> str:
        """The text of a block's rows, after earlier rows if ``after_rows``;
        '' without rows.  Nothing of the block outlives the call but
        ``held``."""
        outer = next((len(c) for c in block if isinstance(c, tuple)), 1)
        inner = min((len(c) for c in block if isinstance(c, _LISTS)),
                    default=1)
        n = outer * inner
        if not n:
            return ""
        flat = [common] * (width * n + 1)
        for k, gap in others:
            flat[k:-1:width] = [gap] * n
        flat[0] = (row_join if after_rows else "") + row_open + keys[0]
        flat[-1] = row_close
        for j, col in enumerate(block):
            if isinstance(col, _LISTS):
                if j not in held or held[j][0] is not col:
                    # the text it replaces is dropped before it is made
                    held.pop(j, None)
                    held[j] = (col, _texts(rule, col))
                text = held[j][1]
                if len(col) < n:
                    text = text * outer
            elif isinstance(col, tuple):
                text = list(chain.from_iterable(map(repeat, rule(col),
                                                    repeat(inner))))
            else:
                text = rule([col]) * n
            # the cells go between the row text, joined once
            flat[2 * j + 1::width] = text
        return "".join(flat)

    with _emit(path) as write:
        write(head)
        wrote = False
        for block in blocks:
            if text := rows_text(block, wrote):
                write(text)
                wrote = True
        write(tails[wrote])


def cmd_fi_sweep(args) -> int:
    target = Target(args.target)
    lams = parse_values(args.lam)
    axes = parse_values(args.theta), parse_values(args.phi)
    _check_grid_size(lams, *axes)
    grid = np.meshgrid(*axes, indexing="ij")
    theta, phi = (g.ravel() for g in grid)
    check_angles(theta, phi)
    psi, dpsi = amplitudes(theta, phi, target)
    qfi = qfi_pure(psi, dpsi)
    # the probe points in pieces of at most one kernel call's points (one
    # piece unless they are more), each with its columns listed once
    pieces = [(psi[:, c], dpsi[:, c], theta[c].tolist(), phi[c].tolist(),
               qfi[c].tolist()) for c in row_blocks(theta.size, 1)]

    def blocks():
        # the measurements of a block of sharpness values in one stack of
        # batch shape (lambda, 1), which broadcasts against the probe
        # points: cells have shape (d, d, lambda, point)
        for rows in row_blocks(len(lams), theta.size):
            a, b = mutually_unbiased_pair(np.array(lams[rows])[:, None])
            w = build_hovm(a, b, sequential_povm(a, b))
            for kets, ket_slopes, thetas, phis, qfis in pieces:
                values = oq_values(w, kets)
                neg = negativity(values)
                positive = neg <= POSITIVITY_TOL
                slopes = oq_slopes(w, kets, ket_slopes)
                info = oqfi(values[..., positive], slopes[..., positive])
                positive = positive.ravel()
                yield [tuple(lams[rows]), thetas, phis, args.target,
                       _Gapped(info.tolist(), positive), qfis,
                       neg.ravel().tolist(), positive.tolist()]

    _write_table(args.out, args.format, "fi-sweep",
                 ["lambda", "theta", "phi", "target", "oqfi", "qfi",
                  "negativity", "positive"], blocks())
    return 0


def cmd_advantage_map(args) -> int:
    target = Target(args.target)
    lam = _eval_number(args.lam)
    thetas = parse_values(args.theta)
    phis = parse_values(args.phi)
    _check_grid_size(thetas, phis)
    check_angles(thetas, phis)
    a, b = mutually_unbiased_pair(lam)
    w = build_hovm(a, b, sequential_povm(a, b))
    phi = np.array(phis, dtype=float)
    # the phi points in pieces of at most one kernel call's points (one
    # piece unless they are more), each listed once
    pieces = [(phis[c], phi[c]) for c in row_blocks(len(phis), 1)]

    def blocks():
        # one kernel call per block of theta rows (or piece of one row)
        # keeps the working set small, and a block is formatted before the
        # next block is computed
        for rows in row_blocks(len(thetas), len(phis)):
            theta_col = np.array(thetas[rows], dtype=float)[:, None]
            for row_phis, row_phi in pieces:
                psi, dpsi = amplitudes(theta_col, row_phi, target)
                values = oq_values(w, psi)
                neg = negativity(values)
                # the advantage is undefined at negative points and where
                # the quantum information vanishes: those cells stay
                # empty.  The information chain runs at the positive points
                # only, on the cells, kets and ket slopes gathered there
                # component first and C-contiguous (a masked gather
                # x[..., defined] comes out point-major, which every pass
                # of fisher strides through)
                defined = neg <= POSITIVITY_TOL
                values, psi, dpsi = (x.reshape(*x.shape[:-2], -1).compress(
                    defined.ravel(), axis=-1) for x in (values, psi, dpsi))
                qfi = qfi_pure(psi, dpsi)
                slopes = oq_slopes(w, psi, dpsi)
                nonzero = qfi > 0
                if not nonzero.all():
                    # the azimuthal target's QFI, sin(theta)**2, vanishes at
                    # and next to the poles
                    defined[defined] = nonzero
                    values, slopes, qfi = (x.compress(nonzero, axis=-1)
                                           for x in (values, slopes, qfi))
                adv = advantage(values, slopes, qfi)
                yield [tuple(thetas[rows]), row_phis,
                       _Gapped(adv, defined.ravel()), neg.ravel()]

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
    target = Target(args.target)
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
    import json

    mu = np.array([_eval_number(t) for t in args.mu.split(",")])
    nu = np.array([_eval_number(t) for t in args.nu.split(",")])
    # Busch's criterion is the closed form of the least eigenvalues of the
    # sequential HOVM's elements, so it is the verdict under both keys; it
    # refuses a vector of the wrong length by name, and an overflowed norm
    # with its finite value
    busch = bool(busch_compatible(mu, nu))
    boundary = None
    # any() and not a norm: the norm of a 1e-200 vector underflows to 0
    if mu.any() and nu.any():
        boundary = sharpness_threshold(mu, nu)
    verdict = {"busch": busch, "hovm_povm": busch, "boundary_lambda": boundary}
    with _emit(args.out) as write:
        write(json.dumps(verdict) + "\n")
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing keeps no
    state in it, and building it costs about 2 ms in a fresh process, of
    which about 1.3 ms is argparse's set-up of its first parser (it
    imports ``locale`` through ``gettext``)."""
    parser = argparse.ArgumentParser(
        prog="oqmetro",
        description="Quasiprobability metrology with incompatible qubit "
                    "measurements: Fisher-information sweeps, advantage "
                    "maps and Monte-Carlo estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, lam_default, lam_help="sharpness value"):
        p.add_argument("--target", choices=("theta", "phi"), default="theta")
        p.add_argument("--lambda", dest="lam", default=lam_default,
                       help=lam_help)
        p.add_argument("--theta", default="pi/2",
                       help="value, comma list, or range start:stop:step")
        p.add_argument("--phi", default="0",
                       help="value, comma list, or range start:stop:step")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("fi-sweep", help="OQFI and QFI over a sharpness grid")
    common(p, "0:0.995:0.005",
           "sharpness value, comma list, or range start:stop:step")
    p.set_defaults(func=cmd_fi_sweep)

    p = sub.add_parser("advantage-map", help="advantage over a theta-phi grid")
    common(p, "0.995")
    p.set_defaults(func=cmd_advantage_map)

    p = sub.add_parser("estimate", help="Monte-Carlo MLE/LEP comparison")
    common(p, "0.9")
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
