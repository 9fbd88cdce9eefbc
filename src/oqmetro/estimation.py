"""Monte-Carlo estimation harness.

Two settings are sampled per trial: the local measurement B alone and the
sequential measurement A-then-B.  The A-alone setting contributes nothing
because its counts cancel against the sequential marginal.  Quasiprobability
counts assembled from the two settings feed a maximum-likelihood estimator
(coarse grid + golden-section refinement, error bar from the observed Fisher
information) and a linear-error-propagation estimator (mean inversion of the
parity observable, error bar from the propagation formula).

Randomness: setting j of trial k draws from the PCG64 stream of
``numpy.random.SeedSequence(seed).spawn(trials)[k].spawn(2)[j]``, so every
table is reproducible from the run's seed and its index, and trials are
independent.  No ``SeedSequence`` is built per trial: numpy mixes the
seed's entropy into one ``SeedSequence(seed)`` pool per run
(``_run_words``), per block of trials only the spawn keys and the state
words are hashed, on integer arrays (``_state_words``), and ``PCG64``
seeds each setting from its words through numpy's ``ISeedSequence``
interface (``_Words``).

Stacks only: every function takes a ``CountTable`` stack of tables with a
leading trial axis and returns one array entry per table.
``estimate_tables`` is the one estimator entry point: it marks each table
that an estimator refuses, a negative W-count included, with a
``TrialResult.cause`` instead of raising.  It refines both estimators of
every table without a negative W-count in one lockstep: one kernel call
evaluates the grid for both scans (blocks of at most ``oq.BLOCK_POINTS``
(trial, grid point) pairs), one per golden-section step covers both
estimators' brackets, and one the curvature's three points, with the
per-table arithmetic of refining each table alone.

Layout: the estimators read the kernel's component-first cells as 4 rows
of one point axis, and lay the W-counts out the same way once per call.
Every sum over a table's 4 cells is ``oq.cell_sum`` over those rows, in
order from +0.0, or, in the grid scan, one contraction per block that
adds them in that order.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import AllTrialsOmitted, ParamOutOfRange
from .fisher import advantage, qfi_pure
from .measurement import Hovm, Povm, build_hovm, mutually_unbiased_pair, sequential_povm
from .oq import POSITIVITY_TOL, cell_sum, oq_slopes, oq_values, row_blocks
from .probe import Target, amplitudes, check_angles

PROB_CLAMP = 1e-12
GRID_STEP = 1e-3
REFINE_TOL = 1e-8
CURVATURE_H = 1e-4
SLOPE_FLOOR = 1e-9

# parity labels (-1)^(a*b) of the 2x2 outcome grid, one per component row
_PARITY = np.array([[1.0], [1.0], [1.0], [-1.0]])

_INV_PHI = (math.sqrt(5) - 1) / 2

# numpy's SeedSequence constants (pool size, hashmix, mix, generate_state),
# with which _state_words hashes a table's spawn key
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_WORD = 0xFFFFFFFF


@dataclass(frozen=True)
class CountTable:
    """A stack of tables: counts for the two sampled settings plus the
    assembled W-counts.

    ``counts_b`` has shape (trials, 2) and ``counts_seq``, ``counts_w``
    shape (trials, 2, 2).
    """

    n: int
    counts_b: np.ndarray
    counts_seq: np.ndarray
    counts_w: np.ndarray

    def __post_init__(self):
        counts_b = np.asarray(self.counts_b)
        counts_seq = np.asarray(self.counts_seq)
        counts_w = np.asarray(self.counts_w, dtype=float)
        lead = counts_b.shape[:1]
        if (counts_b.shape != lead + (2,) or counts_seq.shape != lead + (2, 2)
                or counts_w.shape != lead + (2, 2)):
            raise ValueError("expected a stack of tables with 2 outcomes per "
                             "local measurement")
        tol = 1e-9 * max(self.n, 1)
        if (np.abs(counts_b.sum(axis=-1) - self.n) > tol).any() or (
                np.abs(counts_seq.sum(axis=(-2, -1)) - self.n) > tol).any():
            raise ValueError("setting counts must each sum to n")
        if (np.abs(counts_w.sum(axis=(-2, -1)) - self.n) > tol).any():
            raise ValueError("assembled W-counts must sum to n")
        for name, arr in (("counts_b", counts_b), ("counts_seq", counts_seq),
                          ("counts_w", counts_w)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def negative(self) -> np.ndarray:
        """Whether each table has a negative W-count."""
        return (self.counts_w < 0).any(axis=(-2, -1))


KEPT, NEGATIVE, FLAT, NO_SLOPE, TOO_WIDE, NO_VARIANCE = range(6)
CAUSES = ("kept", "negative W-counts", "flat likelihood", "no usable parity slope",
          "standard error wider than the domain", "no positive predicted variance")


@dataclass(frozen=True)
class TrialResult:
    """Estimates with their error bars, one entry per table of a stack.

    ``cause`` is ``KEPT`` for a table the estimator accepted, else the
    code of the rule that refused it, which ``CAUSES`` names; ``omitted``
    marks the refused tables, whose other entries are meaningless.
    """

    estimate: np.ndarray
    observed_fi: np.ndarray
    variance_estimate: np.ndarray
    cause: np.ndarray

    @property
    def omitted(self) -> np.ndarray:
        return self.cause != KEPT


def assemble_w_counts(counts_b: np.ndarray, counts_seq: np.ndarray) -> np.ndarray:
    """c(a,b|W) = c(a,b|S) + (c(b|B) - sum_a c(a,b|S)) / 2, per table."""
    counts_b = np.asarray(counts_b, dtype=float)
    counts_seq = np.asarray(counts_seq, dtype=float)
    return counts_seq + (counts_b[..., None, :]
                         - counts_seq.sum(axis=-2)[..., None, :]) / 2


def _outcome_probs(psi: np.ndarray, povm: Povm) -> np.ndarray:
    p = np.clip([np.real(psi.conj() @ e @ psi) for e in povm.effects], 0.0, None)
    return p / p.sum()


def _hash_consts(init: int, mult: int, first: int, calls: int) -> tuple:
    """The (xor, mult) uint32 constants of ``calls`` successive hashmix calls
    of a ``SeedSequence`` hash, from its call ``first`` on: the hash constant
    starts at ``init`` and each call multiplies it by ``mult``."""
    consts = np.array([init * pow(mult, i, _WORD + 1) & _WORD
                       for i in range(first, first + calls + 1)], dtype=np.uint32)
    return consts[:-1], consts[1:]


def _hashed(value, xor, mult):
    """``SeedSequence``'s hashmix of uint32 words, broadcasting, in the calls
    that find the hash constants at ``xor`` and leave them at ``mult``."""
    value = (value ^ xor) * mult & _WORD
    return value ^ value >> _XSHIFT


def _mixed(x, y):
    """``SeedSequence``'s mix of hashed uint32 words y into pool words x."""
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _WORD
    return result ^ result >> _XSHIFT


# generate_state's 8 words cycle twice over the pool, each hashed under its
# own constants
_STATE_XOR, _STATE_MULT = _hash_consts(_INIT_B, _MULT_B, 0, 2 * _POOL)


def _run_words(seed) -> tuple:
    """The run's seeding words, computed once per run.

    These are ``SeedSequence(seed)``'s pool, which numpy fills from the
    seed as it does ahead of a spawn key (k, j), refusing a negative seed,
    and what that key meets next: the hash constants of k's four hashes,
    one per pool word, and the hashes of j = 0 and 1, which are the same
    for every table.
    """
    # an integer only: SeedSequence(None) would draw fresh OS entropy
    seed = operator.index(seed)
    pool = np.random.SeedSequence(seed).pool
    # numpy makes 4 hashmix calls per 32-bit word of the seed, counting at
    # least the pool's 4 words, before the key's first word
    words = max(-(-seed.bit_length() // 32), _POOL)
    key_xor, key_mult = _hash_consts(_INIT_A, _MULT_A, _POOL * words, _POOL)
    j_consts = _hash_consts(_INIT_A, _MULT_A, _POOL * (words + 1), _POOL)
    hashed_j = _hashed(np.arange(2, dtype=np.uint32)[:, None], *j_consts)
    return pool, key_xor, key_mult, hashed_j


def _state_words(run_words: tuple, start: int, stop: int) -> np.ndarray:
    """The seeding words of the settings of tables ``start:stop``, uint32 of
    shape (stop - start, 2, 8): entry (k - start, j) is
    ``SeedSequence(seed).spawn(stop)[k].spawn(2)[j].generate_state(8)``,
    where ``run_words`` are ``_run_words(seed)``.

    Only the spawn key is hashed per table: k into all four pool words in
    one array op, then the run's hashes of j, then ``generate_state``'s
    eight words in one.  ``stop`` must be at most 2**32: a larger spawn key
    is two words.
    """
    pool, key_xor, key_mult, hashed_j = run_words
    keys = np.arange(start, stop, dtype=np.uint32)[:, None]
    pool = _mixed(pool, _hashed(keys, key_xor, key_mult))
    pool = _mixed(pool[:, None], hashed_j)
    return _hashed(np.concatenate((pool, pool), axis=-1), _STATE_XOR, _STATE_MULT)


class _Words:
    """One setting's seeding words as a seed source: the one method of
    numpy's ``bit_generator.ISeedSequence`` interface, which ``PCG64`` calls
    for its state.  ``draw_counts`` registers it as one; subclassing it here
    would import ``numpy.random`` with this module."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        # as numpy does, uint64 words are views of the uint32 words
        return self.words.view(dtype)[:n_words]


def draw_counts(p_b: np.ndarray, p_seq: np.ndarray, n: int, seed: int,
                trials: int) -> CountTable:
    """Draw a stack of ``trials`` tables from a non-negative integer seed.

    ``p_b`` and ``p_seq`` are the outcome probabilities of B and of the
    sequential setting.  Table k draws setting j from the PCG64 stream of
    ``SeedSequence(seed).spawn(trials)[k].spawn(2)[j]``, so each table
    depends on the seed and its index only.  Its generator is seeded from
    the words ``_state_words`` derives for it, and no ``SeedSequence`` is
    built per table.
    """
    np.random.bit_generator.ISeedSequence.register(_Words)
    Generator, PCG64 = np.random.Generator, np.random.PCG64
    run_words = _run_words(seed)
    first_b = np.empty(trials, dtype=np.int64)
    counts_seq = np.empty((trials, 4), dtype=np.int64)
    for rows in row_blocks(trials, 1):
        block_b, block_seq = [], []
        words = _state_words(run_words, rows.start, min(rows.stop, trials))
        # two zipped columns: unpacking each table's (2, 8) rows costs more
        for words_b, words_seq in zip(words[:, 0], words[:, 1]):
            # B has two outcomes, for which multinomial draws exactly this
            block_b.append(Generator(PCG64(_Words(words_b))).binomial(n, p_b[0]))
            block_seq.append(Generator(PCG64(_Words(words_seq))).multinomial(n, p_seq))
        # one array conversion per block of draws
        first_b[rows], counts_seq[rows] = block_b, block_seq
    counts_b = np.stack((first_b, n - first_b), axis=-1)
    counts_seq = counts_seq.reshape(trials, 2, 2)
    return CountTable(n, counts_b, counts_seq,
                      assemble_w_counts(counts_b, counts_seq))


def expected_counts(p_b: np.ndarray, p_seq: np.ndarray, n: int) -> CountTable:
    """A stack of one noise-free table: n times the outcome probabilities.

    A W-count of a cell whose probability is zero may round to a tiny
    negative; one no deeper than ``n * POSITIVITY_TOL``, the negativity
    ``advantage`` accepts, is set to 0.
    """
    counts_b, counts_seq = n * p_b[None], n * p_seq.reshape(1, 2, 2)
    counts_w = assemble_w_counts(counts_b, counts_seq)
    counts_w[(counts_w < 0) & (counts_w >= -n * POSITIVITY_TOL)] = 0.0
    return CountTable(n, counts_b, counts_seq, counts_w)


def _square(x: np.ndarray) -> np.ndarray:
    """x**2 through libm ``pow`` like a scalar ``x ** 2``; an array ``** 2``
    is x*x, which differs in the last digit on about 0.1% of inputs."""
    return np.float_power(x, 2)


def _loglik(counts_w: np.ndarray, vals: np.ndarray, n: int) -> np.ndarray:
    """(1/n) sum c(a,b|W) log W(a,b) over component-first rows, the model
    clamped at ``PROB_CLAMP`` (``np.maximum``, which is what ``np.clip``
    with no upper bound calls).  Paired, not contracted: on one table
    einsum's dot kernel adds (x0 + x2) + (x1 + x3)."""
    return cell_sum(counts_w * np.log(np.maximum(vals, PROB_CLAMP)), 1) / n


def _scan_loglik(cw: np.ndarray, log_cells: np.ndarray, n: int) -> np.ndarray:
    """(1/n) cw.T log_cells, shape (tables, grid points), as one einsum: it adds
    the 4 products row by row from +0.0 like ``oq.cell_sum`` (``@`` fuses
    them)."""
    ll = np.einsum("kt,kg->tg", cw, log_cells)
    return np.divide(ll, n, out=ll)


def golden_section_maximize(f, lo, hi, tol: float) -> np.ndarray:
    """Locate the maximum of a unimodal f on each bracket [lo, hi] to
    interval width tol.

    ``lo`` and ``hi`` are arrays of brackets, refined in lockstep: ``f``
    maps an array of points to an array of values (one call per step for
    all brackets, which may belong to several objectives), and a bracket
    stops moving once it is no wider than ``tol`` while the others go on.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    step = _INV_PHI * (hi - lo)
    c, d = hi - step, lo + step
    fc, fd = f(c), f(d)
    active = hi - lo > tol
    while active.any():
        left = fc > fd
        # a left step keeps [lo, d] and probes a new c; a right step keeps
        # [c, hi] and probes a new d
        new_lo, new_hi = np.where(left, lo, c), np.where(left, d, hi)
        step = _INV_PHI * (new_hi - new_lo)
        x = np.where(left, new_hi - step, new_lo + step)
        fx = f(x)
        new = (new_lo, new_hi, np.where(left, x, d), np.where(left, c, x),
               np.where(left, fx, fd), np.where(left, fc, fx))
        lo, hi, c, d, fc, fd = new if active.all() else (
            np.where(active, updated, kept)
            for updated, kept in zip(new, (lo, hi, c, d, fc, fd)))
        active = hi - lo > tol
    return (lo + hi) / 2


def _grid(domain: tuple, step: float) -> np.ndarray:
    lo, hi = float(domain[0]), float(domain[1])
    if not hi > lo:
        raise ValueError("domain must be a nondegenerate interval")
    gs = np.arange(lo, hi + step / 2, step)
    if len(gs) < 2:
        # a one-point grid leaves nothing to refine: all estimates would agree
        raise ValueError(f"domain is narrower than half the grid step {step}")
    gs[-1] = min(gs[-1], hi)
    return gs


def parity_mean(counts: CountTable) -> np.ndarray:
    """Observed mean of the parity observable (-1)^(ab) W_ab, per table."""
    rows = counts.counts_w.reshape(len(counts.counts_w), 4).T
    return cell_sum(_PARITY * rows, 1) / counts.n


def estimate_tables(counts: CountTable, target: Target, fixed_other: float,
                    w: Hovm, domain: tuple) -> tuple:
    """The MLE and the LEP ``TrialResult`` of a stack, one entry per table.

    The MLE scans a grid (the first maximum wins ties, i.e. the smallest
    angle) and refines by golden section; its error bar is the observed
    Fisher information, a central second difference of the log-likelihood
    at the optimum.  It refuses a table whose likelihood is flat there.
    The LEP inverts the parity mean.  It refuses a table whose parity slope
    at the estimate is below ``SLOPE_FLOOR``, whose standard error is wider
    than the search domain, or whose predicted variance is not positive (the
    model parity mean of a quasiprobability may pass 1 in magnitude).  Both
    refuse a table with a negative W-count, which is not refined.

    One grid evaluation serves both scans, then one golden-section stack of
    the MLE's brackets and the LEP's, so each step is one kernel call for
    both estimators.
    """
    keep = ~counts.negative
    n = counts.n
    # the kept W-counts as contiguous component rows, like the kernel's cells
    trials = int(keep.sum())
    cw = np.ascontiguousarray(counts.counts_w[keep].reshape(trials, 4).T)
    obs = parity_mean(counts)[keep]

    def angles(g):
        # the probe angles (theta, phi) at values g of the target angle
        return (g, fixed_other) if target is Target.POLAR else (fixed_other, g)

    def cells(g):
        return oq_values(w, amplitudes(*angles(g))).reshape(4, len(g))

    gs = _grid(domain, GRID_STEP)
    vals = cells(gs)
    log_cells = np.log(np.maximum(vals, PROB_CLAMP))
    means = cell_sum(_PARITY * vals, 1)
    best = np.empty((2, trials), dtype=np.intp)
    for rows in row_blocks(trials, len(gs)):
        best[0, rows] = _scan_loglik(cw[:, rows], log_cells, n).argmax(axis=1)
        gap = means - obs[rows, None]
        gap *= gap  # the bits of an array ** 2, which is x*x
        best[1, rows] = gap.argmin(axis=1)

    def f(g):
        v = cells(g)
        out = np.empty(len(g))
        out[:trials] = _loglik(cw, v[:, :trials], n)
        out[trials:] = -_square(cell_sum(_PARITY * v[:, trials:], 1) - obs)
        return out

    # one stack of the MLE's brackets, then the LEP's; a bracket spans its
    # best grid point's neighbours, one step wide at the ends of the grid
    best = best.ravel()
    est = golden_section_maximize(f, gs[np.maximum(best - 1, 0)],
                                  gs[np.minimum(best + 1, len(gs) - 1)], REFINE_TOL)
    mle, lep = est[:trials], est[trials:]

    h = CURVATURE_H
    three = cells(np.concatenate((mle, mle + h, mle - h)))
    center, up, down = _loglik(cw[:, None], three.reshape(4, 3, trials), n)
    observed_fi = -((up - 2 * center + down) / (h * h))
    # resolution limit: log-likelihood cancellation noise amplified by 1/h^2
    noise = 16 * np.finfo(float).eps * np.maximum(np.abs(center), 1.0) / (h * h)
    with np.errstate(divide="ignore"):
        mle_var = 1.0 / (n * observed_fi)

    ket, dket = amplitudes(*angles(lep), target)
    mean_at = cell_sum(_PARITY * oq_values(w, ket).reshape(4, trials), 1)
    slope = cell_sum(_PARITY * oq_slopes(w, ket, dket).reshape(4, trials), 1)
    # the parity observable has eigenvalue labels +-1, so <O^2> = 1
    with np.errstate(divide="ignore"):
        lep_var = (1.0 - _square(mean_at)) / (n * _square(slope))
    width = float(domain[1]) - float(domain[0])
    # lep_var > width**2: the standard error is wider than the search domain
    lep_cause = np.select([np.abs(slope) <= SLOPE_FLOOR, lep_var > width**2,
                           ~(lep_var > 0)], [NO_SLOPE, TOO_WIDE, NO_VARIANCE], KEPT)

    def whole(*entries, cause):
        # spread the kept tables' results back over the whole stack
        values = np.full((len(entries), len(keep)), np.nan)
        values[:, keep] = entries
        causes = np.full(len(keep), NEGATIVE)
        causes[keep] = cause
        return TrialResult(*values, causes)

    return (whole(mle, observed_fi, mle_var,
                  cause=np.where(observed_fi <= noise, FLAT, KEPT)),
            whole(lep, np.full_like(lep, np.nan), lep_var, cause=lep_cause))


@dataclass(frozen=True)
class TrialConfig:
    """One Monte-Carlo experiment: a true point, the mutually unbiased
    measurement geometry at the given sharpness, and the sampling budget."""

    theta0: float
    phi0: float
    target: Target
    sharpness: float
    n: int
    trials: int
    seed: int
    domain: tuple | None = None
    inject_expected: bool = False


@dataclass(frozen=True)
class EstimatorSummary:
    """Per-estimator aggregate over the completed trials.

    ``ratio`` is log10(quantum_var / (2 * mean_pred_var)), i.e. the
    error-variance ratio with each trial's own variance estimate standing in
    for the error variance, which is how the reference protocol reports it.
    """

    estimator: str
    mean_estimate: float
    emp_var: float
    mean_pred_var: float
    omission_rate: float
    ratio: float


@dataclass(frozen=True)
class TrialSummary:
    """The result of one run: numbers only; ``cli`` lays them out as rows."""

    advantage: float
    mle: EstimatorSummary
    lep: EstimatorSummary


def _summarize(name: str, result: TrialResult, trials: int,
               quantum_var: float, inject: bool) -> EstimatorSummary:
    done = ~result.omitted
    estimates, variances = result.estimate[done], result.variance_estimate[done]
    if inject:
        if not len(estimates):
            raise AllTrialsOmitted(f"{name}: injection evaluation omitted: "
                                   f"{CAUSES[result.cause[0]]}")
        pred = float(variances[0])
        return EstimatorSummary(name, float(estimates[0]), 0.0, pred, 0.0,
                                math.log10(quantum_var / (2 * pred)))
    if len(estimates) < 2:
        why = ", ".join(f"{count} {CAUSES[cause]}"
                        for cause, count in enumerate(np.bincount(result.cause))
                        if cause != KEPT and count)
        raise AllTrialsOmitted(f"{name}: fewer than 2 trials completed ({why})")
    emp_var = float(np.var(estimates, ddof=1))
    pred = float(np.mean(variances))
    return EstimatorSummary(name, float(estimates.mean()), emp_var, pred,
                            int(result.omitted.sum()) / trials,
                            math.log10(quantum_var / (2 * pred)))


def run_trials(config: TrialConfig) -> TrialSummary:
    """Run the full Monte-Carlo comparison at one parameter point.

    One ``estimate_tables`` call serves both estimators of every trial.
    A trial that an estimator refuses, for a negative W-count or any other
    cause, is left out of that estimator's summary, never resampled, and
    counts towards its omission rate.  With
    ``inject_expected`` the exact expected counts replace sampling (a
    single noiseless evaluation), and a refusal names its ``CAUSES`` entry.
    """
    if config.trials < 2:
        raise ValueError("at least 2 trials are required")
    if config.trials >= 2**32:
        # a trial's index is one 32-bit word of its spawn key
        raise ValueError("at most 2**32 - 1 trials are supported")
    if config.n < 1:
        raise ValueError("n must be positive")
    if config.n > np.iinfo(np.int64).max:
        # the multinomial draws count in int64
        raise ValueError(f"n must be at most {np.iinfo(np.int64).max}")
    check_angles(config.theta0, config.phi0)
    if not isinstance(config.target, Target):
        raise ParamOutOfRange("target must be a Target enum member")
    a, b = mutually_unbiased_pair(config.sharpness)
    seq = sequential_povm(a, b)
    w = build_hovm(a, b, seq)
    fixed_other = config.phi0 if config.target is Target.POLAR else config.theta0
    domain = config.domain or (0.0, math.pi)
    if config.target is Target.POLAR:
        # phi is periodic, so only a polar domain can leave the probe sphere
        check_angles(domain, config.phi0)
    elif not (np.isfinite(domain).all() and domain[1] - domain[0] <= 2 * math.pi):
        # one period of phi: a wider window holds several likelihood maxima
        raise ParamOutOfRange(f"phi domain {domain[0]}:{domain[1]} is not "
                              "finite or wider than 2*pi")
    _grid(domain, GRID_STEP)  # refuses a one-point grid before sampling

    psi0, dpsi0 = amplitudes(config.theta0, config.phi0, config.target)
    qfi0 = qfi_pure(psi0, dpsi0)
    adv = advantage(oq_values(w, psi0), oq_slopes(w, psi0, dpsi0), qfi0)
    quantum_var = 1.0 / (config.n * qfi0)

    p_b, p_seq = _outcome_probs(psi0, b), _outcome_probs(psi0, seq)
    trials = 1 if config.inject_expected else config.trials
    tables = (expected_counts(p_b, p_seq, config.n) if config.inject_expected
              else draw_counts(p_b, p_seq, config.n, config.seed, trials))
    results = estimate_tables(tables, config.target, fixed_other, w, domain)
    return TrialSummary(adv, *(
        _summarize(name, result, trials, quantum_var, config.inject_expected)
        for name, result in zip(("mle", "lep"), results)))

