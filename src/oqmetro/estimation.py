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
independent.  The PCG64 states of all those streams are derived at once
on integer arrays, in blocks of trials, with numpy's own seeding
arithmetic; no ``SeedSequence`` is built per trial.

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

Layout: the estimators read the kernel's native cells (``oq._cells``),
component-first, as 4 rows of one point axis, and lay the W-counts out
the same way once per call.  Every sum over a table's 4 cells adds them
in order from +0.0 like ``oq._cell_sum``, with the bits of cells laid out
last: one row reduction (``_row_sum``), or one contraction per scan block.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import AllTrialsOmitted, ParamOutOfRange
from .fisher import advantage, qfi_pure
from .measurement import Hovm, Povm, build_hovm, mutually_unbiased_pair, sequential_povm
from .oq import POSITIVITY_TOL, _cells, oq_slopes, oq_values, row_blocks
from .probe import Target, amplitude_slopes, amplitudes, check_angles

PROB_CLAMP = 1e-12
GRID_STEP = 1e-3
REFINE_TOL = 1e-8
CURVATURE_H = 1e-4
SLOPE_FLOOR = 1e-9

# parity labels (-1)^(a*b) of the 2x2 outcome grid, one per component row
_PARITY = np.array([[1.0], [1.0], [1.0], [-1.0]])

_INV_PHI = (math.sqrt(5) - 1) / 2

# numpy's SeedSequence constants (pool size, hashmix, mix, generate_state)
# and the PCG64 LCG multiplier, from which _pcg64_states derives states
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_WORD = 0xFFFFFFFF
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


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


def _run_words(seed) -> list:
    """The 32-bit entropy words of an integer seed, least significant
    first, as ``SeedSequence`` splits it (0 is one word)."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return [seed >> shift & _WORD
            for shift in range(0, max(seed.bit_length(), 1), 32)]


def _pcg64_states(run_words: list, start: int, stop: int) -> list:
    """PCG64 states of the settings of tables ``start:stop``, one pair of
    ``state`` dicts per table k: the states that
    ``PCG64(SeedSequence(seed).spawn(stop)[k].spawn(2)[j])`` starts from,
    for j = 0, 1, where ``run_words`` are ``_run_words(seed)``.

    Every table's ``mix_entropy`` and ``generate_state(4, uint64)`` run at
    once on uint32 arrays of shape (stop - start, 2), so only the 128-bit
    PCG64 seeding step is per setting.  ``stop`` must be at most 2**32:
    a larger spawn key is two words.
    """
    # run entropy is zero-padded to the pool size when a spawn key follows;
    # the spawn key (k, j) adds two words, so the entropy fills the pool
    keys = np.arange(start, stop, dtype=np.uint32)[:, None]
    words = [np.broadcast_to(np.asarray(w, dtype=np.uint32), (stop - start, 2))
             for w in run_words + [0] * (_POOL - len(run_words))
             + [keys, np.arange(2)]]
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _WORD
        value = value * hash_const
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(w) for w in words[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(w))

    out = []
    hash_const = _INIT_B
    for i in range(8):
        value = pool[i % _POOL] ^ hash_const
        hash_const = hash_const * _MULT_B & _WORD
        value = value * hash_const
        out.append((value ^ (value >> _XSHIFT)).astype(np.uint64))
    # generate_state's uint64 words pair uint32 words low word first; PCG64
    # takes words 0-1 as the seed and 2-3 as the increment, high word first
    seed_hi, seed_lo, inc_hi, inc_lo = (
        (out[2 * i] | out[2 * i + 1] << 32).ravel().tolist() for i in range(4))
    incs = [((hi << 64 | lo) << 1 | 1) & _MASK128 for hi, lo in zip(inc_hi, inc_lo)]
    states = [{"bit_generator": "PCG64",
               "state": {"state": ((inc + (hi << 64 | lo)) * _PCG_MULT + inc)
                         & _MASK128, "inc": inc},
               "has_uint32": 0, "uinteger": 0}
              for inc, hi, lo in zip(incs, seed_hi, seed_lo)]
    return list(zip(states[0::2], states[1::2]))


def draw_counts(p_b: np.ndarray, p_seq: np.ndarray, n: int, seed: int,
                trials: int) -> CountTable:
    """Draw a stack of ``trials`` tables from a non-negative integer seed.

    ``p_b`` and ``p_seq`` are the outcome probabilities of B and of the
    sequential setting.  Table k draws setting j from the stream of
    ``SeedSequence(seed).spawn(trials)[k].spawn(2)[j]``, whose PCG64 state
    ``_pcg64_states`` derives without building the sequence, so each table
    depends on the seed and its index only.
    """
    run_words = _run_words(seed)
    first_b = np.empty(trials, dtype=np.int64)
    counts_seq = np.empty((trials, 4), dtype=np.int64)
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    for rows in row_blocks(trials, 1):
        block_b, block_seq = [], []
        for state_b, state_seq in _pcg64_states(run_words, rows.start,
                                                min(rows.stop, trials)):
            # B has two outcomes, for which multinomial draws exactly this
            bitgen.state = state_b
            block_b.append(rng.binomial(n, p_b[0]))
            bitgen.state = state_seq
            block_seq.append(rng.multinomial(n, p_seq))
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


def _angles(gs, fixed_other: float, target: Target) -> tuple:
    """(theta, phi) over target-angle values gs: the target angle an array
    of shape (N,), the fixed one a 0-d float that broadcasts against it, so
    ``probe`` computes its factor once per call."""
    gs = np.atleast_1d(np.asarray(gs, dtype=float))
    other = float(fixed_other)
    return (gs, other) if target is Target.POLAR else (other, gs)


def _square(x: np.ndarray) -> np.ndarray:
    """x**2 through libm ``pow`` like a scalar ``x ** 2``; an array ``** 2``
    is x*x, which differs in the last digit on about 0.1% of inputs."""
    return np.float_power(x, 2)


def _row_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the leading axis of component-first rows x of shape (4, ...):
    row after row from +0.0, the order and bits of ``oq._cell_sum`` on the
    same cells laid out last (numpy adds whole rows when the summed axis is
    outermost, and a pairwise sum of fewer than 8 terms is sequential).
    Not einsum: on one table its dot kernel adds (x0 + x2) + (x1 + x3)."""
    return np.add.reduce(x, axis=0, initial=0.0)


def _loglik(counts_w: np.ndarray, vals: np.ndarray, n: int) -> np.ndarray:
    """(1/n) sum c(a,b|W) log W(a,b) over component-first rows, the model
    clamped at ``PROB_CLAMP`` (``np.maximum``, which is what ``np.clip``
    with no upper bound calls).  Paired, not contracted: see ``_row_sum``."""
    return _row_sum(counts_w * np.log(np.maximum(vals, PROB_CLAMP))) / n


def _scan_loglik(cw: np.ndarray, log_cells: np.ndarray, n: int) -> np.ndarray:
    """(1/n) cw.T log_cells, shape (tables, grid points), as one einsum: it adds
    the 4 products row by row from +0.0 like ``_row_sum`` (``@`` fuses them)."""
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
    return _row_sum(_PARITY * counts.counts_w.reshape(-1, 4).T) / counts.n


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
    cw = np.ascontiguousarray(counts.counts_w[keep].reshape(-1, 4).T)
    trials = cw.shape[1]
    obs = parity_mean(counts)[keep]

    def cells(g):
        psi = amplitudes(*_angles(g, fixed_other, target))
        return _cells(w, psi).reshape(4, -1)

    gs = _grid(domain, GRID_STEP)
    vals = cells(gs)
    log_cells = np.log(np.maximum(vals, PROB_CLAMP))
    means = _row_sum(_PARITY * vals)
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
        out[trials:] = -_square(_row_sum(_PARITY * v[:, trials:]) - obs)
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

    theta, phi = _angles(lep, fixed_other, target)
    psi = amplitudes(theta, phi)
    mean_at = _row_sum(_PARITY * _cells(w, psi).reshape(4, -1))
    dpsi = amplitude_slopes(theta, phi, target)
    slope = _row_sum(_PARITY * _cells(w, psi, dpsi).reshape(4, -1))
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
    ``ratio_empirical`` uses the variance of the estimates across trials
    instead; for this two-setting sampling scheme it sits systematically
    below ``ratio``.
    """

    estimator: str
    mean_estimate: float
    emp_var: float
    mean_pred_var: float
    omission_rate: float
    ratio: float
    ratio_empirical: float
    completed: int


@dataclass(frozen=True)
class TrialSummary:
    """The result of one run: numbers only; ``cli`` lays them out as rows."""

    config: TrialConfig
    advantage: float
    quantum_var: float
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
                                math.log10(quantum_var / (2 * pred)), math.nan, 1)
    if len(estimates) < 2:
        why = ", ".join(f"{count} {CAUSES[cause]}"
                        for cause, count in enumerate(np.bincount(result.cause))
                        if cause != KEPT and count)
        raise AllTrialsOmitted(f"{name}: fewer than 2 trials completed ({why})")
    emp_var = float(np.var(estimates, ddof=1))
    pred = float(np.mean(variances))
    ratio = math.log10(quantum_var / (2 * pred))
    ratio_emp = math.log10(quantum_var / (2 * emp_var)) if emp_var > 0 else math.inf
    return EstimatorSummary(name, float(estimates.mean()), emp_var, pred,
                            int(result.omitted.sum()) / trials, ratio, ratio_emp,
                            len(estimates))


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

    psi0 = amplitudes(config.theta0, config.phi0)
    dpsi0 = amplitude_slopes(config.theta0, config.phi0, config.target)
    qfi0 = qfi_pure(psi0, dpsi0)
    adv = advantage(oq_values(w, psi0), oq_slopes(w, psi0, dpsi0), qfi0)
    quantum_var = 1.0 / (config.n * qfi0)

    p_b, p_seq = _outcome_probs(psi0, b), _outcome_probs(psi0, seq)
    trials = 1 if config.inject_expected else config.trials
    tables = (expected_counts(p_b, p_seq, config.n) if config.inject_expected
              else draw_counts(p_b, p_seq, config.n, config.seed, trials))
    results = estimate_tables(tables, config.target, fixed_other, w, domain)
    return TrialSummary(config, adv, quantum_var, *(
        _summarize(name, result, trials, quantum_var, config.inject_expected)
        for name, result in zip(("mle", "lep"), results)))

