"""Monte-Carlo estimation harness.

Two settings are sampled per trial: the local measurement B alone and the
sequential measurement A-then-B.  The A-alone setting contributes nothing
because its counts cancel against the sequential marginal.  Quasiprobability
counts assembled from the two settings feed a maximum-likelihood estimator
(coarse grid + golden-section refinement, error bar from the observed Fisher
information) and a linear-error-propagation estimator (mean inversion of the
parity observable, error bar from the propagation formula).

Randomness: a single master seed is split with ``numpy.random.SeedSequence``
into per-trial and per-setting substreams, so every table is reproducible
and trials are independent.

Stacks only: every function takes a ``CountTable`` stack of tables with a
leading trial axis and returns one array entry per table; an estimator
marks the tables it refuses in ``TrialResult.omitted`` instead of raising.
A run builds its measurements, outcome probabilities and grid tables once.
The grid scans take blocks of trials, at most ``oq.BLOCK_POINTS`` (trial,
grid point) pairs per call, and each golden-section or curvature step is
one kernel call over all trials, with the per-table arithmetic of
refining the tables one at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AllTrialsOmitted, NegativeCounts, ParamOutOfRange
from .fisher import advantage, qfi_pure
from .measurement import Hovm, Povm, build_hovm, mutually_unbiased_pair, sequential_povm
from .oq import oq_slopes, oq_values, row_blocks
from .probe import Target, amplitude_slopes, amplitudes, check_angles

PROB_CLAMP = 1e-12
GRID_STEP = 1e-3
REFINE_TOL = 1e-8
CURVATURE_H = 1e-4
SLOPE_FLOOR = 1e-9

# parity labels (-1)^(a*b) on the 2x2 outcome grid
_PARITY = np.array([[1.0, 1.0], [1.0, -1.0]])

_INV_PHI = (math.sqrt(5) - 1) / 2


@dataclass(frozen=True)
class CountTable:
    """A stack of tables: counts for the two sampled settings plus the
    assembled W-counts.

    ``counts_b`` has shape (trials, 2) and ``counts_seq``, ``counts_w``
    shape (trials, 2, 2).  Indexing selects tables and keeps the trial
    axis, so ``table[0]`` is a stack of one.
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
        for arr in (counts_b, counts_seq, counts_w):
            arr.setflags(write=False)
        object.__setattr__(self, "counts_b", counts_b)
        object.__setattr__(self, "counts_seq", counts_seq)
        object.__setattr__(self, "counts_w", counts_w)

    def __getitem__(self, index) -> "CountTable":
        keep = np.atleast_1d(np.arange(len(self.counts_b))[index])
        return CountTable(self.n, self.counts_b[keep], self.counts_seq[keep],
                          self.counts_w[keep])

    @property
    def negative(self) -> np.ndarray:
        """Whether each table has a negative W-count."""
        return (self.counts_w < 0).any(axis=(-2, -1))


@dataclass(frozen=True)
class TrialResult:
    """Estimates with their error bars, one entry per table of a stack.

    ``omitted`` marks the tables the estimator refused (a flat likelihood,
    no usable parity slope or no positive predicted variance); their other
    entries are meaningless.
    """

    estimate: np.ndarray
    observed_fi: np.ndarray
    variance_estimate: np.ndarray
    omitted: np.ndarray


def assemble_w_counts(counts_b: np.ndarray, counts_seq: np.ndarray) -> np.ndarray:
    """c(a,b|W) = c(a,b|S) + (c(b|B) - sum_a c(a,b|S)) / 2, per table."""
    counts_b = np.asarray(counts_b, dtype=float)
    counts_seq = np.asarray(counts_seq, dtype=float)
    return counts_seq + (counts_b[..., None, :]
                         - counts_seq.sum(axis=-2)[..., None, :]) / 2


def _outcome_probs(psi: np.ndarray, povm: Povm) -> np.ndarray:
    p = np.array([np.real(psi.conj() @ e @ psi) for e in povm.effects])
    p = np.clip(p, 0.0, None)
    return p / p.sum()


def draw_counts(p_b: np.ndarray, p_seq: np.ndarray, n: int, seeds) -> CountTable:
    """Draw a stack of tables, one per ``SeedSequence`` in ``seeds``.

    ``p_b`` and ``p_seq`` are the outcome probabilities of B and of the
    sequential setting.  The two settings of a table consume independent
    substreams of its seed, so each table is deterministic given its seed.
    """
    counts_b = np.empty((len(seeds), 2), dtype=np.int64)
    counts_seq = np.empty((len(seeds), 2, 2), dtype=np.int64)
    for k, ss in enumerate(seeds):
        ss_b, ss_seq = ss.spawn(2)
        counts_b[k] = np.random.default_rng(ss_b).multinomial(n, p_b)
        counts_seq[k] = np.random.default_rng(ss_seq).multinomial(
            n, p_seq).reshape(2, 2)
    return CountTable(n, counts_b, counts_seq,
                      assemble_w_counts(counts_b, counts_seq))


def expected_counts(p_b: np.ndarray, p_seq: np.ndarray, n: int) -> CountTable:
    """A stack of one noise-free table: n times the outcome probabilities."""
    counts_b = n * p_b[None]
    counts_seq = n * p_seq.reshape(1, 2, 2)
    return CountTable(n, counts_b, counts_seq,
                      assemble_w_counts(counts_b, counts_seq))


def _angles(gs, fixed_other: float, target: Target) -> tuple:
    """(theta, phi) arrays, shape (N,), over target-angle values gs."""
    gs = np.atleast_1d(np.asarray(gs, dtype=float))
    other = np.full_like(gs, fixed_other)
    return (gs, other) if target is Target.POLAR else (other, gs)


def _cell_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the 2x2 cells of each table, in the order ``.sum()`` takes
    on one contiguous 2x2 array, so a stack sums each table bit for bit as
    a single table would."""
    return ((x[..., 0, 0] + x[..., 0, 1]) + x[..., 1, 0]) + x[..., 1, 1]


def _square(x: np.ndarray) -> np.ndarray:
    """x**2 through libm ``pow`` like a scalar ``x ** 2``; an array ``** 2``
    is x*x, which differs in the last digit on about 0.1% of inputs."""
    return np.float_power(x, 2)


def _check(counts: CountTable) -> None:
    if counts.negative.any():
        raise NegativeCounts("W-counts went negative; trial must be omitted")


def log_likelihood(counts: CountTable, g, fixed_other: float,
                   target: Target, w: Hovm) -> np.ndarray:
    """(1/n) sum c(a,b|W) log W(a,b) with the model clamped at 1e-12, per
    table; ``g`` holds one angle per table, or one angle for all."""
    _check(counts)
    vals = oq_values(w, amplitudes(*_angles(g, fixed_other, target)))
    return _cell_sum(counts.counts_w * np.log(np.clip(vals, PROB_CLAMP, None))) / counts.n


def golden_section_maximize(f, lo, hi, tol: float) -> np.ndarray:
    """Locate the maximum of a unimodal f on each bracket [lo, hi] to
    interval width tol.

    ``lo`` and ``hi`` are arrays of brackets, refined in lockstep: ``f``
    maps an array of points to an array of values, and a bracket stops
    moving once it is no wider than ``tol`` while the others go on.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc, fd = f(c), f(d)
    active = hi - lo > tol
    while active.any():
        left = fc > fd
        # a left step keeps [lo, d] and probes a new c; a right step keeps
        # [c, hi] and probes a new d
        new_lo = np.where(left, lo, c)
        new_hi = np.where(left, d, hi)
        x = np.where(left, new_hi - _INV_PHI * (new_hi - new_lo),
                     new_lo + _INV_PHI * (new_hi - new_lo))
        fx = f(x)
        new = (new_lo, new_hi, np.where(left, x, d), np.where(left, c, x),
               np.where(left, fx, fd), np.where(left, fc, fx))
        lo, hi, c, d, fc, fd = (np.where(active, updated, kept) for updated, kept
                                in zip(new, (lo, hi, c, d, fc, fd)))
        active = hi - lo > tol
    return (lo + hi) / 2


def _grid(domain: tuple, step: float) -> np.ndarray:
    lo, hi = float(domain[0]), float(domain[1])
    if not hi > lo:
        raise ValueError("domain must be a nondegenerate interval")
    gs = np.arange(lo, hi + step / 2, step)
    if len(gs) < 2:
        # a one-point grid leaves nothing to refine: every trial would
        # return the same estimate
        raise ValueError(f"domain is narrower than half the grid step {step}")
    gs[-1] = min(gs[-1], hi)
    return gs


def _brackets(gs: np.ndarray, best: np.ndarray) -> tuple:
    """The grid neighbours of each table's best grid point; at the ends of
    the grid a bracket is one step wide."""
    return gs[np.maximum(best - 1, 0)], gs[np.minimum(best + 1, len(gs) - 1)]


def mle_estimate(counts: CountTable, target: Target, fixed_other: float,
                 w: Hovm, domain: tuple) -> TrialResult:
    """Maximum-likelihood estimate with observed-Fisher error bar.

    Coarse grid scan (first maximum wins ties, i.e. the smallest angle)
    followed by golden-section refinement; the curvature at the optimum is a
    central second difference of the log-likelihood.  A table whose
    likelihood is flat at the optimum is marked omitted.
    """
    _check(counts)
    gs = _grid(domain, GRID_STEP)
    log_cells = np.log(np.clip(
        oq_values(w, amplitudes(*_angles(gs, fixed_other, target))),
        PROB_CLAMP, None))
    cw = counts.counts_w
    best = np.empty(len(cw), dtype=np.intp)
    for rows in row_blocks(len(cw), len(gs)):
        best[rows] = np.argmax(
            _cell_sum(cw[rows, None] * log_cells[None]) / counts.n, axis=1)

    def f(g):
        return log_likelihood(counts, g, fixed_other, target, w)

    est = golden_section_maximize(f, *_brackets(gs, best), REFINE_TOL)

    h = CURVATURE_H
    center = f(est)
    curvature = (f(est + h) - 2 * center + f(est - h)) / (h * h)
    observed_fi = -curvature
    # resolution limit of the second difference: cancellation noise in the
    # log-likelihood amplified by 1/h^2
    noise = 16 * np.finfo(float).eps * np.maximum(np.abs(center), 1.0) / (h * h)
    with np.errstate(divide="ignore"):
        variance = 1.0 / (counts.n * observed_fi)
    return TrialResult(est, observed_fi, variance, observed_fi <= noise)


def parity_mean(counts: CountTable) -> np.ndarray:
    """Observed mean of the parity observable (-1)^(ab) W_ab, per table."""
    return _cell_sum(_PARITY * counts.counts_w) / counts.n


def lep_estimate(counts: CountTable, target: Target, fixed_other: float,
                 w: Hovm, domain: tuple) -> TrialResult:
    """Linear-error-propagation estimate by inverting the parity mean.

    A table whose parity slope at the estimate is below ``SLOPE_FLOOR``, or
    whose predicted variance is not positive (the model parity mean of a
    quasiprobability may pass 1 in magnitude) or has a standard error wider
    than the search domain, is marked omitted.
    """
    _check(counts)
    obs = parity_mean(counts)
    gs = _grid(domain, GRID_STEP)
    vals = oq_values(w, amplitudes(*_angles(gs, fixed_other, target)))
    means = (_PARITY[None, :, :] * vals).sum(axis=(1, 2))
    best = np.empty(len(obs), dtype=np.intp)
    for rows in row_blocks(len(obs), len(gs)):
        best[rows] = np.argmin((means[None] - obs[rows, None]) ** 2, axis=1)

    def f(g):
        psi = amplitudes(*_angles(g, fixed_other, target))
        return -_square(_cell_sum(_PARITY * oq_values(w, psi)) - obs)

    est = golden_section_maximize(f, *_brackets(gs, best), REFINE_TOL)

    theta, phi = _angles(est, fixed_other, target)
    psi = amplitudes(theta, phi)
    dpsi = amplitude_slopes(theta, phi, target)
    mean_at = _cell_sum(_PARITY * oq_values(w, psi))
    slope = _cell_sum(_PARITY * oq_slopes(w, psi, dpsi))
    # the parity observable has eigenvalue labels +-1, so <O^2> = 1
    with np.errstate(divide="ignore"):
        variance = (1.0 - _square(mean_at)) / (counts.n * _square(slope))
    width = float(domain[1]) - float(domain[0])
    # the squared form of: standard error wider than the search domain
    zero = ((np.abs(slope) <= SLOPE_FLOOR) | (variance > width**2)
            | ~(variance > 0))
    return TrialResult(est, np.full_like(est, np.nan), variance, zero)


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


def _summarize(name: str, result: TrialResult, negative: int, trials: int,
               quantum_var: float, inject: bool) -> EstimatorSummary:
    done = ~result.omitted
    estimates = result.estimate[done]
    variances = result.variance_estimate[done]
    if inject:
        if not len(estimates):
            raise AllTrialsOmitted(f"{name}: injection evaluation failed")
        pred = float(variances[0])
        ratio = math.log10(quantum_var / (2 * pred))
        return EstimatorSummary(
            name, float(estimates[0]), 0.0, pred, 0.0, ratio, math.nan, 1,
        )
    if len(estimates) < 2:
        raise AllTrialsOmitted(f"{name}: fewer than 2 trials completed")
    emp_var = float(np.var(estimates, ddof=1))
    pred = float(np.mean(variances))
    ratio = math.log10(quantum_var / (2 * pred))
    ratio_emp = (
        math.log10(quantum_var / (2 * emp_var)) if emp_var > 0 else math.inf
    )
    omitted = negative + int(result.omitted.sum())
    return EstimatorSummary(
        name, float(estimates.mean()), emp_var, pred,
        omitted / trials, ratio, ratio_emp, len(estimates),
    )


def run_trials(config: TrialConfig) -> TrialSummary:
    """Run the full Monte-Carlo comparison at one parameter point.

    Trials with negative W-counts are dropped and reported through the
    omission rate, never resampled.  With ``inject_expected`` the exact
    expected counts replace sampling (a single noiseless evaluation).  The
    measurements, the outcome probabilities and the grid tables are built
    once per run; every trial is refined in lockstep.
    """
    if config.trials < 2:
        raise ValueError("at least 2 trials are required")
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
    if config.inject_expected:
        trials = 1
        tables = expected_counts(p_b, p_seq, config.n)
    else:
        trials = config.trials
        children = np.random.SeedSequence(config.seed).spawn(trials)
        tables = draw_counts(p_b, p_seq, config.n, children)
    negative = tables.negative
    kept = tables[~negative]

    def summarize(name, estimator):
        result = estimator(kept, config.target, fixed_other, w, domain)
        return _summarize(name, result, int(negative.sum()), trials,
                          quantum_var, config.inject_expected)

    return TrialSummary(config, adv, quantum_var,
                        summarize("mle", mle_estimate),
                        summarize("lep", lep_estimate))

