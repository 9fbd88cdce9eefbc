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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AllTrialsOmitted,
    FlatLikelihood,
    NegativeCounts,
    ZeroSlope,
)
from .fisher import advantage, qfi_pure
from .measurement import Hovm, Povm, build_hovm, mutually_unbiased_pair, sequential_povm
from .oq import oq_slopes, oq_values
from .probe import ProbeParams, Target, amplitude_slopes, amplitudes, check_angles

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
    """Counts for the two sampled settings plus the assembled W-counts."""

    n: int
    counts_b: np.ndarray
    counts_seq: np.ndarray
    counts_w: np.ndarray

    def __post_init__(self):
        counts_b = np.asarray(self.counts_b)
        counts_seq = np.asarray(self.counts_seq)
        counts_w = np.asarray(self.counts_w, dtype=float)
        if counts_b.shape != (2,) or counts_seq.shape != (2, 2):
            raise ValueError("expected 2 outcomes per local measurement")
        tol = 1e-9 * max(self.n, 1)
        if abs(counts_b.sum() - self.n) > tol or abs(counts_seq.sum() - self.n) > tol:
            raise ValueError("setting counts must each sum to n")
        if abs(counts_w.sum() - self.n) > 1e-9 * max(self.n, 1):
            raise ValueError("assembled W-counts must sum to n")
        for arr in (counts_b, counts_seq, counts_w):
            arr.setflags(write=False)
        object.__setattr__(self, "counts_b", counts_b)
        object.__setattr__(self, "counts_seq", counts_seq)
        object.__setattr__(self, "counts_w", counts_w)

    @property
    def has_negative(self) -> bool:
        return bool((self.counts_w < 0).any())


@dataclass(frozen=True)
class TrialResult:
    estimate: float
    observed_fi: float
    variance_estimate: float
    omitted: bool = field(default=False)


def assemble_w_counts(counts_b: np.ndarray, counts_seq: np.ndarray) -> np.ndarray:
    """c(a,b|W) = c(a,b|S) + (c(b|B) - sum_a c(a,b|S)) / 2."""
    counts_b = np.asarray(counts_b, dtype=float)
    counts_seq = np.asarray(counts_seq, dtype=float)
    return counts_seq + (counts_b[None, :] - counts_seq.sum(axis=0)[None, :]) / 2


def _outcome_probs(psi: np.ndarray, povm: Povm) -> np.ndarray:
    p = np.array([np.real(psi.conj() @ e @ psi) for e in povm.effects])
    p = np.clip(p, 0.0, None)
    return p / p.sum()


def sample_counts(params: ProbeParams, a: Povm, b: Povm, n: int, seed) -> CountTable:
    """Draw one table of multinomial counts for both settings.

    ``seed`` is an integer or a ``numpy.random.SeedSequence``; the two
    settings consume independent substreams so the table is deterministic
    given the seed.
    """
    if n < 1:
        raise ValueError("n must be positive")
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    ss_b, ss_seq = ss.spawn(2)
    psi = amplitudes(params.theta, params.phi)
    p_b = _outcome_probs(psi, b)
    p_seq = _outcome_probs(psi, sequential_povm(a, b))
    counts_b = np.random.default_rng(ss_b).multinomial(n, p_b)
    counts_seq = np.random.default_rng(ss_seq).multinomial(n, p_seq).reshape(2, 2)
    counts_w = assemble_w_counts(counts_b, counts_seq)
    return CountTable(n, counts_b, counts_seq, counts_w)


def expected_counts(params: ProbeParams, a: Povm, b: Povm, n: int) -> CountTable:
    """Noise-free table with counts equal to n times the exact probabilities."""
    psi = amplitudes(params.theta, params.phi)
    p_b = _outcome_probs(psi, b)
    p_seq = _outcome_probs(psi, sequential_povm(a, b)).reshape(2, 2)
    counts_b = n * p_b
    counts_seq = n * p_seq
    return CountTable(n, counts_b, counts_seq,
                      assemble_w_counts(counts_b, counts_seq))


def _angles(gs, fixed_other: float, target: Target) -> tuple:
    """(theta, phi) arrays, shape (N,), over target-angle values gs."""
    gs = np.atleast_1d(np.asarray(gs, dtype=float))
    other = np.full_like(gs, fixed_other)
    return (gs, other) if target is Target.POLAR else (other, gs)


def log_likelihood(counts: CountTable, g: float, fixed_other: float,
                   target: Target, w: Hovm) -> float:
    """(1/n) sum c(a,b|W) log W(a,b) with the model clamped at 1e-12."""
    if counts.has_negative:
        raise NegativeCounts("W-counts went negative; trial must be omitted")
    vals = oq_values(w, amplitudes(*_angles(g, fixed_other, target)))[0]
    return float(
        (counts.counts_w * np.log(np.clip(vals, PROB_CLAMP, None))).sum()
        / counts.n
    )


def golden_section_maximize(f, lo: float, hi: float, tol: float) -> float:
    """Locate the maximum of a unimodal f on [lo, hi] to interval width tol."""
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = f(d)
    return (lo + hi) / 2


def _grid(domain: tuple, step: float) -> np.ndarray:
    lo, hi = float(domain[0]), float(domain[1])
    if not hi > lo:
        raise ValueError("domain must be a nondegenerate interval")
    gs = np.arange(lo, hi + step / 2, step)
    gs[-1] = min(gs[-1], hi)
    return gs


def mle_estimate(counts: CountTable, target: Target, fixed_other: float,
                 w: Hovm, domain: tuple, grid_step: float = GRID_STEP,
                 refine_tol: float = REFINE_TOL,
                 curvature_h: float = CURVATURE_H) -> TrialResult:
    """Maximum-likelihood estimate with observed-Fisher error bar.

    Coarse grid scan (first maximum wins ties, i.e. the smallest angle)
    followed by golden-section refinement; the curvature at the optimum is a
    central second difference of the log-likelihood.
    """
    if counts.has_negative:
        raise NegativeCounts("W-counts went negative; trial must be omitted")
    gs = _grid(domain, grid_step)
    vals = oq_values(w, amplitudes(*_angles(gs, fixed_other, target)))
    ll = (
        counts.counts_w[None, :, :] * np.log(np.clip(vals, PROB_CLAMP, None))
    ).sum(axis=(1, 2)) / counts.n
    i = int(np.argmax(ll))

    def f(g):
        return log_likelihood(counts, g, fixed_other, target, w)

    lo = gs[max(i - 1, 0)]
    hi = gs[min(i + 1, len(gs) - 1)]
    est = golden_section_maximize(f, lo, hi, refine_tol) if hi > lo else float(gs[i])

    h = curvature_h
    center = f(est)
    curvature = (f(est + h) - 2 * center + f(est - h)) / (h * h)
    observed_fi = -curvature
    # resolution limit of the second difference: cancellation noise in the
    # log-likelihood amplified by 1/h^2
    noise = 16 * np.finfo(float).eps * max(abs(center), 1.0) / (h * h)
    if observed_fi <= noise:
        raise FlatLikelihood("nonpositive curvature at the MLE")
    return TrialResult(float(est), float(observed_fi),
                       1.0 / (counts.n * observed_fi))


def parity_mean(counts: CountTable) -> float:
    """Observed mean of the parity observable (-1)^(ab) W_ab."""
    return float((_PARITY * counts.counts_w).sum() / counts.n)


def lep_estimate(counts: CountTable, target: Target, fixed_other: float,
                 w: Hovm, domain: tuple, grid_step: float = GRID_STEP,
                 refine_tol: float = REFINE_TOL) -> TrialResult:
    """Linear-error-propagation estimate by inverting the parity mean."""
    if counts.has_negative:
        raise NegativeCounts("W-counts went negative; trial must be omitted")
    obs = parity_mean(counts)
    gs = _grid(domain, grid_step)
    vals = oq_values(w, amplitudes(*_angles(gs, fixed_other, target)))
    means = (_PARITY[None, :, :] * vals).sum(axis=(1, 2))
    sq = (means - obs) ** 2
    i = int(np.argmin(sq))

    def f(g):
        psi = amplitudes(*_angles(g, fixed_other, target))
        m = (_PARITY * oq_values(w, psi)[0]).sum()
        return -((m - obs) ** 2)

    lo = gs[max(i - 1, 0)]
    hi = gs[min(i + 1, len(gs) - 1)]
    est = golden_section_maximize(f, lo, hi, refine_tol) if hi > lo else float(gs[i])

    theta, phi = _angles(est, fixed_other, target)
    psi = amplitudes(theta, phi)
    dpsi = amplitude_slopes(theta, phi, target)
    mean_at = float((_PARITY * oq_values(w, psi)[0]).sum())
    slope = float((_PARITY * oq_slopes(w, psi, dpsi)[0]).sum())
    if abs(slope) <= SLOPE_FLOOR:
        raise ZeroSlope("parity mean has no sensitivity to the parameter here")
    variance = (1.0 - mean_at**2) / (counts.n * slope**2)
    # the parity observable has eigenvalue labels +-1, so <O^2> = 1
    return TrialResult(float(est), float("nan"), float(variance))


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
    config: TrialConfig
    advantage: float
    quantum_var: float
    mle: EstimatorSummary
    lep: EstimatorSummary


def _summarize(name: str, results: list, omitted: int, trials: int,
               quantum_var: float, inject: bool) -> EstimatorSummary:
    if inject:
        if not results:
            raise AllTrialsOmitted(f"{name}: injection evaluation failed")
        pred = results[0].variance_estimate
        ratio = math.log10(quantum_var / (2 * pred))
        return EstimatorSummary(
            name, results[0].estimate, 0.0, pred, 0.0, ratio, math.nan, 1,
        )
    if len(results) < 2:
        raise AllTrialsOmitted(f"{name}: fewer than 2 trials completed")
    estimates = np.array([r.estimate for r in results])
    emp_var = float(np.var(estimates, ddof=1))
    pred = float(np.mean([r.variance_estimate for r in results]))
    ratio = math.log10(quantum_var / (2 * pred))
    ratio_emp = (
        math.log10(quantum_var / (2 * emp_var)) if emp_var > 0 else math.inf
    )
    return EstimatorSummary(
        name, float(estimates.mean()), emp_var, pred,
        omitted / trials, ratio, ratio_emp, len(results),
    )


def run_trials(config: TrialConfig) -> TrialSummary:
    """Run the full Monte-Carlo comparison at one parameter point.

    Trials with negative W-counts are dropped and reported through the
    omission rate, never resampled.  With ``inject_expected`` the exact
    expected counts replace sampling (a single noiseless evaluation).
    """
    if config.trials < 2:
        raise ValueError("at least 2 trials are required")
    a, b = mutually_unbiased_pair(config.sharpness)
    w = build_hovm(a, b, sequential_povm(a, b))
    params0 = ProbeParams(config.theta0, config.phi0, config.target)
    fixed_other = config.phi0 if config.target is Target.POLAR else config.theta0
    domain = config.domain or (0.0, math.pi)
    if config.target is Target.POLAR:
        # phi is periodic, so only a polar domain can leave the probe sphere
        check_angles(domain, config.phi0)

    psi0 = amplitudes(config.theta0, config.phi0)
    dpsi0 = amplitude_slopes(config.theta0, config.phi0, config.target)
    adv = advantage(w, psi0, dpsi0)
    quantum_var = 1.0 / (config.n * qfi_pure(psi0, dpsi0))

    mle_results: list = []
    lep_results: list = []
    mle_omitted = 0
    lep_omitted = 0

    if config.inject_expected:
        table = expected_counts(params0, a, b, config.n)
        tables = [table]
    else:
        children = np.random.SeedSequence(config.seed).spawn(config.trials)
        tables = (
            sample_counts(params0, a, b, config.n, child) for child in children
        )

    for table in tables:
        if table.has_negative:
            mle_omitted += 1
            lep_omitted += 1
            continue
        try:
            mle_results.append(
                mle_estimate(table, config.target, fixed_other, w, domain)
            )
        except FlatLikelihood:
            mle_omitted += 1
        try:
            lep_results.append(
                lep_estimate(table, config.target, fixed_other, w, domain)
            )
        except ZeroSlope:
            lep_omitted += 1

    trials = 1 if config.inject_expected else config.trials
    return TrialSummary(
        config,
        adv,
        quantum_var,
        _summarize("mle", mle_results, mle_omitted, trials, quantum_var,
                   config.inject_expected),
        _summarize("lep", lep_results, lep_omitted, trials, quantum_var,
                   config.inject_expected),
    )


CSV_FIELDS = (
    "target,theta0,phi0,lambda,n,trials,estimator,"
    "mean_estimate,emp_var,pred_var,omission_rate,ratio"
)


def summary_csv_rows(summary: TrialSummary) -> list:
    """Rows in the stable CSV schema, one per estimator."""
    c = summary.config
    rows = []
    for est in (summary.mle, summary.lep):
        rows.append(
            [
                c.target.value,
                repr(c.theta0),
                repr(c.phi0),
                repr(c.sharpness),
                str(c.n),
                str(c.trials),
                est.estimator,
                repr(est.mean_estimate),
                repr(est.emp_var),
                repr(est.mean_pred_var),
                repr(est.omission_rate),
                repr(est.ratio),
            ]
        )
    return rows
