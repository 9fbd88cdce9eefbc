"""The Monte-Carlo chain against exact finite-n moments.

At small n every table of a run can be listed: B's first count b in
0..n and the sequential setting's four counts summing to n, (n + 1) *
C(n + 3, 3) tables in all, each with its exact binomial x multinomial
probability.  One ``estimate_tables`` call on the whole stack then gives
each estimator's exact omission probability and the mean, variance and
fourth central moment of its estimates over the kept tables, without
sampling.  ``run_trials`` must land within 4 standard errors of them:
the mean's is sqrt(var / kept), the variance's sqrt((m4 - var^2) / kept)
and the omission rate's sqrt(p (1 - p) / trials).  The draws, the
W-count assembly, both estimators and the summaries are checked together,
against values that do not depend on how the tables are drawn.
"""

import math

import numpy as np
import pytest

from oqmetro.estimation import (
    CountTable,
    TrialConfig,
    _outcome_probs,
    assemble_w_counts,
    estimate_tables,
    run_trials,
)
from oqmetro.measurement import build_hovm, mutually_unbiased_pair, sequential_povm
from oqmetro.probe import Target, amplitudes

N = 20
LAM = 0.9
TRIALS = 20_000
HEADLINE = (1.0131710069701012, 2.3038346126325147)
POINTS = [
    (*HEADLINE, Target.POLAR, (HEADLINE[0] - 0.25, HEADLINE[0] + 0.25)),
    (1.1, 1.9, Target.AZIMUTHAL, (1.5, 2.3)),
]


def compositions(n, parts):
    """Every tuple of ``parts`` non-negative integers summing to n."""
    if parts == 1:
        return [(n,)]
    return [(k, *rest) for k in range(n + 1)
            for rest in compositions(n - k, parts - 1)]


def log_pmf(counts, probs, n):
    """log of the multinomial probability of each row of counts."""
    log_fact = np.array([math.lgamma(k + 1) for k in range(n + 1)])
    with np.errstate(divide="ignore"):
        terms = np.where(counts > 0, counts * np.log(probs), 0.0)
    return log_fact[n] - log_fact[counts].sum(axis=-1) + terms.sum(axis=-1)


def all_tables(p_b, p_seq, n):
    """Every table of n samples per setting, and its probability."""
    seq = np.array(compositions(n, 4))
    first = np.repeat(np.arange(n + 1), len(seq))
    counts_b = np.stack((first, n - first), axis=-1)
    counts_seq = np.tile(seq, (n + 1, 1))
    prob = np.exp(log_pmf(counts_b, p_b, n) + log_pmf(counts_seq, p_seq, n))
    counts_seq = counts_seq.reshape(-1, 2, 2)
    return CountTable(n, counts_b, counts_seq,
                      assemble_w_counts(counts_b, counts_seq)), prob


def exact_moments(theta0, phi0, target, domain):
    """Per estimator: the omission probability, and the mean, variance and
    fourth central moment of the kept tables' estimates."""
    a, b = mutually_unbiased_pair(LAM)
    seq = sequential_povm(a, b)
    w = build_hovm(a, b, seq)
    psi = amplitudes(theta0, phi0)
    tables, prob = all_tables(_outcome_probs(psi, b), _outcome_probs(psi, seq), N)
    assert len(prob) == (N + 1) * math.comb(N + 3, 3) == 37_191
    assert prob.sum() == pytest.approx(1.0, abs=1e-12)
    fixed_other = phi0 if target is Target.POLAR else theta0
    moments = {}
    for name, result in zip(("mle", "lep"), estimate_tables(
            tables, target, fixed_other, w, domain)):
        kept = ~result.omitted
        weights = prob[kept] / prob[kept].sum()
        mean = weights @ result.estimate[kept]
        dev = result.estimate[kept] - mean
        moments[name] = (1.0 - prob[kept].sum(), mean, weights @ dev**2,
                         weights @ dev**4)
    return moments


@pytest.mark.parametrize("theta0, phi0, target, domain", POINTS,
                         ids=["headline-theta", "phi"])
def test_sampled_moments_match_the_exact_ones(theta0, phi0, target, domain):
    exact = exact_moments(theta0, phi0, target, domain)
    summary = run_trials(TrialConfig(theta0, phi0, target, LAM, N, TRIALS, 7,
                                     domain))
    for name, (omitted, mean, var, m4) in exact.items():
        got = getattr(summary, name)
        kept = TRIALS * (1 - omitted)
        assert 0 < omitted < 1
        assert abs(got.omission_rate - omitted) <= 4 * math.sqrt(
            omitted * (1 - omitted) / TRIALS), name
        assert abs(got.mean_estimate - mean) <= 4 * math.sqrt(var / kept), name
        assert abs(got.emp_var - var) <= 4 * math.sqrt((m4 - var**2) / kept), name
