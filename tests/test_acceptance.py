"""End-to-end acceptance suite.

Each test checks one headline guarantee of the package at its stated
tolerance and prints a single pass line.  Run with ``pytest -s`` to see
the lines as they complete.
"""

import math
import time

import numpy as np
import pytest

from conftest import (
    cells,
    marginality_defect,
    mub_hovm,
    probe,
    random_conjunction,
    random_qubit_povm,
    setting_probs,
)
from oqmetro.cli import main
from oqmetro.estimation import TrialConfig, expected_counts, mle_estimate, run_trials
from oqmetro.fisher import advantage, oqfi, qfi_pure
from oqmetro.measurement import (
    build_hovm,
    busch_compatible,
    hovm_is_povm,
    mutually_unbiased_pair,
    sequential_povm,
    sharpness_threshold,
)
from oqmetro.oq import negativity, oq_slopes, oq_values
from oqmetro.probe import Target, amplitudes


def _passed(label):
    print(f"\n[acceptance] {label}: PASS")


def test_01_qfi_constancy():
    start = time.perf_counter()
    thetas = np.linspace(0, math.pi, 100)
    phis = np.linspace(0, 2 * math.pi, 100, endpoint=False)
    worst = max(
        abs(qfi_pure(*probe(t, p)) - 1.0)
        for t in thetas
        for p in phis
    )
    assert worst <= 1e-12
    q = qfi_pure(*probe(7 * math.pi / 10, 0.3, Target.AZIMUTHAL))
    assert abs(q - math.sin(7 * math.pi / 10) ** 2) <= 1e-9
    assert q == pytest.approx(0.654, abs=1e-3)
    assert time.perf_counter() - start < 1.0
    _passed("1 polar information is unity; azimuthal reference value")


def test_02_incompatibility_threshold():
    start = time.perf_counter()
    mu = np.array([0.0, 0.0, 1.0])
    nu = np.array([1.0, 0.0, 0.0])
    boundary = sharpness_threshold(mu, nu)
    assert boundary == pytest.approx(1 / math.sqrt(2), abs=1e-6)
    # the algebraic and operational compatibility predicates flip together
    for lam in (boundary - 1e-4, boundary + 1e-4):
        a, b = mutually_unbiased_pair(lam)
        w = build_hovm(a, b, sequential_povm(a, b))
        assert busch_compatible(lam * mu, lam * nu) == hovm_is_povm(w)
    rng = np.random.default_rng(2026)
    disagreements = 0
    for _ in range(500):
        v = rng.normal(size=3)
        v = v / np.linalg.norm(v) * rng.uniform(0, 1)
        u = rng.normal(size=3)
        u = u / np.linalg.norm(u) * rng.uniform(0, 1)
        from oqmetro.measurement import bloch_povm

        a, b = bloch_povm(v), bloch_povm(u)
        w = build_hovm(a, b, sequential_povm(a, b))
        if busch_compatible(v, u) != hovm_is_povm(w):
            disagreements += 1
    assert disagreements == 0
    assert time.perf_counter() - start < 5.0
    _passed("2 incompatibility threshold 1/sqrt(2) and predicate agreement")


def test_03_closed_form_information():
    p = probe(math.pi / 2, 0.0)
    for lam in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99]:
        _, _, w = mub_hovm(lam)
        assert oqfi(*cells(w, *p)) == pytest.approx(
            lam**2 / (1 - lam**2), abs=1e-9
        )
    _, _, w = mub_hovm(1 / math.sqrt(2))
    assert oqfi(*cells(w, *p)) == pytest.approx(qfi_pure(*p), abs=1e-12)
    for lam in (0.82, 0.9, 0.99):
        _, _, w = mub_hovm(lam)
        assert advantage(*cells(w, *p), qfi_pure(*p)) > 0
    _, _, w = mub_hovm(math.sqrt(2 / 3))
    assert advantage(*cells(w, *p), qfi_pure(*p)) == pytest.approx(0.0, abs=1e-12)
    _passed("3 closed-form quasiprobability information lam^2/(1-lam^2)")


def test_04_never_beats_quantum_limit():
    start = time.perf_counter()
    rng = np.random.default_rng(777)
    points = [
        (rng.uniform(0.02, math.pi - 0.02), rng.uniform(0, 2 * math.pi))
        for _ in range(500)
    ]
    violations = 0
    for lam in (0.3, 0.5, 1 / math.sqrt(2)):
        _, _, w = mub_hovm(lam)
        for target in (Target.POLAR, Target.AZIMUTHAL):
            for theta, phi in points:
                p = probe(theta, phi, target)
                if negativity(oq_values(w, p[0])) > 1e-10:
                    continue
                if oqfi(*cells(w, *p)) > qfi_pure(*p) + 1e-9:
                    violations += 1
    assert violations == 0
    assert time.perf_counter() - start < 10.0
    _passed("4 positive quasiprobabilities never beat the quantum limit")


def test_05_marginality_and_normalization():
    rng = np.random.default_rng(31415)
    for _ in range(1000):
        a = random_qubit_povm(rng)
        b = random_qubit_povm(rng)
        w = build_hovm(a, b, random_conjunction(rng))
        assert marginality_defect(w, a, b) <= 1e-12
        psi = amplitudes(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        total = oq_values(w, psi).sum()
        assert abs(total - 1.0) <= 1e-10
    _passed("5 marginality defect <= 1e-12 and unit normalization")


def test_06_negativity_point():
    _, _, w = mub_hovm(1.0)
    neg = negativity(oq_values(w, amplitudes(math.pi / 4, 0.0)))
    assert neg == pytest.approx((math.sqrt(2) - 1) / 2, abs=1e-9)
    assert neg == pytest.approx(0.20711, abs=1e-5)
    _passed("6 negativity point value (sqrt(2)-1)/2")


def test_07_monte_carlo_efficiency():
    start = time.perf_counter()
    theta0, phi0, lam = 1.0131710069701012, 2.3038346126325147, 0.9
    cfg = TrialConfig(
        theta0=theta0, phi0=phi0, target=Target.POLAR, sharpness=lam,
        n=100_000, trials=200, seed=20260823,
        domain=(theta0 - 0.25, theta0 + 0.25),
    )
    summary = run_trials(cfg)
    assert 0.2 <= summary.advantage <= 0.6
    assert summary.mle.ratio == pytest.approx(summary.advantage, abs=0.1)
    lep = summary.lep
    assert abs(lep.mean_pred_var - lep.emp_var) <= 0.25 * lep.emp_var
    assert time.perf_counter() - start < 300.0
    _passed("7 Monte-Carlo estimator efficiency matches the advantage")


def test_08_derivative_hygiene():
    rng = np.random.default_rng(99)
    h = 1e-6
    for _ in range(200):
        lam = rng.uniform(0.1, 0.99)
        theta = rng.uniform(0.05, math.pi - 0.05)
        phi = rng.uniform(0.05, 2 * math.pi - 0.05)
        target = Target.POLAR if rng.random() < 0.5 else Target.AZIMUTHAL
        _, _, w = mub_hovm(lam)
        analytic = oq_slopes(w, *probe(theta, phi, target))
        if target is Target.POLAR:
            plus = oq_values(w, amplitudes(theta + h, phi))
            minus = oq_values(w, amplitudes(theta - h, phi))
        else:
            plus = oq_values(w, amplitudes(theta, phi + h))
            minus = oq_values(w, amplitudes(theta, phi - h))
        fd = (plus - minus) / (2 * h)
        scale = max(np.max(np.abs(analytic)), 1e-3)
        assert np.max(np.abs(analytic - fd)) / scale <= 1e-7
    # likelihood curvature on noiseless counts reproduces the information
    lam = 0.9
    a, b, w = mub_hovm(lam)
    table = expected_counts(*setting_probs(math.pi / 2, 0.0, a, b), 10_000)
    r = mle_estimate(table, Target.POLAR, 0.0, w, (1.0, 2.0))
    truth = oqfi(*cells(w, *probe(math.pi / 2, 0.0)))
    assert r.observed_fi[0] == pytest.approx(truth, rel=1e-3)
    _passed("8 analytic derivatives and likelihood curvature verified")


def test_09_determinism(tmp_path):
    args = [
        "estimate", "--target", "theta", "--lambda", "0.85",
        "--theta", "1.2", "--phi", "1.0", "--n", "5000", "--trials", "8",
        "--seed", "123", "--domain", "0.8:1.6",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    _passed("9 estimation output is byte-identical across reruns")
