import math

import numpy as np
import pytest

from conftest import mub_hovm, random_conjunction, random_qubit_povm
from oqmetro.measurement import Hovm, build_hovm
from oqmetro.oq import POSITIVITY_TOL, negativity, oq_values
from oqmetro.probe import amplitudes


def is_positive(values, tol=POSITIVITY_TOL):
    return negativity(values) <= tol


def closed_form(theta, phi, lam):
    """Hand-derived cells [1 + lam((-1)^a cos t + (-1)^b sin t cos p)] / 4."""
    out = np.empty((2, 2))
    for a in range(2):
        for b in range(2):
            out[a, b] = (
                1
                + lam
                * ((-1) ** a * math.cos(theta) + (-1) ** b * math.sin(theta) * math.cos(phi))
            ) / 4
    return out


def test_matches_closed_form_random_points(rng):
    for _ in range(300):
        lam = rng.uniform(0, 1)
        theta = rng.uniform(0, math.pi)
        phi = rng.uniform(0, 2 * math.pi)
        _, _, w = mub_hovm(lam)
        np.testing.assert_allclose(oq_values(w, amplitudes(theta, phi)),
                                   closed_form(theta, phi, lam), atol=1e-12)


def test_zero_sharpness_uniform():
    _, _, w = mub_hovm(0.0)
    values = oq_values(w, amplitudes(1.0, 2.0))
    np.testing.assert_allclose(values, np.full((2, 2), 0.25), atol=1e-14)
    assert negativity(values) == pytest.approx(0.0, abs=1e-12)


def test_negativity_point_value():
    _, _, w = mub_hovm(1.0)
    values = oq_values(w, amplitudes(math.pi / 4, 0.0))
    expected = sorted(
        [(1 + math.sqrt(2)) / 4, 0.25, 0.25, (1 - math.sqrt(2)) / 4]
    )
    np.testing.assert_allclose(sorted(values.ravel()), expected, atol=1e-12)
    assert negativity(values) == pytest.approx((math.sqrt(2) - 1) / 2, abs=1e-12)


def test_normalization_and_marginals(rng):
    for _ in range(200):
        a = random_qubit_povm(rng)
        b = random_qubit_povm(rng)
        w = build_hovm(a, b, random_conjunction(rng))
        psi = amplitudes(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        values = oq_values(w, psi)
        assert abs(values.sum() - 1) <= 1e-10
        for i in range(2):
            pa = np.real(psi.conj() @ a.effects[i] @ psi)
            pb = np.real(psi.conj() @ b.effects[i] @ psi)
            assert abs(values[i, :].sum() - pa) <= 1e-10
            assert abs(values[:, i].sum() - pb) <= 1e-10


def test_positive_throughout_compatible_region():
    for lam in (0.4, 1 / math.sqrt(2)):
        _, _, w = mub_hovm(lam)
        for theta in np.linspace(0, math.pi, 50):
            for phi in np.linspace(0, math.pi, 50):
                assert negativity(oq_values(w, amplitudes(theta, phi))) <= 1e-10


def test_sharp_equator_state_positive():
    _, _, w = mub_hovm(1.0)
    values = oq_values(w, amplitudes(math.pi / 2, 0.0))
    assert is_positive(values, 1e-10)
    np.testing.assert_allclose(sorted(values.ravel()), [0, 0, 0.5, 0.5],
                               atol=1e-12)


def test_is_positive_monotone_in_tol():
    _, _, w = mub_hovm(1.0)
    values = oq_values(w, amplitudes(math.pi / 4, 0.0))
    verdicts = [is_positive(values, tol) for tol in (1e-10, 1e-2, 0.1, 0.3)]
    assert verdicts == sorted(verdicts)  # False before True, never back


def test_negativity_floor():
    vals = np.array([[0.25, 0.25], [0.25, 0.25]])
    assert negativity(vals) >= -1e-12


def test_grid_shapes():
    _, _, w = mub_hovm(0.9)
    thetas = np.linspace(0, math.pi, 6)[:, None]
    phis = np.linspace(0, math.pi, 4)[None, :]
    values = oq_values(w, amplitudes(thetas, phis))
    assert values.shape == (6, 4, 2, 2)
    assert negativity(values).shape == (6, 4)
    assert is_positive(values).shape == (6, 4)


def test_qutrit_hovm_rejected():
    # probes are qubits, so a HOVM of 3x3 elements is refused when built
    with pytest.raises(ValueError, match=r"\(\.\.\., d, d, 2, 2\)"):
        Hovm(np.array([[np.eye(3)]], dtype=complex))
