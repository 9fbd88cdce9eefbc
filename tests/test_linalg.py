"""The operator checks of ``oqmetro.measurement``: the stacked Hermitian
and PSD predicates and the square root of a validated effect."""

import numpy as np
import pytest

from oqmetro.errors import NotPsd
from oqmetro.measurement import HERMITIAN_TOL, Povm, _hermitian, _psd, _sqrt

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def test_is_hermitian_identity():
    assert _hermitian(np.eye(2, dtype=complex))


def test_is_hermitian_rejects_antihermitian_offdiagonal():
    assert not _hermitian(np.array([[0, 1j], [1j, 0]]))


def test_is_hermitian_real_symmetric_zero_tol():
    assert _hermitian(SX)
    # one verdict per matrix of a stack; m - m^dagger = 2 eps skew here
    skew = np.array([[0, 1], [-1, 0]])
    stack = np.array([SX, SX + 0.4e-10 * skew, SX + 0.6e-10 * skew])
    assert _hermitian(stack).tolist() == [True, True, False]


def test_is_psd_identity_zero_tol():
    assert _psd(np.eye(2), 0.0)


def test_is_psd_explicit_negative_eigenvalue():
    assert not _psd(np.diag([1.0, -0.3]), HERMITIAN_TOL)


def test_is_psd_sharp_hovm_corner_element():
    # (1 - sz - sx) / 4 has eigenvalues (1 +- sqrt(2)) / 4
    m = (np.eye(2) - SZ - SX) / 4
    assert not _psd(m, HERMITIAN_TOL)
    assert _psd(np.array([np.eye(2), m]), HERMITIAN_TOL).tolist() == [True, False]


def test_psd_sqrt_identity():
    np.testing.assert_allclose(_sqrt(np.eye(2)), np.eye(2), atol=1e-14)


def test_psd_sqrt_diagonal():
    np.testing.assert_allclose(_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]),
                               atol=1e-14)


def test_psd_sqrt_noisy_projector():
    m = (np.eye(2) + 0.8 * SZ) / 2
    expected = np.diag([np.sqrt(0.9), np.sqrt(0.1)])
    np.testing.assert_allclose(_sqrt(m), expected, atol=1e-14)


def test_psd_sqrt_rejects_indefinite():
    # the root takes no check of its own: an indefinite effect never gets
    # past the POVM it would have to belong to
    with pytest.raises(NotPsd):
        Povm((np.diag([1.0, -0.5]), np.diag([0.0, 1.5])))


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(77)
    for _ in range(200):
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        m = x @ x.conj().T
        m /= np.trace(m).real
        root = _sqrt(m)
        assert _hermitian(root) and _psd(root, HERMITIAN_TOL)
        assert np.max(np.abs(root @ root - m)) <= 1e-9


def test_is_psd_stable_under_positive_shift():
    rng = np.random.default_rng(5)
    for _ in range(100):
        x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m = x @ x.conj().T
        shifted = np.array([m + eps * np.eye(2) for eps in (0.0, 1e-8, 0.1)])
        assert _psd(shifted, HERMITIAN_TOL).all()
