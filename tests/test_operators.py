"""The operator checks of ``oqmetro.measurement``: the stacked Hermitian
and PSD predicates and the square root of a validated effect."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oqmetro.measurement
from oqmetro.cli import main
from oqmetro.errors import NotPsd
from oqmetro.measurement import (
    HERMITIAN_TOL,
    Hovm,
    Povm,
    _hermitian,
    _psd,
    _sqrt,
    bloch_povm,
    build_hovm,
    hovm_is_povm,
    mutually_unbiased_pair,
    sequential_povm,
)

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
        # the Hermitian and PSD rules spelled out: _hermitian and _psd read
        # the entries of 2 x 2 operators only
        assert np.max(np.abs(root - root.conj().T)) <= HERMITIAN_TOL
        assert np.linalg.eigvalsh(root)[0] >= -HERMITIAN_TOL
        assert np.max(np.abs(root @ root - m)) <= 1e-9


def test_is_psd_stable_under_positive_shift():
    rng = np.random.default_rng(5)
    for _ in range(100):
        x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m = x @ x.conj().T
        shifted = np.array([m + eps * np.eye(2) for eps in (0.0, 1e-8, 0.1)])
        assert _psd(shifted, HERMITIAN_TOL).all()


# --- the stacked checks against their rules, one matrix at a time ---

EPS = np.finfo(float).eps


@st.composite
def hermitian_stack(draw):
    """An exactly Hermitian (n, 2, 2) stack; the largest entry of each
    matrix has a drawn scale from 1e-300 to 1e150."""
    unit = st.floats(-1.0, 1.0)
    mats = []
    for _ in range(draw(st.integers(1, 4))):
        a, d, re, im = (draw(unit) for _ in range(4))
        m = np.array([[a, complex(re, -im)], [complex(re, im), d]])
        top = np.abs(m).max()
        assume(top > 0)
        mats.append(m / top * 10.0 ** draw(st.integers(-300, 150)))
    return np.array(mats)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(stack=hermitian_stack())
@example(stack=np.array([np.diag([1.0, 0.0]), np.eye(2) * 1e150,
                         np.full((2, 2), 0.5) * 1e-300]))
def test_psd_least_eigenvalue_matches_lapack(stack):
    # _psd(m, tol) is least >= -tol, so the closed-form least eigenvalue
    # lies in [lo, hi] when _psd holds at tol -lo and fails at the next
    # tol below -hi
    want = np.linalg.eigvalsh(stack)[:, 0]
    bound = 8 * EPS * np.abs(stack).max(axis=(-2, -1))
    lo, hi = want - bound, want + bound
    assert _psd(stack, -lo).all()
    assert not _psd(stack, -np.nextafter(hi, np.inf)).any()


def full_skew(m):
    """The largest entry of |M - M^dagger| of one matrix."""
    return float(np.abs(m - m.conj().T).max())


anything = st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def near_hermitian(draw):
    """A 2 x 2 complex matrix of arbitrary floats, or an exactly Hermitian
    one plus a defect of drawn entries below 1e-10."""
    def entries(values):
        return np.array([complex(*draw(st.tuples(values, values)))
                         for _ in range(4)]).reshape(2, 2)

    if draw(st.booleans()):
        return entries(anything)
    a, d, re, im = (draw(anything) for _ in range(4))
    h = np.array([[a, complex(re, -im)], [complex(re, im), d]])
    return h + entries(st.floats(-1e-10, 1e-10))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mats=st.lists(near_hermitian(), min_size=1, max_size=4))
@example(mats=[np.array([[math.inf, 0], [0, 1]]),
               np.array([[math.nan, 0], [0, 1]]),
               np.array([[1, complex(0, math.inf)],
                         [complex(0, -math.inf), 1]])])
def test_hermitian_is_the_full_rule_exactly(mats):
    stack = np.array(mats, dtype=complex)
    # non-finite and huge entries make nan and inf on both sides
    with np.errstate(all="ignore"):
        full = [full_skew(m) for m in stack]
        assert _hermitian(stack).tolist() == [v <= HERMITIAN_TOL for v in full]
        # the same number, bit for bit: each verdict flips exactly at the
        # matrix's own |M - M^dagger|
        for m, skew in zip(stack, full):
            if not 0 < skew < math.inf:
                continue
            for tol, verdict in ((skew, True), (np.nextafter(skew, 0), False)):
                with mock.patch.object(oqmetro.measurement, "HERMITIAN_TOL",
                                       tol):
                    assert bool(_hermitian(m)) is verdict


def test_validation_calls_no_eigensolver(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.eigvalsh reached")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    for argv in (["fi-sweep"], ["fi-sweep", "--target", "phi"],
                 ["compat", "--mu", "0,0,0.9", "--nu", "0.9,0,0"],
                 ["compat", "--mu", "0,0,0.5", "--nu", "0.5,0,0"],
                 ["advantage-map", "--theta", "0:pi:0.5", "--phi", "0:3:0.5"],
                 ["estimate", "--n", "2000", "--trials", "3", "--seed", "5",
                  "--theta", "1.2", "--phi", "1.0", "--lambda", "0.85",
                  "--domain", "0.8:1.6"]):
        assert main(argv) == 0, capsys.readouterr().err
    capsys.readouterr()
    a, b = mutually_unbiased_pair(np.array([0.3, 0.8, 1.0]))
    seq = sequential_povm(a, b)
    w = build_hovm(a, b, seq)
    assert hovm_is_povm(Hovm(w.elements[0]))
    assert not hovm_is_povm(w)
    Povm(seq.effects)
    bloch_povm((0.1, 0.2, 0.3))
    with pytest.raises(NotPsd):
        Povm((np.diag([1.0, -0.5]), np.diag([0.0, 1.5])))
