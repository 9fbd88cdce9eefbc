import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    marginality_defect,
    mub_hovm,
    random_bloch,
    random_conjunction,
    random_qubit_povm,
)
from oqmetro.errors import (
    BlochNormExceeded,
    NotHermitian,
    NotPsd,
    OutcomeCountMismatch,
)
from oqmetro.measurement import (
    HERMITIAN_TOL,
    IDENTITY_TOL,
    PAULI_X,
    PAULI_Z,
    Hovm,
    Povm,
    bloch_povm,
    build_hovm,
    busch_compatible,
    hovm_is_povm,
    mutually_unbiased_pair,
    sequential_povm,
    sharpness_threshold,
    _direction,
    _psd,
)


class TestBlochPovm:
    def test_zero_vector_is_coin_flip(self):
        p = bloch_povm((0, 0, 0))
        for e in p.effects:
            np.testing.assert_allclose(e, np.eye(2) / 2)

    def test_sharp_z_projectors(self):
        p = bloch_povm((0, 0, 1))
        np.testing.assert_allclose(p.effects[0], np.diag([1.0, 0.0]))
        np.testing.assert_allclose(p.effects[1], np.diag([0.0, 1.0]))

    def test_noisy_x(self):
        p = bloch_povm((0.8, 0, 0))
        np.testing.assert_allclose(p.effects[0], [[0.5, 0.4], [0.4, 0.5]])
        np.testing.assert_allclose(p.effects[1], [[0.5, -0.4], [-0.4, 0.5]])

    def test_norm_exceeded(self):
        with pytest.raises(BlochNormExceeded):
            bloch_povm((0.9, 0.9, 0))

    @pytest.mark.parametrize("bloch", [(np.nan, 0, 0), (np.inf, 0, 0),
                                       (np.nan, -0.3, np.inf)])
    def test_non_finite_vector_has_no_norm_below_1(self, bloch):
        with pytest.raises(BlochNormExceeded):
            bloch_povm(bloch)

    @pytest.mark.parametrize("bloch", [(1e200, 0, 0), (1e200, -1e200, 1e200),
                                       (1e308, 1e308, 0), (0, 3e160, 4e160)])
    def test_overflowed_norm_is_shown_finite(self, bloch):
        with pytest.raises(BlochNormExceeded) as refused:
            bloch_povm(bloch)
        shown = float(str(refused.value).split()[2])
        assert shown == pytest.approx(math.hypot(*bloch), rel=1e-15)

    def test_random_instances_are_valid(self, rng):
        for _ in range(1000):
            p = random_qubit_povm(rng)
            total = sum(p.effects)
            assert np.max(np.abs(total - np.eye(2))) <= 1e-12


class TestSequential:
    def test_coin_flip_squared(self):
        u = bloch_povm((0, 0, 0))
        s = sequential_povm(u, u)
        for e in s.effects:
            np.testing.assert_allclose(e, np.eye(2) / 4)

    def test_sharp_z_then_sharp_x(self):
        s = sequential_povm(bloch_povm((0, 0, 1)), bloch_povm((1, 0, 0)))
        for a in range(2):
            proj = np.diag([1.0 - a, float(a)])
            for b in range(2):
                np.testing.assert_allclose(
                    s.effects[2 * a + b], proj / 2, atol=1e-12
                )

    def test_boundary_sharpness_effects_psd(self):
        lam = 1 / math.sqrt(2)
        a, b = mutually_unbiased_pair(lam)
        s = sequential_povm(a, b)
        for e in s.effects:
            tr = np.trace(e).real
            det = np.linalg.det(e).real
            # brute-force 2x2 eigenvalues (tr +- sqrt(tr^2 - 4 det)) / 2
            lo = (tr - math.sqrt(max(tr * tr - 4 * det, 0.0))) / 2
            assert lo >= -1e-12

    def test_noise_eigenvalues_are_clamped(self):
        # eigenvalues in [-tol, 0) pass the PSD check and are rooted as 0
        noisy = Povm((np.diag([1 + 5e-11, -5e-11]), np.diag([-5e-11, 1 + 5e-11])))
        s = sequential_povm(noisy, bloch_povm((1, 0, 0)))
        for e in s.effects:
            assert np.isfinite(e).all()
        np.testing.assert_allclose(s.effects[0], np.diag([0.5, 0.0]), atol=1e-10)

    def test_marginal_over_second_reproduces_first(self, rng):
        for _ in range(200):
            a = random_qubit_povm(rng)
            b = random_qubit_povm(rng)
            s = sequential_povm(a, b)
            for i in range(2):
                marg = s.effects[2 * i] + s.effects[2 * i + 1]
                assert np.max(np.abs(marg - a.effects[i])) <= 1e-12


class TestBuildHovm:
    def test_qubit_closed_form(self):
        for lam in (0.3, 1 / math.sqrt(2), 0.95, 1.0):
            a, b, w = mub_hovm(lam)
            for i in range(2):
                for j in range(2):
                    ref = (
                        np.eye(2)
                        + lam * ((-1) ** i * PAULI_Z + (-1) ** j * PAULI_X)
                    ) / 4
                    assert np.max(np.abs(w.elements[i, j] - ref)) <= 1e-12

    def test_trivial_uniform(self):
        u = bloch_povm((0, 0, 0))
        c = Povm(tuple(np.eye(2) / 4 for _ in range(4)))
        w = build_hovm(u, u, c)
        for i in range(2):
            for j in range(2):
                np.testing.assert_allclose(w.elements[i, j], np.eye(2) / 4)

    def test_marginality_for_arbitrary_conjunctions(self, rng):
        for _ in range(300):
            a = random_qubit_povm(rng)
            b = random_qubit_povm(rng)
            c = random_conjunction(rng)
            w = build_hovm(a, b, c)
            assert marginality_defect(w, a, b) <= 1e-12

    def test_outcome_count_mismatch(self):
        a, b = mutually_unbiased_pair(0.5)
        with pytest.raises(OutcomeCountMismatch):
            build_hovm(a, b, a)

    def test_local_outcome_counts_must_agree(self):
        a, b = mutually_unbiased_pair(0.5)
        thirds = Povm(tuple(np.eye(2) / 3 for _ in range(3)))
        with pytest.raises(OutcomeCountMismatch, match="same outcome count"):
            build_hovm(a, thirds, sequential_povm(a, thirds))


class TestMarginalityDefect:
    def test_constructed_hovm_is_clean(self):
        a, b, w = mub_hovm(0.7)
        assert marginality_defect(w, a, b) <= 1e-12

    def test_perturbed_grid_scores_its_defect(self):
        a, b, w = mub_hovm(0.7)
        grid = np.array(w.elements, copy=True)
        grid[0, 0] += 0.01 * np.eye(2)
        assert marginality_defect(grid, a, b) >= 0.01


def busch_equiv_hovm_check(mu, nu) -> bool:
    """Runnable equivalence of the Busch criterion and HOVM positivity.

    Builds W from the sequential conjunction of the Bloch pair and compares
    the two compatibility predicates; always true when both are correct.
    """
    a = bloch_povm(mu)
    b = bloch_povm(nu)
    w = build_hovm(a, b, sequential_povm(a, b))
    return busch_compatible(mu, nu) == hovm_is_povm(w)


class TestCompatibility:
    def test_hovm_is_povm_compatible_sharpness(self):
        _, _, w = mub_hovm(0.5)
        assert hovm_is_povm(w)

    def test_hovm_is_not_povm_at_full_sharpness(self):
        _, _, w = mub_hovm(1.0)
        # the sharp corner (1 - sz - sx) / 4 has eigenvalues (1 +- sqrt(2)) / 4
        corner = (np.eye(2) - PAULI_Z - PAULI_X) / 4
        assert np.max(np.abs(w.elements[1, 1] - corner)) <= 1e-15
        assert not hovm_is_povm(w)

    def test_uniform_grid_is_povm(self):
        u = bloch_povm((0, 0, 0))
        c = Povm(tuple(np.eye(2) / 4 for _ in range(4)))
        assert hovm_is_povm(build_hovm(u, u, c))

    def test_busch_boundary(self):
        lam = 1 / math.sqrt(2)
        assert busch_compatible((0, 0, lam), (lam, 0, 0))

    def test_busch_incompatible(self):
        assert not busch_compatible((0, 0, 0.8), (0.8, 0, 0))

    def test_busch_equal_vectors(self, rng):
        for _ in range(50):
            mu = random_bloch(rng)
            assert busch_compatible(mu, mu)

    def test_busch_norm_guard(self):
        with pytest.raises(BlochNormExceeded):
            busch_compatible((1.1, 0, 0), (0, 0, 0.5))
        with pytest.raises(BlochNormExceeded):
            busch_compatible((0, 0, 0.5), (np.nan, 0, np.inf))

    @pytest.mark.parametrize("bad", [(0.5, 0.5), (0, 0, 0, 0.5), (0.5,),
                                     (np.nan, 0, 0), (0, np.inf, 0),
                                     (0, 0, -np.inf), (1.1, 0, 0),
                                     (1e200, 0, 0)],
                             ids=["2", "4", "1", "nan", "inf", "-inf",
                                  "over-norm", "overflowed"])
    @pytest.mark.parametrize("at", [0, 1], ids=["mu", "nu"])
    def test_busch_refuses_what_bloch_povm_refuses(self, bad, at):
        # one check per vector: the exception and message of bloch_povm
        with pytest.raises((ValueError, BlochNormExceeded)) as want:
            bloch_povm(bad)
        pair = [(0, 0, 0.5), (0.5, 0, 0)]
        pair[at] = bad
        with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
            busch_compatible(*pair)

    def test_busch_checks_the_first_vector_first(self):
        with pytest.raises(BlochNormExceeded, match="^Bloch norm 1.200000 > 1$"):
            busch_compatible((1.2, 0, 0), (0.5, 0))
        with pytest.raises(ValueError, match="must have 3 components"):
            busch_compatible((0.5, 0), (1.2, 0, 0))

    def test_lemma2_equivalence_examples(self):
        assert busch_equiv_hovm_check((0, 0, 0.5), (0.5, 0, 0))
        assert busch_equiv_hovm_check((0, 0, 0.9), (0.9, 0, 0))

    def test_lemma2_equivalence_random_sweep(self, rng):
        for _ in range(500):
            assert busch_equiv_hovm_check(random_bloch(rng), random_bloch(rng))

    def test_lemma2_equivalence_norm_grid(self):
        # mutually unbiased geometry, independent norms for the two vectors
        for s in np.linspace(0.02, 1.0, 50):
            for t in np.linspace(0.02, 1.0, 50):
                assert busch_equiv_hovm_check((0, 0, s), (t, 0, 0))

    @pytest.mark.parametrize("mu, nu", [
        ((0, 0, 1), (1, 0, 0)),
        ((0, 0, 1), (0.5, 0, 0.866)),
        ((0.3, -0.2, 0.9), (-0.7, 0.4, 0.1)),
    ])
    def test_predicates_agree_across_the_tolerance_band(self, mu, nu):
        # the HOVM accepts a least eigenvalue down to -HERMITIAN_TOL, some
        # 1e-10 past the boundary; Busch's criterion must accept as far
        mu = np.array(mu) / np.linalg.norm(mu)
        nu = np.array(nu) / np.linalg.norm(nu)
        thr = sharpness_threshold(mu, nu)
        for lam in thr + np.linspace(-2e-10, 2e-9, 67):
            assert busch_equiv_hovm_check(lam * mu, lam * nu), lam

    def test_sharpness_threshold_is_inverse_sqrt2(self):
        thr = sharpness_threshold((0, 0, 1), (1, 0, 0))
        assert thr == pytest.approx(1 / math.sqrt(2), abs=1e-9)

    def test_direction_keeps_the_bits_of_a_plain_normalization(self):
        # the power-of-two scaling is exact: where no square under- or
        # overflows, the direction is v / |v| to the last bit
        rng = np.random.default_rng(3)
        vs = rng.normal(size=(500, 3)) * 10.0 ** rng.uniform(-100, 100, (500, 1))
        for v in vs:
            assert np.array_equal(_direction(v), v / np.linalg.norm(v))

    @pytest.mark.parametrize("size", [1e-200, 1e-160, 1e200, 1e300])
    def test_sharpness_threshold_of_tiny_and_huge_directions(self, size):
        # their squares under- or overflow; only the directions matter
        thr = sharpness_threshold((size, 0, 0), (0, size, 0))
        assert thr == math.sqrt(0.5)
        assert sharpness_threshold((size, 0, 0), (-size, 0, 0)) is None

    @pytest.mark.parametrize("bad, message", [
        ((1, 0), "must have 3 components"),
        ((1, 0, 0, 0), "must have 3 components"),
        ((np.nan, 0, 1), "not one finite nonzero vector"),
        ((0, np.inf, 0), "not one finite nonzero vector"),
        ((0, 0, 0), "not one finite nonzero vector"),
        ((-0.0, 0.0, 0.0), "not one finite nonzero vector"),
        # a stack of directions was normalized as one vector
        (((0, 1, 0), (1, 0, 0)), "not one finite nonzero vector"),
    ], ids=["2", "4", "nan", "inf", "zero", "signed-zero", "stack"])
    @pytest.mark.parametrize("at", [0, 1], ids=["mu", "nu"])
    def test_sharpness_threshold_refuses_bad_directions(self, bad, message, at):
        pair = [(0, 0, 1), (1, 0, 0)]
        pair[at] = bad
        with pytest.raises(ValueError, match=message):
            sharpness_threshold(*pair)

    def test_sharpness_threshold_none_for_parallel(self):
        assert sharpness_threshold((0, 0, 1), (0, 0, 1)) is None
        assert sharpness_threshold((0, 0, 1), (0, 0, -2)) is None

    @pytest.mark.parametrize("mu, nu", [
        ((0, 0, 1), (1, 0, 0)),
        ((0, 0, 1), (0.5, 0, 0.866)),
        ((1, 1, 0), (0, 1, 1)),
        ((0, 0, 1), (0.1, 0, -1)),
        ((0.3, -0.2, 0.9), (-0.7, 0.4, 0.1)),
    ])
    def test_sharpness_threshold_is_the_povm_boundary(self, mu, nu):
        mu = np.array(mu) / np.linalg.norm(mu)
        nu = np.array(nu) / np.linalg.norm(nu)
        thr = sharpness_threshold(mu, nu)

        def povm_at(lam):
            a, b = bloch_povm(lam * mu), bloch_povm(lam * nu)
            return hovm_is_povm(build_hovm(a, b, sequential_povm(a, b)))

        assert povm_at(thr - 1e-9)
        assert not povm_at(thr + 1e-9)


def test_hovm_allows_negative_elements():
    # full-sharpness HOVM elements are indefinite yet the grid validates
    _, _, w = mub_hovm(1.0)
    assert isinstance(w, Hovm)
    assert w.d == 2


class TestChecks:
    """An input with a single defect raises that defect's exception."""

    @pytest.mark.parametrize("effects, error", [
        ((np.ones((2, 3)),), ValueError),
        ((np.eye(2) / 2, np.eye(3) / 2), ValueError),
        ((np.eye(3),), ValueError),
        ((np.ones((1, 1)),), ValueError),
        (([[0.5, 0.1], [0.0, 0.5]], [[0.5, -0.1], [0.0, 0.5]]), NotHermitian),
        ((np.diag([1.0, -0.5]), np.diag([0.0, 1.5])), NotPsd),
        ((np.eye(2) / 2, np.eye(2) / 4), ValueError),
    ], ids=["not-square", "dimensions", "qutrit", "one-by-one",
            "not-hermitian", "indefinite", "not-identity"])
    def test_povm_single_defect(self, effects, error):
        with pytest.raises(error):
            Povm(effects)

    def test_hovm_names_first_non_hermitian_element(self):
        _, _, w = mub_hovm(0.8)
        el = np.array(w.elements)
        el[1, 0, 0, 1] += 1e-6
        el[1, 1, 1, 0] += 1e-6
        with pytest.raises(NotHermitian, match=r"element \(1,0\)"):
            Hovm(el)

    @pytest.mark.parametrize("shape", [(2, 2, 2), (2, 1, 2, 2), (2, 2, 2, 3),
                                       (2, 2, 3, 3), (2, 2, 1, 1)])
    def test_hovm_shape(self, shape):
        with pytest.raises(ValueError):
            Hovm(np.zeros(shape))

    def test_hovm_identity(self):
        with pytest.raises(ValueError, match="identity"):
            Hovm(np.zeros((2, 2, 2, 2)))

    def test_checked_operators_cannot_change(self):
        # a measurement is checked once, so neither the caller's arrays nor
        # the stored ones may alias each other or be written afterwards
        effects = (np.eye(2, dtype=complex) / 2, np.eye(2, dtype=complex) / 2)
        p = Povm(effects)
        effects[0][0, 0] = 5.0
        assert p.effects[0][0, 0] == 0.5
        el = np.array(mub_hovm(0.8)[2].elements)
        want = el.copy()
        w = Hovm(el)
        el[0, 0] = 0.0
        assert np.array_equal(w.elements, want)
        for stored in (p.effects[1], w.elements):
            with pytest.raises(ValueError, match="read-only"):
                stored[0, 0] = 0.0


# --- equivalence with the per-operator checks the stacked ones replaced ---
#
# The reference functions keep the earlier arithmetic: one Hermitian and
# one PSD check per effect, the PSD check repeating the Hermitian one, a
# square root that validates its input, and the double loops of the HOVM
# assembly.  The stacked checks must accept and reject exactly the same
# inputs, with the same exception class, and build bit-identical operators.
# Products are explicit entry sums (``ref_mul``), one matrix at a time.

REF_TOL = 1e-10


def ref_is_hermitian(m, tol=REF_TOL):
    a = np.asarray(m, dtype=complex)
    return float(np.max(np.abs(a - a.conj().T))) <= tol


def ref_is_psd(m, tol=REF_TOL):
    a = np.asarray(m, dtype=complex)
    if not ref_is_hermitian(a, max(tol, REF_TOL)):
        raise NotHermitian("matrix is not Hermitian to tolerance")
    return float(np.linalg.eigvalsh(a)[0]) >= -tol


def ref_mul(x, y):
    """The product of two matrices, each entry's products added in index
    order."""
    out = x[:, 0, None] * y[None, 0, :]
    for k in range(1, x.shape[1]):
        out = out + x[:, k, None] * y[None, k, :]
    return out


def ref_psd_sqrt(m, tol=REF_TOL):
    a = np.asarray(m, dtype=complex)
    if not ref_is_psd(a, tol):
        raise NotPsd("matrix is not positive semidefinite to tolerance")
    vals, vecs = np.linalg.eigh(a)
    vals = np.where(vals < 0.0, 0.0, vals)
    return ref_mul(vecs * np.sqrt(vals), vecs.conj().T)


def ref_povm_error(effects):
    """The exception class of the per-effect validation, or None."""
    dim = effects[0].shape[0]
    total = np.zeros((dim, dim), dtype=complex)
    for e in effects:
        if not ref_is_hermitian(e):
            return NotHermitian
        if not ref_is_psd(e):
            return NotPsd
        total = total + e
    if np.max(np.abs(total - np.eye(dim))) > REF_TOL:
        return ValueError
    return None


def ref_hovm_error(el):
    """(exception class, message) of the per-element validation, or None."""
    for a in range(el.shape[0]):
        for b in range(el.shape[1]):
            if not ref_is_hermitian(el[a, b]):
                return NotHermitian, f"HOVM element ({a},{b}) is not Hermitian"
    if np.max(np.abs(el.sum(axis=(0, 1)) - np.eye(el.shape[2]))) > REF_TOL:
        return ValueError, "HOVM elements do not sum to the identity"
    return None


def ref_sequential(first, second):
    effects = []
    for ea in first:
        root = ref_psd_sqrt(ea)
        for eb in second:
            effects.append(ref_mul(ref_mul(root, eb), root))
    return effects


def ref_build_hovm(a, b, c):
    d = len(a)
    grid = np.array([[c[i * d + j] for j in range(d)] for i in range(d)],
                    dtype=complex)
    marg_a = grid.sum(axis=1)
    marg_b = grid.sum(axis=0)
    w = np.empty_like(grid)
    for i in range(d):
        for j in range(d):
            w[i, j] = (grid[i, j] + (a[i] - marg_a[i]) / d
                       + (b[j] - marg_b[j]) / d)
    return w


def ref_marginality_defect(el, a, b):
    defect = 0.0
    sum_b, sum_a = el.sum(axis=1), el.sum(axis=0)
    for i in range(el.shape[0]):
        defect = max(defect, float(np.max(np.abs(sum_b[i] - a[i]))))
        defect = max(defect, float(np.max(np.abs(sum_a[i] - b[i]))))
    return defect


def raised(fn, *args):
    """(exception class, message) raised by fn(*args), or None."""
    try:
        fn(*args)
    except (ValueError, NotHermitian, NotPsd) as exc:
        return type(exc), str(exc)
    return None


def unitary(seed, dim):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(dim, dim))
                        + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def skew(seed, dim, size):
    """An anti-Hermitian k with max |k| = size / 2: adding it to a Hermitian
    matrix m makes max |m - m^dagger| = size."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    k = (x - x.conj().T) / 2
    return k * (size / 2 / np.max(np.abs(k)))


def hermitian(u, eigenvalues):
    m = (u * np.asarray(eigenvalues)) @ u.conj().T
    return (m + m.conj().T) / 2  # Hermitian to the last bit


seeds = st.integers(0, 2**32 - 1)
# measurements are qubit-only
dims = st.just(2)
# eigenvalues at the PSD tolerance, at the complementary edge, or inside
edge_eigenvalue = st.one_of(st.floats(-2e-10, 2e-10),
                            st.floats(1 - 2e-10, 1 + 2e-10), st.floats(0.0, 1.0))
# Hermitian defects around the 1e-10 tolerance
skew_size = st.floats(0.5e-10, 2e-10)


@st.composite
def edge_povm(draw, dim=None):
    """Effects E and 1 - E, or E, t(1 - E), (1 - t)(1 - E), of exactly
    Hermitian matrices whose eigenvalues may sit at the PSD tolerance."""
    dim = dim or draw(dims)
    e = hermitian(unitary(draw(seeds), dim),
                  [draw(edge_eigenvalue) for _ in range(dim)])
    rest = np.eye(dim) - e
    if draw(st.booleans()):
        return (e, rest)
    t = draw(st.floats(0.0, 1.0))
    return (e, t * rest, (1 - t) * rest)


@st.composite
def skewed_povm(draw):
    """Effects with PSD margin whose first effect carries an anti-Hermitian
    part around the tolerance, compensated in the second."""
    dim = draw(dims)
    e = hermitian(unitary(draw(seeds), dim),
                  [draw(st.floats(0.01, 0.99)) for _ in range(dim)])
    k = skew(draw(seeds), dim, draw(skew_size))
    return (e + k, np.eye(dim) - e - k)


@st.composite
def skewed_hovm(draw):
    """A d=2 grid of Hermitian elements summing to the identity, some of
    them carrying an anti-Hermitian part around the tolerance."""
    dim = draw(dims)
    rng = np.random.default_rng(draw(seeds))
    x = rng.normal(size=(4, dim, dim)) + 1j * rng.normal(size=(4, dim, dim))
    h = (x + x.conj().swapaxes(1, 2)) / 2
    h -= h.mean(axis=0)
    el = np.eye(dim) / 4 + h
    for cell in draw(st.lists(st.integers(0, 3), max_size=3)):
        el[cell] += skew(draw(seeds), dim, draw(skew_size))
    return el.reshape(2, 2, dim, dim)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(effects=st.one_of(edge_povm(), skewed_povm()))
@example(effects=(np.diag([1 + 5e-11, -5e-11]), np.diag([-5e-11, 1 + 5e-11])))
@example(effects=(np.diag([1 + 2e-10, -2e-10]), np.diag([-2e-10, 1 + 2e-10])))
def test_povm_checks_match_reference(effects):
    got = raised(Povm, effects)
    assert (got[0] if got else None) is ref_povm_error(effects)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(el=skewed_hovm())
def test_hovm_checks_match_reference(el):
    assert raised(Hovm, el) == ref_hovm_error(el)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), dim=dims)
def test_construction_matches_reference(data, dim):
    a = data.draw(edge_povm(dim))
    b = data.draw(edge_povm(dim).filter(lambda e: len(e) == len(a)))
    assume(ref_povm_error(a) is None and ref_povm_error(b) is None)
    pa, pb = Povm(a), Povm(b)
    seq = sequential_povm(pa, pb)
    want = ref_sequential(a, b)
    assert all(np.array_equal(g, r) for g, r in zip(seq.effects, want, strict=True))
    w = build_hovm(pa, pb, seq)
    want_w = ref_build_hovm(a, b, want)
    assert np.array_equal(w.elements, want_w)
    assert hovm_is_povm(w) == all(ref_is_psd(m) for m in want_w.reshape(-1, dim, dim))
    assert marginality_defect(w, pa, pb) == ref_marginality_defect(want_w, a, b)


def test_construction_keeps_effects_at_the_psd_tolerance():
    # rest / 2 has the eigenvalue -8e-11, inside the PSD tolerance, which
    # its square root clamps to 0: the sequential effects then sum to the
    # identity only within 1.6e-10, and checking them again refused them
    e = np.diag([1 + 1.6e-10, 0.0]).astype(complex)
    rest = np.eye(2) - e
    a = (e, rest / 2, rest / 2)
    b = (np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2))
    pa, pb = Povm(a), Povm(b)
    seq = sequential_povm(pa, pb)
    want = ref_sequential(a, b)
    assert np.abs(sum(want) - np.eye(2)).max() > IDENTITY_TOL
    assert all(np.array_equal(g, r) for g, r in zip(seq.effects, want, strict=True))
    w = build_hovm(pa, pb, seq)
    assert np.array_equal(w.elements, ref_build_hovm(a, b, want))
    assert not seq.effects.flags.writeable and not w.elements.flags.writeable


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lam=st.floats(1 / math.sqrt(2) - 1e-9, 1 / math.sqrt(2) + 1e-9))
def test_busch_boundary_matches_reference(lam):
    # at the Busch boundary a corner element of W has an eigenvalue at 0
    a, b = mutually_unbiased_pair(lam)
    w = build_hovm(a, b, sequential_povm(a, b))
    want_w = ref_build_hovm(a.effects, b.effects,
                            ref_sequential(a.effects, b.effects))
    assert np.array_equal(w.elements, want_w)
    assert hovm_is_povm(w) == all(ref_is_psd(m) for m in want_w.reshape(-1, 2, 2))


# --- stacks of measurements against one build per entry ---

_BOUNDARY = 1 / math.sqrt(2)
sharpness = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, _BOUNDARY - 1e-9, _BOUNDARY + 1e-9, 0.995]),
    st.floats(-1.0, 1.0),
)


def entries(x, n, core):
    """The n entries of a stack, each with ``core`` trailing axes."""
    return x.reshape((n,) + x.shape[-core:])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lams=st.lists(sharpness, max_size=8), column=st.booleans())
@example(lams=[0.0, 1.0, -1.0, _BOUNDARY - 1e-9, _BOUNDARY + 1e-9, 0.995],
         column=True)
def test_stacked_builds_match_per_sharpness_builds(lams, column):
    stack = np.array(lams, dtype=float)
    a, b = mutually_unbiased_pair(stack[:, None] if column else stack)
    seq = sequential_povm(a, b)
    w = build_hovm(a, b, seq)
    n = len(lams)
    assert w.elements.shape == ((n, 1) if column else (n,)) + (2, 2, 2, 2)
    povm_verdicts = _psd(entries(w.elements, n, 4), HERMITIAN_TOL).all(
        axis=(-2, -1))
    for k, lam in enumerate(lams):
        a1, b1 = mutually_unbiased_pair(lam)
        seq1 = sequential_povm(a1, b1)
        w1 = build_hovm(a1, b1, seq1)
        for got, want in ((a, a1), (b, b1), (seq, seq1)):
            assert np.array_equal(entries(got.effects, n, 3)[k], want.effects)
        assert np.array_equal(entries(w.elements, n, 4)[k], w1.elements)
        assert povm_verdicts[k] == hovm_is_povm(w1)


# --- explicit products against numpy's matmul ---
#
# For the mutually unbiased pair the z effects and their roots are real and
# diagonal and the x effects real, so every entry of sqrt(A) B sqrt(A) is
# one real product plus exact zeros: the explicit sums keep the bits of
# ``@`` (BLAS), but for the sign of one zero at lambda = -1 and at 1.  For
# general pairs only the rounding of the sums may differ.


def matmul_sequential(a, b):
    """``sequential_povm``'s effects with ``@`` products."""
    vals, vecs = np.linalg.eigh(a.effects)
    vals = np.where(vals < 0.0, 0.0, vals)
    roots = (vecs * np.sqrt(vals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    roots = roots[..., :, None, :, :]
    effects = (roots @ b.effects[..., None, :, :, :]) @ roots
    return effects.reshape(effects.shape[:-4] + (a.outcomes * b.outcomes, 2, 2))


MUB_LAMBDAS = np.concatenate((
    [-1.0, -0.0, 0.0, 1.0, 0.995, -0.995,
     np.nextafter(_BOUNDARY, 0), _BOUNDARY, np.nextafter(_BOUNDARY, 2)],
    np.linspace(-1, 1, 2001),
    np.random.default_rng(19).uniform(-1, 1, 2000),
))
# lambda -> the sequential effect (a, b) whose (0, 1) entry is +0.0 where
# ``@`` gives -0.0: sqrt(A_a) = diag(1, 0), and (0.5 * 0) + (-0.5 * 0)
SIGNED_ZEROS = {-1.0: 2, 1.0: 1}


@pytest.mark.parametrize("column", [False, True])
def test_mub_sequential_effects_keep_the_matmul_bits(column):
    n = len(MUB_LAMBDAS)
    a, b = mutually_unbiased_pair(MUB_LAMBDAS[:, None] if column else MUB_LAMBDAS)
    seq = sequential_povm(a, b)
    want = matmul_sequential(a, b)
    got, ref = entries(seq.effects, n, 3), entries(want, n, 3).copy()
    for lam, effect in SIGNED_ZEROS.items():
        at = MUB_LAMBDAS == lam
        zero = got[at, effect, 0, 1]
        assert at.sum() == 2 and (zero == 0).all()
        assert (ref[at, effect, 0, 1] == 0).all()
        assert not np.signbit(zero.real).any() and not np.signbit(zero.imag).any()
        ref[at, effect, 0, 1] = zero
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))
    # the signed zero does not reach the HOVM
    w, w_ref = build_hovm(a, b, seq), build_hovm(a, b, Povm(want))
    assert np.array_equal(w.elements.view(np.int64), w_ref.elements.view(np.int64))


def test_general_pair_effects_stay_near_matmul(rng):
    bloch = rng.normal(size=(2, 500, 3))
    bloch *= rng.uniform(0, 1, size=(2, 500, 1)) / np.linalg.norm(
        bloch, axis=-1, keepdims=True)
    pairs = [(bloch_povm(bloch[0]), bloch_povm(bloch[1]))]
    pairs += [(random_conjunction(rng), random_conjunction(rng, 3))
              for _ in range(50)]
    for a, b in pairs:
        got = sequential_povm(a, b).effects
        assert np.abs(got - matmul_sequential(a, b)).max() <= 1e-15


@settings(max_examples=100, deadline=None, derandomize=True)
@given(lams=st.lists(sharpness, max_size=5), at=st.integers(0, 5),
       bad=st.one_of(st.floats(1 + 1e-9, 10), st.floats(-10, -1 - 1e-9),
                     st.sampled_from([math.nan, math.inf, -math.inf])))
def test_stack_with_one_bad_sharpness_is_refused(lams, at, bad):
    with pytest.raises(BlochNormExceeded) as alone:
        mutually_unbiased_pair(bad)
    lams.insert(at, bad)
    with pytest.raises(BlochNormExceeded) as stacked:
        mutually_unbiased_pair(np.array(lams))
    assert str(stacked.value) == str(alone.value)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), before=st.integers(0, 3), after=st.integers(0, 3))
def test_povm_stack_with_one_bad_entry(data, before, after):
    entry = data.draw(st.one_of(edge_povm(), skewed_povm()))
    dim, outcomes = entry[0].shape[0], len(entry)
    good = [np.eye(dim) / outcomes] * outcomes
    stack = np.array([good] * before + [entry] + [good] * after)
    got = raised(Povm, stack)
    assert (got[0] if got else None) is ref_povm_error(entry)


def test_hovm_stack_names_first_non_hermitian_element():
    el = np.array([mub_hovm(lam)[2].elements for lam in (0.3, 0.8, 0.95)])
    el[2, 0, 1, 0, 1] += 1e-6
    el[1, 1, 0, 1, 0] += 1e-6
    with pytest.raises(NotHermitian, match=r"element \(1,0\)"):
        Hovm(el)
    el[1] = mub_hovm(0.8)[2].elements
    with pytest.raises(NotHermitian, match=r"element \(0,1\)"):
        Hovm(el)


# --- the Bloch norm is the one check of a Bloch-vector POVM ---

NORM_LIMIT = 1 + 1e-12
# the zero vector, norms of exactly 1 and of the limit, and tiny entries
EDGE_BLOCH = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, -1.0, 0.0),
              (0.6, 0.0, -0.8), (NORM_LIMIT, 0.0, 0.0), (0.0, 0.0, -NORM_LIMIT),
              (1e-160, 0.0, 0.0), (1e-160, -1e-160, 1e-160),
              (1e-300, 0.0, 0.0), (-1e-300, 1e-300, -1e-300),
              (1e-300, 0.6, 0.8), (1e-160, -1.0, 0.0)]
unit_entry = st.floats(-1.0, 1.0)


@st.composite
def bloch_vector(draw):
    """A vector from EDGE_BLOCH, a direction scaled to a norm of 1, of the
    limit or below, or three entries of up to 1."""
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return draw(st.sampled_from(EDGE_BLOCH))
    v = np.array([draw(unit_entry) for _ in range(3)])
    if kind == 1 and np.linalg.norm(v) > 0:
        norm = draw(st.one_of(st.sampled_from([1.0, NORM_LIMIT]),
                              st.floats(0.0, 1.0)))
        v *= norm / np.linalg.norm(v)
    return tuple(v)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(vectors=st.lists(bloch_vector(), min_size=1, max_size=6),
       column=st.booleans())
@example(vectors=EDGE_BLOCH, column=False)
@example(vectors=EDGE_BLOCH, column=True)
def test_accepted_bloch_stacks_pass_every_povm_check(vectors, column):
    """Whatever ``bloch_povm`` accepts, as an (L,) or (L, 1) stack, passes
    ``Povm``'s checks unchanged, so keeping it unchecked refuses nothing
    ``Povm`` would have refused."""
    v = np.array(vectors).reshape((len(vectors),) + (1,) * column + (3,))
    assume((np.linalg.norm(v, axis=-1) <= NORM_LIMIT).all())
    kept = bloch_povm(v).effects
    assert kept.shape == v.shape[:-1] + (2, 2, 2)
    checked = Povm(kept).effects
    assert np.array_equal(checked.view(np.int64), kept.view(np.int64))
    # Hermitian to the last bit, not only within the tolerance
    assert np.array_equal(kept, kept.conj().swapaxes(-1, -2))


def test_only_user_arrays_run_operator_checks(monkeypatch):
    from oqmetro import measurement

    calls = []
    for name in ("_hermitian", "_psd"):
        def counted(*args, _check=getattr(measurement, name), _name=name):
            calls.append(_name)
            return _check(*args)
        monkeypatch.setattr(measurement, name, counted)
    a, b = mutually_unbiased_pair(np.array([[0.0], [0.5], [1.0]]))
    w = build_hovm(a, b, sequential_povm(a, b))
    assert calls == []
    Povm(np.array(a.effects))
    Hovm(np.array(w.elements))
    assert calls == ["_hermitian", "_psd", "_hermitian"]
