import math

import numpy as np
import pytest

from conftest import mub_hovm, random_bloch, random_conjunction, random_qubit_povm
from oqmetro.errors import BlochNormExceeded, OutcomeCountMismatch
from oqmetro.measurement import (
    PAULI_X,
    PAULI_Z,
    Hovm,
    Povm,
    bloch_povm,
    build_hovm,
    busch_compatible,
    busch_equiv_hovm_check,
    hovm_is_povm,
    marginality_defect,
    mutually_unbiased_pair,
    sequential_povm,
    sharpness_threshold,
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


class TestMarginalityDefect:
    def test_constructed_hovm_is_clean(self):
        a, b, w = mub_hovm(0.7)
        assert marginality_defect(w, a, b) <= 1e-12

    def test_perturbed_grid_scores_its_defect(self):
        a, b, w = mub_hovm(0.7)
        grid = np.array(w.elements, copy=True)
        grid[0, 0] += 0.01 * np.eye(2)
        assert marginality_defect(grid, a, b) >= 0.01


class TestCompatibility:
    def test_hovm_is_povm_compatible_sharpness(self):
        _, _, w = mub_hovm(0.5)
        assert hovm_is_povm(w, 1e-10)

    def test_hovm_is_not_povm_at_full_sharpness(self):
        _, _, w = mub_hovm(1.0)
        assert not hovm_is_povm(w, 1e-10)

    def test_uniform_grid_is_povm(self):
        u = bloch_povm((0, 0, 0))
        c = Povm(tuple(np.eye(2) / 4 for _ in range(4)))
        assert hovm_is_povm(build_hovm(u, u, c), 1e-10)

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

    def test_sharpness_threshold_is_inverse_sqrt2(self):
        thr = sharpness_threshold((0, 0, 1), (1, 0, 0))
        assert thr == pytest.approx(1 / math.sqrt(2), abs=1e-9)

    def test_sharpness_threshold_none_for_parallel(self):
        assert sharpness_threshold((0, 0, 1), (0, 0, 1)) is None


def test_hovm_allows_negative_elements():
    # full-sharpness HOVM elements are indefinite yet the grid validates
    _, _, w = mub_hovm(1.0)
    assert isinstance(w, Hovm)
    assert w.d == 2 and w.dim == 2
