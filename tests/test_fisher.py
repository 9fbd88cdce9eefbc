import math

import numpy as np
import pytest

from conftest import cells, mub_hovm, probe
import oqmetro.fisher
from oqmetro.errors import (
    DerivativeNotTraceless,
    NegativeOq,
    NotNormalized,
    ZeroQfi,
)
from oqmetro.fisher import advantage, fisher_discrete, oqfi, qfi_pure
from oqmetro.oq import negativity, oq_slopes, oq_values
from oqmetro.probe import Target, amplitudes


class TestFisherDiscrete:
    def test_two_outcome_formula(self):
        for c in (0.1, 0.25, 0.4):
            r = fisher_discrete([0.5, 0.5], [c, -c])
            assert r == pytest.approx(4 * c * c)
            assert not math.isinf(r)

    def test_zero_probability_with_zero_slope(self):
        r = fisher_discrete([1.0, 0.0], [0.0, 0.0])
        assert r == 0.0

    def test_zero_probability_with_slope_diverges(self):
        r = fisher_discrete([1.0, 0.0], [0.1, -0.1])
        assert math.isinf(r) and r > 0

    def test_normalization_guard(self):
        with pytest.raises(NotNormalized):
            fisher_discrete([0.5, 0.4], [0.1, -0.1])

    def test_traceless_guard(self):
        with pytest.raises(DerivativeNotTraceless):
            fisher_discrete([0.5, 0.5], [0.1, 0.1])

    def test_models_along_first_axis(self):
        probs = [[0.5, 0.5], [1.0, 0.0], [1.0, 0.0]]
        derivs = [[0.1, -0.1], [0.1, -0.1], [0.0, 0.0]]
        stacked = [fisher_discrete(p, d) for p, d in zip(probs, derivs)]
        assert stacked[1:] == [math.inf, 0.0]
        # the outcome axis first, one model per column
        np.testing.assert_array_equal(
            fisher_discrete(np.transpose(probs), np.transpose(derivs)), stacked)

    def test_unequal_lengths_are_refused(self):
        with pytest.raises(ValueError, match="equal length"):
            fisher_discrete([0.5, 0.5], [0.1, -0.1, 0.0])

    def test_guards_checked_per_model(self):
        with pytest.raises(NotNormalized):
            fisher_discrete([[0.5, 0.5], [0.5, 0.4]], [[0.1, 0.1], [-0.1, -0.1]])
        with pytest.raises(DerivativeNotTraceless):
            fisher_discrete([[0.5, 0.5]] * 2, [[0.1, 0.1], [-0.1, 0.1]])


class TestOqfi:
    def test_closed_form_over_sharpness(self):
        # hand evaluation at theta=pi/2, phi=0: cells (1 +- lam)/4,
        # derivatives -(-1)^a lam / 4, so the information is lam^2/(1-lam^2)
        p = probe(math.pi / 2, 0.0)
        for lam in np.linspace(0.0, 0.99, 34):
            _, _, w = mub_hovm(lam)
            r = oqfi(*cells(w, *p))
            assert r == pytest.approx(lam**2 / (1 - lam**2), abs=1e-9)

    def test_crosses_qfi_at_boundary_sharpness(self):
        p = probe(math.pi / 2, 0.0)
        _, _, w = mub_hovm(1 / math.sqrt(2))
        assert oqfi(*cells(w, *p)) == pytest.approx(qfi_pure(*p), abs=1e-12)

    def test_zero_sharpness_gives_zero(self):
        _, _, w = mub_hovm(0.0)
        r = oqfi(*cells(w, *probe(1.2, 0.3)))
        assert r == pytest.approx(0.0, abs=1e-30)

    def test_refused_on_negative_oq(self):
        _, _, w = mub_hovm(1.0)
        with pytest.raises(NegativeOq):
            oqfi(*cells(w, *probe(math.pi / 4, 0.0)))

    def test_refused_if_any_grid_point_is_negative(self):
        _, _, w = mub_hovm(1.0)
        with pytest.raises(NegativeOq):
            oqfi(*cells(w, *probe(np.array([math.pi / 2, math.pi / 4]), 0.0)))


class TestQfiPure:
    def test_polar_is_one_everywhere(self):
        for theta in np.linspace(0, math.pi, 25):
            for phi in np.linspace(0, 2 * math.pi, 25, endpoint=False):
                q = qfi_pure(*probe(theta, phi))
                assert abs(q - 1.0) <= 1e-12

    def test_azimuthal_is_sin_squared(self):
        for theta in np.linspace(0, math.pi, 25):
            q = qfi_pure(*probe(theta, 0.7, Target.AZIMUTHAL))
            assert abs(q - math.sin(theta) ** 2) <= 1e-12

    def test_reference_value(self):
        q = qfi_pure(*probe(7 * math.pi / 10, 0.0, Target.AZIMUTHAL))
        assert q == pytest.approx(0.654, abs=1e-3)

    def test_pole_azimuthal_vanishes(self):
        assert qfi_pure(*probe(0.0, 0.0, Target.AZIMUTHAL)) == pytest.approx(0.0)


class TestAdvantage:
    def test_zero_at_break_even_sharpness(self):
        lam = math.sqrt(2 / 3)
        _, _, w = mub_hovm(lam)
        p = probe(math.pi / 2, 0.0)
        a = advantage(*cells(w, *p), qfi_pure(*p))
        assert a == pytest.approx(0.0, abs=1e-12)

    def test_boundary_sharpness_value(self):
        _, _, w = mub_hovm(1 / math.sqrt(2))
        p = probe(math.pi / 2, 0.0)
        a = advantage(*cells(w, *p), qfi_pure(*p))
        assert a == pytest.approx(math.log10(0.5), abs=1e-12)

    def test_divergence_at_full_sharpness(self):
        _, _, w = mub_hovm(1.0)
        p = probe(math.pi / 2, 0.0)
        a = advantage(*cells(w, *p), qfi_pure(*p))
        assert math.isinf(a) and a > 0

    def test_zero_qfi_guard(self):
        _, _, w = mub_hovm(0.5)
        p = probe(0.0, 0.0, Target.AZIMUTHAL)
        with pytest.raises(ZeroQfi):
            advantage(*cells(w, *p), qfi_pure(*p))

    def test_zero_qfi_refused_before_negative_oq(self):
        values = np.array([[0.75, -0.25], [0.25, 0.25]])
        slopes = np.zeros((2, 2))
        with pytest.raises(ZeroQfi):
            advantage(values, slopes, 0.0)
        with pytest.raises(NegativeOq, match="negativity 5.000e-01 exceeds"):
            advantage(values, slopes, 1.0)

    def test_zero_information_gives_minus_inf(self):
        _, _, w = mub_hovm(0.0)
        p = probe(math.pi / 2, 0.0)
        assert advantage(*cells(w, *p), qfi_pure(*p)) == -math.inf

    def test_ratio_not_positive_gives_minus_inf(self, monkeypatch):
        # a zero, a negative and a nan ratio of the two informations
        infos = np.array([0.0, -1.0, math.nan, 20.0, math.inf])
        monkeypatch.setattr(oqmetro.fisher, "oqfi", lambda values, slopes: infos)
        logs = advantage(None, None, np.full(5, 5.0))
        assert logs.tolist() == [-math.inf] * 3 + [math.log10(2.0), math.inf]
        for info in (0.0, -1.0, math.nan):
            monkeypatch.setattr(oqmetro.fisher, "oqfi",
                                lambda values, slopes, info=info: info)
            assert advantage(None, None, 1.0) == -math.inf

    def test_advantage_region_exists_at_high_sharpness(self):
        _, _, w = mub_hovm(0.99)
        found = False
        for theta in np.linspace(0.1, math.pi - 0.1, 40):
            for phi in np.linspace(0.1, math.pi - 0.1, 40):
                p = probe(theta, phi)
                if negativity(oq_values(w, p[0])) > 1e-10:
                    continue
                if advantage(*cells(w, *p), qfi_pure(*p)) > 0:
                    found = True
                    break
            if found:
                break
        assert found


def test_theorem2_compatible_sharpness_never_beats_qfi():
    rng = np.random.default_rng(4242)
    points = [
        (rng.uniform(0.02, math.pi - 0.02), rng.uniform(0, 2 * math.pi))
        for _ in range(500)
    ]
    for lam in (0.3, 0.5, 1 / math.sqrt(2)):
        _, _, w = mub_hovm(lam)
        for target in (Target.POLAR, Target.AZIMUTHAL):
            for theta, phi in points:
                p = probe(theta, phi, target)
                if negativity(oq_values(w, p[0])) > 1e-10:
                    continue
                r = oqfi(*cells(w, *p))
                assert not math.isinf(r)
                assert r <= qfi_pure(*p) + 1e-9


def test_oq_cell_derivatives_match_finite_differences():
    rng = np.random.default_rng(321)
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
