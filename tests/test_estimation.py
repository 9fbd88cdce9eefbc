import math

import numpy as np
import pytest

from conftest import cells, mub_hovm, probe, setting_probs
from oqmetro import estimation
from oqmetro.errors import AllTrialsOmitted, NegativeCounts, ParamOutOfRange
from oqmetro.estimation import (
    CountTable,
    TrialConfig,
    assemble_w_counts,
    draw_counts,
    expected_counts,
    golden_section_maximize,
    lep_estimate,
    log_likelihood,
    mle_estimate,
    parity_mean,
    run_trials,
)
from oqmetro.fisher import oqfi
from oqmetro.oq import oq_values
from oqmetro.probe import Target, amplitudes

EQUATOR = (math.pi / 2, 0.0)


def sample(point, a, b, n, seeds):
    """A stack of tables drawn at a probe point, one per integer seed."""
    return draw_counts(*setting_probs(*point, a, b), n,
                       [np.random.SeedSequence(s) for s in seeds])


def flat_table():
    """One table of uniform counts, which a lambda=0 model fits everywhere."""
    return CountTable(
        1000, np.array([[500, 500]]), np.array([[[250, 250], [250, 250]]]),
        np.full((1, 2, 2), 250.0),
    )


class TestSampling:
    def test_deterministic_given_seed(self):
        a, b, _ = mub_hovm(0.7)
        t1 = sample(EQUATOR, a, b, 5000, [42])
        t2 = sample(EQUATOR, a, b, 5000, [42])
        np.testing.assert_array_equal(t1.counts_b, t2.counts_b)
        np.testing.assert_array_equal(t1.counts_seq, t2.counts_seq)
        np.testing.assert_array_equal(t1.counts_w, t2.counts_w)

    def test_different_seeds_differ(self):
        a, b, _ = mub_hovm(0.7)
        t = sample(EQUATOR, a, b, 5000, [1, 2])
        assert not np.array_equal(t.counts_seq[0], t.counts_seq[1])

    def test_zero_sharpness_uniform_within_binomial_bands(self):
        a, b, _ = mub_hovm(0.0)
        n = 10_000
        t = sample((1.1, 0.4), a, b, n, [3])
        sigma_b = math.sqrt(n * 0.25)
        assert abs(t.counts_b[0, 0] - n / 2) <= 4 * sigma_b
        sigma_seq = math.sqrt(n * 0.25 * 0.75)
        for c in t.counts_seq.ravel():
            assert abs(c - n / 4) <= 4 * sigma_seq

    def test_sharp_measurement_concentrates(self):
        a, b, _ = mub_hovm(1.0)
        t = sample(EQUATOR, a, b, 2000, [11])
        # probe is the +x eigenstate, B is the sharp x measurement
        assert tuple(t.counts_b[0]) == (2000, 0)

    def test_w_counts_sum_exactly(self):
        a, b, _ = mub_hovm(0.85)
        t = sample(EQUATOR, a, b, 999, range(20))
        assert all(cw.sum() == t.n for cw in t.counts_w)

    def test_expectation_consistency(self):
        lam = 0.8
        a, b, w = mub_hovm(lam)
        theta, phi = 1.9, 0.6
        truth = oq_values(w, amplitudes(theta, phi))
        n, trials = 200, 10_000
        children = np.random.SeedSequence(2718).spawn(trials)
        acc = draw_counts(*setting_probs(theta, phi, a, b), n,
                          children).counts_w / n
        mean = acc.mean(axis=0)
        se = acc.std(axis=0, ddof=1) / math.sqrt(trials)
        assert np.all(np.abs(mean - truth) <= 4 * se + 1e-12)


class TestCountTable:
    def test_indexing_keeps_the_trial_axis(self):
        a, b, _ = mub_hovm(0.7)
        t = sample(EQUATOR, a, b, 500, range(3))
        assert t[1].counts_w.shape == (1, 2, 2)
        assert t[-1].counts_b.shape == (1, 2)
        assert t[np.array([True, False, True])].counts_seq.shape == (2, 2, 2)
        np.testing.assert_array_equal(t[2].counts_w[0], t.counts_w[2])

    def test_one_table_without_trial_axis_is_refused(self):
        with pytest.raises(ValueError, match="stack of tables"):
            CountTable(1000, np.array([500, 500]),
                       np.array([[250, 250], [250, 250]]),
                       np.full((2, 2), 250.0))


class TestLogLikelihood:
    def test_maximized_at_truth_for_expected_counts(self):
        a, b, w = mub_hovm(0.9)
        g0 = 1.9
        table = expected_counts(*setting_probs(g0, 1.0, a, b), 10_000)
        (ll0,) = log_likelihood(table, g0, 1.0, Target.POLAR, w)
        for g in (g0 - 0.2, g0 - 0.05, g0 + 0.05, g0 + 0.2):
            assert log_likelihood(table, g, 1.0, Target.POLAR, w)[0] < ll0

    def test_constant_for_flat_model(self):
        a, b, w = mub_hovm(0.0)
        table = flat_table()
        vals = [log_likelihood(table, g, 0.0, Target.POLAR, w)[0]
                for g in (0.3, 1.0, 2.0)]
        assert all(v == pytest.approx(math.log(0.25), abs=1e-12) for v in vals)

    def test_negative_counts_rejected(self):
        _, _, w = mub_hovm(0.5)
        table = CountTable(
            100, np.array([[0, 100]]), np.array([[[50, 50], [0, 0]]]),
            assemble_w_counts([[0, 100]], [[[50, 50], [0, 0]]]),
        )
        assert table.negative.tolist() == [True]
        with pytest.raises(NegativeCounts):
            log_likelihood(table, 1.0, 0.0, Target.POLAR, w)


class TestMle:
    def test_recovers_truth_from_expected_counts(self):
        a, b, w = mub_hovm(0.9)
        g0 = 1.2345
        table = expected_counts(*setting_probs(g0, 1.2, a, b), 10_000)
        r = mle_estimate(table, Target.POLAR, 1.2, w, (0.5, 2.0))
        assert r.omitted.tolist() == [False]
        assert r.estimate[0] == pytest.approx(g0, abs=1e-6)

    def test_observed_fi_matches_oqfi_on_expected_counts(self):
        lam = 0.9
        a, b, w = mub_hovm(lam)
        g0 = math.pi / 2
        table = expected_counts(*setting_probs(g0, 0.0, a, b), 10_000)
        r = mle_estimate(table, Target.POLAR, 0.0, w, (1.0, 2.0))
        truth = oqfi(*cells(w, *probe(g0, 0.0)))
        assert r.observed_fi[0] == pytest.approx(truth, rel=1e-3)

    def test_flat_likelihood_is_omitted(self):
        _, _, w = mub_hovm(0.0)
        r = mle_estimate(flat_table(), Target.POLAR, 0.0, w, (0.5, 2.5))
        assert r.omitted.tolist() == [True]

    def test_rmse_shrinks_with_sample_size(self):
        lam = 0.9
        a, b, w = mub_hovm(lam)
        g0 = 1.9
        probs = setting_probs(g0, 1.0, a, b)
        rmse = []
        for n in (10**3, 10**4, 10**5):
            children = np.random.SeedSequence(n).spawn(40)
            t = draw_counts(*probs, n, children)
            r = mle_estimate(t[~t.negative], Target.POLAR, 1.0, w, (1.5, 2.3))
            assert not r.omitted.any()
            rmse.append(float(np.sqrt(np.mean(np.square(r.estimate - g0)))))
        assert rmse[0] > rmse[1] > rmse[2]


class TestLep:
    def test_exact_inversion_of_expected_counts(self):
        a, b, w = mub_hovm(0.9)
        g0 = 1.9
        table = expected_counts(*setting_probs(g0, 0.6, a, b), 10_000)
        r = lep_estimate(table, Target.POLAR, 0.6, w, (1.4, 2.4))
        assert r.omitted.tolist() == [False]
        assert r.estimate[0] == pytest.approx(g0, abs=1e-6)

    def test_zero_slope_for_flat_model(self):
        a, b, w = mub_hovm(0.0)
        table = expected_counts(*setting_probs(*EQUATOR, a, b), 1000)
        r = lep_estimate(table, Target.POLAR, 0.0, w, (0.5, 2.5))
        assert r.omitted.tolist() == [True]

    def test_parity_mean_closed_form(self):
        # <O>_g = [1 + lam (cos t + sin t cos p)] / 2 by direct summation
        lam = 0.7
        a, b, w = mub_hovm(lam)
        theta, phi = 1.1, 0.4
        table = expected_counts(*setting_probs(theta, phi, a, b), 10_000)
        expected = (1 + lam * (math.cos(theta) + math.sin(theta) * math.cos(phi))) / 2
        assert parity_mean(table)[0] == pytest.approx(expected, abs=1e-12)


class TestGoldenSection:
    def test_finds_parabola_peak(self):
        # the second bracket lies left of the peak: its maximum is its edge
        peaks = golden_section_maximize(lambda x: -(x - 0.7) ** 2,
                                        np.array([0.0, 0.2]),
                                        np.array([2.0, 0.5]), 1e-9)
        assert peaks[0] == pytest.approx(0.7, abs=1e-8)
        assert peaks[1] == pytest.approx(0.5, abs=1e-8)


class TestRunTrials:
    def test_deterministic(self):
        cfg = TrialConfig(1.2, 1.0, Target.POLAR, 0.85, 2000, 8, 99,
                          domain=(0.8, 1.6))
        s1 = run_trials(cfg)
        s2 = run_trials(cfg)
        assert s1 == s2

    def test_compatible_sharpness_has_no_advantage(self):
        cfg = TrialConfig(math.pi / 2, 0.0, Target.POLAR, 0.6, 5000, 10, 7,
                          domain=(1.2, 2.0))
        s = run_trials(cfg)
        assert s.advantage <= math.log10(0.5) + 1e-9
        assert s.mle.ratio <= 0.15

    def test_injection_reproduces_advantage(self):
        cfg = TrialConfig(math.pi / 2, 0.0, Target.POLAR, 0.9, 100_000, 2, 0,
                          domain=(1.2, 2.0), inject_expected=True)
        s = run_trials(cfg)
        assert s.mle.ratio == pytest.approx(s.advantage, abs=1e-3)
        assert s.mle.mean_estimate == pytest.approx(math.pi / 2, abs=1e-6)

    def test_all_trials_omitted_on_degenerate_cells(self):
        # at full sharpness two quasiprobability cells are exactly zero, so
        # the assembled counts in those cells are +-(fluctuation) and almost
        # every trial is dropped
        cfg = TrialConfig(math.pi / 2, 0.0, Target.POLAR, 1.0, 1000, 5, 3,
                          domain=(1.2, 2.0))
        with pytest.raises(AllTrialsOmitted):
            run_trials(cfg)

    def test_trials_floor(self):
        cfg = TrialConfig(1.2, 0.5, Target.POLAR, 0.85, 100, 1, 0)
        with pytest.raises(ValueError):
            run_trials(cfg)

    @pytest.mark.parametrize("n", [0, -3, 2**63])
    @pytest.mark.parametrize("inject", [False, True])
    def test_sample_size_floor_before_any_computation(self, monkeypatch,
                                                      n, inject):
        def no_work(*args):
            raise AssertionError("computed before n was checked")

        monkeypatch.setattr(estimation, "mutually_unbiased_pair", no_work)
        cfg = TrialConfig(1.0, 2.3, Target.POLAR, 0.9, n, 3, 0,
                          domain=(0.7, 1.3), inject_expected=inject)
        # multinomial draws count in int64
        want = "n must be positive" if n < 1 else "n must be at most"
        with pytest.raises(ValueError, match=want):
            run_trials(cfg)

    def test_probe_point_and_target_checked(self):
        with pytest.raises(ParamOutOfRange, match="phi="):
            run_trials(TrialConfig(1.0, 2 * math.pi, Target.POLAR, 0.9,
                                   100, 3, 0))
        with pytest.raises(ParamOutOfRange, match="Target"):
            run_trials(TrialConfig(1.0, 2.3, "theta", 0.9, 100, 3, 0))

    def test_polar_domain_checked_before_sampling(self, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("sampled before the domain was checked")

        monkeypatch.setattr(estimation, "draw_counts", no_sampling)
        cfg = TrialConfig(0.05, 0.5, Target.POLAR, 0.9, 2000, 4, 0,
                          domain=(-0.5, 1.5))
        with pytest.raises(ParamOutOfRange, match="theta=-0.5"):
            run_trials(cfg)
        # a domain too narrow for a grid is refused before sampling too
        cfg = TrialConfig(1.2, 1.0, Target.POLAR, 0.85, 2000, 4, 0,
                          domain=(1.2, 1.2004))
        with pytest.raises(ValueError, match="narrower than half the grid step"):
            run_trials(cfg)

    @pytest.mark.parametrize("domain", [
        (0.0, 1e6), (-math.inf, 1.0), (0.0, math.nan),
        (0.0, 2 * math.pi + 1e-9),
    ], ids=["wide", "infinite", "nan", "just-over-a-period"])
    def test_azimuthal_domain_checked_before_any_grid(self, monkeypatch,
                                                      domain):
        def no_grid(*args):
            raise AssertionError("built a grid before the domain was checked")

        monkeypatch.setattr(estimation, "_grid", no_grid)
        monkeypatch.setattr(estimation, "draw_counts", no_grid)
        cfg = TrialConfig(1.2, 1.0, Target.AZIMUTHAL, 0.85, 2000, 4, 0,
                          domain=domain)
        with pytest.raises(ParamOutOfRange, match="phi domain"):
            run_trials(cfg)

    @pytest.mark.parametrize("trials,inject", [(2, False), (9, False),
                                               (40, False), (5, True)])
    def test_sequential_measurement_built_once_per_run(self, monkeypatch,
                                                       trials, inject):
        calls = []
        build = estimation.sequential_povm

        def counted(a, b):
            calls.append((a, b))
            return build(a, b)

        monkeypatch.setattr(estimation, "sequential_povm", counted)
        cfg = TrialConfig(1.2, 1.0, Target.POLAR, 0.85, 2000, trials, 99,
                          domain=(0.8, 1.6), inject_expected=inject)
        run_trials(cfg)
        assert len(calls) == 1
