import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import cells, mub_hovm, probe, setting_probs
import oqmetro.oq
from oqmetro import estimation
from oqmetro.errors import AllTrialsOmitted, ParamOutOfRange
from oqmetro.estimation import (
    FLAT,
    GRID_STEP,
    KEPT,
    NEGATIVE,
    NO_SLOPE,
    PROB_CLAMP,
    CountTable,
    TrialConfig,
    assemble_w_counts,
    draw_counts,
    estimate_tables,
    expected_counts,
    golden_section_maximize,
    parity_mean,
    run_trials,
)
from oqmetro.fisher import oqfi
from oqmetro.oq import BLOCK_POINTS, oq_values, row_blocks
from oqmetro.probe import Target, amplitudes

EQUATOR = (math.pi / 2, 0.0)


def sample(point, a, b, n, seed, trials=1):
    """A stack of tables drawn at a probe point from one integer seed."""
    return draw_counts(*setting_probs(*point, a, b), n, seed, trials)


def mle(*args):
    return estimate_tables(*args)[0]


def lep(*args):
    return estimate_tables(*args)[1]


def flat_table():
    """One table of uniform counts, which a lambda=0 model fits everywhere."""
    return CountTable(
        1000, np.array([[500, 500]]), np.array([[[250, 250], [250, 250]]]),
        np.full((1, 2, 2), 250.0),
    )


def assert_seeds_numpys(words, sequences):
    """The (tables, 2, 8) seeding words are ``generate_state(8)`` of each
    table's two ``SeedSequence``s, and seed ``PCG64`` with their states."""
    np.random.bit_generator.ISeedSequence.register(estimation._Words)
    assert words.dtype == np.uint32
    np.testing.assert_array_equal(
        words, [[ss.generate_state(8) for ss in pair] for pair in sequences])
    assert [[np.random.PCG64(estimation._Words(w)).state for w in pair]
            for pair in words] == [[np.random.PCG64(ss).state for ss in pair]
                                   for pair in sequences]


class TestSampling:
    def test_deterministic_given_seed(self):
        a, b, _ = mub_hovm(0.7)
        t1 = sample(EQUATOR, a, b, 5000, 42)
        t2 = sample(EQUATOR, a, b, 5000, 42)
        np.testing.assert_array_equal(t1.counts_b, t2.counts_b)
        np.testing.assert_array_equal(t1.counts_seq, t2.counts_seq)
        np.testing.assert_array_equal(t1.counts_w, t2.counts_w)

    def test_different_seeds_differ(self):
        a, b, _ = mub_hovm(0.7)
        t = sample(EQUATOR, a, b, 5000, 1, trials=2)
        assert not np.array_equal(t.counts_seq[0], t.counts_seq[1])

    def test_zero_sharpness_uniform_within_binomial_bands(self):
        a, b, _ = mub_hovm(0.0)
        n = 10_000
        t = sample((1.1, 0.4), a, b, n, 3)
        sigma_b = math.sqrt(n * 0.25)
        assert abs(t.counts_b[0, 0] - n / 2) <= 4 * sigma_b
        sigma_seq = math.sqrt(n * 0.25 * 0.75)
        for c in t.counts_seq.ravel():
            assert abs(c - n / 4) <= 4 * sigma_seq

    def test_sharp_measurement_concentrates(self):
        a, b, _ = mub_hovm(1.0)
        t = sample(EQUATOR, a, b, 2000, 11)
        # probe is the +x eigenstate, B is the sharp x measurement
        assert tuple(t.counts_b[0]) == (2000, 0)

    def test_w_counts_sum_exactly(self):
        a, b, _ = mub_hovm(0.85)
        t = sample(EQUATOR, a, b, 999, 0, trials=20)
        assert all(cw.sum() == t.n for cw in t.counts_w)

    def test_expectation_consistency(self):
        lam = 0.8
        a, b, w = mub_hovm(lam)
        theta, phi = 1.9, 0.6
        truth = oq_values(w, amplitudes(theta, phi))
        n, trials = 200, 10_000
        acc = draw_counts(*setting_probs(theta, phi, a, b), n, 2718,
                          trials).counts_w / n
        mean = acc.mean(axis=0)
        se = acc.std(axis=0, ddof=1) / math.sqrt(trials)
        assert np.all(np.abs(mean - truth) <= 4 * se + 1e-12)

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 - 1,
                                      2**130 + 3, 2**200 + 7])
    def test_derived_states_are_numpys(self, seed):
        # 2**130 + 3 and 2**200 + 7 have five and seven entropy words, so
        # one and three are mixed in after the pool is full; a numpy release
        # that changes SeedSequence fails here
        words = estimation._run_words(seed)
        want = [child.spawn(2) for child in np.random.SeedSequence(seed).spawn(3)]
        assert_seeds_numpys(estimation._state_words(words, 0, 3), want)
        # the last trial index that fits one spawn-key word
        last = 2**32 - 1
        want = [[np.random.SeedSequence(seed, spawn_key=(last, j))
                 for j in range(2)]]
        assert_seeds_numpys(estimation._state_words(words, last, last + 1), want)

    @pytest.mark.parametrize("p", [0.0, 1e-12, 0.5, 1 - 1e-12, 1.0])
    @pytest.mark.parametrize("n", [0, 1, 2, 29, 31, 1000, 10**6, 10**9])
    def test_binomial_draws_what_multinomial_draws_for_two_outcomes(self, p, n):
        # draw_counts draws B's first count as binomial(n, p[0]): from the
        # same state it is multinomial(n, p)[0], and leaves the same state
        np.random.bit_generator.ISeedSequence.register(estimation._Words)
        for words, _ in estimation._state_words(estimation._run_words(5), 0, 4):
            draws = []
            for draw in (lambda rng: rng.binomial(n, p),
                         lambda rng: rng.multinomial(n, [p, 1 - p])[0]):
                bitgen = np.random.PCG64(estimation._Words(words))
                draws.append((int(draw(np.random.Generator(bitgen))),
                              bitgen.state))
            assert draws[0] == draws[1]

    def test_draws_match_numpys_across_a_block_boundary(self):
        a, b, _ = mub_hovm(0.8)
        p_b, p_seq = setting_probs(1.9, 0.6, a, b)
        trials = 2 * BLOCK_POINTS + 3
        t = draw_counts(p_b, p_seq, 700, 31, trials)
        children = np.random.SeedSequence(31).spawn(trials)
        for k in (0, BLOCK_POINTS - 1, BLOCK_POINTS, trials - 1):
            ss_b, ss_seq = children[k].spawn(2)
            np.testing.assert_array_equal(
                t.counts_b[k], np.random.default_rng(ss_b).multinomial(700, p_b))
            np.testing.assert_array_equal(
                t.counts_seq[k].ravel(),
                np.random.default_rng(ss_seq).multinomial(700, p_seq))

    @pytest.mark.parametrize("seed", [7, 2**32 + 7, 2**130 + 3],
                             ids=["1-word", "2-word", "5-word"])
    def test_derived_states_across_the_first_draw_block_cut(self, seed):
        # draw_counts derives words per row_blocks(trials, 1) block, whose
        # first cut is at table 4,096
        assert row_blocks(4098, 1)[0] == slice(0, 4096)
        words = estimation._run_words(seed)
        want = [child.spawn(2)
                for child in np.random.SeedSequence(seed).spawn(4098)[4094:]]
        assert_seeds_numpys(estimation._state_words(words, 4094, 4098), want)

    def test_draws_match_numpys_at_the_first_block_cut(self):
        a, b, _ = mub_hovm(0.8)
        p_b, p_seq = setting_probs(1.9, 0.6, a, b)
        trials = BLOCK_POINTS + 1
        t = draw_counts(p_b, p_seq, 700, 31, trials)
        children = np.random.SeedSequence(31).spawn(trials)
        for k in (BLOCK_POINTS - 1, BLOCK_POINTS):
            ss_b, ss_seq = children[k].spawn(2)
            np.testing.assert_array_equal(
                t.counts_b[k], np.random.default_rng(ss_b).multinomial(700, p_b))
            np.testing.assert_array_equal(
                t.counts_seq[k].ravel(),
                np.random.default_rng(ss_seq).multinomial(700, p_seq))

    @pytest.mark.parametrize("seed", [31, 2**130 + 3], ids=["1-word", "5-word"])
    def test_one_seed_sequence_per_run(self, monkeypatch, seed):
        # numpy mixes the run's entropy into one SeedSequence; per block of
        # tables only the arrays of k, then of j, are mixed into the pool
        built, mixes = [], []
        seed_sequence, mixed = np.random.SeedSequence, estimation._mixed

        def counted_sequence(*args, **kwargs):
            built.append(args)
            return seed_sequence(*args, **kwargs)

        def counted_mix(x, y):
            mixes.append(np.ndim(y))
            return mixed(x, y)

        monkeypatch.setattr(np.random, "SeedSequence", counted_sequence)
        monkeypatch.setattr(estimation, "_mixed", counted_mix)
        a, b, _ = mub_hovm(0.8)
        draw_counts(*setting_probs(1.9, 0.6, a, b), 50, seed,
                    2 * BLOCK_POINTS + 3)
        assert built == [(seed,)]
        assert mixes == [2, 2] * 3

    def test_seed_must_be_an_integer(self):
        # SeedSequence(None) would seed from fresh OS entropy
        a, b, _ = mub_hovm(0.8)
        with pytest.raises(TypeError):
            draw_counts(*setting_probs(1.9, 0.6, a, b), 50, None, 2)

    def test_expected_counts_clear_rounding_negatives(self):
        # at full sharpness two cells have probability zero, and assembling
        # the noiseless counts leaves them at about -1e-13
        a, b, _ = mub_hovm(1.0)
        probs = setting_probs(*EQUATOR, a, b)
        assert (assemble_w_counts(2000 * probs[0], 2000 * probs[1].reshape(2, 2))
                < 0).any()
        assert expected_counts(*probs, 2000).negative.tolist() == [False]


class TestCountTable:
    def test_one_table_without_trial_axis_is_refused(self):
        with pytest.raises(ValueError, match="stack of tables"):
            CountTable(1000, np.array([500, 500]),
                       np.array([[250, 250], [250, 250]]),
                       np.full((2, 2), 250.0))

    # the second of two tables is off: every table of a stack is checked
    @pytest.mark.parametrize("counts_b, counts_seq", [
        ([[500, 500], [500, 499]], [[[250, 250], [250, 250]]] * 2),
        ([[500, 500]] * 2, [[[250, 250], [250, 250]], [[250, 250], [250, 251]]]),
    ], ids=["one-setting", "sequential"])
    def test_setting_counts_off_n_are_refused(self, counts_b, counts_seq):
        with pytest.raises(ValueError, match="setting counts must each sum to n"):
            CountTable(1000, np.array(counts_b), np.array(counts_seq),
                       np.full((2, 2, 2), 250.0))

    def test_w_counts_off_n_are_refused(self):
        counts_w = np.full((2, 2, 2), 250.0)
        counts_w[1, 1, 1] = 250.5
        with pytest.raises(ValueError, match="assembled W-counts must sum to n"):
            CountTable(1000, np.full((2, 2), 500), np.full((2, 2, 2), 250),
                       counts_w)


def stack(parts, n):
    """One stack of the tables given as (counts_b, counts_seq) stacks."""
    counts_b = np.concatenate([b for b, _ in parts]).astype(float)
    counts_seq = np.concatenate([seq for _, seq in parts]).astype(float)
    return CountTable(n, counts_b, counts_seq,
                      assemble_w_counts(counts_b, counts_seq))


class TestEstimateTables:
    def test_negative_table_is_marked_and_the_others_unchanged(self):
        a, b, w = mub_hovm(0.5)
        parts = [(t.counts_b, t.counts_seq) for t in (
            expected_counts(*setting_probs(g, 0.0, a, b), 100)
            for g in (0.9, 1.4, 2.1))]
        # B never reads 0 yet the sequential setting does: W(1, 0) < 0
        negative = (np.array([[0, 100]]), np.array([[[50, 50], [0, 0]]]))
        mixed = stack(parts[:1] + [negative] + parts[1:], 100)
        assert mixed.negative.tolist() == [False, True, False, False]
        args = (Target.POLAR, 0.0, w, (0.5, 2.5))
        others = [0, 2, 3]
        for got, want in zip(estimate_tables(mixed, *args),
                             estimate_tables(stack(parts, 100), *args)):
            assert got.cause[1] == NEGATIVE
            for field in ("estimate", "observed_fi", "variance_estimate", "cause"):
                np.testing.assert_array_equal(getattr(got, field)[others],
                                              getattr(want, field))

    def test_each_table_refines_alone_as_inside_a_stack(self):
        """Every entry of a table's MLE and LEP ``TrialResult`` has the same
        bits whether the table is refined alone or in a 9-table stack, which
        crosses one 8-row block of the 501-point scan.  The one-table runs
        also pin the reduction rule: a paired einsum adds a single table's 4
        cells as (x0 + x2) + (x1 + x3), not in order as a stack's."""
        # the benchmark's headline estimate
        theta0, phi0, lam = 1.0131710069701012, 2.3038346126325147, 0.9
        domain = (0.7631710069701012, 1.2631710069701012)
        a, b, w = mub_hovm(lam)
        tables = draw_counts(*setting_probs(theta0, phi0, a, b), 100_000,
                             20260823, 9)
        args = (Target.POLAR, phi0, w, domain)
        assert len(estimation._grid(domain, GRID_STEP)) == 501
        assert len(oqmetro.oq.row_blocks(9, 501)) == 2
        stacked = estimate_tables(tables, *args)
        assert (stacked[0].cause == KEPT).sum() >= 5
        for k in range(9):
            alone = estimate_tables(stack([(tables.counts_b[k:k + 1],
                                            tables.counts_seq[k:k + 1])],
                                          tables.n), *args)
            for got, want in zip(alone, stacked):
                for field in ("estimate", "observed_fi",
                              "variance_estimate", "cause"):
                    bits = getattr(got, field).view(np.int64)[0]
                    assert bits == getattr(want, field).view(np.int64)[k], (k, field)

    def test_first_maximum_wins_ties(self):
        """At theta = 0 the probe does not depend on phi, so every grid
        point of a phi scan has the same cells, bit for bit, and both scans
        tie everywhere: each keeps the first grid point, whose bracket is
        [gs[0], gs[1]].  (lambda = 0 is not exactly flat: its cells vary in
        the last bits.)"""
        a, b, w = mub_hovm(0.9)
        domain = (0.5, 2.5)
        gs = estimation._grid(domain, GRID_STEP)
        vals = oq_values(w, amplitudes(0.0, gs))
        assert (vals.view(np.int64) == vals[..., :1].view(np.int64)).all()
        tables = draw_counts(*setting_probs(0.0, 0.0, a, b), 1000, 5, 3)
        assert not tables.negative.any()
        for result, cause in zip(
                estimate_tables(tables, Target.AZIMUTHAL, 0.0, w, domain),
                (FLAT, NO_SLOPE)):
            assert ((gs[0] <= result.estimate)
                    & (result.estimate <= gs[1])).all(), result.estimate
            assert result.cause.tolist() == [cause] * 3


def elementwise_scan(cw, log_cells, n):
    """The grid scan's sum written out: each row's products added in place,
    row after row, from +0.0 as a reduction starts (which turns only the
    -0.0 of a table of zero counts, a table no n >= 1 draws, into +0.0)."""
    c = cw[:, :, None]
    ll = np.zeros((cw.shape[1], log_cells.shape[1]))
    for k in range(4):
        ll += c[k] * log_cells[k]
    ll /= n
    return ll


class TestScan:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(tables=st.integers(1, 8), points=st.integers(2, 5000),
           seed=st.integers(0, 2**32 - 1), half=st.booleans(),
           zero=st.sampled_from([None, "table", 0, 1, 2, 3]),
           clamped=st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    @example(tables=1, points=501, seed=0, half=True, zero=None, clamped=0.1)
    @example(tables=1, points=2, seed=1, half=False, zero=2, clamped=1.0)
    @example(tables=8, points=5000, seed=2, half=True, zero="table", clamped=0.5)
    def test_scan_is_the_elementwise_sum_bit_for_bit(self, tables, points, seed,
                                                     half, zero, clamped):
        """``_scan_loglik`` against the in-place elementwise sum, bit for
        bit: one or more tables, integer and half-integer counts (W-counts
        are halves), a zero row of counts (one cell) or a table of zero
        counts, and log-cells at the clamp ``log(PROB_CLAMP)`` and at 0."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 10**6))
        # the scan reads a block of columns of the stack's count rows
        rows = rng.integers(0, n + 1, (4, tables + 3)).astype(float)
        if half:
            rows += rng.integers(0, 2, rows.shape) / 2
        cw = rows[:, 1:tables + 1]
        if zero == "table":
            cw[:, 0] = 0.0
        elif zero is not None:
            cw[zero] = 0.0
        vals = rng.random((4, points)) ** rng.uniform(1, 40)
        vals[rng.random(vals.shape) < clamped] = 0.0
        vals[:, 0] = 1.0
        log_cells = np.log(np.maximum(vals, PROB_CLAMP))
        got = estimation._scan_loglik(cw, log_cells, n)
        want = elementwise_scan(cw, log_cells, n)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestMle:
    def test_recovers_truth_from_expected_counts(self):
        a, b, w = mub_hovm(0.9)
        g0 = 1.2345
        table = expected_counts(*setting_probs(g0, 1.2, a, b), 10_000)
        r = mle(table, Target.POLAR, 1.2, w, (0.5, 2.0))
        assert r.omitted.tolist() == [False]
        assert r.estimate[0] == pytest.approx(g0, abs=1e-6)

    def test_observed_fi_matches_oqfi_on_expected_counts(self):
        lam = 0.9
        a, b, w = mub_hovm(lam)
        g0 = math.pi / 2
        table = expected_counts(*setting_probs(g0, 0.0, a, b), 10_000)
        r = mle(table, Target.POLAR, 0.0, w, (1.0, 2.0))
        truth = oqfi(*cells(w, *probe(g0, 0.0)))
        assert r.observed_fi[0] == pytest.approx(truth, rel=1e-3)

    def test_flat_likelihood_is_omitted(self):
        _, _, w = mub_hovm(0.0)
        r = mle(flat_table(), Target.POLAR, 0.0, w, (0.5, 2.5))
        assert r.omitted.tolist() == [True]

    def test_rmse_shrinks_with_sample_size(self):
        lam = 0.9
        a, b, w = mub_hovm(lam)
        g0 = 1.9
        probs = setting_probs(g0, 1.0, a, b)
        rmse = []
        for n in (10**3, 10**4, 10**5):
            t = draw_counts(*probs, n, n, 40)
            r = mle(t, Target.POLAR, 1.0, w, (1.5, 2.3))
            np.testing.assert_array_equal(
                r.cause, np.where(t.negative, NEGATIVE, KEPT))
            done = r.estimate[~r.omitted]
            rmse.append(float(np.sqrt(np.mean(np.square(done - g0)))))
        assert rmse[0] > rmse[1] > rmse[2]


class TestLep:
    def test_exact_inversion_of_expected_counts(self):
        a, b, w = mub_hovm(0.9)
        g0 = 1.9
        table = expected_counts(*setting_probs(g0, 0.6, a, b), 10_000)
        r = lep(table, Target.POLAR, 0.6, w, (1.4, 2.4))
        assert r.omitted.tolist() == [False]
        assert r.estimate[0] == pytest.approx(g0, abs=1e-6)

    def test_zero_slope_for_flat_model(self):
        a, b, w = mub_hovm(0.0)
        table = expected_counts(*setting_probs(*EQUATOR, a, b), 1000)
        r = lep(table, Target.POLAR, 0.0, w, (0.5, 2.5))
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


    def test_brackets_of_unequal_widths_match_one_bracket_runs(self):
        # the widest bracket keeps refining after the others have stopped,
        # so the stack takes the all-active steps and then the masked ones
        def f(x):
            return -np.square(x - 0.7) + 0.1 * np.sin(3 * x)

        lo = np.array([0.0, 0.2, 0.69, 0.6999, 0.5])
        hi = np.array([2.0, 0.5, 0.71, 0.7, 0.9])
        stacked = golden_section_maximize(f, lo, hi, 1e-8)
        for k in range(len(lo)):
            alone = golden_section_maximize(f, lo[k:k + 1], hi[k:k + 1], 1e-8)
            assert stacked[k] == alone[0]


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

    @pytest.mark.parametrize("n,seed,why", [
        (100, 6, "mle: fewer than 2 trials completed (3 negative W-counts)"),
        (30, 8, "lep: fewer than 2 trials completed "
                "(2 negative W-counts, 2 no positive predicted variance)"),
    ], ids=["one-completed", "two-causes"])
    def test_omissions_counted_per_cause(self, n, seed, why):
        # full sharpness at the equator: the refusal counts the omitted
        # trials of each cause, and not the completed one
        cfg = TrialConfig(math.pi / 2, 0.0, Target.POLAR, 1.0, n, 4, seed,
                          domain=(1.2, 2.0))
        with pytest.raises(AllTrialsOmitted) as refused:
            run_trials(cfg)
        assert str(refused.value) == why

    def test_trials_floor(self):
        cfg = TrialConfig(1.2, 0.5, Target.POLAR, 0.85, 100, 1, 0)
        with pytest.raises(ValueError):
            run_trials(cfg)

    def test_trial_index_fits_one_word(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("computed before trials were checked")

        monkeypatch.setattr(estimation, "mutually_unbiased_pair", no_work)
        monkeypatch.setattr(estimation, "draw_counts", no_work)
        cfg = TrialConfig(1.2, 1.0, Target.POLAR, 0.85, 2000, 2**32, 0,
                          domain=(0.8, 1.6))
        with pytest.raises(ValueError, match="at most 2\\*\\*32 - 1 trials"):
            run_trials(cfg)

    @pytest.mark.parametrize("seed,error", [(-1, ValueError), (1.5, TypeError)])
    def test_seed_refused_as_seed_sequence_refuses(self, seed, error):
        with pytest.raises(error):
            np.random.SeedSequence(seed)
        cfg = TrialConfig(1.2, 1.0, Target.POLAR, 0.85, 2000, 4, seed,
                          domain=(0.8, 1.6))
        with pytest.raises(error):
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

    @pytest.mark.parametrize("trials,inject", [(200, False), (7, True)])
    def test_one_kernel_call_per_stage_for_both_estimators(self, monkeypatch,
                                                           trials, inject):
        points, slope_points, steps = [], [], []
        values, slopes = estimation.oq_values, estimation.oq_slopes
        refine = estimation.golden_section_maximize

        def counted(w, psi, dpsi=None):
            (points if dpsi is None else slope_points).append(psi.size // 2)
            return values(w, psi) if dpsi is None else slopes(w, psi, dpsi)

        def counted_refine(f, lo, hi, tol):
            def step(x):
                steps.append(len(x))
                return f(x)
            return refine(step, lo, hi, tol)

        # the kernel, oq_values and oq_slopes, under estimation's names
        monkeypatch.setattr(estimation, "oq_values", counted)
        monkeypatch.setattr(estimation, "oq_slopes", counted)
        monkeypatch.setattr(estimation, "golden_section_maximize", counted_refine)
        # the benchmark's headline run: a 501-point grid
        cfg = TrialConfig(1.0131710069701012, 2.3038346126325147, Target.POLAR,
                          0.9, 100_000, trials, 20260823,
                          domain=(0.7631710069701012, 1.2631710069701012),
                          inject_expected=inject)
        run_trials(cfg)
        kept = steps[0] // 2
        # the headline point, the grid, the two first golden-section points
        # and 26 steps over both estimators' brackets, the curvature's three
        # points and the LEP's finish
        assert points == [1, 501] + steps + [3 * kept, kept]
        assert steps == [2 * kept] * 28
        assert len(points) == 32
        # slopes at the headline point and at the LEP's finish
        assert slope_points == [1, kept]

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
