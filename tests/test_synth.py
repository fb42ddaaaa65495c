import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracsig import fracdyn, synth


class TestFgn:
    def test_deterministic(self):
        a = synth.synth_fgn(0.7, 1024, 3)
        b = synth.synth_fgn(0.7, 1024, 3)
        np.testing.assert_array_equal(a, b)

    def test_unit_variance(self):
        x = synth.synth_fgn(0.7, 1 << 15, 0)
        assert abs(x.std() - 1.0) < 0.1

    def test_half_is_white(self):
        # H = 1/2 makes increments uncorrelated
        x = synth.synth_fgn(0.5, 1 << 14, 1)
        r1 = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert abs(r1) < 0.05

    def test_positive_lag1_for_large_h(self):
        x = synth.synth_fgn(0.9, 1 << 14, 1)
        r1 = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert r1 > 0.2

    def test_rejects_bad_h(self):
        with pytest.raises(ValueError):
            synth.synth_fgn(1.0, 1024, 0)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            synth.synth_fgn(0.5, 1000, 0)


class TestCascade:
    def test_mass_one_and_nonnegative(self):
        x = synth.synth_cascade(0.7, 12)
        assert np.isclose(x.sum(), 1.0)
        assert np.all(x >= 0)
        assert x.size == 1 << 12

    def test_deterministic_by_default(self):
        a = synth.synth_cascade(0.6, 10, 0)
        b = synth.synth_cascade(0.6, 10, 99)
        np.testing.assert_array_equal(a, b)

    def test_shuffle_changes_arrangement_not_mass(self):
        a = synth.synth_cascade(0.7, 10, 1, shuffle=True)
        b = synth.synth_cascade(0.7, 10, 2, shuffle=True)
        assert not np.array_equal(a, b)
        np.testing.assert_allclose(sorted(a), sorted(b))

    def test_analytic_exponent_limits(self):
        # h(q) = 1/q - log2(p^q + (1-p)^q)/q; at p = 1/2 + eps near monofractal
        q = np.array([-2.0, 1.0, 2.0])
        h = synth.cascade_hurst_exponent(0.51, q)
        assert np.all(np.abs(h - h[0]) < 0.01)

    def test_analytic_hand_value(self):
        # q = 1: h(1) = 1 - log2(1) = 1 exactly for any p
        assert np.isclose(synth.cascade_hurst_exponent(0.75, [1.0])[0], 1.0)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            synth.synth_cascade(0.4, 12)


class TestFracNoise:
    def test_difference_is_white(self):
        # applying the forward difference recovers the seeded noise
        alpha = 0.4
        x = synth.synth_frac_noise(alpha, 4096, 5)
        w = fracdyn.frac_difference(x, alpha, None)
        expected = np.random.default_rng(5).standard_normal(4096)
        np.testing.assert_allclose(w, expected, atol=1e-9)


class TestStableModels:
    def test_companion_radius_below_one(self):
        for seed in range(5):
            model = synth.random_stable_model(6, seed)
            rho = synth.companion_spectral_radius(model.alpha, model.A)
            assert rho < 0.999

    def test_alpha_range(self):
        model = synth.random_stable_model(10, 0, alpha_range=(0.2, 0.6))
        assert np.all((model.alpha > 0.2) & (model.alpha < 0.6))

    def test_zero_channels_rejected(self):
        with pytest.raises(ValueError, match="n=0"):
            synth.random_stable_model(0, 0)

    def test_companion_radius_flags_unstable(self):
        rho = synth.companion_spectral_radius([0.5], np.array([[1.5]]))
        assert rho > 1.0

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_simulation_never_diverges(self, seed):
        model = synth.random_stable_model(4, seed, noise_scale=1.0)
        X = fracdyn.simulate(model, 1500, seed=seed)
        assert np.all(np.isfinite(X))


def _counting(monkeypatch, name):
    """Replace ``synth.<name>`` by a wrapper that counts its calls."""
    calls = []
    original = getattr(synth, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(synth, name, counted)
    return calls


def _coupling(seed, n, spectral_radius, diag_shift):
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((n, n)) / np.sqrt(n)
    R *= spectral_radius / np.max(np.abs(np.linalg.eigvals(R)))
    return rng.uniform(0.2, 0.6, size=n), R, diag_shift * np.eye(n)


class TestWindingCheck:
    """companion_radius_at_least against the dense companion eigenvalues."""

    @settings(max_examples=16, deadline=None)
    @given(
        n=st.integers(1, 12),
        limit=st.sampled_from([0.98, 0.999]),
        sign=st.sampled_from([1.0, -1.0]),
        spectral_radius=st.floats(0.05, 1.2),
        diag_shift=st.floats(0.3, 1.0),
        seed=st.integers(0, 10_000),
    )
    def test_agrees_with_dense_radius(self, n, limit, sign, spectral_radius, diag_shift, seed):
        alpha, R, shift = _coupling(seed, n, spectral_radius, diag_shift)
        A = sign * R - shift
        expected = synth.companion_spectral_radius(alpha, A) >= limit
        assert synth.companion_radius_at_least(alpha, A, limit) == expected

    @pytest.mark.parametrize("limit", [0.98, 0.999])
    @pytest.mark.parametrize("n", [2, 4])
    def test_radius_at_the_limit_falls_back(self, monkeypatch, n, limit):
        alpha, R, shift = _coupling(n, n, 0.5, 0.8)

        def radius(t):
            return synth.companion_spectral_radius(alpha, t * R - shift)

        (lo, r_lo), (hi, r_hi) = (0.0, radius(0.0)), (1.0, radius(1.0))
        while r_hi < limit:
            hi *= 2.0
            r_hi = radius(hi)
        # bisect until the radii on both sides sit within 1e-6 of the limit
        for _ in range(60):
            if r_hi - limit <= 1e-6 and limit - r_lo <= 1e-6:
                break
            mid = 0.5 * (lo + hi)
            r_mid = radius(mid)
            if r_mid < limit:
                lo, r_lo = mid, r_mid
            else:
                hi, r_hi = mid, r_mid
        assert limit - 1e-6 <= r_lo < limit <= r_hi <= limit + 1e-6
        dense = _counting(monkeypatch, "companion_spectral_radius")
        for t, expected in ((lo, False), (hi, True)):
            before = len(dense)
            assert synth.companion_radius_at_least(alpha, t * R - shift, limit) is expected
            assert len(dense) == before + 1, "a zero near the contour must take the fallback"

    def test_cohort_draw_rarely_falls_back(self, monkeypatch):
        dense = _counting(monkeypatch, "companion_spectral_radius")
        checks = _counting(monkeypatch, "companion_radius_at_least")
        synth.synth_stage_cohort(5, 12, seed=1, n_samples=200)
        assert len(checks) >= 10  # two signs for each of the five stages
        assert len(dense) <= 1

    def test_unreachable_limit_fails_fast(self, monkeypatch):
        checks = _counting(monkeypatch, "companion_radius_at_least")
        with pytest.raises(ValueError, match=r"diag_shift=3 .*limit=0\.999"):
            synth.random_stable_model(2, 0, diag_shift=3.0)
        assert len(checks) <= 20


class TestStageCohort:
    def test_layout(self):
        cohort = synth.synth_stage_cohort(n_records=20, n_channels=4, seed=0, n_samples=1200)
        assert len(cohort) == 20
        stages = [r.stage_label for r in cohort]
        assert sorted(set(stages)) == [0, 1, 2, 3, 4]
        assert stages.count(0) == 4
        institutions = {r.institution for r in cohort}
        assert len(institutions) == 4
        assert all(r.n_channels == 4 for r in cohort)
        assert all(r.n_samples == 1200 for r in cohort)

    @pytest.mark.parametrize("n_records", [0, -5])
    def test_no_records_rejected_before_any_draw(self, monkeypatch, n_records):
        checks = _counting(monkeypatch, "companion_radius_at_least")
        with pytest.raises(ValueError, match=f"n_records={n_records}"):
            synth.synth_stage_cohort(n_records, 4, seed=0)
        assert checks == []

    def test_deterministic(self):
        a = synth.synth_stage_cohort(n_records=5, n_channels=3, seed=1, n_samples=1200)
        b = synth.synth_stage_cohort(n_records=5, n_channels=3, seed=1, n_samples=1200)
        np.testing.assert_array_equal(a[3].channels, b[3].channels)

    @pytest.mark.parametrize("jitter, seed", [(synth._COHORT_JITTER, 3), (0.5, 0), (0.5, 2)])
    def test_batch_matches_record_by_record_loop(self, monkeypatch, jitter, seed):
        # a jitter of 0.5 sends some draws unstable, so the redraw path runs
        monkeypatch.setattr(synth, "_COHORT_JITTER", jitter)
        cohort = synth.synth_stage_cohort(10, 4, seed, n_samples=400)
        expected, redraws = _sequential_cohort(10, 4, seed, 400, jitter)
        assert (redraws > 0) == (jitter == 0.5)
        assert [r.subject_id for r in cohort] == [f"rec{r:03d}" for r in range(10)]
        for record, (X, stage, site) in zip(cohort, expected, strict=True):
            np.testing.assert_array_equal(record.channels, X)
            assert (record.stage_label, record.institution) == (stage, site)

    def test_record_that_diverges_on_20_tries_raises(self, monkeypatch):
        monkeypatch.setattr(synth, "_COHORT_JITTER", 50.0)
        runs = []
        simulate_rows = fracdyn._simulate_rows

        def recorded(*args, **kwargs):
            runs.append(simulate_rows(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(fracdyn, "_simulate_rows", recorded)
        with pytest.raises(fracdyn.NumericalError, match="could not draw a stable jittered model"):
            synth.synth_stage_cohort(10, 4, 0, n_samples=400)
        assert [row for row, _ in runs] == [0] * 20  # record 0, tried 20 times

    @pytest.mark.parametrize("batch", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 2])
    def test_small_batches_match_record_by_record_loop(self, monkeypatch, seed, batch):
        # batches of 1-3 records put the redraws of a jitter of 0.5 on the
        # first row of a batch and on later rows
        monkeypatch.setattr(synth, "_COHORT_JITTER", 0.5)
        monkeypatch.setattr(synth, "_COHORT_BATCH_BYTES", batch * 8 * 4 * 400)
        runs = _recording_runs(monkeypatch)
        cohort = synth.synth_stage_cohort(10, 4, seed, n_samples=400)
        diverged_runs = sum(diverged is not None for _, diverged in runs)
        assert max(rows for rows, _ in runs) == batch
        expected, redraws = _sequential_cohort(10, 4, seed, 400, 0.5)
        assert redraws == diverged_runs > 0
        for record, (X, stage, site) in zip(cohort, expected, strict=True):
            np.testing.assert_array_equal(record.channels, X)
            assert (record.stage_label, record.institution) == (stage, site)

    def test_tries_restart_after_a_batch_that_runs(self, monkeypatch):
        # record 0 diverges once, then its batch of 2 runs; from then on
        # every run diverges at its first row, so record 2 gets 20 tries
        monkeypatch.setattr(synth, "_COHORT_BATCH_BYTES", 2 * 8 * 4 * 400)
        runs = _recording_runs(monkeypatch, lambda n, diverged: diverged if n == 2 else (0, 1))
        batches = synth._simulate_stage_cohort(6, 4, 0, 400)
        assert [record.subject_id for record in next(batches)] == ["rec000", "rec001"]
        with pytest.raises(fracdyn.NumericalError, match="could not draw a stable jittered model"):
            next(batches)
        assert len(runs) == 2 + 20
        assert runs[1] == (2, None)  # the batch of records 0 and 1 did run

    def test_stream_holds_one_batch_of_trajectories(self, monkeypatch):
        # batches of 3 records of 8 x 500 samples; the first batch makes the
        # stable draws and GL tables, then each next batch must be simulated
        # with the last one gone, as the command line drops each batch
        batch_bytes = 3 * 8 * 8 * 500
        monkeypatch.setattr(synth, "_COHORT_BATCH_BYTES", batch_bytes)
        batches = synth._simulate_stage_cohort(30, 8, 1, 500)
        next(batches)
        tracemalloc.start()
        try:
            for batch in batches:
                del batch
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * batch_bytes, f"peak of {peak / batch_bytes:.2f} batches"

    @pytest.mark.parametrize("n_records", [0, -1])
    def test_no_records_is_rejected_before_any_is_asked_for(self, n_records):
        message = f"need at least one record, got n_records={n_records}"
        with pytest.raises(ValueError, match=message):
            synth.synth_stage_cohort(n_records, 4, 0, n_samples=400)


def _recording_runs(monkeypatch, outcome=lambda n, diverged: diverged):
    """Record ``(rows, returned)`` per ``fracdyn._simulate_rows`` run, where
    run n (from 1) returns ``outcome(n, diverged)`` in place of its result."""
    runs = []
    simulate_rows = fracdyn._simulate_rows

    def recorded(*args, **kwargs):
        returned = outcome(len(runs) + 1, simulate_rows(*args, **kwargs))
        runs.append((len(args[3]), returned))
        return returned

    monkeypatch.setattr(fracdyn, "_simulate_rows", recorded)
    return runs


def _sequential_cohort(n_records, n, seed, n_samples, jitter):
    """Oracle: the cohort drawn and simulated one record at a time, with
    (matrix, stage, site) per record and the number of redraws."""
    rng = np.random.default_rng(seed)
    draws = [synth._draw_stable(rng, n, 0.5, 0.8, (0.2, 0.6), 0.98, (1, -1)) for _ in range(5)]
    shift = 0.8 * np.eye(n)
    out, redraws = [], 0
    for r in range(n_records):
        base, alpha = draws[r % 5]
        sign = 1.0 if rng.random() < 0.5 else -1.0
        for _ in range(20):
            R = sign * base + jitter * rng.standard_normal((n, n)) / np.sqrt(n)
            model = fracdyn.FractionalModel(alpha, R - shift, noise_scale=1.0)
            try:
                sim_seed = int(rng.integers(1 << 31))
                X = fracdyn.simulate(model, n_samples, seed=sim_seed)
                break
            except fracdyn.NumericalError:
                redraws += 1
        out.append((X, r % 5, ("site-a", "site-b", "site-c", "site-d")[r % 4]))
    return out, redraws


class TestViralCohort:
    def test_layout(self):
        cases = synth.synth_viral_cohort(6, 4, seed=0, side_samples=1500)
        assert len(cases) == 6
        assert sum(c.infected for c in cases) == 4
        assert all(c.channels.shape == (3, 3000) for c in cases)
        assert all(c.inoculation_index == 1500 for c in cases)

    @pytest.mark.parametrize(
        "n_subjects, n_infected, named",
        [(0, 0, "n_subjects=0"), (4, 9, "n_infected=9"), (4, -1, "n_infected=-1")],
    )
    def test_counts_checked(self, n_subjects, n_infected, named):
        with pytest.raises(ValueError, match=named):
            synth.synth_viral_cohort(n_subjects, n_infected, seed=0, side_samples=300)

    @pytest.mark.parametrize("side_samples", [0, -5])
    def test_no_side_samples_rejected_before_any_draw(self, monkeypatch, side_samples):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew before checking side_samples")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(ValueError, match=f"side_samples={side_samples}"):
            synth.synth_viral_cohort(4, 2, seed=0, side_samples=side_samples)

    @pytest.mark.parametrize("alpha_shift", [1e300, -1e300])
    def test_overflowing_order_names_the_subject(self, alpha_shift):
        # the infected subj00 integrates its later half at the shifted order
        with pytest.raises(ValueError, match=(
            f"^subject 'subj00': fractional integration of order {alpha_shift:g} "
            "over 300 samples overflows$"
        ).replace("+", r"\+")):
            synth.synth_viral_cohort(2, 1, seed=0, side_samples=300, alpha_shift=alpha_shift)

    def test_shift_moves_post_alpha(self):
        case = synth.synth_viral_cohort(1, 1, seed=2, side_samples=4096, alpha_shift=0.4)[0]
        pre = case.channels[0, :4096]
        post = case.channels[0, 4096:]
        a_pre, a_post = fracdyn.estimate_alphas(np.stack([pre, post]))
        assert a_post - a_pre > 0.2
