import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fracsig import mfdfa, synth


def plain_dfa(x, scales, order=1):
    """Reference DFA written as bare loops, used as an oracle.

    Returns the RMS fluctuation per scale of the profile of ``x``.
    """
    y = np.cumsum(np.asarray(x, float) - np.mean(x))
    out = []
    for s in scales:
        nw = len(y) // s
        sq = []
        for v in range(nw):
            seg = y[v * s : (v + 1) * s]
            t = np.arange(1, s + 1)
            coef = np.polyfit(t, seg, order)
            resid = seg - np.polyval(coef, t)
            sq.append(np.mean(resid**2))
        out.append(np.sqrt(np.mean(sq)))
    return np.array(out)


class TestScalingFunction:
    def test_q2_matches_plain_dfa(self):
        # independent-implementation agreement at q = 2
        rng = np.random.default_rng(1)
        scales = (16, 32, 64, 128)
        for _ in range(10):
            x = rng.standard_normal(1024)
            cfg = mfdfa.MfdfaConfig(q_grid=(2.0,), scale_grid=scales)
            sf = mfdfa.scaling_function(mfdfa.profile(x), cfg)
            oracle = plain_dfa(x, scales)
            np.testing.assert_allclose(sf.values[0], oracle, rtol=1e-10)

    def test_batched_exponents_match_scaling_function(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((4, 2048))
        scales = mfdfa.default_scale_grid(2048)
        h, _ = mfdfa.dfa_exponents(X, scales)
        for i, row in enumerate(X):
            cfg = mfdfa.MfdfaConfig(q_grid=(2.0,), scale_grid=tuple(scales))
            sf = mfdfa.scaling_function(mfdfa.profile(row), cfg)
            spec = mfdfa.hurst_spectrum(sf)
            assert abs(h[i] - spec.h[0]) < 1e-8

    def test_q_zero_excluded_by_default(self):
        x = np.random.default_rng(0).standard_normal(512)
        cfg = mfdfa.MfdfaConfig(q_grid=(-1.0, 0.0, 1.0))
        sf = mfdfa.scaling_function(mfdfa.profile(x), cfg)
        assert 0.0 not in sf.q_grid

    def test_q_zero_log_average_is_geometric_mean(self):
        x = np.random.default_rng(0).standard_normal(512)
        scales = (16, 32, 64)
        cfg = mfdfa.MfdfaConfig(
            q_grid=(0.0,), scale_grid=scales, q_zero_mode="log-average"
        )
        sf = mfdfa.scaling_function(mfdfa.profile(x), cfg)
        for si, s in enumerate(scales):
            f = mfdfa.fluctuation(mfdfa.profile(x), s)
            assert np.isclose(sf.values[0, si], np.exp(np.mean(np.log(f))))

    def test_both_ends_doubles_windows(self):
        x = np.random.default_rng(0).standard_normal(500)
        y = mfdfa.profile(x)
        f_fwd = mfdfa.fluctuation(y, 64)
        f_both = mfdfa.fluctuation(y, 64, both_ends=True)
        assert f_both.size == 2 * f_fwd.size
        np.testing.assert_allclose(f_both[: f_fwd.size], f_fwd)

    def test_zero_window_negative_q_raises(self):
        x = np.zeros(512)
        x[0] = 1.0
        cfg = mfdfa.MfdfaConfig(q_grid=(-2.0,), scale_grid=(16, 32, 64))
        with pytest.raises(ValueError, match="diverge"):
            mfdfa.scaling_function(mfdfa.profile(x), cfg)

    @settings(max_examples=20, deadline=None)
    @given(
        scale=st.floats(min_value=0.01, max_value=100.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_scale_equivariance(self, scale, seed):
        # S_F(q, s) of c*x equals c * S_F(q, s) of x
        x = np.random.default_rng(seed).standard_normal(512)
        cfg = mfdfa.MfdfaConfig(scale_grid=(16, 32, 64))
        sf1 = mfdfa.scaling_function(mfdfa.profile(x), cfg)
        sf2 = mfdfa.scaling_function(mfdfa.profile(scale * x), cfg)
        np.testing.assert_allclose(sf2.values, scale * sf1.values, rtol=1e-9)

    def test_sign_flip_invariance(self):
        x = np.random.default_rng(3).standard_normal(512)
        cfg = mfdfa.MfdfaConfig(scale_grid=(16, 32, 64))
        sf1 = mfdfa.scaling_function(mfdfa.profile(x), cfg)
        sf2 = mfdfa.scaling_function(mfdfa.profile(-x), cfg)
        np.testing.assert_allclose(sf1.values, sf2.values, rtol=1e-12)

    def test_zero_windows_count_as_zero_in_positive_moments(self):
        # every window after the first is a straight ramp, so F = 0 there
        x = np.zeros(512)
        x[:8] = [3.0, -1.0, 4.0, 1.0, -5.0, 9.0, 2.0, -6.0]
        cfg = mfdfa.MfdfaConfig(q_grid=(1.0, 2.0), scale_grid=(16, 32, 64))
        y = mfdfa.profile(x)
        sf = mfdfa.scaling_function(y, cfg)
        for si, s in enumerate(cfg.scale_grid):
            f = mfdfa.fluctuation(y, s)
            assert f[0] > 0 and np.all(f[1:] == 0.0)
            expected = [f[0] / f.size, f[0] / np.sqrt(f.size)]  # q = 1, 2
            np.testing.assert_allclose(sf.values[:, si], expected)

    @pytest.mark.filterwarnings("error")
    def test_every_window_zero_raises(self):
        cfg = mfdfa.MfdfaConfig(q_grid=(2.0,), scale_grid=(16, 32, 64))
        with pytest.raises(ValueError, match="every window at scale 16"):
            mfdfa.scaling_function(mfdfa.profile(np.full(512, 0.1)), cfg)


class TestDetrendOrders:
    """Orders other than 1 against the loop oracle."""

    @pytest.mark.parametrize("order", [0, 2, 3])
    def test_fluctuation_matches_plain_dfa(self, order):
        rng = np.random.default_rng(10 + order)
        scales = (16, 32, 64, 128)
        for _ in range(3):
            x = rng.standard_normal(1024)
            y = mfdfa.profile(x)
            rms = [np.sqrt(np.mean(mfdfa.fluctuation(y, s, order) ** 2)) for s in scales]
            np.testing.assert_allclose(rms, plain_dfa(x, scales, order), rtol=1e-10)

    @pytest.mark.parametrize("order", [0, 2, 3])
    def test_dfa_exponents_match_plain_dfa(self, order):
        X = np.random.default_rng(20 + order).standard_normal((3, 2048))
        scales = mfdfa.default_scale_grid(2048)
        h, _ = mfdfa.dfa_exponents(X, scales, order)
        for i, row in enumerate(X):
            logf = np.log2(plain_dfa(row, scales, order))
            slope = np.polyfit(np.log2(scales), logf, 1)[0]
            np.testing.assert_allclose(h[i], slope, rtol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(
        a=st.floats(min_value=1e-3, max_value=1e3) | st.floats(min_value=-1e3, max_value=-1e-3),
        b=st.floats(min_value=-1e3, max_value=1e3),
        order=st.integers(min_value=0, max_value=3),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_dfa_exponents_affine_invariant(self, a, b, order, seed):
        X = np.random.default_rng(seed).standard_normal((2, 1024))
        h1, mse1 = mfdfa.dfa_exponents(X, order=order)
        h2, mse2 = mfdfa.dfa_exponents(a * X + b, order=order)
        np.testing.assert_allclose(h2, h1, rtol=0, atol=1e-9)
        np.testing.assert_allclose(mse2, mse1, rtol=1e-6, atol=1e-12)


@pytest.mark.filterwarnings("error")
class TestDfaFailFast:
    """Bad rows raise a ValueError that names them, never a numpy warning."""

    @pytest.mark.parametrize("value", [0.0, 3.0, 0.1])
    def test_constant_row_named(self, value):
        X = np.random.default_rng(0).standard_normal((3, 1024))
        X[1] = value
        message = "row 1: zero fluctuation in every window at scale 16"
        with pytest.raises(ValueError, match=message):
            mfdfa.dfa_exponents(X)

    def test_nan_cell_names_row(self):
        X = np.random.default_rng(0).standard_normal((3, 1024))
        X[2, 500] = np.nan
        with pytest.raises(ValueError, match="row 2 contains non-finite"):
            mfdfa.dfa_exponents(X)

    @pytest.mark.parametrize("shape", [(0,), (2, 0), (0, 1024)])
    def test_empty_input(self, shape):
        with pytest.raises(ValueError, match="empty"):
            mfdfa.dfa_exponents(np.empty(shape))

    def test_profile_is_row_wise(self):
        X = np.random.default_rng(1).standard_normal((3, 256))
        np.testing.assert_array_equal(
            mfdfa.profile(X), np.stack([mfdfa.profile(row) for row in X])
        )


class TestScaleGrids:
    def test_default_bounds(self):
        grid = mfdfa.default_scale_grid(4096)
        assert grid[0] >= 16
        assert grid[-1] <= 1024
        assert np.all(np.diff(grid) > 0)

    def test_dyadic_powers_of_two(self):
        grid = mfdfa.dyadic_scale_grid(4096)
        assert np.all(grid & (grid - 1) == 0)
        assert grid[-1] <= 1024

    def test_scale_too_small_rejected(self):
        cfg = mfdfa.MfdfaConfig(scale_grid=(2, 8), detrend_order=1)
        with pytest.raises(ValueError, match="smallest scale"):
            cfg.resolve_scales(512)


class TestHurstSpectrum:
    def test_fgn_exponents(self):
        # light version; the acceptance suite runs the full grid
        for h_true in (0.3, 0.8):
            errs = []
            for seed in range(5):
                x = synth.synth_fgn(h_true, 1 << 14, seed).samples
                sf = mfdfa.scaling_function(
                    mfdfa.profile(x), mfdfa.MfdfaConfig(q_grid=(2.0,))
                )
                errs.append(abs(mfdfa.hurst_spectrum(sf).h[0] - h_true))
            assert np.mean(errs) <= 0.06

    def test_cascade_matches_analytic(self):
        p = 0.75
        x = synth.synth_cascade(p, 14).samples
        cfg = mfdfa.MfdfaConfig(scale_grid=tuple(mfdfa.dyadic_scale_grid(x.size)))
        sf = mfdfa.scaling_function(mfdfa.profile(x), cfg)
        spec = mfdfa.hurst_spectrum(sf)
        analytic = synth.cascade_hurst_exponent(p, spec.q_grid)
        assert np.max(np.abs(spec.h - analytic)) <= 0.1
        assert np.all(np.diff(spec.h) <= 1e-9)  # nonincreasing in q

    def test_focus_point_on_cascade(self):
        x = synth.synth_cascade(0.75, 14).samples
        cfg = mfdfa.MfdfaConfig(scale_grid=tuple(mfdfa.dyadic_scale_grid(x.size)))
        sf = mfdfa.scaling_function(mfdfa.profile(x), cfg)
        focus = mfdfa.focus_point(sf)
        assert focus.scale == x.size
        assert 1.0 <= focus.spread <= 1.05

    def test_too_few_scales(self):
        x = np.random.default_rng(0).standard_normal(512)
        cfg = mfdfa.MfdfaConfig(scale_grid=(16, 32))
        sf = mfdfa.scaling_function(mfdfa.profile(x), cfg)
        with pytest.raises(ValueError, match="3 scales"):
            mfdfa.hurst_spectrum(sf)


class TestCohortSpectrum:
    def test_closed_form_t_interval(self):
        # oracle: textbook t interval on hand-made h samples
        class Spec:
            def __init__(self, h):
                self.q_grid = np.array([2.0])
                self.h = np.array([h])

        values = [0.5, 0.6, 0.7, 0.8]
        cohort = mfdfa.cohort_spectrum([Spec(v) for v in values])
        mean = np.mean(values)
        sem = np.std(values, ddof=1) / 2.0
        crit = 3.182446305284263  # t_{0.975, 3}
        assert np.isclose(cohort.mean[0], mean)
        assert np.isclose(cohort.ci_low[0], mean - crit * sem)
        assert np.isclose(cohort.ci_high[0], mean + crit * sem)

    def test_mismatched_grids_rejected(self):
        class Spec:
            def __init__(self, q):
                self.q_grid = np.asarray(q, float)
                self.h = np.zeros(len(q))

        with pytest.raises(ValueError, match="mismatched"):
            mfdfa.cohort_spectrum([Spec([1, 2]), Spec([1, 3])])


class TestWasserstein:
    def test_hand_case(self):
        # sorted pairing: |1-2| + |3-5| over 2 samples = 1.5
        assert mfdfa.wasserstein_1d([3, 1], [2, 5]) == 1.5

    def test_translation(self):
        a = np.array([0.0, 1.0, 2.0])
        assert np.isclose(mfdfa.wasserstein_1d(a, a + 3.0), 3.0)

    @settings(max_examples=30, deadline=None)
    @given(
        hnp.arrays(np.float64, st.integers(1, 30), elements=st.floats(-1e6, 1e6)),
        hnp.arrays(np.float64, st.integers(1, 30), elements=st.floats(-1e6, 1e6)),
    )
    def test_metric_axioms(self, a, b):
        d = mfdfa.wasserstein_1d(a, b)
        assert d >= 0
        assert np.isclose(d, mfdfa.wasserstein_1d(b, a))
        assert mfdfa.wasserstein_1d(a, a) == 0

    def test_unequal_lengths(self):
        d = mfdfa.wasserstein_1d([0.0, 0.0, 0.0, 0.0], [1.0, 1.0])
        assert np.isclose(d, 1.0)


class TestSpectrumDistance:
    def _spec(self, h):
        class Spec:
            pass

        sp = Spec()
        sp.q_grid = np.arange(len(h), dtype=float)
        sp.h = np.asarray(h, float)
        return sp

    def test_q_samples_mode(self):
        a = [self._spec([0.5, 0.6])]
        b = [self._spec([0.7, 0.8])]
        assert np.isclose(mfdfa.spectrum_distance(a, b), 0.2)

    def test_patients_mode_pools(self):
        a = [self._spec([0.5]), self._spec([0.7])]
        b = [self._spec([0.6]), self._spec([0.8])]
        assert np.isclose(
            mfdfa.spectrum_distance(a, b, mode="patients"), 0.1
        )

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            mfdfa.spectrum_distance([], [], mode="nope")


class TestDiagnostics:
    def test_shapes(self):
        x = np.random.default_rng(0).standard_normal(1024)
        sf = mfdfa.scaling_function(mfdfa.profile(x))
        diag = mfdfa.scaling_diagnostics(sf)
        assert diag.std_across_q.shape == sf.scale_grid.shape
        assert diag.std_across_s.shape == sf.q_grid.shape
        assert np.all(diag.std_across_q >= 0)
