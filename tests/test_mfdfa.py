import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import logsumexp

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


class TestLogsumexp:
    """The moment kernel's log-sum-exp against scipy.special.logsumexp.

    The helper repeats scipy 1.17's formula and is bit-identical to it
    there; the relative 1e-15 also admits older scipy's plain shift.
    """

    @staticmethod
    def check(a):
        assert np.allclose(mfdfa._logsumexp(a), logsumexp(a), rtol=1e-15, atol=0)

    @pytest.mark.parametrize("q", [-20.0, -5.0, -3.0, -2.0, -1.0, 1.0, 2.0, 3.0, 5.0, 20.0])
    def test_moment_vectors(self, q):
        rng = np.random.default_rng(7)
        for size in (2, 3, 16, 63, 500):
            for _ in range(20):
                self.check(q * np.log(rng.lognormal(0.0, 1.5, size)))

    @pytest.mark.parametrize("ties", [2, 3, 8])
    def test_ties_at_the_maximum(self, ties):
        rng = np.random.default_rng(ties)
        for q in (-5.0, 5.0):
            logf = np.log(rng.lognormal(0.0, 1.0, 40))
            logf[rng.choice(40, ties, replace=False)] = logf.max() if q > 0 else logf.min()
            self.check(q * logf)
        a = np.full(ties, 2.5)
        assert mfdfa._logsumexp(a) == logsumexp(a) == 2.5 + np.log(ties)

    @pytest.mark.parametrize("x", [-710.0, -1.5, 0.0, 3.25, 710.0])
    def test_single_element_is_itself(self, x):
        a = np.array([x])
        assert mfdfa._logsumexp(a) == logsumexp(a) == x

    @pytest.mark.parametrize("q", [-300.0, 300.0])
    def test_large_order_does_not_overflow(self, q):
        # np.exp(q * logf) overflows to inf on 10 (q > 0) or 13 (q < 0) of these windows
        logf = np.log(np.random.default_rng(3).lognormal(0.0, 2.0, 100))
        result = mfdfa._logsumexp(q * logf)
        assert np.isfinite(result)
        self.check(q * logf)


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

    def test_zero_fluctuation_error_survives_pickling(self):
        # a worker process sends its errors back pickled
        error = pickle.loads(pickle.dumps(mfdfa.ZeroFluctuationError(3, 16)))
        assert type(error) is mfdfa.ZeroFluctuationError
        assert str(error) == "row 3: zero fluctuation in every window at scale 16"
        assert (error.row, error.scale) == (3, 16)

    def test_nan_cell_names_row(self):
        X = np.random.default_rng(0).standard_normal((3, 1024))
        X[2, 500] = np.nan
        with pytest.raises(ValueError, match="row 2 contains non-finite"):
            mfdfa.dfa_exponents(X)

    @pytest.mark.parametrize("shape", [(0,), (2, 0), (0, 1024)])
    def test_empty_input(self, shape):
        with pytest.raises(ValueError, match="empty"):
            mfdfa.dfa_exponents(np.empty(shape))

    def test_fluctuation_rejects_a_matrix(self):
        with pytest.raises(ValueError, match=r"shape \(2, 256\)"):
            mfdfa.fluctuation(np.ones((2, 256)), 16)

    def test_profile_is_row_wise(self):
        X = np.random.default_rng(1).standard_normal((3, 256))
        np.testing.assert_array_equal(
            mfdfa.profile(X), np.stack([mfdfa.profile(row) for row in X])
        )


def per_scale_window_f2(profiles, s, order, both_ends, *, flat=False):
    """The per-scale allocating kernel the workspace loop replaced, kept as
    its bit-identity reference: windows are copied, centred and projected
    in fresh arrays at every scale, one row's windows at a time.  With
    ``flat`` every window of every row is projected in one 2-D product,
    as before the kernel was made batch-invariant."""
    rows, n = profiles.shape
    if s < order + 2:
        raise ValueError(f"scale {s} too small for detrend order {order}")
    if s > n:
        raise ValueError(f"scale {s} exceeds series length {n}")
    nw = n // s
    segs = profiles[:, : nw * s].reshape(rows, nw, s)
    if both_ends:
        tail = profiles[:, n - nw * s :].reshape(rows, nw, s)
        segs = np.concatenate([segs, tail], axis=1)
    mean = segs.sum(axis=2) / s
    segs = segs - mean[..., None]
    q = mfdfa._detrend_basis(s, order)
    if flat:
        proj = ((segs.reshape(-1, s) @ q) @ q.T).reshape(segs.shape)
    else:
        proj = np.stack([(row @ q) @ q.T for row in segs])
    resid = segs - proj
    f2 = np.einsum("rij,rij->ri", resid, resid) / s
    level = np.einsum("rij,rij->ri", segs, segs) / s + mean**2
    f2[f2 <= ((order + 1) * s * np.finfo(float).eps) ** 2 * level] = 0.0
    return f2


def per_scale_kernel(profiles, scales, order, both_ends, *, flat=False):
    for s in scales:
        yield per_scale_window_f2(profiles, int(s), order, both_ends, flat=flat)


def flat_kernel(profiles, scales, order, both_ends):
    return per_scale_kernel(profiles, scales, order, both_ends, flat=True)


def lstsq_loglog_fit(scales, logv):
    """The least-squares log-log fit the closed-form row reductions replaced."""
    logs = np.log2(np.asarray(scales, dtype=float))
    if logs.size < 3:
        raise ValueError("need at least 3 scales for a slope fit")
    design = np.stack([logs, np.ones_like(logs)], axis=1)
    coeffs, *_ = np.linalg.lstsq(design, logv.T, rcond=None)
    mse = np.mean((logv.T - design @ coeffs) ** 2, axis=0)
    return coeffs[0], coeffs[1], mse


def outcome(fn):
    """("ok", *arrays) returned by ``fn()``, or ("raised", type, message)."""
    try:
        result = fn()
    except ValueError as exc:
        return "raised", type(exc).__name__, str(exc)
    return ("ok", *result) if isinstance(result, tuple) else ("ok", result)


kernel_cases = given(
    rows=st.integers(1, 12),
    n=st.integers(64, 900),
    order=st.integers(0, 3),
    both_ends=st.booleans(),
    log_amp=st.floats(-3.0, 6.0),
    constant=st.sampled_from([None, "half", "row"]),
    seed=st.integers(0, 2**31),
)


def kernel_inputs(rows, n, order, log_amp, constant, seed):
    """A batch with one row possibly constant in part or whole, the index of
    that row, and up to 6 scales."""
    rng = np.random.default_rng(seed)
    X = 10.0**log_amp * (rng.standard_normal((rows, n)) + rng.uniform(-20, 20))
    bad = int(rng.integers(rows))
    if constant == "half":
        X[bad, : n // 2] = 0.1
    elif constant == "row":
        X[bad] = 3.0
    return X, bad, np.unique(rng.integers(order + 2, n // 4 + 1, size=6))


class TestWorkspaceKernelBitIdentity:
    """The reused-workspace kernel reproduces the per-scale reference bit for bit."""

    @settings(max_examples=60, deadline=None)
    @kernel_cases
    def test_matches_per_scale_reference(
        self, rows, n, order, both_ends, log_amp, constant, seed
    ):
        X, bad, scales = kernel_inputs(rows, n, order, log_amp, constant, seed)
        y = mfdfa.profile(X[bad])
        grid = tuple(map(int, scales))
        configs = [
            mfdfa.MfdfaConfig(q, grid, order, both_ends=both_ends)
            for q in [(-3.0, 1.0, 2.0, 5.0), (1.0, 2.0)]
        ]

        def results():
            return [
                outcome(lambda: mfdfa.fluctuation(y, grid[0], order, both_ends=both_ends)),
                *(outcome(lambda: mfdfa.scaling_function(y, cfg).values) for cfg in configs),
                outcome(lambda: mfdfa.dfa_exponents(X, scales, order)),
            ]

        new = results()
        with mock.patch.object(mfdfa, "_window_f2", per_scale_kernel):
            old = results()
        for a, b in zip(new, old):
            assert a[0] == b[0] and len(a) == len(b)
            if a[0] == "raised":
                assert a == b
            else:
                assert all(np.array_equal(u, v) for u, v in zip(a[1:], b[1:]))

    @settings(max_examples=60, deadline=None)
    @kernel_cases
    def test_drift_from_flat_gemm_reference(
        self, rows, n, order, both_ends, log_amp, constant, seed
    ):
        # the one-time change of making rows batch-invariant: F^2 stays within
        # a relative 1e-12 of one 2-D product, and h, an O(1) slope that may
        # sit near 0, within 1e-12 of that product and an lstsq fit
        X, _, scales = kernel_inputs(rows, n, order, log_amp, constant, seed)
        profiles = mfdfa.profile(X)
        new = mfdfa._window_f2(profiles, scales, order, both_ends)
        old = flat_kernel(profiles, scales, order, both_ends)
        for a, b in zip(new, old):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)
        h_new = outcome(lambda: mfdfa.dfa_exponents(X, scales, order)[0])
        with mock.patch.object(mfdfa, "_window_f2", flat_kernel), mock.patch.object(
            mfdfa, "_loglog_fit", lstsq_loglog_fit
        ):
            h_old = outcome(lambda: mfdfa.dfa_exponents(X, scales, order)[0])
        if h_new[0] == "raised":
            assert h_new == h_old
        else:
            np.testing.assert_allclose(h_new[1], h_old[1], rtol=1e-12, atol=1e-12)


class TestBatchInvariance:
    """A row's exponent and fit MSE do not depend on the rows sharing its call."""

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.integers(1, 60),
        n=st.sampled_from([1024, 1500, 2000, 3000]),
        order=st.integers(0, 3),
        seed=st.integers(0, 2**31),
        data=st.data(),
    )
    def test_any_subset_in_any_order_equals_full_call(self, rows, n, order, seed, data):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((rows, n)) * rng.uniform(0.01, 100.0, size=(rows, 1))
        walks = rng.random(rows) < 0.5
        X[walks] = np.cumsum(X[walks], axis=1)  # exponents near 0.5 and 1.5
        h, mse = mfdfa.dfa_exponents(X, order=order)
        pick = data.draw(st.permutations(range(rows)))[: data.draw(st.integers(1, rows))]
        h_sub, mse_sub = mfdfa.dfa_exponents(X[pick], order=order)
        assert np.array_equal(h_sub, h[pick])
        assert np.array_equal(mse_sub, mse[pick])


class TestScaleGrids:
    def test_default_bounds(self):
        grid = mfdfa.default_scale_grid(4096)
        assert grid[0] >= 16
        assert grid[-1] <= 1024
        assert np.all(np.diff(grid) > 0)

    def test_default_grid_equals_unique_of_rounded_scales(self):
        for n in range(64, 40_001):
            logs = np.linspace(np.log(16), np.log(n // 4), 20)
            reference = np.unique(np.round(np.exp(logs)).astype(int))
            grid = mfdfa.default_scale_grid(n)
            assert grid.dtype == reference.dtype
            assert np.array_equal(grid, reference), n

    def test_dyadic_powers_of_two(self):
        grid = mfdfa.dyadic_scale_grid(4096)
        assert np.all(grid & (grid - 1) == 0)
        assert grid[-1] <= 1024

    def test_scale_too_small_rejected(self):
        cfg = mfdfa.MfdfaConfig(scale_grid=(2, 8), detrend_order=1)
        with pytest.raises(ValueError, match="smallest scale"):
            cfg.resolve_scales(512)

    @pytest.mark.parametrize("q", [np.nan, np.inf, -np.inf])
    def test_non_finite_q_rejected(self, q):
        with pytest.raises(ValueError, match=f"^q_grid values must be finite, got {q:g}$"):
            mfdfa.MfdfaConfig(q_grid=(1.0, q, 2.0))


class TestHurstSpectrum:
    def test_fgn_exponents(self):
        # light version; the acceptance suite runs the full grid
        for h_true in (0.3, 0.8):
            errs = []
            for seed in range(5):
                x = synth.synth_fgn(h_true, 1 << 14, seed)
                sf = mfdfa.scaling_function(
                    mfdfa.profile(x), mfdfa.MfdfaConfig(q_grid=(2.0,))
                )
                errs.append(abs(mfdfa.hurst_spectrum(sf).h[0] - h_true))
            assert np.mean(errs) <= 0.06

    def test_cascade_matches_analytic(self):
        p = 0.75
        x = synth.synth_cascade(p, 14)
        cfg = mfdfa.MfdfaConfig(scale_grid=tuple(mfdfa.dyadic_scale_grid(x.size)))
        sf = mfdfa.scaling_function(mfdfa.profile(x), cfg)
        spec = mfdfa.hurst_spectrum(sf)
        analytic = synth.cascade_hurst_exponent(p, spec.q_grid)
        assert np.max(np.abs(spec.h - analytic)) <= 0.1
        assert np.all(np.diff(spec.h) <= 1e-9)  # nonincreasing in q

    def test_focus_point_on_cascade(self):
        x = synth.synth_cascade(0.75, 14)
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


class TestDiagnostics:
    def test_shapes(self):
        x = np.random.default_rng(0).standard_normal(1024)
        sf = mfdfa.scaling_function(mfdfa.profile(x))
        diag = mfdfa.scaling_diagnostics(sf)
        assert diag.std_across_q.shape == sf.scale_grid.shape
        assert diag.std_across_s.shape == sf.q_grid.shape
        assert np.all(diag.std_across_q >= 0)
