import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, gammasgn

from fracsig import fracdyn, synth


def gamma_ratio_kernel(alpha, horizon):
    """Oracle: direct Gamma-function form of the difference kernel."""
    j = np.arange(horizon + 1)
    log_psi = gammaln(j - alpha) - gammaln(-alpha) - gammaln(j + 1)
    sign = gammasgn(j - alpha) * gammasgn(-alpha)
    return sign * np.exp(log_psi)


class TestGlCoefficients:
    def test_hand_values_alpha_half(self):
        psi = fracdyn.gl_coefficients(0.5, 3).coeffs
        np.testing.assert_allclose(psi, [1.0, -0.5, -0.125, -0.0625])

    def test_first_two_terms(self):
        for a in (0.2, 0.7, 1.3):
            psi = fracdyn.gl_coefficients(a, 2).coeffs
            assert psi[0] == 1.0
            assert np.isclose(psi[1], -a)

    def test_matches_gamma_formula(self):
        for a in np.arange(0.1, 2.0, 0.2):
            psi = fracdyn.gl_coefficients(a, 50).coeffs
            oracle = gamma_ratio_kernel(a, 50)
            np.testing.assert_allclose(psi, oracle, atol=1e-10)

    def test_integer_alpha_one(self):
        # alpha = 1 reduces to the first difference: psi = 1, -1, 0, 0, ...
        psi = fracdyn.gl_coefficients(1.0, 5).coeffs
        np.testing.assert_allclose(psi, [1, -1, 0, 0, 0, 0], atol=1e-15)

    def test_partial_sum_tail(self):
        # remainder of the full sum (which is 0) scales like J^-alpha
        s = fracdyn.gl_coefficients(0.8, 10**4).coeffs.sum()
        assert abs(s) < 1e-2

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            fracdyn.gl_coefficients(np.nan, 10)


class TestFracDifference:
    def test_alpha_zero_is_identity(self):
        x = np.random.default_rng(0).standard_normal(100)
        np.testing.assert_allclose(fracdyn.frac_difference(x, 0.0), x)

    def test_alpha_one_is_first_difference(self):
        x = np.random.default_rng(1).standard_normal(100)
        out = fracdyn.frac_difference(x, 1.0, None)
        np.testing.assert_allclose(out[1:], np.diff(x), atol=1e-12)
        assert out[0] == x[0]

    def test_inverse_pair(self):
        x = np.random.default_rng(2).standard_normal(256)
        y = fracdyn.frac_difference(x, -0.4, None)
        back = fracdyn.frac_difference(y, 0.4, None)
        np.testing.assert_allclose(back, x, atol=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(
        a=st.floats(min_value=-1.0, max_value=1.5),
        c=st.floats(min_value=-5.0, max_value=5.0),
        seed=st.integers(0, 2**31),
    )
    def test_linearity(self, a, c, seed):
        rng = np.random.default_rng(seed)
        x, y = rng.standard_normal((2, 64))
        lhs = fracdyn.frac_difference(x + c * y, a, 32)
        rhs = fracdyn.frac_difference(x, a, 32) + c * fracdyn.frac_difference(y, a, 32)
        np.testing.assert_allclose(lhs, rhs, atol=1e-8)

    def test_truncated_matches_convolution(self):
        x = np.random.default_rng(3).standard_normal(200)
        psi = fracdyn.gl_coefficients(0.6, 50).coeffs
        out = fracdyn.frac_difference(x, 0.6, 50)
        k = 120
        expected = sum(psi[j] * x[k - j] for j in range(51))
        assert np.isclose(out[k], expected)


class TestSimulate:
    def _model(self, seed=0, n=4, noise=1.0):
        return synth.random_stable_model(n, seed, noise_scale=noise)

    def test_deterministic(self):
        model = self._model()
        a = fracdyn.simulate(model, 500, seed=7).as_matrix()
        b = fracdyn.simulate(model, 500, seed=7).as_matrix()
        np.testing.assert_array_equal(a, b)

    def test_stays_bounded(self):
        model = self._model()
        X = fracdyn.simulate(model, 5000, seed=1).as_matrix()
        assert np.all(np.isfinite(X))
        assert np.abs(X).max() < 100

    def test_zero_noise_decays(self):
        model = fracdyn.FractionalModel(
            self._model().alpha, self._model().A, noise_scale=0.0
        )
        X = fracdyn.simulate(model, 2000, x0=np.ones(4), seed=0).as_matrix()
        assert np.abs(X[:, -1]).max() < np.abs(X[:, 0]).max()

    def test_input_matrix(self):
        model = synth.random_stable_model(4, 0, n_inputs=1, noise_scale=0.0)
        u = np.ones((500, 1))
        X = fracdyn.simulate(model, 500, u=u, seed=0).as_matrix()
        assert np.abs(X).max() > 0  # the input drives the state

    def test_input_without_b_rejected(self):
        model = synth.random_stable_model(4, 0)
        with pytest.raises(ValueError, match="B"):
            fracdyn.simulate(model, 100, u=np.ones((100, 1)), seed=0)

    def test_divergence_raises(self):
        model = fracdyn.FractionalModel([0.5, 0.5], 3.0 * np.eye(2), noise_scale=0.0)
        with pytest.raises(fracdyn.NumericalError, match="step"):
            fracdyn.simulate(model, 200, x0=np.ones(2), seed=0)


class TestAlphaEstimate:
    def test_round_trip(self):
        errs = []
        for a in (0.0, 0.3):
            for seed in range(3):
                x = synth.synth_frac_noise(a, 1 << 13, seed).samples
                errs.append(abs(fracdyn.estimate_alpha(x).alpha - a))
        assert np.mean(errs) <= 0.07

    def test_float_conversion(self):
        x = synth.synth_frac_noise(0.2, 1 << 12, 0).samples
        est = fracdyn.estimate_alpha(x)
        assert float(est) == est.alpha

    def test_short_input_rejected(self):
        with pytest.raises(ValueError, match="samples"):
            fracdyn.estimate_alpha(np.zeros(100))

    def test_matrix_input_rejected(self):
        with pytest.raises(ValueError, match=r"one series, got an array of shape \(2, 2048\)"):
            fracdyn.estimate_alpha(np.ones((2, 2048)))

    def test_batched_matches_scalar(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((3, 2048))
        batch = fracdyn.estimate_alphas(X)
        for i, row in enumerate(X):
            assert np.isclose(batch[i], fracdyn.estimate_alpha(row).alpha)

    @pytest.mark.filterwarnings("error")
    def test_constant_channel_raises(self):
        X = np.random.default_rng(5).standard_normal((3, 2048))
        X[0] = 2.5
        with pytest.raises(ValueError, match="row 0: zero fluctuation"):
            fracdyn.estimate_alphas(X)
        with pytest.raises(ValueError, match="row 0: zero fluctuation"):
            fracdyn.estimate_alpha(X[0])

    @pytest.mark.filterwarnings("error")
    def test_non_finite_sample_raises(self):
        x = np.random.default_rng(6).standard_normal(2048)
        x[7] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            fracdyn.estimate_alpha(x)


class TestEstimateCoupling:
    def test_exact_recovery_without_noise(self):
        model = synth.random_stable_model(5, 11, noise_scale=1.0)
        X = fracdyn.simulate(model, 6000, seed=3).as_matrix()
        A_hat = fracdyn.estimate_coupling(X, model.alpha, ridge=0.0)
        rel = np.linalg.norm(A_hat - model.A) / np.linalg.norm(model.A)
        assert rel < 0.05

    def test_ridge_advice_on_singular(self):
        X = np.zeros((3, 400))
        X[0] = np.random.default_rng(0).standard_normal(400)
        with pytest.raises(fracdyn.NumericalError, match="ridge"):
            fracdyn.estimate_coupling(X, np.full(3, 0.3), ridge=0.0)

    def test_alpha_length_mismatch(self):
        X = np.random.default_rng(0).standard_normal((3, 400))
        with pytest.raises(ValueError):
            fracdyn.estimate_coupling(X, np.full(2, 0.3))


class TestUnknownInput:
    def test_report_fields_and_improvement(self):
        model = synth.random_stable_model(
            8, 1, noise_scale=1.0, diag_shift=0.8, spectral_radius=0.5, n_inputs=1
        )
        rng = np.random.default_rng(901)
        T = 8000
        u = np.zeros((T, 1))
        for b in rng.integers(0, T - 1000, 30):
            u[b : b + 60, 0] = 5.0  # persistent bursts, not isolated spikes
        X = fracdyn.simulate(model, T, u=u, seed=101).as_matrix()
        blind = fracdyn.estimate_coupling(X, model.alpha)
        report = fracdyn.estimate_with_unknown_input(X, model.alpha, 1)

        def err(A):
            return np.linalg.norm(A - model.A) / np.linalg.norm(model.A)

        assert report.model.A.shape == (8, 8)
        assert report.iterations >= 1
        assert len(report.residual_norm) >= 1
        assert err(report.model.A) < err(blind)


class TestCouplingConvergence:
    def test_distances_fall(self):
        model = synth.random_stable_model(6, 4, noise_scale=1.0)
        record = fracdyn.simulate(model, 4000, seed=4)
        times, dists = fracdyn.coupling_convergence(record, model.alpha, 200.0)
        assert times.size == dists.size > 3
        assert np.all(np.diff(times) > 0)
        assert dists[-1] < dists[0]

    def test_too_short_record(self):
        model = synth.random_stable_model(3, 0, noise_scale=1.0)
        record = fracdyn.simulate(model, 300, seed=0)
        with pytest.raises(ValueError, match="short"):
            fracdyn.coupling_convergence(record, model.alpha, 200.0)


class TestModelJson:
    def test_round_trip(self):
        model = synth.random_stable_model(4, 9)
        text = fracdyn.model_to_json(model.alpha, model.A)
        alpha, A = fracdyn.model_from_json(text)
        np.testing.assert_array_equal(alpha, model.alpha)
        np.testing.assert_array_equal(A, model.A)
