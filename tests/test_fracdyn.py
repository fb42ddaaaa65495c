import json
import warnings

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
        psi = fracdyn.gl_coefficients(0.5, 3)
        np.testing.assert_allclose(psi, [1.0, -0.5, -0.125, -0.0625])

    def test_first_two_terms(self):
        for a in (0.2, 0.7, 1.3):
            psi = fracdyn.gl_coefficients(a, 2)
            assert psi[0] == 1.0
            assert np.isclose(psi[1], -a)

    def test_matches_gamma_formula(self):
        for a in np.arange(0.1, 2.0, 0.2):
            psi = fracdyn.gl_coefficients(a, 50)
            oracle = gamma_ratio_kernel(a, 50)
            np.testing.assert_allclose(psi, oracle, atol=1e-10)

    def test_integer_alpha_one(self):
        # alpha = 1 reduces to the first difference: psi = 1, -1, 0, 0, ...
        psi = fracdyn.gl_coefficients(1.0, 5)
        np.testing.assert_allclose(psi, [1, -1, 0, 0, 0, 0], atol=1e-15)

    def test_partial_sum_tail(self):
        # remainder of the full sum (which is 0) scales like J^-alpha
        s = fracdyn.gl_coefficients(0.8, 10**4).sum()
        assert abs(s) < 1e-2

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            fracdyn.gl_coefficients(np.nan, 10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_in_an_array(self, bad):
        with pytest.raises(ValueError, match="alpha must be finite"):
            fracdyn.gl_coefficients(np.array([0.3, bad, 0.5]), 10)

    @pytest.mark.parametrize("horizon", [1, 2, 50, 10**4])
    def test_table_equals_scalar_loop_bitwise(self, horizon):
        def scalar_loop(a, J):
            # the recurrence one order at a time, as numpy scalar steps
            coeffs = np.empty(J + 1)
            coeffs[0] = 1.0
            for j in range(1, J + 1):
                coeffs[j] = coeffs[j - 1] * (j - 1 - a) / j
            return coeffs

        orders = np.concatenate([[0.0, 1.0, -0.3, -1.0, 2.0], np.linspace(-1.5, 2.5, 21)])
        reference = np.stack([scalar_loop(a, horizon) for a in orders])
        table = fracdyn.gl_coefficients(orders, horizon)
        assert table.shape == (orders.size, horizon + 1)
        assert np.array_equal(table, reference)
        grid = fracdyn.gl_coefficients(orders.reshape(2, -1), horizon)
        assert grid.shape == (2, orders.size // 2, horizon + 1)
        assert np.array_equal(grid.reshape(reference.shape), reference)
        for a, row in zip(orders[:5], reference):
            one = fracdyn.gl_coefficients(a, horizon)
            assert one.shape == (horizon + 1,)
            assert np.array_equal(one, row)


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

    @settings(max_examples=25, deadline=None)
    @given(
        a=st.floats(min_value=-1.0, max_value=1.0),
        n=st.integers(1, 3000),
        seed=st.integers(0, 2**31),
    )
    def test_full_horizon_inverse_property(self, a, n, seed):
        # (1 - z)^a (1 - z)^-a = 1 term by term, so the full-horizon pair
        # inverts exactly up to rounding, on the convolution and FFT paths
        x = np.random.default_rng(seed).standard_normal(n)
        back = fracdyn.frac_difference(fracdyn.frac_difference(x, a, None), -a, None)
        np.testing.assert_allclose(back, x, atol=1e-9)

    def test_truncated_matches_convolution(self):
        x = np.random.default_rng(3).standard_normal(200)
        psi = fracdyn.gl_coefficients(0.6, 50)
        out = fracdyn.frac_difference(x, 0.6, 50)
        k = 120
        expected = sum(psi[j] * x[k - j] for j in range(51))
        assert np.isclose(out[k], expected)


class TestSimulate:
    def _model(self, seed=0, n=4, noise=1.0):
        return synth.random_stable_model(n, seed, noise_scale=noise)

    def test_deterministic(self):
        model = self._model()
        a = fracdyn.simulate(model, 500, seed=7)
        b = fracdyn.simulate(model, 500, seed=7)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (4, 500) and a.dtype == np.float64 and a.flags.c_contiguous

    def test_stays_bounded(self):
        model = self._model()
        X = fracdyn.simulate(model, 5000, seed=1)
        assert np.all(np.isfinite(X))
        assert np.abs(X).max() < 100

    def test_zero_noise_decays(self):
        model = fracdyn.FractionalModel(
            self._model().alpha, self._model().A, noise_scale=0.0
        )
        X = fracdyn.simulate(model, 2000, x0=np.ones(4), seed=0)
        assert np.abs(X[:, -1]).max() < np.abs(X[:, 0]).max()

    def test_input_matrix(self):
        model = synth.random_stable_model(4, 0, n_inputs=1, noise_scale=0.0)
        u = np.ones((500, 1))
        X = fracdyn.simulate(model, 500, u=u, seed=0)
        assert np.abs(X).max() > 0  # the input drives the state

    def test_input_without_b_rejected(self):
        model = synth.random_stable_model(4, 0)
        with pytest.raises(ValueError, match="B"):
            fracdyn.simulate(model, 100, u=np.ones((100, 1)), seed=0)

    @pytest.mark.parametrize("noise", [-1.0, np.nan, np.inf])
    def test_bad_noise_scale_rejected(self, noise):
        with pytest.raises(ValueError, match="noise_scale must be finite and nonnegative"):
            fracdyn.FractionalModel([0.5], [[-0.5]], noise_scale=noise)

    def test_zero_steps_rejected(self):
        with pytest.raises(ValueError, match="T=0"):
            fracdyn.simulate(self._model(), 0, seed=0)

    def test_divergence_raises(self):
        model = fracdyn.FractionalModel([0.5, 0.5], 3.0 * np.eye(2), noise_scale=0.0)
        with pytest.raises(fracdyn.NumericalError, match=r"^trajectory diverged at step \d+$"):
            fracdyn.simulate(model, 200, x0=np.ones(2), seed=0)

    @pytest.mark.parametrize("n, p", [(1, 0), (3, 1), (4, 2), (12, 0)])
    def test_matches_step_by_step_reference(self, n, p):
        model = synth.random_stable_model(n, n, noise_scale=0.7, n_inputs=p)
        T = 300
        rng = np.random.default_rng(n)
        u = rng.standard_normal((T, p)) if p else None
        x0 = rng.standard_normal(n)
        expected = _reference_simulate(model, T, u=u, x0=x0, seed=9)
        np.testing.assert_array_equal(fracdyn.simulate(model, T, u=u, x0=x0, seed=9), expected)
        np.testing.assert_array_equal(
            fracdyn.simulate(model, T, seed=9), _reference_simulate(model, T, seed=9)
        )

    def test_batch_rows_equal_rows_simulated_alone(self):
        n, p, T = 5, 2, 700  # T spans several step blocks, not a multiple of one
        models = [
            synth.random_stable_model(n, seed, noise_scale=scale, n_inputs=p)
            for seed, scale in enumerate((1.0, 0.0, 0.3, 2.5))
        ]
        rng = np.random.default_rng(2)
        u = rng.standard_normal((len(models), T, p))
        x0 = rng.standard_normal((len(models), n))
        seeds = [11, 12, 13, 11]
        X = fracdyn._trajectories(len(models), n, T)
        for x, start in zip(X, x0):
            x[:, 0] = start
        fracdyn._simulate_rows(
            np.stack([fracdyn.gl_coefficients(m.alpha, fracdyn.DEFAULT_HORIZON) for m in models]),
            np.stack([m.A for m in models]), [m.noise_scale for m in models], seeds, X,
            B=np.stack([m.B for m in models]), u=u,
        )
        for r, model in enumerate(models):
            alone = fracdyn.simulate(model, T, u=u[r], x0=x0[r], seed=seeds[r])
            np.testing.assert_array_equal(X[r], alone)
            assert X[r].flags.c_contiguous

    def test_lowest_diverging_row_is_named_and_rows_below_run_on(self):
        # row 2 diverges first; row 1 later, so the loop names row 1
        stable = synth.random_stable_model(2, 0)
        couplings = [stable.A, 1.3 * np.eye(2), 3.0 * np.eye(2), stable.A]
        models = [fracdyn.FractionalModel(stable.alpha, A, noise_scale=1.0) for A in couplings]
        steps = []
        for model in models[1:3]:
            with pytest.raises(fracdyn.NumericalError) as alone:
                fracdyn.simulate(model, 500, x0=np.ones(2), seed=0)
            steps.append(int(str(alone.value).rsplit(" ", 1)[1]))
        assert steps[1] < steps[0]
        X = fracdyn._trajectories(4, 2, 500)
        for x in X:
            x[:, 0] = 1.0
        psi = np.stack([fracdyn.gl_coefficients(stable.alpha, fracdyn.DEFAULT_HORIZON)] * 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            diverged = fracdyn._simulate_rows(psi, np.stack(couplings), [1.0] * 4, [0] * 4, X)
        assert diverged == (1, steps[0])
        np.testing.assert_array_equal(X[0], fracdyn.simulate(models[0], 500, x0=np.ones(2)))


def _reference_simulate(model, T, *, u=None, x0=None, seed=0):
    """Oracle: the one-model loop over a (T, n) state, one step at a time."""
    n = model.n
    rng = np.random.default_rng(seed)
    psi = fracdyn.gl_coefficients(model.alpha, fracdyn.DEFAULT_HORIZON)
    x = np.zeros((T, n))
    x[0] = np.zeros(n) if x0 is None else x0
    noise = rng.standard_normal((T, n)) * model.noise_scale
    for k in range(T - 1):
        j_max = min(k + 1, fracdyn.DEFAULT_HORIZON)
        window = x[k + 1 - j_max : k + 1][::-1]
        memory = np.einsum("nj,jn->n", psi[:, 1 : j_max + 1], window)
        nxt = model.A @ x[k] + noise[k] - memory
        if u is not None:
            nxt = nxt + model.B @ u[k]
        x[k + 1] = nxt
    return np.ascontiguousarray(x.T)


class TestAlphaEstimate:
    def test_round_trip(self):
        truth = [a for a in (0.0, 0.3) for _ in range(3)]
        X = np.stack([synth.synth_frac_noise(a, 1 << 13, seed)
                      for a in (0.0, 0.3) for seed in range(3)])
        errs = np.abs(fracdyn.estimate_alphas(X) - truth)
        assert np.mean(errs) <= 0.07

    def test_short_input_rejected(self):
        with pytest.raises(ValueError, match="samples"):
            fracdyn.estimate_alphas(np.zeros(100))

    def test_batched_matches_scalar(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((3, 2048))
        batch = fracdyn.estimate_alphas(X)
        for i, row in enumerate(X):
            assert batch[i] == fracdyn.estimate_alphas(row)[0]

    @pytest.mark.filterwarnings("error")
    def test_constant_channel_raises(self):
        X = np.random.default_rng(5).standard_normal((3, 2048))
        X[0] = 2.5
        with pytest.raises(ValueError, match="row 0: zero fluctuation"):
            fracdyn.estimate_alphas(X)
        with pytest.raises(ValueError, match="row 0: zero fluctuation"):
            fracdyn.estimate_alphas(X[0])

    @pytest.mark.filterwarnings("error")
    def test_non_finite_sample_raises(self):
        x = np.random.default_rng(6).standard_normal(2048)
        x[7] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            fracdyn.estimate_alphas(x)


class TestEstimateCoupling:
    def test_exact_recovery_without_noise(self):
        model = synth.random_stable_model(5, 11, noise_scale=1.0)
        X = fracdyn.simulate(model, 6000, seed=3)
        A_hat = fracdyn.estimate_coupling(X, model.alpha, ridge=0.0)
        rel = np.linalg.norm(A_hat - model.A) / np.linalg.norm(model.A)
        assert rel < 0.05

    def test_first_sample_is_burned_in(self):
        # the fit starts past the GL truncation boundary, so x[0] enters only
        # through each channel's mean and scale, which the fit undoes exactly
        model = synth.random_stable_model(4, 2)
        X = fracdyn.simulate(model, 1500, seed=5)
        shifted = X.copy()
        shifted[:, 0] += 40.0
        np.testing.assert_allclose(
            fracdyn.estimate_coupling(shifted, model.alpha, ridge=0.0),
            fracdyn.estimate_coupling(X, model.alpha, ridge=0.0), rtol=0, atol=1e-12,
        )

    def test_ridge_penalty_is_scale_free(self):
        # the penalty is normalised by the Gram trace, so scaling the design
        # and the targets together leaves the coefficients unchanged
        rng = np.random.default_rng(7)
        design, targets = rng.standard_normal((300, 6)), rng.standard_normal((300, 4))
        np.testing.assert_allclose(
            fracdyn._solve_ridge(1e3 * design, 1e3 * targets, 0.5),
            fracdyn._solve_ridge(design, targets, 0.5), rtol=0, atol=1e-12,
        )

    def test_ridge_advice_on_singular(self):
        X = np.zeros((3, 400))
        X[0] = np.random.default_rng(0).standard_normal(400)
        with pytest.raises(fracdyn.NumericalError, match="ridge"):
            fracdyn.estimate_coupling(X, np.full(3, 0.3), ridge=0.0)

    def test_alpha_length_mismatch(self):
        X = np.random.default_rng(0).standard_normal((3, 400))
        with pytest.raises(ValueError):
            fracdyn.estimate_coupling(X, np.full(2, 0.3))


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestCouplingMagnitudes:
    """The coupling fit is scale equivariant inside the magnitudes float64 can
    square, and every fit refuses a channel outside them, naming its row."""

    @staticmethod
    def _scaled(scale):
        model = synth.random_stable_model(3, 0, noise_scale=1.0)
        X = fracdyn.simulate(model, 2000, seed=0)
        d = np.array([scale, 1.0, 1.0])
        return model, X, d

    @pytest.mark.parametrize("scale", [1e-130, 1e-100, 1.0, 1e100, 1e150])
    def test_scaled_channel_gives_the_similar_matrix(self, scale):
        model, X, d = self._scaled(scale)
        expected = fracdyn.estimate_coupling(X, model.alpha) * d[:, None] / d[None, :]
        A = fracdyn.estimate_coupling(X * d[:, None], model.alpha)
        np.testing.assert_allclose(A, expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("scale", [1e-200, 1e-140, 1e200])
    @pytest.mark.parametrize("fit", ["known", "unknown", "convergence"])
    def test_channel_outside_refused_by_row(self, fit, scale):
        model, X, d = self._scaled(scale)
        X = X * d[:, None]
        calls = {
            "known": lambda: fracdyn.estimate_coupling(X, model.alpha),
            "unknown": lambda: fracdyn.estimate_with_unknown_input(X, model.alpha, 1),
            "convergence": lambda: fracdyn.coupling_convergence(X, model.alpha, 500),
        }
        with pytest.raises(ValueError, match=r"^row 0: centred peak \S+ lies outside \[6\.72e-139, "):
            calls[fit]()


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
        X = fracdyn.simulate(model, T, u=u, seed=101)
        blind = fracdyn.estimate_coupling(X, model.alpha)
        report = fracdyn.estimate_with_unknown_input(X, model.alpha, 1)

        def err(A):
            return np.linalg.norm(A - model.A) / np.linalg.norm(model.A)

        assert report.model.A.shape == (8, 8)
        assert report.iterations >= 1
        assert len(report.residual_norm) >= 1
        assert err(report.model.A) < err(blind)


class TestMinimumFitLength:
    """Both coupling fits reject a record too short for the horizon."""

    MESSAGE = "record length 60 too short for horizon 50 and 4 channels"

    def test_known_input(self):
        X = np.random.default_rng(0).standard_normal((4, 60))
        with pytest.raises(ValueError, match=self.MESSAGE):
            fracdyn.estimate_coupling(X, np.full(4, 0.3))

    def test_unknown_input(self):
        X = np.random.default_rng(0).standard_normal((4, 60))
        with pytest.raises(ValueError, match=self.MESSAGE):
            fracdyn.estimate_with_unknown_input(X, np.full(4, 0.3), 1)


class TestFitParameters:
    """Every coupling fit names a horizon below 1 or a negative or non-finite ridge."""

    @pytest.mark.parametrize(
        "kwargs, named",
        [({"horizon": -3}, "horizon must be at least 1, got -3"),
         ({"horizon": 0}, "horizon must be at least 1, got 0"),
         ({"ridge": -0.5}, "ridge must be finite and nonnegative, got -0.5"),
         ({"ridge": np.nan}, "ridge must be finite and nonnegative, got nan")],
        ids=["horizon-negative", "horizon-zero", "ridge-negative", "ridge-nan"],
    )
    @pytest.mark.parametrize("fit", ["known", "unknown", "convergence"])
    def test_rejected_by_name(self, fit, kwargs, named):
        X = np.random.default_rng(0).standard_normal((3, 600))
        alpha = np.full(3, 0.3)
        calls = {
            "known": lambda: fracdyn.estimate_coupling(X, alpha, **kwargs),
            "unknown": lambda: fracdyn.estimate_with_unknown_input(X, alpha, 1, **kwargs),
            "convergence": lambda: fracdyn.coupling_convergence(X, alpha, 200, **kwargs),
        }
        with pytest.raises(ValueError, match=named):
            calls[fit]()

    @pytest.mark.parametrize("step", [0, -3])
    def test_step_below_one_sample(self, step):
        with pytest.raises(ValueError, match=f"step must be at least 1 sample, got {step}"):
            fracdyn.coupling_convergence(np.ones((2, 100)), np.full(2, 0.3), step)


class TestCouplingConvergence:
    def test_distances_fall(self):
        model = synth.random_stable_model(6, 4, noise_scale=1.0)
        X = fracdyn.simulate(model, 4000, seed=4)
        lengths, dists = fracdyn.coupling_convergence(X, model.alpha, 200)
        assert lengths.size == dists.size > 3
        assert np.all(np.diff(lengths) > 0)
        assert dists[-1] < dists[0]

    def test_too_short_record(self):
        model = synth.random_stable_model(3, 0, noise_scale=1.0)
        X = fracdyn.simulate(model, 300, seed=0)
        with pytest.raises(ValueError, match="short"):
            fracdyn.coupling_convergence(X, model.alpha, 200)

    def test_fewer_than_two_fittable_prefixes(self):
        # 12 channels need 50 + 120 + 1 = 171 samples: of the 100- and
        # 200-sample prefixes only the second can be fitted
        X = np.random.default_rng(0).standard_normal((12, 250))
        with pytest.raises(ValueError, match=(
            "record length 250 with a step of 100 samples leaves fewer than two "
            "prefixes of at least 171 samples"
        )):
            fracdyn.coupling_convergence(X, np.full(12, 0.3), 100)


class TestModelJson:
    def test_round_trip(self):
        model = synth.random_stable_model(4, 9)
        text = fracdyn.model_to_json(model.alpha, model.A)
        data = json.loads(text)
        assert data["n"] == 4
        np.testing.assert_array_equal(data["alpha"], model.alpha)
        np.testing.assert_array_equal(np.reshape(data["A"], (4, 4)), model.A)
