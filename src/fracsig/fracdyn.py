"""Discrete fractional-order multivariate linear dynamics.

The model couples n channels through

    frac_diff(x_i)[k+1] = sum_j A[i, j] x_j[k] + (B u[k])_i + w_i[k]

where ``frac_diff`` is the Grünwald–Letnikov fractional difference of
order alpha_i, truncated to a finite memory horizon.  This module builds
the GL kernels, simulates trajectories, estimates per-channel orders and
the coupling matrix (optionally with unknown low-rank inputs), and
tracks coupling convergence over growing prefixes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .mfdfa import dfa_exponents, wasserstein_1d
from .records import MultichannelRecord, TimeSeries

__all__ = [
    "GLKernel",
    "FractionalModel",
    "AlphaEstimate",
    "EstimationReport",
    "NumericalError",
    "gl_coefficients",
    "frac_difference",
    "simulate",
    "estimate_alpha",
    "estimate_alphas",
    "estimate_coupling",
    "estimate_with_unknown_input",
    "coupling_convergence",
    "model_to_json",
    "model_from_json",
]

DEFAULT_HORIZON = 50


class NumericalError(RuntimeError):
    """Raised when a computation diverges or fails to converge."""


@dataclass(frozen=True)
class GLKernel:
    """Grünwald–Letnikov weights psi(alpha, j) for j = 0..horizon."""

    alpha: float
    coeffs: np.ndarray
    horizon: int


def gl_coefficients(alpha: float, horizon: int) -> GLKernel:
    """GL weights by the stable recurrence.

    psi(alpha, 0) = 1 and psi(alpha, j) = psi(alpha, j-1) * (j-1-alpha)/j,
    which matches the gamma-ratio definition away from its poles.

    The full sum of the weights is 0 for alpha > 0, but for 0 < alpha < 1
    a kernel truncated at horizon J leaves a constant residual
    sum_{j<=J} psi(alpha, j) = Gamma(J+1-alpha) / (Gamma(1-alpha) Gamma(J+1)),
    which is positive and decays only like J^-alpha / Gamma(1-alpha).
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if not np.isfinite(alpha):
        raise ValueError("alpha must be finite")
    coeffs = np.empty(horizon + 1)
    coeffs[0] = 1.0
    for j in range(1, horizon + 1):
        coeffs[j] = coeffs[j - 1] * (j - 1 - alpha) / j
    return GLKernel(float(alpha), coeffs, horizon)


def frac_difference(x, alpha: float, horizon: int | None = None) -> np.ndarray:
    """Fractional difference z[k] = sum_{j<=min(k,J)} psi(alpha, j) x[k-j].

    ``horizon=None`` uses the full signal length (exact GL expansion).
    The operator is linear in ``x``; alpha=0 is the identity and alpha=1
    yields first differences (with z[0] = x[0]).
    """
    x = np.asarray(getattr(x, "samples", x), dtype=float)
    n = x.size
    j_max = n - 1 if horizon is None else int(horizon)
    if j_max > n - 1:
        j_max = n - 1
    psi = gl_coefficients(alpha, max(j_max, 1)).coeffs[: j_max + 1]
    if n * (j_max + 1) > 1 << 22:
        full = np.fft.irfft(
            np.fft.rfft(x, 2 * n) * np.fft.rfft(psi, 2 * n), 2 * n
        )
        return full[:n]
    return np.convolve(x, psi)[:n]


@dataclass(frozen=True)
class FractionalModel:
    """Per-channel orders, coupling matrix, input matrix, and noise level."""

    alpha: np.ndarray  # (n,)
    A: np.ndarray  # (n, n)
    B: np.ndarray | None = None  # (n, p), p < n
    noise_scale: float = 0.0

    def __post_init__(self):
        alpha = np.atleast_1d(np.asarray(self.alpha, dtype=float))
        A = np.asarray(self.A, dtype=float)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "A", A)
        n = alpha.size
        if A.shape != (n, n):
            raise ValueError(f"A must be {n}x{n}, got {A.shape}")
        if self.B is not None:
            B = np.asarray(self.B, dtype=float)
            if B.ndim != 2 or B.shape[0] != n:
                raise ValueError("B must be (n, p)")
            if B.shape[1] >= n:
                raise ValueError("input count p must be strictly smaller than n")
            object.__setattr__(self, "B", B)
        if self.noise_scale < 0:
            raise ValueError("noise_scale must be nonnegative")

    @property
    def n(self) -> int:
        return self.alpha.size


_OVERFLOW_GUARD = 1e12


def simulate(
    model: FractionalModel,
    T: int,
    *,
    u: np.ndarray | None = None,
    x0: np.ndarray | None = None,
    seed: int = 0,
    horizon: int = DEFAULT_HORIZON,
    rate_hz: float = 1.0,
    subject_id: str = "",
    institution: str = "",
    stage_label: int | None = None,
) -> MultichannelRecord:
    """Forward-simulate ``T`` steps of the fractional linear model.

    The state update moves every memory term of the GL expansion except
    the leading one to the right-hand side:

        x[k+1] = A x[k] + B u[k] + w[k]
                 - sum_{j=1..min(k+1, J)} psi(alpha, j) x[k+1-j]

    with w ~ N(0, noise_scale^2), drawn from a seeded generator.
    """
    n = model.n
    rng = np.random.default_rng(seed)
    psi = np.stack([gl_coefficients(a, horizon).coeffs for a in model.alpha])  # (n, J+1)
    x = np.zeros((T, n))
    x[0] = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float)
    if u is not None:
        u = np.atleast_2d(np.asarray(u, dtype=float))
        if u.shape[0] < T - 1:
            raise ValueError("input sequence shorter than simulation")
        if model.B is None:
            raise ValueError("model has no input matrix B")
    noise = rng.standard_normal((T, n)) * model.noise_scale
    for k in range(T - 1):
        j_max = min(k + 1, horizon)
        # memory window x[k+1-j] for j=1..j_max, newest first
        window = x[k + 1 - j_max : k + 1][::-1]  # (j_max, n)
        memory = np.einsum("nj,jn->n", psi[:, 1 : j_max + 1], window)
        nxt = model.A @ x[k] + noise[k] - memory
        if u is not None:
            nxt = nxt + model.B @ u[k]
        if not np.all(np.abs(nxt) < _OVERFLOW_GUARD):
            raise NumericalError(f"trajectory diverged at step {k + 1}")
        x[k + 1] = nxt
    channels = tuple(
        TimeSeries(x[:, i], rate_hz, label=f"ch{i:02d}") for i in range(n)
    )
    return MultichannelRecord(channels, subject_id, institution, stage_label)


@dataclass(frozen=True)
class AlphaEstimate:
    """Fractional order estimated from the q=2 DFA scaling exponent."""

    alpha: float
    fit_mse: float
    low_confidence: bool

    def __float__(self) -> float:
        return self.alpha


# log-log fits noisier than this get flagged, not rejected
_ALPHA_MSE_THRESHOLD = 0.05


def _dfa_alphas(X, detrend_order: int):
    """Orders and log-log fit MSEs of the rows of ``X``: one DFA call."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] < 1 << 10:
        raise ValueError(f"need at least {1 << 10} samples, got {X.shape[1]}")
    h, mse = dfa_exponents(X, order=detrend_order)
    return h - 0.5, mse


def estimate_alpha(x, *, detrend_order: int = 1) -> AlphaEstimate:
    """Per-channel order via the DFA route: alpha = H_DFA - 0.5.

    Valid for alpha in (-0.5, 1.5) by construction of the DFA exponent.
    A poor log-log fit sets ``low_confidence`` instead of raising.  The
    one-row case of :func:`estimate_alphas`.
    """
    x = np.asarray(getattr(x, "samples", x), dtype=float)
    if x.ndim != 1:
        raise ValueError(f"expected one series, got an array of shape {x.shape}")
    alpha, mse = _dfa_alphas(x[None, :], detrend_order)
    return AlphaEstimate(
        float(alpha[0]), float(mse[0]), float(mse[0]) > _ALPHA_MSE_THRESHOLD
    )


def estimate_alphas(X, *, detrend_order: int = 1) -> np.ndarray:
    """Vectorized :func:`estimate_alpha` over the rows of a matrix."""
    return _dfa_alphas(X, detrend_order)[0]


def _regression_blocks(
    X: np.ndarray, alpha, horizon: int, center: bool, scale: bool
):
    """Normalized design/target matrices for the coupling fit.

    Returns (design, targets, col_scale) where design rows are x[k] for
    k in [J, T-2] plus an intercept column, and targets rows are the
    fractional differences at k+1.  ``col_scale`` undoes the channel
    normalization on the fitted coefficients.
    """
    n, T = X.shape
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    if alpha.size != n:
        raise ValueError("alpha length must match channel count")
    Xw = X.astype(float)
    sigma = np.ones(n)
    if center:
        Xw = Xw - Xw.mean(axis=1, keepdims=True)
    if scale:
        sigma = Xw.std(axis=1)
        sigma[sigma == 0] = 1.0
        Xw = Xw / sigma[:, None]
    Z = np.stack([frac_difference(Xw[i], alpha[i], horizon) for i in range(n)])
    k0 = min(horizon, (T - 2) // 2)  # burn-in past the truncation boundary
    design = np.concatenate(
        [Xw[:, k0 : T - 1].T, np.ones((T - 1 - k0, 1))], axis=1
    )
    targets = Z[:, k0 + 1 : T].T
    return design, targets, sigma


def _solve_ridge(design: np.ndarray, targets: np.ndarray, ridge: float) -> np.ndarray:
    gram = design.T @ design
    m = gram.shape[0]
    if ridge > 0:
        # trace-normalized so the penalty is scale free
        lam = ridge * np.trace(gram) / m
        gram = gram + lam * np.eye(m)
    rhs = design.T @ targets
    try:
        coeffs = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        raise NumericalError(
            "singular normal equations; retry with ridge > 0"
        ) from None
    if ridge == 0 and not np.all(np.isfinite(coeffs)):
        raise NumericalError("singular normal equations; retry with ridge > 0")
    return coeffs


def estimate_coupling(
    record,
    alpha,
    *,
    horizon: int = DEFAULT_HORIZON,
    ridge: float = 1e-6,
    center: bool = True,
    scale: bool = True,
) -> np.ndarray:
    """Least-squares fit of the coupling matrix A with known orders.

    Channels are mean-centered and variance-normalized before the fit
    for conditioning; coefficients are mapped back to the input units, so
    the result estimates A of the generating model directly.  An
    intercept column absorbs the centering offset exactly.
    """
    X = record.as_matrix() if hasattr(record, "as_matrix") else np.asarray(record, float)
    n, T = X.shape
    if T <= horizon + 10 * n:
        raise ValueError(
            f"record length {T} too short for horizon {horizon} and {n} channels"
        )
    design, targets, sigma = _regression_blocks(X, alpha, horizon, center, scale)
    coeffs = _solve_ridge(design, targets, ridge)
    A = coeffs[:-1].T  # drop intercept row; rows are channels
    return A * sigma[:, None] / sigma[None, :]


@dataclass(frozen=True)
class EstimationReport:
    model: FractionalModel
    residual_norm: np.ndarray  # per iteration
    iterations: int
    converged: bool


def estimate_with_unknown_input(
    record,
    alpha,
    p: int,
    *,
    max_iter: int = 15,
    tol: float = 1e-6,
    horizon: int = DEFAULT_HORIZON,
    ridge: float = 1e-6,
    gate: float = 1.5,
    smooth: int = 15,
    center: bool = True,
    scale: bool = True,
) -> EstimationReport:
    """Alternating estimation of A under a rank-p unknown input.

    Each round alternates an input step with a refit step.  Input step:
    project the current residuals onto their top p singular directions
    (the input enters through a fixed n-by-p matrix, so its footprint
    across channels has rank p), smooth the projections over ``smooth``
    steps to exploit input persistence, and flag rows whose smoothed
    score exceeds a robust MAD gate; the rank-p approximation of the
    flagged residual rows is taken as the driven component.  Refit step:
    re-estimate A on the input-free rows.  Flags accumulate across
    rounds.  The recorded residual norm excludes the captured drive; an
    increase aborts the loop with ``converged=False``.
    """
    X = record.as_matrix() if hasattr(record, "as_matrix") else np.asarray(record, float)
    n = X.shape[0]
    if p >= n:
        raise ValueError("input count p must be strictly smaller than n")
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    design, targets, sigma = _regression_blocks(X, alpha, horizon, center, scale)
    keep = np.ones(targets.shape[0], dtype=bool)
    prev_a = None
    history: list[float] = []
    converged = False
    iterations = 0
    aborted = False
    for iterations in range(1, max_iter + 1):
        coeffs = _solve_ridge(design[keep], targets[keep], ridge)
        resid = targets - design @ coeffs
        if p > 0:
            _, _, vt = np.linalg.svd(resid[keep], full_matrices=False)
            proj = resid @ vt[:p].T
            kern = np.ones(smooth) / smooth
            sm = np.stack(
                [np.convolve(proj[:, i], kern, mode="same") for i in range(p)],
                axis=1,
            )
            score = np.sqrt((sm**2).sum(axis=1))
            med = np.median(score)
            mad = np.median(np.abs(score - med)) + 1e-30
            mask = score > med + gate * 1.4826 * mad
            # bursts are contiguous; widen hits to the smoothing width
            mask = np.convolve(mask.astype(float), np.ones(smooth), mode="same") > 0
            keep = keep & ~mask
        # the drive covers every row excluded so far, not just new flags
        drive = np.zeros_like(targets)
        excluded = ~keep
        if p > 0 and excluded.any():
            u_mat, s_vals, v_rows = np.linalg.svd(resid[excluded], full_matrices=False)
            drive[excluded] = (u_mat[:, :p] * s_vals[:p]) @ v_rows[:p]
        norm = float(np.linalg.norm(resid - drive))
        if history and norm > history[-1] + 1e-9 * max(1.0, history[-1]):
            aborted = True
            break
        history.append(norm)
        A = coeffs[:-1].T * sigma[:, None] / sigma[None, :]
        if prev_a is not None:
            denom = max(np.linalg.norm(prev_a), 1e-30)
            if np.linalg.norm(A - prev_a) / denom < tol:
                converged = True
                prev_a = A
                break
        prev_a = A
    if aborted:
        converged = False
    model = FractionalModel(alpha, prev_a, None, 0.0)
    return EstimationReport(model, np.asarray(history), iterations, converged)


def coupling_convergence(
    record,
    alpha,
    step_seconds: float,
    *,
    horizon: int = DEFAULT_HORIZON,
    ridge: float = 1e-6,
):
    """Wasserstein distance between coupling estimates of growing prefixes.

    For t = step, 2*step, ...: estimate A from the first t seconds and
    from the first t+step seconds, and compare their n^2 entries as
    empirical distributions.  Returns (times_seconds, distances).
    """
    X = record.as_matrix()
    n, T = X.shape
    rate = record.rate_hz
    step = int(round(step_seconds * rate))
    if step < 1 or T <= 2 * step:
        raise ValueError("record shorter than two steps")
    min_len = horizon + 10 * n + 1
    times, dists = [], []
    prev = None
    prev_t = None
    for t in range(step, T + 1, step):
        if t < min_len:
            continue
        A = estimate_coupling(X[:, :t], alpha, horizon=horizon, ridge=ridge)
        if prev is not None:
            times.append(prev_t / rate)
            dists.append(wasserstein_1d(prev.ravel(), A.ravel()))
        prev, prev_t = A, t
    return np.asarray(times), np.asarray(dists)


def model_to_json(alpha, A) -> str:
    """Coupling export: {n, alpha[], A row-major[]}."""
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    A = np.asarray(A, dtype=float)
    return json.dumps(
        {
            "n": int(alpha.size),
            "alpha": [float(a) for a in alpha],
            "A": [float(v) for v in A.ravel()],
        }
    )


def model_from_json(text: str):
    data = json.loads(text)
    n = int(data["n"])
    alpha = np.asarray(data["alpha"], dtype=float)
    A = np.asarray(data["A"], dtype=float).reshape(n, n)
    return alpha, A
