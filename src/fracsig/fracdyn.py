"""Discrete fractional-order multivariate linear dynamics.

The model couples n channels through

    frac_diff(x_i)[k+1] = sum_j A[i, j] x_j[k] + (B u[k])_i + w_i[k]

where ``frac_diff`` is the Grünwald–Letnikov fractional difference of
order alpha_i, truncated to a finite memory horizon.  This module builds
the GL weight tables, simulates trajectories, estimates per-channel
orders (every row of a matrix in one DFA call) and the coupling matrix
(optionally with unknown low-rank inputs), and tracks coupling
convergence over growing prefixes.  Every function takes and returns
plain arrays, (n_channels, n_samples) for a multichannel signal, and
counts time in samples.

The simulated recursion has one memory horizon, ``DEFAULT_HORIZON``:
:func:`simulate` and the stability checks in :mod:`fracsig.synth` all
truncate at it, so a model certified stable is the model that runs.
One private loop over the steps simulates any number of models of the
same size at once; :func:`simulate` is its one-model case, and a
model's trajectory is bit-identical whichever models share the loop.

The coupling fits take their own ``horizon`` (the ``--horizon`` flag of
the ``extract`` and ``convergence`` commands), since they fit recorded
data; a horizon below 1 or a negative ridge is rejected where a fit
starts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .mfdfa import _centred, dfa_exponents, wasserstein_1d

__all__ = [
    "FractionalModel",
    "EstimationReport",
    "NumericalError",
    "gl_coefficients",
    "frac_difference",
    "simulate",
    "estimate_alphas",
    "estimate_coupling",
    "estimate_with_unknown_input",
    "coupling_convergence",
    "check_fit_params",
    "model_to_json",
]

DEFAULT_HORIZON = 50
DEFAULT_RIDGE = 1e-6
# fewest samples an order estimate accepts: enough DFA scales for a log-log fit
MIN_DFA_SAMPLES = 1 << 10


class NumericalError(RuntimeError):
    """Raised when a computation diverges or fails to converge."""


def gl_coefficients(alpha, horizon: int) -> np.ndarray:
    """Grünwald–Letnikov weights psi(alpha, j) for j = 0..horizon.

    ``alpha`` is one order or an array of orders; the result has shape
    ``np.shape(alpha) + (horizon + 1,)``, one row of weights per order.
    Each row comes from the stable recurrence psi(alpha, 0) = 1 and
    psi(alpha, j) = psi(alpha, j-1) * (j-1-alpha)/j, which matches the
    gamma-ratio definition away from its poles.

    The full sum of the weights is 0 for alpha > 0, but for 0 < alpha < 1
    a kernel truncated at horizon J leaves a constant residual
    sum_{j<=J} psi(alpha, j) = Gamma(J+1-alpha) / (Gamma(1-alpha) Gamma(J+1)),
    which is positive and decays only like J^-alpha / Gamma(1-alpha).
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    alpha = np.asarray(alpha, dtype=float)
    if not np.all(np.isfinite(alpha)):
        raise ValueError("alpha must be finite")
    # Python floats round as float64 elements do, and step far faster
    rows = [list(accumulate(range(1, horizon + 1), lambda c, j: c * (j - 1 - a) / j, initial=1.0))
            for a in alpha.ravel().tolist()]
    return np.array(rows).reshape(alpha.shape + (horizon + 1,))


def frac_difference(x, alpha: float, horizon: int | None = None) -> np.ndarray:
    """Fractional difference z[k] = sum_{j<=min(k,J)} psi(alpha, j) x[k-j].

    ``horizon=None`` uses the full signal length (exact GL expansion).
    The operator is linear in ``x``; alpha=0 is the identity and alpha=1
    yields first differences (with z[0] = x[0]).
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    j_max = n - 1 if horizon is None else int(horizon)
    if j_max > n - 1:
        j_max = n - 1
    psi = gl_coefficients(alpha, max(j_max, 1))[: j_max + 1]
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
        if not 0 <= self.noise_scale < np.inf:
            raise ValueError(f"noise_scale must be finite and nonnegative, got {self.noise_scale}")

    @property
    def n(self) -> int:
        return self.alpha.size


_OVERFLOW_GUARD = 1e12
# steps per block: noise is drawn and finished steps are copied out once a block
_STEP_BLOCK = 32


def _trajectories(R: int, n: int, T: int) -> list[np.ndarray]:
    """R zero (n, T) trajectories for :func:`_simulate_rows`; T below 1 is rejected."""
    if T < 1:
        raise ValueError(f"need at least one step, got T={T}")
    return [np.zeros((n, T)) for _ in range(R)]


def _simulate_rows(psi, A, noise_scale, seeds, xs, *, B=None, u=None) -> tuple[int, int] | None:
    """Forward-simulate R models in one loop over the steps.

    ``xs`` holds each model's (n, T) trajectory, start state in column 0;
    columns 1..T-1 are written.  ``psi`` is the (R, n, J+1) GL weight
    table, ``A`` the (R, n, n) couplings, ``noise_scale`` and ``seeds``
    one value per model; ``B`` (R, n, p) with ``u`` (R, >= T-1, p) is
    optional.  Row r is bit-identical to the same model simulated alone:
    every row runs the operations of :func:`simulate` in the same order,
    and its noise comes from its own seeded generator, drawn in blocks of
    steps (a generator's draws do not depend on how they are split).

    The loop works in one (R, n, J + 1 + block) state holding the last J
    steps and the current block, and copies each finished block into the
    trajectories, which stay separate arrays.  A row that leaves the
    overflow guard is dropped with every row above it, and the rows below
    it run on.  Returns None when every row ran every step, else the
    ``(row, step)`` of the lowest dropped row.
    """
    R = len(xs)
    n, T = xs[0].shape
    J = psi.shape[2] - 1
    memory_psi = psi[:, :, 1:]  # weight of x[k+1-j] at j = 1..J
    gens = [np.random.default_rng(seed) for seed in seeds]
    scale = np.asarray(noise_scale, dtype=float).reshape(R)
    noise = np.empty((R, _STEP_BLOCK, n))
    state = np.empty((R, n, J + 1 + _STEP_BLOCK))  # column J + c holds step k0 + c
    state[:, :, J] = [x[:, 0] for x in xs]
    rows, diverged = R, None  # rows 0..rows-1 are still running
    for k0 in range(0, T - 1, _STEP_BLOCK):
        m = min(_STEP_BLOCK, T - 1 - k0)
        if k0:
            state[:rows, :, : J + 1] = state[:rows, :, _STEP_BLOCK:]
        for r in range(rows):
            gens[r].standard_normal(out=noise[r, :m])
        noise[:rows, :m] *= scale[:rows, None, None]
        for i in range(m):
            k, c = k0 + i, J + i
            s = state[:rows]
            depth = min(k + 1, J)
            # memory terms x[k+1-j] for j = 1..depth, newest first
            window = s[:, :, c + 1 - depth : c + 1][..., ::-1]
            memory = np.einsum("rnj,rnj->rn", memory_psi[:rows, :, :depth], window)
            nxt = (A[:rows] @ s[:, :, c, None])[..., 0] + noise[:rows, i] - memory
            if u is not None:
                nxt = nxt + (B[:rows] @ u[:rows, k, :, None])[..., 0]
            bounded = (np.abs(nxt) < _OVERFLOW_GUARD).all(axis=1)
            if not bounded.all():
                rows = int(np.argmin(bounded))
                diverged = (rows, k + 1)
                if rows == 0:
                    break
            s[:rows, :, c + 1] = nxt[:rows]
        for r in range(rows):
            xs[r][:, k0 + 1 : k0 + 1 + m] = state[r, :, J + 1 : J + 1 + m]
        if rows == 0:
            break
    return diverged


def simulate(
    model: FractionalModel,
    T: int,
    *,
    u: np.ndarray | None = None,
    x0: np.ndarray | None = None,
    seed: int = 0,
) -> np.ndarray:
    """Forward-simulate ``T`` steps of the fractional linear model.

    Returns the C-contiguous (n, T) trajectory, one row per channel.

    The state update moves every memory term of the GL expansion except
    the leading one to the right-hand side:

        x[k+1] = A x[k] + B u[k] + w[k]
                 - sum_{j=1..min(k+1, J)} psi(alpha, j) x[k+1-j]

    with J = ``DEFAULT_HORIZON`` and w ~ N(0, noise_scale^2), drawn from
    a seeded generator.  This is the one-model case of the batched loop
    :mod:`fracsig.synth` runs over a cohort.
    """
    (x,) = _trajectories(1, model.n, T)
    if x0 is not None:
        x[:, 0] = np.asarray(x0, dtype=float)
    if u is not None:
        u = np.atleast_2d(np.asarray(u, dtype=float))
        if u.shape[0] < T - 1:
            raise ValueError("input sequence shorter than simulation")
        if model.B is None:
            raise ValueError("model has no input matrix B")
        u = u[None]
    psi = gl_coefficients(model.alpha, DEFAULT_HORIZON)
    diverged = _simulate_rows(psi[None], model.A[None], model.noise_scale, [seed], [x],
                              B=None if u is None else model.B[None], u=u)
    if diverged is not None:
        raise NumericalError(f"trajectory diverged at step {diverged[1]}")
    return x


def estimate_alphas(X) -> np.ndarray:
    """Per-row order via the DFA route: alpha = H_DFA - 0.5, one DFA call.

    Valid for alpha in (-0.5, 1.5) by construction of the DFA exponent.
    A row's order does not depend on the other rows of ``X``.  Rows
    shorter than ``MIN_DFA_SAMPLES`` are rejected.  A row with zero
    fluctuation raises :class:`fracsig.mfdfa.ZeroFluctuationError`, and a
    row outside the magnitudes :func:`fracsig.mfdfa.profile` accepts a
    ``ValueError``; both name the row.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] < MIN_DFA_SAMPLES:
        raise ValueError(f"need at least {MIN_DFA_SAMPLES} samples, got {X.shape[1]}")
    return dfa_exponents(X)[0] - 0.5


def _min_fit_length(n: int, horizon: int) -> int:
    """Fewest samples a coupling fit of ``n`` channels accepts."""
    return horizon + 10 * n + 1


def check_fit_params(horizon: int, ridge: float) -> None:
    """Reject a coupling-fit horizon below 1 or a negative or non-finite ridge."""
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    if not 0 <= ridge < np.inf:
        raise ValueError(f"ridge must be finite and nonnegative, got {ridge}")


def _fit_matrix(X, horizon: int, ridge: float) -> np.ndarray:
    """Channel matrix of a coupling fit, rejected below the minimum length."""
    check_fit_params(horizon, ridge)
    X = np.asarray(X, dtype=float)
    n, T = X.shape
    if T < _min_fit_length(n, horizon):
        raise ValueError(
            f"record length {T} too short for horizon {horizon} and {n} channels"
        )
    return X


def _regression_blocks(X: np.ndarray, alpha, horizon: int):
    """Normalized design/target matrices for the coupling fit.

    Returns (design, targets, col_scale) where design rows are x[k] for
    k in [J, T-2] plus an intercept column, and targets rows are the
    fractional differences at k+1.  ``col_scale`` undoes the channel
    normalization on the fitted coefficients.  A channel whose centred
    samples float64 cannot square (``mfdfa._centred``) raises naming its row.
    """
    n, T = X.shape
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    if alpha.size != n:
        raise ValueError("alpha length must match channel count")
    Xw = _centred(X)
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
    X,
    alpha,
    *,
    horizon: int = DEFAULT_HORIZON,
    ridge: float = DEFAULT_RIDGE,
) -> np.ndarray:
    """Least-squares fit of the coupling matrix A with known orders.

    ``X`` is the (n, T) channel matrix.  Channels are mean-centered and
    variance-normalized before the fit for conditioning; coefficients are
    mapped back to the input units, so the result estimates A of the
    generating model directly.  An intercept column absorbs the
    centering offset exactly.
    """
    X = _fit_matrix(X, horizon, ridge)
    design, targets, sigma = _regression_blocks(X, alpha, horizon)
    coeffs = _solve_ridge(design, targets, ridge)
    A = coeffs[:-1].T  # drop intercept row; rows are channels
    return A * sigma[:, None] / sigma[None, :]


# unknown-input loop: rounds, relative tolerance on A, MAD gate, smoothing steps
_UI_MAX_ITER = 15
_UI_TOL = 1e-6
_UI_GATE = 1.5
_UI_SMOOTH = 15


@dataclass(frozen=True)
class EstimationReport:
    model: FractionalModel
    residual_norm: np.ndarray  # per iteration
    iterations: int
    converged: bool


def estimate_with_unknown_input(
    X,
    alpha,
    p: int,
    *,
    horizon: int = DEFAULT_HORIZON,
    ridge: float = DEFAULT_RIDGE,
) -> EstimationReport:
    """Alternating estimation of A under a rank-p unknown input.

    ``X`` is the (n, T) channel matrix.
    Each round alternates an input step with a refit step.  Input step:
    project the current residuals onto their top p singular directions
    (the input enters through a fixed n-by-p matrix, so its footprint
    across channels has rank p), smooth the projections with a 15-step
    moving average to exploit input persistence, and flag rows whose
    smoothed score exceeds the median by 1.5 scaled MADs; the rank-p
    approximation of the flagged residual rows is taken as the driven
    component.  Refit step: re-estimate A on the input-free rows.  Flags
    accumulate across rounds.  The loop runs at most 15 rounds and
    converges when A moves by less than 1e-6 relative.  The recorded
    residual norm excludes the captured drive; an increase aborts the
    loop with ``converged=False``.
    """
    X = _fit_matrix(X, horizon, ridge)
    if p >= X.shape[0]:
        raise ValueError("input count p must be strictly smaller than n")
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    design, targets, sigma = _regression_blocks(X, alpha, horizon)
    keep = np.ones(targets.shape[0], dtype=bool)
    prev_a = None
    history: list[float] = []
    for iterations in range(1, _UI_MAX_ITER + 1):
        coeffs = _solve_ridge(design[keep], targets[keep], ridge)
        resid = targets - design @ coeffs
        if p > 0:
            _, _, vt = np.linalg.svd(resid[keep], full_matrices=False)
            proj = resid @ vt[:p].T
            kern = np.ones(_UI_SMOOTH) / _UI_SMOOTH
            sm = np.stack(
                [np.convolve(proj[:, i], kern, mode="same") for i in range(p)],
                axis=1,
            )
            score = np.sqrt((sm**2).sum(axis=1))
            med = np.median(score)
            mad = np.median(np.abs(score - med)) + 1e-30
            mask = score > med + _UI_GATE * 1.4826 * mad
            # bursts are contiguous; widen hits to the smoothing width
            mask = np.convolve(mask.astype(float), np.ones(_UI_SMOOTH), mode="same") > 0
            keep = keep & ~mask
        # the drive covers every row excluded so far, not just new flags
        drive = np.zeros_like(targets)
        excluded = ~keep
        if p > 0 and excluded.any():
            u_mat, s_vals, v_rows = np.linalg.svd(resid[excluded], full_matrices=False)
            drive[excluded] = (u_mat[:, :p] * s_vals[:p]) @ v_rows[:p]
        norm = float(np.linalg.norm(resid - drive))
        if history and norm > history[-1] + 1e-9 * max(1.0, history[-1]):
            break  # converged is still False from the previous round
        history.append(norm)
        A = coeffs[:-1].T * sigma[:, None] / sigma[None, :]
        converged = prev_a is not None and bool(
            np.linalg.norm(A - prev_a) / max(np.linalg.norm(prev_a), 1e-30) < _UI_TOL
        )
        prev_a = A
        if converged:
            break
    model = FractionalModel(alpha, prev_a, None, 0.0)
    return EstimationReport(model, np.asarray(history), iterations, converged)


def coupling_convergence(
    X,
    alpha,
    step: int,
    *,
    horizon: int = DEFAULT_HORIZON,
    ridge: float = DEFAULT_RIDGE,
):
    """Wasserstein distance between coupling estimates of growing prefixes.

    Fits A to every prefix of t = step, 2*step, ... samples of the (n, T)
    matrix ``X`` that is long enough for a coupling fit, then compares the
    n^2 entries of each fit with the next one's as empirical distributions.
    Returns (prefix_lengths, distances), each distance at the shorter
    prefix of its pair.
    """
    check_fit_params(horizon, ridge)
    if step < 1:
        raise ValueError(f"step must be at least 1 sample, got {step}")
    X = np.asarray(X, dtype=float)
    n, T = X.shape
    if T <= 2 * step:
        raise ValueError("record shorter than two steps")
    min_len = _min_fit_length(n, horizon)
    prefixes = [t for t in range(step, T + 1, step) if t >= min_len]
    if len(prefixes) < 2:
        raise ValueError(
            f"record length {T} with a step of {step} samples leaves fewer than "
            f"two prefixes of at least {min_len} samples, the shortest coupling fit"
        )
    fits = [estimate_coupling(X[:, :t], alpha, horizon=horizon, ridge=ridge).ravel()
            for t in prefixes]
    dists = [wasserstein_1d(a, b) for a, b in zip(fits, fits[1:])]
    return np.asarray(prefixes[:-1]), np.asarray(dists)


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
