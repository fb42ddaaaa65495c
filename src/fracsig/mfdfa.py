"""Multifractal detrended fluctuation analysis.

Pipeline: cumulative profile -> per-window detrended RMS fluctuations ->
moment-order scaling function S_F(q, s) -> log-log slopes H(q) and focus
extrapolation at the full signal length, plus the one-dimensional
Wasserstein distance that the coupling convergence curves use.

All detrending is one kernel, ``_window_f2``, which makes one pass over
the scale grid of a batch of profiles in one reused workspace: windows
are centred and projected onto a cached orthonormal polynomial basis Q,
and the residual is formed as y - (yQ)Q^T, not as |y|^2 - |Q^T y|^2,
which cancels.  :func:`fluctuation` is its one-scale case,
:func:`scaling_function` and :func:`dfa_exponents` iterate it once.
Every log-log slope is one closed-form OLS helper, ``_loglog_fit``.
Both work row by row (one projection product per row, row reductions for
the fit), so rows are batch-invariant: a row's result is bit-identical
whatever other rows share its call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ZeroFluctuationError",
    "MfdfaConfig",
    "ScalingFunction",
    "HurstSpectrum",
    "FocusEstimate",
    "ScalingDiagnostics",
    "default_scale_grid",
    "dyadic_scale_grid",
    "profile",
    "fluctuation",
    "scaling_function",
    "dfa_exponents",
    "hurst_spectrum",
    "focus_point",
    "wasserstein_1d",
    "scaling_diagnostics",
    "spectrum_to_dict",
]

DEFAULT_Q_GRID = (-5.0, -3.0, -1.0, 1.0, 3.0, 5.0)
_EPS, _TINY, _MAX = np.finfo(float).eps, np.finfo(float).tiny, np.finfo(float).max


class _RowError(ValueError):
    """An error of one row of a DFA batch, which ``naming`` names by its label."""

    def __init__(self, row: int, what: str):
        super().__init__(f"row {row}: {what}")
        self.row = row
        self.what = what

    def __reduce__(self):  # rebuilt from its fields, as it travels from a worker process
        return type(self), (self.row, self.what)

    def naming(self, labels) -> ValueError:
        """The same error with its row named by its label in ``labels``."""
        return ValueError(f"channel {labels[self.row]!r}: {self.what}")


class ZeroFluctuationError(_RowError):
    """A row of a DFA batch has zero fluctuation in every window at a scale."""

    def __init__(self, row: int, scale: int):
        super().__init__(row, f"zero fluctuation in every window at scale {scale}")
        self.scale = scale

    def __reduce__(self):
        return type(self), (self.row, self.scale)


_MIN_SCALE = 16
_SCALE_GRID_POINTS = 20


def default_scale_grid(n: int) -> np.ndarray:
    """~20 log-spaced integer scales in [16, n // 4], deduplicated."""
    s_max = n // 4
    if s_max < _MIN_SCALE:
        raise ValueError(f"series too short for scale grid: n={n}")
    logs = np.linspace(np.log(_MIN_SCALE), np.log(s_max), _SCALE_GRID_POINTS)
    scales = np.round(np.exp(logs)).astype(int)
    # sorted already, so dropping repeats dedupes (np.unique would import numpy.ma)
    return scales[np.concatenate(([True], scales[1:] != scales[:-1]))]


def dyadic_scale_grid(n: int) -> np.ndarray:
    """Powers of two in [16, n // 4]; exact for dyadic constructions."""
    s_max = n // 4
    if s_max < _MIN_SCALE:
        raise ValueError(f"series too short for scale grid: n={n}")
    exps = np.arange(int(np.log2(_MIN_SCALE)), int(np.floor(np.log2(s_max))) + 1)
    return (2 ** exps).astype(int)


@dataclass(frozen=True)
class MfdfaConfig:
    """Knobs of the analysis.

    ``q_zero_mode`` is "exclude" (drop q=0 from the grid, the default) or
    "log-average" (geometric mean of the window fluctuations).
    ``both_ends`` adds the mirrored set of windows counted from the end of
    the profile; off by default, matching forward-only indexing.
    """

    q_grid: tuple = DEFAULT_Q_GRID
    scale_grid: tuple | None = None
    detrend_order: int = 1
    q_zero_mode: str = "exclude"
    both_ends: bool = False

    def __post_init__(self):
        if len(self.q_grid) == 0:
            raise ValueError("q_grid must be nonempty")
        bad = [q for q in self.q_grid if not np.isfinite(q)]
        if bad:
            raise ValueError(f"q_grid values must be finite, got {bad[0]:g}")
        if self.q_zero_mode not in ("exclude", "log-average"):
            raise ValueError(f"unknown q_zero_mode: {self.q_zero_mode!r}")
        if self.detrend_order < 0:
            raise ValueError("detrend_order must be >= 0")

    def resolve_scales(self, n: int) -> np.ndarray:
        if self.scale_grid is None:
            grid = default_scale_grid(n)
        else:
            grid = np.asarray(self.scale_grid, dtype=int)
            if not np.all(np.diff(grid) > 0):
                raise ValueError("scale_grid must be strictly increasing")
        if grid[0] < self.detrend_order + 2:
            raise ValueError(
                f"smallest scale {grid[0]} < detrend_order + 2 = "
                f"{self.detrend_order + 2}"
            )
        if grid[-1] > n:
            raise ValueError(f"largest scale {grid[-1]} exceeds series length {n}")
        return grid

    def resolve_q(self) -> np.ndarray:
        q = np.asarray(self.q_grid, dtype=float)
        if self.q_zero_mode == "exclude":
            q = q[q != 0.0]
            if q.size == 0:
                raise ValueError("q_grid contains only 0 with q_zero_mode='exclude'")
        return q


@dataclass(frozen=True)
class ScalingFunction:
    """S_F(q, s) on a (q, scale) grid, plus the window counts per scale."""

    q_grid: np.ndarray
    scale_grid: np.ndarray
    values: np.ndarray  # shape (len(q_grid), len(scale_grid)), positive
    n_windows: np.ndarray
    n_samples: int


@dataclass(frozen=True)
class HurstSpectrum:
    """Per-q slopes of log2 S_F vs log2 s with fit diagnostics."""

    q_grid: np.ndarray
    h: np.ndarray
    intercepts: np.ndarray
    fit_mse: np.ndarray


@dataclass(frozen=True)
class FocusEstimate:
    """Fitted scaling-function values extrapolated to the full length L."""

    scale: int
    values: np.ndarray  # per q
    spread: float  # max/min ratio across q; ~1 signals a focus


@dataclass(frozen=True)
class ScalingDiagnostics:
    """Std profiles of log2 S_F: across q per scale and across s per q."""

    scale_grid: np.ndarray
    q_grid: np.ndarray
    std_across_q: np.ndarray  # per scale
    std_across_s: np.ndarray  # per q


def _centred(x: np.ndarray, cumulative: bool = False) -> np.ndarray:
    """Rows of ``x`` minus their means, cumulated to the profile if ``cumulative``.

    The one magnitude rule of every kernel that squares a channel refuses the
    first row whose nonzero peak lies outside [sqrt(tiny) / eps, sqrt(max / 8n)]
    for n samples (below, DFA's rounding test underflows; above, n squares can
    overflow), raising for a matrix an error that ``naming`` names by its label.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result is refused below
        y = x - x.mean(axis=-1, keepdims=True)
        if cumulative:
            y = np.cumsum(y, axis=-1)
        peak = np.maximum(y.max(axis=-1), -y.min(axis=-1))
    lo, hi = np.sqrt(_TINY) / _EPS, np.sqrt(_MAX / (8 * x.shape[-1]))
    outside = ~(peak <= hi) | ((0 < peak) & (peak < lo))
    if outside.any():
        row = np.argmax(outside)
        what = (f"{'profile' if cumulative else 'centred'} peak {peak.flat[row]:.3g} lies "
                f"outside [{lo:.3g}, {hi:.3g}], the magnitudes float64 can square")
        if x.ndim == 1:
            raise ValueError(what)
        raise _RowError(int(row), what)
    return y


def profile(x) -> np.ndarray:
    """Cumulative sum of the mean-centred series, row by row, under ``_centred``'s rule."""
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ValueError("empty series")
    finite = np.isfinite(x).all(axis=-1)
    if not finite.all():
        where = "series" if x.ndim == 1 else f"row {np.argmin(finite)}"
        raise ValueError(f"{where} contains non-finite values")
    return _centred(x, cumulative=True)


@functools.lru_cache(maxsize=256)
def _detrend_basis(s: int, order: int) -> np.ndarray:
    """Read-only orthonormal basis of the degree-``order`` polynomials on s points."""
    # t in [-1, 1] keeps the Vandermonde well conditioned; the span is the same
    q, _ = np.linalg.qr(np.vander(np.linspace(-1.0, 1.0, s), order + 1))
    q.flags.writeable = False
    return q


def _window_f2(profiles: np.ndarray, scales, order: int, both_ends: bool):
    """Per-window mean squared residual F^2 after polynomial detrending.

    ``profiles`` is (rows, n); one (rows, windows) array is yielded per
    scale of ``scales``, over the windows of :func:`fluctuation`.  Two
    workspaces of the batch's size (twice that with ``both_ends``) are
    allocated once per call and reused at every scale: one holds the
    centred windows, the other their projection and then the residual.
    Windows are centred first, so the rounding error scales with their
    spread, not their offset.  A residual at the rounding level of its
    window (a polynomial) is zero.
    """
    rows, n = profiles.shape
    size = rows * n * (2 if both_ends else 1)
    centred, resid = np.empty(size), np.empty(size)
    for s in scales:
        s = int(s)
        if s < order + 2:
            raise ValueError(f"scale {s} too small for detrend order {order}")
        if s > n:
            raise ValueError(f"scale {s} exceeds series length {n}")
        nw = n // s
        # (rows, nw, s) views of the profiles: no copy of the windows is made
        head = profiles[:, : nw * s].reshape(rows, nw, s)
        if both_ends:
            tail = profiles[:, n - nw * s :].reshape(rows, nw, s)
            mean = np.concatenate([head.sum(axis=2), tail.sum(axis=2)], axis=1) / s
            segs = centred[: mean.size * s].reshape(rows, 2 * nw, s)
            np.subtract(head, mean[:, :nw, None], out=segs[:, :nw])
            np.subtract(tail, mean[:, nw:, None], out=segs[:, nw:])
        else:
            mean = head.sum(axis=2) / s
            segs = centred[: mean.size * s].reshape(rows, nw, s)
            np.subtract(head, mean[..., None], out=segs)
        q = _detrend_basis(s, order)
        r = resid[: segs.size].reshape(segs.shape)
        # stacked products run one GEMM per row, so no row sees the batch size
        np.matmul(segs @ q, q.T, out=r)
        np.subtract(segs, r, out=r)
        f2 = np.einsum("rij,rij->ri", r, r) / s
        # rounding bounds the computed residual by ~(order + 1) s eps times the window's rms
        level = np.einsum("rij,rij->ri", segs, segs) / s + mean**2
        f2[f2 <= ((order + 1) * s * _EPS) ** 2 * level] = 0.0
        yield f2


def _one_profile(y) -> np.ndarray:
    """``y`` as a one-row batch; raises unless it is a single profile."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError(f"expected one profile, got an array of shape {y.shape}")
    return y[None, :]


def fluctuation(y: np.ndarray, s: int, order: int = 1, *, both_ends: bool = False) -> np.ndarray:
    """Per-window RMS residual after polynomial detrending at scale ``s``.

    Windows are the first floor(N/s) non-overlapping blocks; with
    ``both_ends`` the mirrored blocks from the end are appended.
    """
    (f2,) = _window_f2(_one_profile(y), (s,), order, both_ends)
    return np.sqrt(f2[0])


def _logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) of a finite 1-D array, shifted by its maximum.

    The maximal terms are summed apart and the rest goes through
    ``log1p``, in the order of ``scipy.special.logsumexp`` (1.17), so the
    result is bit-identical to it.
    """
    top = a.max()
    at_top = a == top
    e = np.exp(a - top)
    e[at_top] = 0.0
    m = np.count_nonzero(at_top)
    return np.log1p(e.sum() / m) + np.log(m) + top


def scaling_function(y: np.ndarray, cfg: MfdfaConfig | None = None) -> ScalingFunction:
    """Moment-order scaling function over the configured (q, s) grid.

    For q != 0: S_F(q, s) = { mean_v F(v, s)^q }^{1/q}; q = 0 uses the
    geometric mean when ``q_zero_mode`` is "log-average".  A zero
    fluctuation in any window makes the moments of order q <= 0 diverge
    and raises, as does a scale at which every window is zero.  Each
    moment is a log-domain mean (``_logsumexp``), so large |q| does not
    overflow.
    """
    cfg = cfg or MfdfaConfig()
    y = _one_profile(y)
    scales = cfg.resolve_scales(y.size)
    q_grid = cfg.resolve_q()
    values = np.empty((q_grid.size, scales.size))
    n_windows = np.empty(scales.size, dtype=int)
    f2s = _window_f2(y, scales, cfg.detrend_order, cfg.both_ends)
    for si, (s, f2) in enumerate(zip(scales, f2s)):
        f = np.sqrt(f2[0])
        n_windows[si] = f.size
        live = f > 0
        if not live.all() and np.any(q_grid <= 0):
            raise ValueError(
                f"zero fluctuation in window {np.argmin(live)} at scale {s}: "
                "moments of order q <= 0 diverge"
            )
        if not live.any():
            raise ValueError(f"zero fluctuation in every window at scale {s}")
        # zero windows add nothing to a positive moment but still count in the mean
        logf = np.log(f[live])
        for qi, q in enumerate(q_grid):
            if q == 0.0:
                values[qi, si] = np.exp(np.mean(logf))
            else:
                values[qi, si] = np.exp((_logsumexp(q * logf) - np.log(f.size)) / q)
    return ScalingFunction(q_grid, scales, values, n_windows, y.size)


def _loglog_fit(scales, logv: np.ndarray):
    """OLS line of each row of ``logv`` on log2 ``scales``: (slopes, intercepts, mse).

    The slope is sum(logv * w) with w = (x - mean x) / sum((x - mean x)^2).
    """
    logs = np.log2(np.asarray(scales, dtype=float))
    if logs.size < 3:
        raise ValueError("need at least 3 scales for a slope fit")
    if np.ptp(logs) == 0:
        raise ValueError("degenerate scale grid")
    centred = logs - logs.mean()
    # closed-form OLS as row reductions: each row's line is its own arithmetic
    slopes = (logv * (centred / (centred @ centred))).sum(axis=1)
    intercepts = logv.mean(axis=1) - slopes * logs.mean()
    mse = ((logv - slopes[:, None] * logs - intercepts[:, None]) ** 2).mean(axis=1)
    return slopes, intercepts, mse


def dfa_exponents(X, scales=None, order: int = 1):
    """Batched q=2 DFA exponents for equal-length series.

    ``X`` is (n_series, n_samples); rows are profiled, detrended per
    window at each scale, and the log2 RMS fluctuation is fitted against
    log2 scale.  Returns (slopes, fit_mse) arrays of length n_series.
    Matches the q=2 column of :func:`scaling_function` on the same grid.
    A row with zero fluctuation in every window at some scale raises
    :class:`ZeroFluctuationError`, which names the row and the scale; a
    row whose profile :func:`profile` refuses raises naming the row.
    Rows are batch-invariant: any subset of the rows, in any order, gets
    bit-identical results to the same rows of one call over all of them.
    """
    profiles = profile(np.atleast_2d(X))
    if scales is None:
        scales = default_scale_grid(profiles.shape[1])
    scales = np.asarray(scales, dtype=int)
    logf = np.empty((profiles.shape[0], scales.size))
    for si, f2 in enumerate(_window_f2(profiles, scales, order, False)):
        f2 = f2.mean(axis=1)
        if not f2.all():
            raise ZeroFluctuationError(int(np.argmin(f2)), int(scales[si]))
        logf[:, si] = 0.5 * np.log2(f2)
    h, _, mse = _loglog_fit(scales, logf)
    return h, mse


def hurst_spectrum(sf: ScalingFunction) -> HurstSpectrum:
    """Per-q OLS fit of log2 S_F against log2 s; the slope is H(q)."""
    h, intercepts, mse = _loglog_fit(sf.scale_grid, np.log2(sf.values))
    return HurstSpectrum(sf.q_grid, h, intercepts, mse)


def focus_point(sf: ScalingFunction, spectrum: HurstSpectrum | None = None) -> FocusEstimate:
    """Extrapolate each fitted q-line to the full signal length.

    For a multifractal signal the lines converge there, so the max/min
    ratio of the extrapolated values (the spread) stays near 1.
    """
    spectrum = spectrum or hurst_spectrum(sf)
    log_l = np.log2(float(sf.n_samples))
    values = np.exp2(spectrum.intercepts + spectrum.h * log_l)
    spread = float(values.max() / values.min())
    return FocusEstimate(sf.n_samples, values, spread)


def wasserstein_1d(a, b) -> float:
    """First Wasserstein distance between two empirical distributions.

    Equal-length inputs reduce to the mean absolute difference of the
    sorted samples; unequal lengths are compared on a common quantile
    grid.
    """
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    if a.size == 0 or b.size == 0:
        raise ValueError("empty sample set")
    if a.size != b.size:
        m = max(a.size, b.size)
        probs = (np.arange(m) + 0.5) / m
        a = np.quantile(a, probs)
        b = np.quantile(b, probs)
    return float(np.mean(np.abs(a - b)))


def scaling_diagnostics(sf: ScalingFunction) -> ScalingDiagnostics:
    """Std of log2 S_F across q per scale and across s per q."""
    logv = np.log2(sf.values)
    return ScalingDiagnostics(
        sf.scale_grid,
        sf.q_grid,
        logv.std(axis=0),
        logv.std(axis=1),
    )


def spectrum_to_dict(sf: ScalingFunction, spectrum: HurstSpectrum) -> dict:
    """JSON-ready export of a scaling function and its fitted spectrum."""
    focus = focus_point(sf, spectrum)
    return {
        "q_grid": list(map(float, sf.q_grid)),
        "scale_grid": list(map(int, sf.scale_grid)),
        "scaling_function": [[float(v) for v in row] for row in sf.values],
        "n_windows": list(map(int, sf.n_windows)),
        "n_samples": int(sf.n_samples),
        "h": list(map(float, spectrum.h)),
        "intercepts": list(map(float, spectrum.intercepts)),
        "fit_mse": list(map(float, spectrum.fit_mse)),
        "focus_values": list(map(float, focus.values)),
        "focus_spread": float(focus.spread),
    }
