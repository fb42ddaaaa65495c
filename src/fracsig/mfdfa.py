"""Multifractal detrended fluctuation analysis.

Pipeline: cumulative profile -> per-window detrended RMS fluctuations ->
moment-order scaling function S_F(q, s) -> log-log slopes H(q), focus
extrapolation at the full signal length, cohort statistics, and the
one-dimensional Wasserstein distance used to compare spectra.

All detrending is one kernel, ``_window_f2``: windows are centred and
projected onto a cached orthonormal polynomial basis Q, and the residual
is formed as y - (yQ)Q^T, not as |y|^2 - |Q^T y|^2, which cancels.
Every log-log slope is one OLS helper, ``_loglog_fit``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy import stats
from scipy.special import logsumexp

__all__ = [
    "MfdfaConfig",
    "ScalingFunction",
    "HurstSpectrum",
    "FocusEstimate",
    "CohortSpectrum",
    "ScalingDiagnostics",
    "default_scale_grid",
    "dyadic_scale_grid",
    "profile",
    "fluctuation",
    "scaling_function",
    "dfa_exponents",
    "hurst_spectrum",
    "focus_point",
    "cohort_spectrum",
    "wasserstein_1d",
    "spectrum_distance",
    "scaling_diagnostics",
]

DEFAULT_Q_GRID = (-5.0, -3.0, -1.0, 1.0, 3.0, 5.0)
_EPS = np.finfo(float).eps


def default_scale_grid(n: int, num: int = 20, s_min: int = 16) -> np.ndarray:
    """~``num`` log-spaced integer scales in [s_min, n // 4], deduplicated."""
    s_max = n // 4
    if s_max < s_min:
        raise ValueError(f"series too short for scale grid: n={n}")
    grid = np.unique(
        np.round(np.exp(np.linspace(np.log(s_min), np.log(s_max), num))).astype(int)
    )
    return grid


def dyadic_scale_grid(n: int, s_min: int = 16) -> np.ndarray:
    """Powers of two in [s_min, n // 4]; exact for dyadic constructions."""
    s_max = n // 4
    if s_max < s_min:
        raise ValueError(f"series too short for scale grid: n={n}")
    exps = np.arange(int(np.log2(s_min)), int(np.floor(np.log2(s_max))) + 1)
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
class CohortSpectrum:
    q_grid: np.ndarray
    mean: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    n: int


@dataclass(frozen=True)
class ScalingDiagnostics:
    """Std profiles of log2 S_F: across q per scale and across s per q."""

    scale_grid: np.ndarray
    q_grid: np.ndarray
    std_across_q: np.ndarray  # per scale
    std_across_s: np.ndarray  # per q


def profile(x) -> np.ndarray:
    """Cumulative sum of the mean-centered series; row by row for a matrix."""
    x = np.asarray(getattr(x, "samples", x), dtype=float)
    if x.size == 0:
        raise ValueError("empty series")
    finite = np.isfinite(x).all(axis=-1)
    if not finite.all():
        where = "series" if x.ndim == 1 else f"row {np.argmin(finite)}"
        raise ValueError(f"{where} contains non-finite values")
    return np.cumsum(x - x.mean(axis=-1, keepdims=True), axis=-1)


@functools.lru_cache(maxsize=256)
def _detrend_basis(s: int, order: int) -> np.ndarray:
    """Read-only orthonormal basis of the degree-``order`` polynomials on s points."""
    # t in [-1, 1] keeps the Vandermonde well conditioned; the span is the same
    q, _ = np.linalg.qr(np.vander(np.linspace(-1.0, 1.0, s), order + 1))
    q.flags.writeable = False
    return q


def _window_f2(profiles: np.ndarray, s: int, order: int, both_ends: bool) -> np.ndarray:
    """Per-window mean squared residual F^2 after polynomial detrending.

    ``profiles`` is (rows, n) and the result (rows, windows), over the
    windows of :func:`fluctuation`.  Windows are centred first, so the
    rounding error scales with their spread, not their offset.  A
    residual at the rounding level of its window (a polynomial) is zero.
    """
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
    segs = segs.reshape(-1, s)
    mean = segs.sum(axis=1) / s
    segs = segs - mean[:, None]
    q = _detrend_basis(s, order)
    resid = segs - (segs @ q) @ q.T
    f2 = np.einsum("ij,ij->i", resid, resid) / s
    # rounding bounds the computed residual by ~(order + 1) s eps times the window's rms
    level = np.einsum("ij,ij->i", segs, segs) / s + mean**2
    f2[f2 <= ((order + 1) * s * _EPS) ** 2 * level] = 0.0
    return f2.reshape(rows, -1)


def fluctuation(y: np.ndarray, s: int, order: int = 1, *, both_ends: bool = False) -> np.ndarray:
    """Per-window RMS residual after polynomial detrending at scale ``s``.

    Windows are the first floor(N/s) non-overlapping blocks; with
    ``both_ends`` the mirrored blocks from the end are appended.
    """
    y = np.asarray(y, dtype=float)
    return np.sqrt(_window_f2(y[None, :], int(s), order, both_ends)[0])


def scaling_function(y: np.ndarray, cfg: MfdfaConfig | None = None) -> ScalingFunction:
    """Moment-order scaling function over the configured (q, s) grid.

    For q != 0: S_F(q, s) = { mean_v F(v, s)^q }^{1/q}; q = 0 uses the
    geometric mean when ``q_zero_mode`` is "log-average".  A zero
    fluctuation in any window makes the moments of order q <= 0 diverge
    and raises, as does a scale at which every window is zero.
    """
    cfg = cfg or MfdfaConfig()
    y = np.asarray(y, dtype=float)
    scales = cfg.resolve_scales(y.size)
    q_grid = cfg.resolve_q()
    values = np.empty((q_grid.size, scales.size))
    n_windows = np.empty(scales.size, dtype=int)
    for si, s in enumerate(scales):
        f = fluctuation(y, int(s), cfg.detrend_order, both_ends=cfg.both_ends)
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
                # log-domain moment mean avoids overflow at large |q|
                values[qi, si] = np.exp(
                    (logsumexp(q * logf) - np.log(f.size)) / q
                )
    return ScalingFunction(q_grid, scales, values, n_windows, y.size)


def _loglog_fit(scales, logv: np.ndarray):
    """OLS line of each row of ``logv`` on log2 ``scales``: (slopes, intercepts, mse)."""
    logs = np.log2(np.asarray(scales, dtype=float))
    if logs.size < 3:
        raise ValueError("need at least 3 scales for a slope fit")
    if np.ptp(logs) == 0:
        raise ValueError("degenerate scale grid")
    design = np.stack([logs, np.ones_like(logs)], axis=1)
    coeffs, *_ = np.linalg.lstsq(design, logv.T, rcond=None)
    mse = np.mean((logv.T - design @ coeffs) ** 2, axis=0)
    return coeffs[0], coeffs[1], mse


def dfa_exponents(X, scales=None, order: int = 1):
    """Batched q=2 DFA exponents for equal-length series.

    ``X`` is (n_series, n_samples); rows are profiled, detrended per
    window at each scale, and the log2 RMS fluctuation is fitted against
    log2 scale.  Returns (slopes, fit_mse) arrays of length n_series.
    Matches the q=2 column of :func:`scaling_function` on the same grid.
    A row with zero fluctuation in every window at some scale raises.
    """
    profiles = profile(np.atleast_2d(X))
    if scales is None:
        scales = default_scale_grid(profiles.shape[1])
    scales = np.asarray(scales, dtype=int)
    logf = np.empty((profiles.shape[0], scales.size))
    for si, s in enumerate(scales):
        f2 = _window_f2(profiles, int(s), order, False).mean(axis=1)
        if not f2.all():
            raise ValueError(
                f"row {np.argmin(f2)}: zero fluctuation in every window at scale {s}"
            )
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


def cohort_spectrum(spectra, *, mode: str = "student-t") -> CohortSpectrum:
    """Mean H(q) with a two-sided 95% confidence interval across records."""
    spectra = list(spectra)
    if len(spectra) < 2:
        raise ValueError("need at least 2 spectra")
    q0 = spectra[0].q_grid
    for sp in spectra[1:]:
        if sp.q_grid.shape != q0.shape or not np.array_equal(sp.q_grid, q0):
            raise ValueError("spectra use mismatched q grids")
    h = np.stack([sp.h for sp in spectra])
    n = h.shape[0]
    mean = h.mean(axis=0)
    sem = h.std(axis=0, ddof=1) / np.sqrt(n)
    if mode == "student-t":
        crit = stats.t.ppf(0.975, n - 1)
    elif mode == "normal":
        crit = stats.norm.ppf(0.975)
    else:
        raise ValueError(f"unknown CI mode: {mode!r}")
    return CohortSpectrum(q0, mean, mean - crit * sem, mean + crit * sem, n)


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


def spectrum_distance(a, b, *, mode: str = "q-samples") -> float:
    """Wasserstein distance between two groups of Hurst spectra.

    "q-samples" compares the mean H(q) curves as samples over the q grid;
    "patients" pools every per-record H value into one empirical
    distribution per group.
    """
    a, b = list(a), list(b)
    if mode == "q-samples":
        ha = np.stack([sp.h for sp in a]).mean(axis=0)
        hb = np.stack([sp.h for sp in b]).mean(axis=0)
        return wasserstein_1d(ha, hb)
    if mode == "patients":
        return wasserstein_1d(
            np.concatenate([sp.h for sp in a]),
            np.concatenate([sp.h for sp in b]),
        )
    raise ValueError(f"unknown mode: {mode!r}")


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
