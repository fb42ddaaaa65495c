"""Early-detection pipeline on sliding-window fractional exponents.

Three physiological channels per subject are cut at an assumed
inoculation point; per-window fractional orders are estimated on each
side, their distributions compared by KL divergence, and subjects
classified by leave-one-out thresholding of that single feature.  A
shift sweep probes sensitivity to a misplaced inoculation point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fracdyn, mfdfa

__all__ = [
    "WindowSpec",
    "SubjectCase",
    "LooResult",
    "window_alphas",
    "kl_feature",
    "classify_loo",
    "shift_sweep",
]


@dataclass(frozen=True)
class WindowSpec:
    window_len: int = 3000
    stride: int = 100

    def __post_init__(self):
        if self.window_len < 1 << 8:
            raise ValueError("window_len must be at least 256")
        if not (0 < self.stride <= self.window_len):
            raise ValueError("stride must lie in (0, window_len]")

    def count(self, n: int) -> int:
        if n < self.window_len:
            return 0
        return (n - self.window_len) // self.stride + 1


@dataclass(frozen=True)
class SubjectCase:
    """One subject: channel matrix, inoculation index, infection label."""

    channels: np.ndarray  # (3, n_samples)
    inoculation_index: int
    infected: bool
    subject_id: str = ""

    def __post_init__(self):
        channels = np.atleast_2d(np.asarray(self.channels, dtype=float))
        object.__setattr__(self, "channels", channels)
        n = channels.shape[1]
        if not (0 < self.inoculation_index < n):
            raise ValueError("inoculation index must be strictly inside the record")


MIN_WINDOWS_PER_SIDE = 5


def _side_alphas(X: np.ndarray, spec: WindowSpec) -> np.ndarray:
    """Per-window, per-channel orders (DFA re-centres every window)."""
    starts = np.arange(spec.count(X.shape[1])) * spec.stride
    # one (n_windows * n_channels, window_len) batch keeps the DFA fits vectorized
    windows = np.concatenate(
        [X[:, s : s + spec.window_len] for s in starts], axis=0
    )
    return fracdyn.estimate_alphas(windows)


def window_alphas(case: SubjectCase, spec: WindowSpec | None = None, split_index: int | None = None):
    """Fractional orders of the sliding windows before and after the split.

    Returns (pre, post) sample arrays with one alpha per window per
    channel.  Raises when either side yields fewer than
    ``MIN_WINDOWS_PER_SIDE`` windows.
    """
    spec = spec or WindowSpec()
    split = case.inoculation_index if split_index is None else int(split_index)
    X = case.channels
    n_pre = spec.count(split)
    n_post = spec.count(X.shape[1] - split)
    if n_pre < MIN_WINDOWS_PER_SIDE or n_post < MIN_WINDOWS_PER_SIDE:
        raise ValueError(
            f"need >= {MIN_WINDOWS_PER_SIDE} windows per side, got "
            f"{n_pre} pre and {n_post} post at split {split}"
        )
    return _side_alphas(X[:, :split], spec), _side_alphas(X[:, split:], spec)


def _kde(samples: np.ndarray, grid: np.ndarray, bandwidth: float) -> np.ndarray:
    z = (grid[:, None] - samples[None, :]) / bandwidth
    dens = np.exp(-0.5 * z**2).sum(axis=1) / (samples.size * bandwidth * np.sqrt(2 * np.pi))
    return dens


_DENSITY_FLOOR = 1e-12


def kl_feature(pre, post, bandwidth: float | None = None, grid_size: int = 512) -> float:
    """KL(pre || post) between Gaussian-kernel density estimates.

    Densities are evaluated on one shared grid spanning both sample sets
    and floored to keep the divergence finite.  Nonnegative up to
    quadrature error; asymmetric in its arguments.
    """
    pre = np.asarray(pre, dtype=float).ravel()
    post = np.asarray(post, dtype=float).ravel()
    if pre.size < 5 or post.size < 5:
        raise ValueError("need at least 5 samples on each side")
    if bandwidth is None:
        pooled_std = min(pre.std(ddof=1), post.std(ddof=1))
        if pooled_std == 0:
            raise ValueError("zero-variance sample set; pass an explicit bandwidth")
        bandwidth = 1.06 * pooled_std * min(pre.size, post.size) ** (-1 / 5)
    lo = min(pre.min(), post.min()) - 4 * bandwidth
    hi = max(pre.max(), post.max()) + 4 * bandwidth
    grid = np.linspace(lo, hi, grid_size)
    dx = grid[1] - grid[0]
    p = np.maximum(_kde(pre, grid, bandwidth), _DENSITY_FLOOR)
    q = np.maximum(_kde(post, grid, bandwidth), _DENSITY_FLOOR)
    p = p / (p.sum() * dx)
    q = q / (q.sum() * dx)
    return float(np.sum(p * np.log(p / q)) * dx)


@dataclass(frozen=True)
class LooResult:
    subject_ids: tuple[str, ...]
    features: np.ndarray
    predictions: np.ndarray  # bool, True = predicted infected
    type_one: int  # infected predicted healthy
    type_two: int  # healthy predicted infected


def _loo_from_features(features: np.ndarray, labels: np.ndarray, subject_ids) -> LooResult:
    n = labels.size
    preds = np.zeros(n, dtype=bool)
    for i in range(n):
        rest = np.delete(np.arange(n), i)
        rest_labels = labels[rest]
        if rest_labels.all() or not rest_labels.any():
            raise ValueError("leave-one-out training fold has a single class")
        mean_inf = features[rest][rest_labels].mean()
        mean_healthy = features[rest][~rest_labels].mean()
        threshold = 0.5 * (mean_inf + mean_healthy)
        if mean_inf >= mean_healthy:
            preds[i] = features[i] > threshold
        else:
            preds[i] = features[i] < threshold
    type_one = int(np.sum(labels & ~preds))
    type_two = int(np.sum(~labels & preds))
    return LooResult(tuple(subject_ids), features, preds, type_one, type_two)


def classify_loo(cases, spec: WindowSpec | None = None, *, shift: int = 0) -> LooResult:
    """Leave-one-out classification on the KL feature.

    Each held-out subject is thresholded at the midpoint of the class
    mean features computed from the rest.  ``shift`` offsets the assumed
    inoculation point of every subject.
    """
    cases = list(cases)
    if len(cases) < 3:
        raise ValueError("need at least 3 cases")
    spec = spec or WindowSpec()
    features = []
    for case in cases:
        pre, post = window_alphas(case, spec, case.inoculation_index + shift)
        features.append(kl_feature(pre, post))
    labels = np.array([c.infected for c in cases], dtype=bool)
    return _loo_from_features(
        np.asarray(features), labels, [c.subject_id for c in cases]
    )


def shift_sweep(cases, shifts, spec: WindowSpec | None = None):
    """Leave-one-out error counts as the assumed inoculation point moves.

    Returns a list of (shift, type_one, type_two) rows, one per shift.
    """
    rows = []
    for shift in shifts:
        result = classify_loo(cases, spec, shift=int(shift))
        rows.append((int(shift), result.type_one, result.type_two))
    return rows
