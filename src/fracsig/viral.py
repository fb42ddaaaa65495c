"""Early-detection pipeline on sliding-window fractional exponents.

Three physiological channels per subject are cut at an assumed
inoculation point; per-window fractional orders are estimated on each
side, their distributions compared by KL divergence, and subjects
classified by leave-one-out thresholding of that single feature.  A
shift sweep probes sensitivity to a misplaced inoculation point; each
distinct window of a subject is fitted once, whatever the number of
shifts that ask for it, and its orders are sliced out per shift and side.

The sweep has a per-subject half, which checks one subject's window counts
and fits its windows, and a leave-one-out summary over every subject.  The
subjects are swept in order and the first that fails stops the sweep with
its error.  The ``viral`` command runs the per-subject half in its forked
workers; library calls to :func:`shift_sweep` and :func:`classify_loo` stay
serial and fork nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fracdyn, mfdfa
from .records import MultichannelRecord

__all__ = [
    "WindowSpec",
    "SubjectCase",
    "LooResult",
    "kl_feature",
    "classify_loo",
    "shift_sweep",
]


@dataclass(frozen=True)
class WindowSpec:
    window_len: int = 3000
    stride: int = 100

    def __post_init__(self):
        if self.window_len < fracdyn.MIN_DFA_SAMPLES:
            raise ValueError(
                f"window_len must be at least {fracdyn.MIN_DFA_SAMPLES}, got {self.window_len}"
            )
        if not (0 < self.stride <= self.window_len):
            raise ValueError("stride must lie in (0, window_len]")

    def count(self, n: int) -> int:
        if n < self.window_len:
            return 0
        return (n - self.window_len) // self.stride + 1


@dataclass(frozen=True, eq=False)
class SubjectCase(MultichannelRecord):
    """One subject's record with its inoculation index and infection label."""

    inoculation_index: int = field(kw_only=True)
    infected: bool = field(kw_only=True)

    def __post_init__(self):
        super().__post_init__()
        if not (0 < self.inoculation_index < self.n_samples):
            raise ValueError(
                f"inoculation index {self.inoculation_index} is not strictly inside "
                f"the record of {self.n_samples} samples"
            )


MIN_WINDOWS_PER_SIDE = 5


def _split_starts(case: SubjectCase, spec: WindowSpec, shift: int):
    """First samples of the windows before and after the split ``shift``
    samples past the inoculation index, in the record.

    Raises, naming the subject and the shift, when either side yields
    fewer than ``MIN_WINDOWS_PER_SIDE`` windows.
    """
    split = case.inoculation_index + shift
    n_pre = spec.count(split)
    n_post = spec.count(case.n_samples - split)
    if n_pre < MIN_WINDOWS_PER_SIDE or n_post < MIN_WINDOWS_PER_SIDE:
        raise ValueError(
            f"subject {case.subject_id!r}: shift {shift}: "
            f"need >= {MIN_WINDOWS_PER_SIDE} windows per side, got "
            f"{n_pre} pre and {n_post} post at split {split}"
        )
    return (
        range(0, n_pre * spec.stride, spec.stride),
        range(split, split + n_post * spec.stride, spec.stride),
    )


def _alpha_table(case: SubjectCase, spec: WindowSpec, starts, sides, batch: int) -> np.ndarray:
    """Per-channel orders of the windows at ``starts``: a (windows, channels) table.

    Windows are fitted in batches of at most ``batch``; a row's DFA
    exponent does not depend on its batch, so the split cannot change an
    order.  A window that cannot be fitted raises naming the subject, the
    channel, ``sides[i]`` and the window's first sample.
    """
    table = np.empty((len(starts), case.n_channels))
    for lo in range(0, len(starts), batch):
        chunk = starts[lo : lo + batch]
        # window-major rows: window i, channel c is row i * n_channels + c
        windows = np.concatenate(
            [case.channels[:, s : s + spec.window_len] for s in chunk], axis=0
        )
        try:
            table[lo : lo + len(chunk)] = fracdyn.estimate_alphas(windows).reshape(len(chunk), -1)
        except mfdfa._RowError as exc:
            window, channel = divmod(exc.row, case.n_channels)
            what = f"{sides[lo + window]} window starting at sample {chunk[window]}"
            if isinstance(exc, mfdfa.ZeroFluctuationError):
                what += f" has zero fluctuation in every DFA window at scale {exc.scale}"
            else:
                what += f": {exc.what}"
            raise ValueError(
                f"subject {case.subject_id!r}: channel {case.labels[channel]!r}: {what}"
            ) from None
    return table


def _split_alphas(case: SubjectCase, spec: WindowSpec, split_starts) -> list:
    """(pre, post) orders for each (pre starts, post starts) pair of one subject.

    Each distinct window is fitted once, in batches no larger than the
    longest side; a window's side in error messages is that of the first
    pair and side that asks for it.
    """
    side_of = {}
    for pair in split_starts:
        for side, starts in zip(("pre", "post"), pair):
            for s in starts:
                side_of.setdefault(s, side)
    starts = list(side_of)
    batch = max((len(side) for pair in split_starts for side in pair), default=1)
    table = _alpha_table(case, spec, starts, [side_of[s] for s in starts], batch)
    row = {s: i for i, s in enumerate(starts)}
    return [
        tuple(table[[row[s] for s in side]].ravel() for side in pair)
        for pair in split_starts
    ]


# Values in the one work block of _kde: 64 KiB, half glibc's 128 KiB mmap
# threshold.  Whole (grid x samples) temporaries, about 160 KiB on the viral
# sweep, sit just above it, and whether each call then maps fresh pages
# depends on the process's allocation history: 0.5k to 16k page faults per
# sweep, a third of the command's own CPU time, from one run to the next.
_KDE_BLOCK = 8192


def _kde(samples: np.ndarray, grid: np.ndarray, bandwidth: float) -> np.ndarray:
    # rows of grid points at a time; each row's sum is that of the whole matrix
    rows = max(1, _KDE_BLOCK // samples.size)
    work = np.empty((min(rows, grid.size), samples.size))
    dens = np.empty(grid.size)
    for start in range(0, grid.size, rows):
        z = work[: min(rows, grid.size - start)]
        np.subtract.outer(grid[start : start + rows], samples, out=z)
        z /= bandwidth
        np.square(z, out=z)
        z *= -0.5
        np.exp(z, out=z)
        z.sum(axis=1, out=dens[start : start + len(z)])
    return dens / (samples.size * bandwidth * np.sqrt(2 * np.pi))


_DENSITY_FLOOR = 1e-12
_KL_GRID_SIZE = 512


def kl_feature(pre, post, bandwidth: float | None = None) -> float:
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
    grid = np.linspace(lo, hi, _KL_GRID_SIZE)
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


def _need_cases(n_cases: int) -> None:
    if n_cases < 3:
        raise ValueError("need at least 3 cases")


def _subject_sides(case: SubjectCase, shifts, spec: WindowSpec) -> list:
    """(pre, post) orders of one subject at each shift: the per-subject half
    of the sweep, run subject by subject until one fails.  The subject's
    window counts are checked at every shift before any of its windows is
    fitted."""
    return _split_alphas(case, spec, [_split_starts(case, spec, shift) for shift in shifts])


def _loo_sweep(sides, labels, subject_ids) -> list[LooResult]:
    """One leave-one-out result per shift from every subject's
    :func:`_subject_sides`: the summary half of the sweep."""
    labels = np.asarray(labels, dtype=bool)
    return [
        _loo_from_features(
            np.asarray([kl_feature(pre, post) for pre, post in pairs]), labels, subject_ids
        )
        for pairs in zip(*sides)
    ]


def _sweep(cases, shifts, spec: WindowSpec | None) -> list[LooResult]:
    """One leave-one-out result per shift; each distinct window is fitted once.

    Subjects are swept in order, and the first that fails raises its
    error before any later subject is read.
    """
    cases = list(cases)
    _need_cases(len(cases))
    spec = spec or WindowSpec()
    return _loo_sweep(
        [_subject_sides(case, shifts, spec) for case in cases],
        [c.infected for c in cases],
        [c.subject_id for c in cases],
    )


def classify_loo(cases, spec: WindowSpec | None = None, *, shift: int = 0) -> LooResult:
    """Leave-one-out classification on the KL feature.

    Each held-out subject is thresholded at the midpoint of the class
    mean features computed from the rest.  ``shift`` offsets the assumed
    inoculation point of every subject.
    """
    return _sweep(cases, [int(shift)], spec)[0]


def shift_sweep(cases, shifts, spec: WindowSpec | None = None):
    """Leave-one-out error counts as the assumed inoculation point moves.

    Returns a list of (shift, type_one, type_two) rows, one per shift.
    Each subject's distinct windows, over the union of every shift's
    splits, are fitted once and sliced per shift.
    """
    shifts = [int(shift) for shift in shifts]
    results = _sweep(cases, shifts, spec)
    return [(shift, r.type_one, r.type_two) for shift, r in zip(shifts, results)]
