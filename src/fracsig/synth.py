"""Synthetic ground-truth generators.

These are the oracles of the package: signals with analytically known
scaling properties (fractional Gaussian noise, binomial cascades,
fractionally integrated noise) and multichannel fractional systems that
carry their generating model for round-trip estimator tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fracdyn
from .records import MultichannelRecord, TimeSeries

__all__ = [
    "SyntheticSpec",
    "synth_white_noise",
    "synth_fgn",
    "synth_cascade",
    "cascade_hurst_exponent",
    "synth_frac_noise",
    "random_stable_model",
    "synth_fractional_system",
    "synth_stage_cohort",
    "synth_viral_cohort",
    "synthesize",
]


@dataclass(frozen=True)
class SyntheticSpec:
    """Declarative description of a synthetic record.

    ``kind`` is one of "white-noise", "fgn", "binomial-cascade",
    "fractional-system"; ``params`` holds the kind-specific settings.
    """

    kind: str
    length: int
    seed: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        kinds = {"white-noise", "fgn", "binomial-cascade", "fractional-system"}
        if self.kind not in kinds:
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.length < 1:
            raise ValueError("length must be positive")


def synth_white_noise(n: int, seed: int, *, rate_hz: float = 1.0) -> TimeSeries:
    rng = np.random.default_rng(seed)
    return TimeSeries(rng.standard_normal(n), rate_hz, label="white-noise")


def _fgn_autocovariance(h: float, k: np.ndarray) -> np.ndarray:
    k = np.abs(k.astype(float))
    return 0.5 * (
        np.abs(k - 1) ** (2 * h) - 2 * k ** (2 * h) + (k + 1) ** (2 * h)
    )


def synth_fgn(h: float, n: int, seed: int, *, rate_hz: float = 1.0) -> TimeSeries:
    """Exact fractional Gaussian noise by circulant embedding.

    Unit variance, zero mean in expectation; the target Hurst exponent
    ``h`` must lie in (0, 1).  ``n`` must be a power of two, at least 64.
    Deterministic under a fixed seed.
    """
    if not (0.0 < h < 1.0):
        raise ValueError("Hurst exponent must lie in (0, 1)")
    if n < 64 or (n & (n - 1)) != 0:
        raise ValueError("n must be a power of two, at least 64")
    m = 2 * n
    row = np.empty(m)
    gamma = _fgn_autocovariance(h, np.arange(n + 1))
    row[: n + 1] = gamma
    row[n + 1 :] = gamma[1:n][::-1]
    eig = np.fft.fft(row).real
    if eig.min() < -1e-8 * eig.max():
        raise ValueError(
            f"circulant embedding not nonnegative definite at n={n}; "
            "increase n"
        )
    eig = np.clip(eig, 0.0, None)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    sample = np.fft.fft(np.sqrt(eig / m) * z)
    return TimeSeries(sample.real[:n], rate_hz, label=f"fgn-H{h:g}")


def synth_cascade(
    p: float, depth: int, seed: int = 0, *, shuffle: bool = False, rate_hz: float = 1.0
) -> TimeSeries:
    """Binomial multiplicative cascade of length 2**depth.

    Each refinement splits a cell's mass by the multiplier pair
    (p, 1-p).  The canonical arrangement (larger multiplier to the left
    half) is fully deterministic and scales exactly on dyadic windows;
    ``shuffle=True`` assigns the pair in seeded random order per cell,
    which leaves the multifractal spectrum unchanged.  The output is a
    nonnegative measure summing to 1.
    """
    if not (0.5 < p < 1.0):
        raise ValueError("multiplier p must lie in (0.5, 1)")
    if not (10 <= depth <= 24):
        raise ValueError("depth must lie in [10, 24]")
    rng = np.random.default_rng(seed)
    measure = np.array([1.0])
    for _ in range(depth):
        if shuffle:
            left = np.where(rng.random(measure.size) < 0.5, p, 1.0 - p)
        else:
            left = p
        halves = np.stack([measure * left, measure * (1.0 - left)], axis=1)
        measure = halves.reshape(-1)
    return TimeSeries(measure, rate_hz, label=f"cascade-p{p:g}")


def cascade_hurst_exponent(p: float, q) -> np.ndarray:
    """Analytic generalized Hurst exponent of the binomial cascade.

    h(q) = 1/q - log2(p^q + (1-p)^q) / q for q != 0.
    """
    q = np.asarray(q, dtype=float)
    if np.any(q == 0):
        raise ValueError("analytic form is defined for q != 0")
    return 1.0 / q - np.log2(p**q + (1.0 - p) ** q) / q


def synth_frac_noise(alpha: float, n: int, seed: int, *, rate_hz: float = 1.0) -> TimeSeries:
    """Series whose fractional difference of order ``alpha`` is white noise.

    Built by exact fractional integration (full-memory GL convolution of
    order -alpha) of a seeded Gaussian sequence; the DFA exponent of the
    result is alpha + 0.5.
    """
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(n)
    x = fracdyn.frac_difference(w, -alpha, None)
    return TimeSeries(x, rate_hz, label=f"frac-noise-a{alpha:g}")


def companion_spectral_radius(alpha, A, horizon: int = fracdyn.DEFAULT_HORIZON) -> float:
    """Spectral radius of the truncated fractional recursion.

    Stacks the memory window into one companion state; the recursion is
    asymptotically stable iff this radius is below 1.
    """
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    A = np.asarray(A, dtype=float)
    n, J = alpha.size, horizon
    psi = np.stack([fracdyn.gl_coefficients(a, J).coeffs for a in alpha])
    C = np.zeros((n * J, n * J))
    C[:n, :n] = A - np.diag(psi[:, 1])
    for j in range(2, J + 1):
        C[:n, (j - 1) * n : j * n] = -np.diag(psi[:, j])
    C[n:, :-n] = np.eye(n * (J - 1))
    return float(np.max(np.abs(np.linalg.eigvals(C))))


def random_stable_model(
    n: int,
    seed: int,
    *,
    spectral_radius: float = 0.4,
    diag_shift: float = 0.5,
    alpha_range: tuple[float, float] = (0.2, 0.6),
    noise_scale: float = 1.0,
    n_inputs: int = 0,
    horizon: int = fracdyn.DEFAULT_HORIZON,
) -> fracdyn.FractionalModel:
    """Random coupling matrix with a guaranteed-stable fractional recursion.

    A = R - diag_shift * I where R is rescaled to ``spectral_radius``; the
    negative diagonal shift counteracts the positive one-step feedback of
    the fractional memory.  The off-diagonal part is shrunk until the
    companion spectral radius drops below 1.
    """
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((n, n)) / np.sqrt(n)
    R *= spectral_radius / np.max(np.abs(np.linalg.eigvals(R)))
    alpha = rng.uniform(*alpha_range, size=n)
    A = R - diag_shift * np.eye(n)
    while companion_spectral_radius(alpha, A, horizon) >= 0.999:
        R *= 0.8
        A = R - diag_shift * np.eye(n)
    B = None
    if n_inputs > 0:
        B = rng.standard_normal((n, n_inputs)) / np.sqrt(n)
    return fracdyn.FractionalModel(alpha, A, B, noise_scale)


def synth_fractional_system(
    spec: SyntheticSpec,
    *,
    rate_hz: float = 1.0,
) -> tuple[MultichannelRecord, fracdyn.FractionalModel]:
    """Simulate a fractional system record, returning it with its model.

    ``spec.params`` may give explicit ``alpha``, ``A``, ``B``, ``u``,
    ``x0``, ``noise_scale`` and ``horizon``, or ``n_channels`` (plus the
    knobs of :func:`random_stable_model`) for a random stable system.
    """
    params = dict(spec.params)
    horizon = params.pop("horizon", fracdyn.DEFAULT_HORIZON)
    u = params.pop("u", None)
    x0 = params.pop("x0", None)
    if "A" in params:
        model = fracdyn.FractionalModel(
            params["alpha"],
            params["A"],
            params.get("B"),
            params.get("noise_scale", 1.0),
        )
    else:
        model = random_stable_model(
            params.pop("n_channels"),
            spec.seed,
            **{
                k: params[k]
                for k in ("spectral_radius", "alpha_range", "noise_scale", "n_inputs")
                if k in params
            },
        )
    record = fracdyn.simulate(
        model, spec.length, u=u, x0=x0, seed=spec.seed, horizon=horizon, rate_hz=rate_hz
    )
    return record, model


def synth_stage_cohort(
    n_records: int = 200,
    n_channels: int = 12,
    seed: int = 0,
    *,
    n_samples: int = 2000,
    institutions: tuple[str, ...] = ("site-a", "site-b", "site-c", "site-d"),
    spectral_radius: float = 0.5,
    diag_shift: float = 0.8,
    jitter: float = 0.05,
) -> list[MultichannelRecord]:
    """Labeled 5-stage cohort with class-dependent coupling structure.

    Each stage owns a base off-diagonal pattern R_c; a record of that
    stage uses A = s * R_c - diag_shift * I + jitter noise, with the
    sign s drawn per record.  The sign flip keeps the class means of
    the coupling features near zero, so the classes are not linearly
    separable even though each is a tight pair of clusters.  Stages and
    institutions are assigned round robin.
    """
    rng = np.random.default_rng(seed)
    n = n_channels
    bases, alphas = [], []
    for _ in range(5):
        R = rng.standard_normal((n, n)) / np.sqrt(n)
        R *= spectral_radius / np.max(np.abs(np.linalg.eigvals(R)))
        a = rng.uniform(0.2, 0.6, size=n)
        # verify both signed variants with margin to spare for the jitter
        while max(
            companion_spectral_radius(a, s * R - diag_shift * np.eye(n))
            for s in (1.0, -1.0)
        ) >= 0.98:
            R *= 0.8
        bases.append(R)
        alphas.append(a)
    records = []
    for r in range(n_records):
        stage = r % 5
        sign = 1.0 if rng.random() < 0.5 else -1.0
        for _ in range(20):
            R = sign * bases[stage] + jitter * rng.standard_normal((n, n)) / np.sqrt(n)
            A = R - diag_shift * np.eye(n)
            model = fracdyn.FractionalModel(alphas[stage], A, noise_scale=1.0)
            try:
                record = fracdyn.simulate(
                    model, n_samples, seed=int(rng.integers(1 << 31))
                )
                break
            except fracdyn.NumericalError:
                continue  # rare: jitter pushed the recursion unstable, redraw
        else:
            raise fracdyn.NumericalError("could not draw a stable jittered model")
        records.append(
            MultichannelRecord(
                record.channels,
                subject_id=f"rec{r:03d}",
                institution=institutions[r % len(institutions)],
                stage_label=stage,
            )
        )
    return records


def synth_viral_cohort(
    n_subjects: int = 18,
    n_infected: int = 11,
    seed: int = 0,
    *,
    side_samples: int = 4200,
    alpha_healthy: float = 0.25,
    alpha_shift: float = 0.35,
):
    """Three-channel subjects with an order shift injected after inoculation.

    Healthy subjects keep ``alpha_healthy`` throughout; infected subjects
    switch to ``alpha_healthy + alpha_shift`` at the midpoint inoculation
    index.  Returns a list of :class:`fracsig.viral.SubjectCase`.
    """
    from .viral import SubjectCase

    rng = np.random.default_rng(seed)
    cases = []
    for s in range(n_subjects):
        infected = s < n_infected
        chans = []
        for c in range(3):
            a_pre = alpha_healthy + 0.05 * rng.standard_normal()
            a_post = a_pre + (alpha_shift if infected else 0.0)
            pre = synth_frac_noise(a_pre, side_samples, int(rng.integers(1 << 31))).samples
            post = synth_frac_noise(a_post, side_samples, int(rng.integers(1 << 31))).samples
            chans.append(np.concatenate([pre, post]))
        cases.append(
            SubjectCase(
                np.stack(chans),
                inoculation_index=side_samples,
                infected=infected,
                subject_id=f"subj{s:02d}",
            )
        )
    return cases


def synthesize(spec: SyntheticSpec, *, rate_hz: float = 1.0):
    """Dispatch a :class:`SyntheticSpec` to its generator.

    Returns a :class:`TimeSeries` for the scalar kinds and a
    (record, model) pair for "fractional-system".
    """
    if spec.kind == "white-noise":
        return synth_white_noise(spec.length, spec.seed, rate_hz=rate_hz)
    if spec.kind == "fgn":
        return synth_fgn(spec.params["H"], spec.length, spec.seed, rate_hz=rate_hz)
    if spec.kind == "binomial-cascade":
        depth = spec.params["depth"]
        if spec.length != 1 << depth:
            raise ValueError("cascade length must equal 2**depth")
        return synth_cascade(spec.params["p"], depth, spec.seed, rate_hz=rate_hz)
    return synth_fractional_system(spec, rate_hz=rate_hz)
