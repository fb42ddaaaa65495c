"""Synthetic ground-truth generators.

These are the oracles of the package: signals with analytically known
scaling properties (fractional Gaussian noise, binomial cascades,
fractionally integrated noise) and stable multichannel fractional
systems for round-trip estimator tests.  The 1-D generators return a
plain float64 array; only the cohorts, which carry subject labels, build
records.

Every stable system comes from one draw: a random R rescaled to a target
spectral radius, per-channel orders, then R shrunk by 0.8 until each
signed coupling s * R - diag_shift * I has companion spectral radius
below a limit.  :func:`random_stable_model` returns one such model;
:func:`synth_stage_cohort` simulates jittered records of one per stage
in batches of at most about 4 MB of trajectories, each batch one loop of
the steps; a record that diverges redraws its jitter and seed as the
first row of the next batch.  The batches come from a generator that
yields each record once it is final, so the command line writes a cohort
of any size holding one batch.
Every stability check truncates the recursion at
``fracdyn.DEFAULT_HORIZON``, the one memory horizon
:func:`fracsig.fracdyn.simulate` runs.

The shrink loop decides stability without forming the n*J companion
matrix.  :func:`companion_radius_at_least` counts, by the argument
principle, the zeros of g(z) = det(diag_i(sum_j psi_ij z^j) - z A) inside
|z| <= 1/limit, which are the reciprocals of the companion eigenvalues
of modulus at least ``limit``: one FFT and batched n x n determinants on
a contour grid, then a sum of phase steps.  A count that changes when
every other grid point is dropped, or a phase step above pi/4 (a zero
near the contour), is not trusted, and the dense
:func:`companion_spectral_radius`, kept as the oracle, decides instead.
The loop also stops with a ``ValueError`` when -diag_shift * I alone is
unstable at the limit, since no shrink could then end it.
"""

from __future__ import annotations

import numpy as np

from . import fracdyn
from .records import N_STAGES, MultichannelRecord

__all__ = [
    "synth_fgn",
    "synth_cascade",
    "cascade_hurst_exponent",
    "synth_frac_noise",
    "companion_spectral_radius",
    "companion_radius_at_least",
    "random_stable_model",
    "synth_stage_cohort",
    "synth_viral_cohort",
]

# stage cohort: sites assigned round robin, base draw, per-record jitter
_COHORT_INSTITUTIONS = ("site-a", "site-b", "site-c", "site-d")
_COHORT_SPECTRAL_RADIUS = 0.5
_COHORT_DIAG_SHIFT = 0.8
_COHORT_JITTER = 0.05
_COHORT_BATCH_BYTES = 4 << 20  # trajectories simulated at a time

# viral cohort: order of every healthy channel before per-channel jitter
_VIRAL_ALPHA_HEALTHY = 0.25

# winding-count stability check: contour points per batched determinant,
# largest trusted phase step, shrinks before the loop tests -diag_shift * I
_WINDING_CHUNK = 512
_WINDING_MAX_STEP = np.pi / 4
_SHRINKS_BEFORE_GUARD = 10


def _fgn_autocovariance(h: float, k: np.ndarray) -> np.ndarray:
    k = np.abs(k.astype(float))
    return 0.5 * (
        np.abs(k - 1) ** (2 * h) - 2 * k ** (2 * h) + (k + 1) ** (2 * h)
    )


def synth_fgn(h: float, n: int, seed: int) -> np.ndarray:
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
    return sample.real[:n].copy()  # a view would keep the 4x larger complex buffer


def synth_cascade(p: float, depth: int, seed: int = 0, *, shuffle: bool = False) -> np.ndarray:
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
    return measure


def cascade_hurst_exponent(p: float, q) -> np.ndarray:
    """Analytic generalized Hurst exponent of the binomial cascade.

    h(q) = 1/q - log2(p^q + (1-p)^q) / q for q != 0.
    """
    q = np.asarray(q, dtype=float)
    if np.any(q == 0):
        raise ValueError("analytic form is defined for q != 0")
    return 1.0 / q - np.log2(p**q + (1.0 - p) ** q) / q


def synth_frac_noise(alpha: float, n: int, seed: int) -> np.ndarray:
    """Series whose fractional difference of order ``alpha`` is white noise.

    Built by exact fractional integration (full-memory GL convolution of
    order -alpha) of a seeded Gaussian sequence; the DFA exponent of the
    result is alpha + 0.5.
    """
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(n)
    return fracdyn.frac_difference(w, -alpha, None)


def companion_spectral_radius(alpha, A) -> float:
    """Spectral radius of the recursion truncated at ``fracdyn.DEFAULT_HORIZON``.

    Stacks the memory window into one companion state; the recursion is
    asymptotically stable iff this radius is below 1.
    """
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    A = np.asarray(A, dtype=float)
    n, J = alpha.size, fracdyn.DEFAULT_HORIZON
    psi = fracdyn.gl_coefficients(alpha, J)
    C = np.zeros((n * J, n * J))
    C[:n, :n] = A - np.diag(psi[:, 1])
    for j in range(2, J + 1):
        C[:n, (j - 1) * n : j * n] = -np.diag(psi[:, j])
    C[n:, :-n] = np.eye(n * (J - 1))
    return float(np.max(np.abs(np.linalg.eigvals(C))))


def companion_radius_at_least(alpha, A, limit: float) -> bool:
    """Whether ``companion_spectral_radius(alpha, A) >= limit``.

    J is ``fracdyn.DEFAULT_HORIZON``.  The companion eigenvalues are
    lambda = 1/z over the zeros z of
    g(z) = det(diag_i(sum_{j<=J} psi_ij z^j) - z A), with g(0) = 1, so the
    radius reaches ``limit`` iff g has a zero in |z| <= r = 1/limit.  That
    count is the winding number of g around the circle |z| = r.  The
    diagonal polynomials are evaluated at 2M points of the circle, with M
    the power of two at or above 4 n J, by one FFT of the coefficients
    scaled by r^j; g comes from batched n x n determinants in chunks of
    512 points.  g has real coefficients, so the upper half circle carries
    half the winding.  The count is trusted when every other point (M)
    gives the same count and no phase step on the 2M grid exceeds pi/4;
    otherwise the dense radius decides.
    """
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    A = np.asarray(A, dtype=float)
    n, J = alpha.size, fracdyn.DEFAULT_HORIZON
    r = 1.0 / limit
    m = 1 << int(np.ceil(np.log2(4 * n * J)))
    psi = fracdyn.gl_coefficients(alpha, J)
    # conj(rfft) of real coefficients: p_i(r e^{i pi k / m}) for k = 0..m
    diag = np.conj(np.fft.rfft(psi * r ** np.arange(J + 1), 2 * m, axis=1)).T
    z = r * np.exp(1j * np.pi * np.arange(m + 1) / m)
    g = np.empty(m + 1, dtype=complex)
    idx = np.arange(n)
    for lo in range(0, m + 1, _WINDING_CHUNK):
        hi = min(lo + _WINDING_CHUNK, m + 1)
        mats = -z[lo:hi, None, None] * A
        mats[:, idx, idx] += diag[lo:hi]
        g[lo:hi] = np.linalg.det(mats)
    if np.all(np.isfinite(g)) and np.all(g != 0):
        fine = np.angle(g[1:] * np.conj(g[:-1]))
        coarse = np.angle(g[2::2] * np.conj(g[:-2:2]))
        count = round(fine.sum() / np.pi)
        if count == round(coarse.sum() / np.pi) and np.max(np.abs(fine)) <= _WINDING_MAX_STEP:
            return count > 0
    return companion_spectral_radius(alpha, A) >= limit


def _draw_stable(rng, n, spectral_radius, diag_shift, alpha_range, limit, signs):
    """Draw (R, alpha) with every s * R - diag_shift * I stable, s in ``signs``.

    R is rescaled to ``spectral_radius``, then shrunk by 0.8 until
    :func:`companion_radius_at_least` says each signed coupling has
    companion spectral radius below ``limit`` at ``fracdyn.DEFAULT_HORIZON``;
    the signs are checked in order and a failing sign skips the rest.  The
    winding count decides almost every check; a zero of g near the contour
    sends it to the dense eigenvalues.  Shrinking cannot end when
    -diag_shift * I alone reaches ``limit``: after 10 shrinks that coupling
    is checked once, and if it fails a ``ValueError`` names ``diag_shift``
    and ``limit``.
    """
    if n < 1:
        raise ValueError(f"need at least one channel, got n={n}")
    R = rng.standard_normal((n, n)) / np.sqrt(n)
    R *= spectral_radius / np.max(np.abs(np.linalg.eigvals(R)))
    alpha = rng.uniform(*alpha_range, size=n)
    shift = diag_shift * np.eye(n)
    shrinks = 0
    while any(companion_radius_at_least(alpha, s * R - shift, limit) for s in signs):
        R *= 0.8
        shrinks += 1
        if shrinks == _SHRINKS_BEFORE_GUARD and companion_radius_at_least(alpha, -shift, limit):
            raise ValueError(
                f"diag_shift={diag_shift:g} alone leaves the companion radius at or "
                f"above limit={limit:g}; no shrink of the coupling can reach it"
            )
    return R, alpha


def random_stable_model(
    n: int,
    seed: int,
    *,
    spectral_radius: float = 0.4,
    diag_shift: float = 0.5,
    alpha_range: tuple[float, float] = (0.2, 0.6),
    noise_scale: float = 1.0,
    n_inputs: int = 0,
) -> fracdyn.FractionalModel:
    """Random coupling matrix with a guaranteed-stable fractional recursion.

    A = R - diag_shift * I where R is rescaled to ``spectral_radius``; the
    negative diagonal shift counteracts the positive one-step feedback of
    the fractional memory.  The off-diagonal part is shrunk until the
    companion spectral radius at ``fracdyn.DEFAULT_HORIZON``, the horizon
    :func:`fracsig.fracdyn.simulate` runs, drops below 0.999.
    """
    rng = np.random.default_rng(seed)
    R, alpha = _draw_stable(rng, n, spectral_radius, diag_shift, alpha_range, 0.999, (1,))
    B = rng.standard_normal((n, n_inputs)) / np.sqrt(n) if n_inputs > 0 else None
    return fracdyn.FractionalModel(alpha, R - diag_shift * np.eye(n), B, noise_scale)


def synth_stage_cohort(
    n_records: int = 200,
    n_channels: int = 12,
    seed: int = 0,
    *,
    n_samples: int = 2000,
) -> list[MultichannelRecord]:
    """Labeled 5-stage cohort with class-dependent coupling structure.

    Each stage owns a base off-diagonal pattern R_c, drawn stable for
    both signs with margin to spare (companion radius below 0.98); a
    record of that stage uses A = s * R_c - 0.8 * I + 0.05 jitter noise,
    with the sign s drawn per record.  The sign flip keeps the class
    means of the coupling features near zero, so the classes are not
    linearly separable even though each is a tight pair of clusters.
    Each simulated matrix becomes a record labelled ``recNNN`` with its
    stage and site; stages and the four institutions are assigned round
    robin.  Records are simulated in batches of at most about 4 MB of
    trajectories (one record at least), each batch one loop of the
    steps: the sign, jitter and simulation seed of every record of a
    batch are drawn first, then the batch runs.  A record whose jittered
    recursion diverges keeps its sign and redraws its jitter and seed,
    from the generator state right after its failed draws, as the first
    row of the next batch; the records after it draw anew.  So the
    records are those of drawing and simulating one record at a time,
    whatever the batch size.  A record that diverges on 20 tries raises
    ``NumericalError``.  The command line writes the same records batch
    by batch, without holding the whole cohort.
    """
    return list(_stage_cohort_records(n_records, n_channels, seed, n_samples))


def _stage_cohort_records(n_records, n, seed, n_samples):
    """Check ``n_records`` now and return an iterator over the records of
    :func:`synth_stage_cohort`, the one the command line streams."""
    if n_records < 1:
        raise ValueError(f"need at least one record, got n_records={n_records}")
    return _simulate_stage_cohort(n_records, n, seed, n_samples)


def _simulate_stage_cohort(n_records, n, seed, n_samples):
    """Yield the records of :func:`synth_stage_cohort` in order, each as
    soon as its simulation is final; one batch of trajectories is held."""
    rng = np.random.default_rng(seed)
    draws = [
        _draw_stable(
            rng, n, _COHORT_SPECTRAL_RADIUS, _COHORT_DIAG_SHIFT, (0.2, 0.6), 0.98, (1, -1)
        )
        for _ in range(N_STAGES)
    ]
    shift = _COHORT_DIAG_SHIFT * np.eye(n)
    stages = [r % N_STAGES for r in range(n_records)]
    tables = [fracdyn.gl_coefficients(alpha, fracdyn.DEFAULT_HORIZON) for _, alpha in draws]
    # n_samples < 1 is left for _trajectories to reject
    batch = max(1, _COHORT_BATCH_BYTES // (8 * n * max(n_samples, 1)))
    # records 0..done-1 are yielded; record done has diverged on `tries`
    # tries so far and, when `sign` is set, redraws with that sign
    done, tries, sign = 0, 0, None
    while done < n_records:
        stop = min(n_records, done + batch)
        couplings, seeds, redraws = [], [], []
        for stage in stages[done:stop]:
            if sign is None:
                sign = 1.0 if rng.random() < 0.5 else -1.0
            couplings.append(_jittered_coupling(rng, draws[stage][0], sign, shift))
            seeds.append(int(rng.integers(1 << 31)))
            redraws.append((sign, rng.bit_generator.state))  # what a redraw starts from
            sign = None
        X = fracdyn._trajectories(stop - done, n, n_samples)
        psi = np.stack([tables[stage] for stage in stages[done:stop]])
        diverged = fracdyn._simulate_rows(
            psi, np.stack(couplings), np.ones(len(seeds)), seeds, X
        )
        final = len(X) if diverged is None else diverged[0]  # rows below a diverged one ran on
        for r in range(done, done + final):
            yield MultichannelRecord(
                X[r - done], subject_id=f"rec{r:03d}",
                institution=_COHORT_INSTITUTIONS[r % len(_COHORT_INSTITUTIONS)],
                stage_label=stages[r],
            )
        done += final
        if diverged is None:
            tries = 0
            continue
        # jitter pushed record done's recursion unstable: it keeps its sign
        # and redraws its jitter and seed from the state after its draws,
        # and the records after it draw anew
        tries = tries + 1 if final == 0 else 1
        if tries == 20:
            raise fracdyn.NumericalError("could not draw a stable jittered model")
        sign, rng.bit_generator.state = redraws[final]


def _jittered_coupling(rng, base, sign, shift):
    """A record's coupling: its stage's base pattern, signed, plus fresh jitter."""
    n = base.shape[0]
    return sign * base + _COHORT_JITTER * rng.standard_normal((n, n)) / np.sqrt(n) - shift


def synth_viral_cohort(
    n_subjects: int = 18,
    n_infected: int = 11,
    seed: int = 0,
    *,
    side_samples: int = 4200,
    alpha_shift: float = 0.35,
):
    """Three-channel subjects with an order shift injected after inoculation.

    Each channel's order is 0.25 plus N(0, 0.05^2) jitter.  Healthy
    subjects keep it throughout; infected subjects add ``alpha_shift`` at
    the midpoint inoculation index.  Returns a list of
    :class:`fracsig.viral.SubjectCase`.
    """
    from .viral import SubjectCase

    if n_subjects < 1:
        raise ValueError(f"need at least one subject, got n_subjects={n_subjects}")
    if not 0 <= n_infected <= n_subjects:
        raise ValueError(f"n_infected={n_infected} must lie in 0..n_subjects={n_subjects}")
    rng = np.random.default_rng(seed)
    cases = []
    for s in range(n_subjects):
        infected = s < n_infected
        chans = []
        for c in range(3):
            a_pre = _VIRAL_ALPHA_HEALTHY + 0.05 * rng.standard_normal()
            a_post = a_pre + (alpha_shift if infected else 0.0)
            pre = synth_frac_noise(a_pre, side_samples, int(rng.integers(1 << 31)))
            post = synth_frac_noise(a_post, side_samples, int(rng.integers(1 << 31)))
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

