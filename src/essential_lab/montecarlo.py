"""Experiment orchestration: batch solves, chunk statistics, estimators.

Samples are indexed globally, and every sample gets its own counter-based
random stream keyed by (seed, index), so a run is reproducible bit for bit
regardless of how many worker processes execute it.  Work is cut into
fixed-size chunks, each sampled and solved as one stack.  A chunk draws
its instances through :class:`~essential_lab.distributions.Streams` (one
Philox re-keyed per index, the same draws as ``rng_for``) and solves them
with :func:`~essential_lab.solver.solve_batch`, whose arrays give each
instance's count and failure reason; no solution objects are built.
Chunks return integer histograms, and determinant slices exact sums of
|det|, det^2 and det^4; :func:`mean_variance` rounds the mean, variance
and standard error of such exact sums once each, so no floating-point
reduction order depends on the chunking or the scheduling either, and
both reports state their uncertainty as that standard error, ``se_mean``.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from . import distributions as dists
from .solver import SOLVED, solve_batch
from .solver import solve_five_point  # noqa: F401 - perfbench traces this name

CHUNK = 128            # instances per solver chunk, solved as one stack
DET_CHUNK = 250_000    # determinant draws per chunk

#: Conversion factor between the absolute-determinant average and the
#: expected number of real solutions (volume of the variety over 8).
DET_TO_COUNT = math.pi ** 3 / 4.0


_EXACT_SLICE = 2 ** 25      # float64 sums of this many 27-bit integers are exact


def _exact_sum(x: np.ndarray) -> Fraction:
    """The exact sum of finite floats x (one dimension).

    Each value is m 2^(e - 53) with an integer |m| < 2^53 (``np.frexp``).
    The high and low 26-bit halves of m are summed per exponent e, which
    float64 does exactly for up to ``_EXACT_SLICE`` values, and these sums
    are added as Python integers.
    """
    if len(x) > _EXACT_SLICE:
        return _exact_sum(x[:_EXACT_SLICE]) + _exact_sum(x[_EXACT_SLICE:])
    if not np.all(np.isfinite(x)):
        raise ValueError("the values must be finite")
    m, e = np.frexp(x)
    m = (m * 2.0 ** 53).astype(np.int64)
    e0 = int(e.min())
    e -= e0
    total = 0
    for k, (high, low) in enumerate(zip(np.bincount(e, m >> 26), np.bincount(e, m & 0x3ffffff))):
        total += ((int(high) << 26) + int(low)) << k
    return Fraction(total) * Fraction(2) ** (e0 - 53)


def _sqrt_rounded(q: Fraction) -> float:
    """The square root of q >= 0, rounded once: to odd at 56 bits or more, then to a float."""
    p, d = q.as_integer_ratio()
    k = max(0, (112 - p.bit_length() + d.bit_length()) // 2)
    root = math.isqrt((p << 2 * k) // d)
    return (root | (root * root * d != p << 2 * k)) / (1 << k)


def mean_variance(n: int, total, squares):
    """Mean, unbiased variance and standard error of the mean of n values, each rounded once.

    ``total`` and ``squares`` are the exact sums (ints or Fractions) of
    the values and of their squares, or of their float squares, whose
    rounding can take the variance of nearly equal values below 0; it is
    then 0.0.  Fewer than two values have variance and standard error
    0.0, and no values a mean of 0.0.
    """
    if n < 2:
        return float(total / n) if n else 0.0, 0.0, 0.0
    variance = max(Fraction(n * squares - total * total, n * (n - 1)), Fraction(0))
    return float(total / n), float(variance), _sqrt_rounded(variance / n)


DET_BLOCK = dists.DET_BLOCK     # matrices per block of abs_det5: one slice of the z-vector draw
_PAIRS = tuple((j, k) for j in range(5) for k in range(j + 1, 5))


def abs_det5(m: np.ndarray) -> np.ndarray:
    """|det| of every 5x5 matrix in a stack (..., 5, 5), without a LAPACK call each.

    Laplace expansion along rows 0-1: det = sum over column pairs j < k of
    (-1)^(j+k+1) times the 2x2 minor of rows 0-1 in columns (j, k) times
    the complementary 3x3 minor of rows 2-4, which is expanded along row 2
    into the ten 2x2 minors of rows 3-4.  That is 80 products per matrix,
    done on length-b vectors over blocks of ``DET_BLOCK`` matrices laid
    out as (5, 5, b).  Every step is elementwise and the ten terms are
    added in a fixed order, so a matrix gives the same bits in any stack.
    """
    m = np.asarray(m, dtype=float)
    if m.shape[-2:] != (5, 5):
        raise ValueError(f"need matrices (..., 5, 5), got shape {m.shape}")
    flat = m.reshape(-1, 5, 5)
    out = np.empty(len(flat))
    for start in range(0, len(flat), DET_BLOCK):
        a = np.ascontiguousarray(flat[start:start + DET_BLOCK].transpose(1, 2, 0))
        low = {(j, k): a[3, j] * a[4, k] - a[3, k] * a[4, j] for j, k in _PAIRS}
        det = np.zeros(a.shape[2])
        for j, k in _PAIRS:
            p, q, r = (c for c in range(5) if c not in (j, k))
            minor = a[2, p] * low[q, r] - a[2, q] * low[p, r] + a[2, r] * low[p, q]
            term = (a[0, j] * a[1, k] - a[0, k] * a[1, j]) * minor
            if (j + k) % 2:
                det += term
            else:
                det -= term
        np.abs(det, out=out[start:start + len(det)])
    return out.reshape(m.shape[:-2])


@dataclass
class ExperimentReport:
    """Counts and statistics of one batch experiment."""

    distribution: str
    n: int
    seed: int
    mean: float
    variance: float
    se_mean: float
    histogram: list
    failures: int
    wall_time: float

    def to_dict(self) -> dict:
        return asdict(self)


def _sample_chunk(dist: str, rngs, boxes):
    if dist == "unifG":
        return dists.sample_unifG(rngs)
    if dist == "psi":
        return dists.sample_psi(rngs)
    if dist == "box":
        return dists.sample_box(rngs, boxes)
    raise ValueError(f"unknown distribution {dist!r}")


def _solve_chunk(args):
    """Sample and solve one chunk as a stack; returns its histogram and failure count."""
    dist, boxes, seed, start, length, retries = args
    streams = dists.Streams(seed, start, length)
    rows, basis = _sample_chunk(dist, streams, boxes)
    result = solve_batch(rows, basis, streams, retries)
    solved = result.count[result.reason == SOLVED]
    return np.bincount(solved, minlength=11), length - solved.size


def run_experiment(dist: str, n: int, seed: int, workers: int = 1,
                   boxes=None, retries: int = 5) -> ExperimentReport:
    """Solve ``n`` independent instances of a distribution and tabulate.

    Deterministic given ``(dist, n, seed)`` for any worker count; failed
    solves are excluded from the mean and reported separately.  The mean
    and variance of the solved counts and the standard error of their mean
    are each rounded once from the merged histogram's integer sums
    (:func:`mean_variance`), the rule of :func:`estimate_abs_det` too.
    """
    if n < 1 or workers < 1:
        raise ValueError("need n >= 1 and workers >= 1")
    if (dist == "box") != (boxes is not None):
        raise ValueError("boxes are required exactly when dist == 'box'")
    if boxes is not None:
        boxes = tuple(b if isinstance(b, dists.BoxSpec) else dists.BoxSpec(*b)
                      for b in boxes)

    t0 = time.perf_counter()
    tasks = [(dist, boxes, seed, start, min(CHUNK, n - start), retries)
             for start in range(0, n, CHUNK)]
    if workers == 1:
        results = [_solve_chunk(t) for t in tasks]
    else:
        from multiprocessing import Pool     # imported here: one-worker runs need none of it

        with Pool(processes=workers) as pool:
            results = pool.map(_solve_chunk, tasks)

    hist = np.zeros(11, dtype=np.int64)
    failures = 0
    for chunk_hist, chunk_failures in results:
        hist += chunk_hist
        failures += chunk_failures

    solved = int(hist.sum())
    mean, variance, se_mean = mean_variance(solved, sum(k * int(c) for k, c in enumerate(hist)),
                                            sum(k * k * int(c) for k, c in enumerate(hist)))
    return ExperimentReport(
        distribution=dist,
        n=n,
        seed=seed,
        mean=mean,
        variance=variance,
        se_mean=se_mean,
        histogram=[int(c) for c in hist],
        failures=failures,
        wall_time=time.perf_counter() - t0,
    )


@dataclass
class DetEstimate:
    """Summary of the determinant ensemble."""

    n: int
    seed: int
    mean_abs_det: float
    second_moment: float
    derived_mean: float
    se_mean: float
    se_second: float
    wall_time: float

    def to_dict(self) -> dict:
        return asdict(self)


def estimate_abs_det(n: int, seed: int) -> DetEstimate:
    """Average absolute determinant of matrices with i.i.d. z-vector columns.

    Returns the mean of ``|det|`` and of ``det^2`` over chunks of
    ``DET_CHUNK`` draws, chunk i from ``rng_for(seed, i)``, together with
    the derived mean solution count ``pi^3/4 * mean(|det|)``.  A chunk
    draws what ``sample_z_matrices`` draws, but takes the |det| of each
    slice of ``DET_BLOCK`` matrices as the draw yields it
    (``distributions.z_slices``) and adds the exact sums of its |det|,
    det^2 and det^4 (the float squares), so no array of the chunk's
    matrices or dets is built; of its parameters the chunk holds three
    rows of normals, a s, b r and r s, because s is folded in as it is
    drawn.  :func:`mean_variance` turns the sums into the estimates.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    t0 = time.perf_counter()
    sums = [0, 0, 0]
    for index, start in enumerate(range(0, n, DET_CHUNK)):
        for z in dists.z_slices(dists.rng_for(seed, index), 5 * min(DET_CHUNK, n - start)):
            dets = abs_det5(dists.z_matrices(z))
            squares = dets * dets
            sums = [t + _exact_sum(x) for t, x in zip(sums, (dets, squares, squares * squares))]
    mean, _, se_mean = mean_variance(n, sums[0], sums[1])
    second, _, se_second = mean_variance(n, sums[1], sums[2])
    return DetEstimate(
        n=n,
        seed=seed,
        mean_abs_det=mean,
        second_moment=second,
        derived_mean=DET_TO_COUNT * mean,
        se_mean=se_mean,
        se_second=se_second,
        wall_time=time.perf_counter() - t0,
    )
