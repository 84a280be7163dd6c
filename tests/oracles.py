"""Independent reference computations used to pin expected test values.

Everything here deliberately avoids the library code paths it is used to
check: quadrature instead of scipy's ``ellipe``, quaternions instead of QR
sampling, direct polynomial evaluation instead of coefficient assembly, the
closed-form monomial integral over a simplex, a generic per-curve
complex-step derivative instead of the stacked closed-form normal
Jacobians, the quadric correspondences written out, z-vectors drawn in
one piece with their formula written out instead of the sliced draw, and
exact float sums from integer ratios, with square roots found by exact
squares, instead of per-exponent sums and an integer square root.
"""

import decimal
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.integrate import IntegrationWarning, quad


def elliptic_second_kind_quadrature(m: float) -> float:
    """E(m) by adaptive quadrature, tolerance 1e-14."""
    with warnings.catch_warnings():
        # pushing for 1e-14 triggers scipy's roundoff advisory; harmless here
        warnings.simplefilter("ignore", IntegrationWarning)
        value, _ = quad(lambda t: np.sqrt(1.0 - m * np.sin(t) ** 2), 0.0, np.pi / 2.0,
                        epsabs=1e-14, epsrel=1e-14, limit=200)
    return value


def quaternion_rotation_sample(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar rotations from uniform unit quaternions (independent sampler)."""
    q = rng.standard_normal((n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    w, x, y, z = q.T
    return np.stack([
        np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], -1),
        np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], -1),
        np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], -1),
    ], axis=1)


def cubic_residuals_direct(e: np.ndarray) -> np.ndarray:
    """Demazure residuals evaluated entry by entry (no library calls)."""
    e = np.asarray(e, dtype=float)
    det = (e[0, 0] * (e[1, 1] * e[2, 2] - e[1, 2] * e[2, 1])
           - e[0, 1] * (e[1, 0] * e[2, 2] - e[1, 2] * e[2, 0])
           + e[0, 2] * (e[1, 0] * e[2, 1] - e[1, 1] * e[2, 0]))
    eet = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            eet[i, j] = sum(e[i, k] * e[j, k] for k in range(3))
    trace = eet[0, 0] + eet[1, 1] + eet[2, 2]
    mat = 2.0 * eet.dot(e) - trace * e
    return np.concatenate([[det], mat.ravel()])


def simplex_monomial_integral(exponents) -> float:
    """integral of x^a y^b z^c over the unit simplex: a! b! c! / (a+b+c+3)!."""
    from math import factorial

    a, b, c = exponents
    return factorial(a) * factorial(b) * factorial(c) / factorial(a + b + c + 3)


def planted_instance(rng: np.random.Generator):
    """Synthetic two-camera instance with a known essential matrix.

    World points are projected through [I, 0] and [R, t]; the pair
    ordering makes u^T E v = 0 hold for E = [t]_x R.  Returns the 5x9 row
    matrix and the unit (Euclidean) vectorization of the planted matrix.
    """
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    rot = q * np.sign(np.diag(r))
    if np.linalg.det(rot) < 0:
        rot[:, 2] *= -1.0
    t = rng.standard_normal(3)
    t /= np.linalg.norm(t)
    cross = np.array([
        [0.0, -t[2], t[1]],
        [t[2], 0.0, -t[0]],
        [-t[1], t[0], 0.0],
    ])
    e = cross @ rot
    rows = []
    for _ in range(5):
        x = rng.standard_normal(3)
        u = rot @ x + t
        u /= np.linalg.norm(u)
        v = x / np.linalg.norm(x)
        rows.append(np.outer(u, v).ravel())
    target = e.ravel() / np.linalg.norm(e)
    return np.array(rows), target, (rot, t)


def projective_distance(vec_a: np.ndarray, vec_b: np.ndarray) -> float:
    """Distance of two projective points given by unit 9-vectors."""
    return min(np.linalg.norm(vec_a - vec_b), np.linalg.norm(vec_a + vec_b))


def _haar_rotation(gauss: np.ndarray) -> np.ndarray:
    """Haar rotation from one Gaussian 3x3 matrix: QR factor, sign- and det-fixed."""
    q, r = np.linalg.qr(gauss)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 2] *= -1.0
    return q


def pose_map_volume_loop(n: int, seed: int, nj_at, rng_for) -> float:
    """Monte Carlo variety volume, one Haar pose and one Jacobian at a time.

    Pose ``index`` comes from ``rng_for(seed, index)``: a Gaussian 3x3
    matrix turned into a Haar rotation, then a Gaussian direction.  The
    mean of ``nj_at(R, t)`` is scaled by half the volume of SO(3) x S^2.
    """
    total = 0.0
    for index in range(n):
        rng = rng_for(seed, index)
        rot = _haar_rotation(rng.standard_normal((3, 3)))
        t = rng.standard_normal(3)
        total += nj_at(rot, t / np.linalg.norm(t))
    return 0.5 * (8.0 * np.pi ** 2) * (4.0 * np.pi) * total / n


#: Step of the complex-step derivative: far below rounding, so no truncation is seen.
COMPLEX_STEP = 1e-20


def complex_step_normal_jacobian(fn, curves, frame_out, inner=None) -> float:
    """Normal Jacobian of a map between manifolds by the complex step.

    ``curves[l]`` is a callable ``s -> domain point`` passing through the
    base point at s = 0 with velocity equal to the l-th input frame
    vector; ``frame_out`` lists orthonormal ambient vectors spanning (at
    least) the tangent space of the target.  The derivative along curve l
    is ``Im fn(curve(i h)) / h`` with h = 1e-20, which takes no difference
    and so is exact to rounding, provided that the curve and ``fn`` are
    written with operations analytic in s (no ``abs``, conjugate or
    comparison).  The Jacobian entry (k, l) is its inner product with
    output frame k.  Returns the square root of the Gram determinant of
    the smaller side, i.e. ``sqrt(det J J^T)`` when the output frame is
    not larger than the input frame and ``sqrt(det J^T J)`` otherwise.
    """
    if inner is None:
        inner = lambda a, b: float(np.sum(np.asarray(a) * np.asarray(b)))
    jac = np.empty((len(frame_out), len(curves)))
    for l, curve in enumerate(curves):
        diff = np.imag(np.asarray(fn(curve(1j * COMPLEX_STEP)))) / COMPLEX_STEP
        for k, out in enumerate(frame_out):
            jac[k, l] = inner(diff, out)
    if jac.shape[0] <= jac.shape[1]:
        gram = jac @ jac.T
    else:
        gram = jac.T @ jac
    return float(np.sqrt(max(np.linalg.det(gram), 0.0)))


def quadric_correspondences(p):
    """Correspondences (..., 2, 3) on the base quadric of parameters (..., 5).

    (a, b, r, s, theta) gives u = (a, r cos, r sin) and v = (b, s cos,
    s sin); complex parameters pass through, for complex steps.
    """
    a, b, r, s, theta = np.moveaxis(np.asarray(p), -1, 0)
    cos, sin = np.cos(theta), np.sin(theta)
    return np.stack([np.stack([a, r * cos, r * sin], axis=-1),
                     np.stack([b, s * cos, s * sin], axis=-1)], axis=-2)


@dataclass(frozen=True)
class SupportEstimate:
    value: float
    stderr: float
    n: int


def support_estimate(x, n: int, z_chunk) -> SupportEstimate:
    """Monte Carlo support function ``E|<x, z>| / 2`` of the zonoid of z-vectors.

    ``z_chunk(i, m)`` returns the i-th chunk of m z-vectors (m, 5); chunks
    hold at most 500k draws.  The standard error is that of the mean.
    """
    x = np.asarray(x, dtype=float).reshape(5)
    values = np.concatenate([0.5 * np.abs(z_chunk(i, min(500_000, n - start)) @ x)
                             for i, start in enumerate(range(0, n, 500_000))])
    return SupportEstimate(float(values.mean()), float(values.std(ddof=1) / np.sqrt(n)), n)


def z_vectors_at_once(rng: np.random.Generator, n: int) -> np.ndarray:
    """n z-vectors (n, 5) drawn in one piece: 4n normals as rows a, b, r, s, then n thetas.

    Each theta is a uniform draw in [0, 1) times 2 pi, and the z-vector is
    (b r sin, b r cos, a s sin, a s cos, r s), products taken left to right.
    """
    a, b, r, s = rng.standard_normal((4, n))
    theta = rng.random(n) * (2.0 * np.pi)
    sin, cos = np.sin(theta), np.cos(theta)
    return np.stack([b * r * sin, b * r * cos, a * s * sin, a * s * cos, r * s], axis=1)


def exact_float_sum(values) -> Fraction:
    """The exact sum of floats: their integer ratios over the largest (power-of-two) denominator."""
    ratios = [v.as_integer_ratio() for v in np.ravel(values).tolist()]
    d = max(den for _, den in ratios)
    return Fraction(sum(num * (d // den) for num, den in ratios), d)


def sqrt_rounded(q: Fraction) -> float:
    """The float nearest the square root of q >= 0.

    Starts from a 40-digit ``decimal`` root (which, unlike a float, does
    not underflow on the way) and steps one float at a time until the
    midpoints between the candidate and its two neighbours bracket the
    root, compared by their exact squares.  A root on a midpoint is a
    tie, which ``float`` of that midpoint rounds half to even.
    """
    def midpoint(c, towards):
        return (Fraction(c) + Fraction(math.nextafter(c, towards))) / 2

    with decimal.localcontext() as context:
        context.prec = 40
        c = float((decimal.Decimal(q.numerator) / q.denominator).sqrt())
    while c > 0 and midpoint(c, 0.0) ** 2 > q:
        c = math.nextafter(c, 0.0)
    while midpoint(c, math.inf) ** 2 < q:
        c = math.nextafter(c, math.inf)
    ties = [m for m in (midpoint(c, 0.0), midpoint(c, math.inf)) if m * m == q]
    return float(ties[0]) if ties else c


def det_route_at_once(n: int, seed: int, chunk: int, rng_for, abs_det):
    """The determinant route with each chunk's matrices built as one stack.

    Chunk i holds ``min(chunk, n - i chunk)`` matrices from
    ``rng_for(seed, i)``; matrix k has z-vectors 5k..5k+4 of
    :func:`z_vectors_at_once` as its columns.  Returns the means of |det|
    and of det^2 (float squares, as is det^4 = (det^2)^2) and their
    standard errors.  Each sum is exact (:func:`exact_float_sum`), a
    variance is (sum of squares - n mean^2) / (n - 1) clamped at 0, and
    each result is rounded once (:func:`sqrt_rounded` for the errors).
    """
    def chunk_dets(index, start):
        m = min(chunk, n - start)
        z = z_vectors_at_once(rng_for(seed, index), 5 * m)
        return abs_det(z.reshape(m, 5, 5).transpose(0, 2, 1))

    dets = np.concatenate([chunk_dets(i, start) for i, start in enumerate(range(0, n, chunk))])
    squares = dets * dets
    sums = [exact_float_sum(x) for x in (dets, squares, squares * squares)]

    def mean_se(total, total_of_squares):
        mean = total / n
        variance = max((total_of_squares - n * mean * mean) / (n - 1), 0) if n > 1 else 0
        return float(mean), sqrt_rounded(Fraction(variance) / n)

    (mean, se_mean), (second, se_second) = mean_se(*sums[:2]), mean_se(*sums[1:])
    return (mean, second), (se_mean, se_second)


def gap_and_budget(report, det, det_to_count: float):
    """|solver mean - determinant mean| and the 3-sigma budget of the two reports' ``se_mean``."""
    return (abs(report.mean - det.derived_mean),
            3.0 * (report.se_mean + det_to_count * det.se_mean))
