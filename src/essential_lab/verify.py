"""Certification of the differential-geometric constants.

Normal Jacobians of the pose map (constant 1/4), of the two-sided
rotation action (1/(2 sqrt 2)), and of the quadric parametrization
(sqrt(r^2 + s^2)), each taken from the closed-form tangents of its input
directions, so that a check deviates from its constant by rounding alone;
the block determinant identity of the incidence Jacobian; the identity
|det B| = 4 |det Z| on every z-matrix Z of the determinant route's draw,
with B the tangent-basis matrix of its correspondences; and a Monte
Carlo computation of the variety volume (4 pi^3 for the unit-sphere
variety, ratio 4 against projective 5-space), exact to rounding because
the pose-map Jacobian is constant.

All matrix frames are orthonormal for the half-trace inner product; the
printed constants depend on that convention.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import distributions as dists
from .errors import DegenerateInput
from .geometry import E0, cross_matrix, so3_basis, tangent_basis_E0
from .montecarlo import abs_det5

VOL_SO3 = 8.0 * math.pi ** 2
VOL_S2 = 4.0 * math.pi
VOL_RP5 = math.pi ** 3 / 2.0

VOLUME_BLOCK = 1024      # poses per nj_pose_map call of the volume check
#: Largest deviation a normal-Jacobian or volume check allows: rounding, not truncation.
EXACT_TOL = 1e-12
#: Largest relative deviation the det(A A^T) identity allows: LAPACK's det of a 5x5 Gram matrix.
DETAAT_TOL = 1e-10


def _gram_root(jac: np.ndarray) -> np.ndarray:
    """``sqrt(det J J^T)`` of each Jacobian in a stack (N, k, m), k <= m."""
    gram = jac @ np.swapaxes(jac, 1, 2)
    return np.sqrt(np.maximum(np.linalg.det(gram), 0.0))


def _tangent_gram_root(tangents: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Normal Jacobians from the images (N, k, 3, 3) of the k input directions of each sample.

    Entries are half-trace inner products of the tangents with the
    tangent basis carried to U_i E0 V_i^T, and each value is
    ``sqrt(det J J^T)`` of the 5 x k Jacobian.
    """
    frames = u[:, None] @ tangent_basis_E0() @ np.swapaxes(v, 1, 2)[:, None]
    # summing the nine products per entry rounds as the one-sample sum does
    products = (frames[:, :, None] * tangents[:, None]).reshape(-1, 5, tangents.shape[1], 9)
    return _gram_root(0.5 * np.sum(products, axis=3))


def _witnesses(r: np.ndarray, t: np.ndarray):
    """Rotations (U, V) with U E0 V^T the essential matrix of each pose (R, t).

    Takes stacks r (N, 3, 3) and t (N, 3); U maps e1 to t, and the frame is
    completed by Gram-Schmidt against the axis where t is smallest.
    """
    pick = np.eye(3)[np.argmin(np.abs(t), axis=1)]
    w = dists._unit(pick - np.sum(pick * t, axis=1)[:, None] * t)
    u = np.stack([t, w, np.cross(t, w)], axis=2)
    v = np.swapaxes(r, 1, 2) @ u
    return u, v


def nj_pose_map(r, t) -> np.ndarray:
    """Normal Jacobians of ``(R, t) -> [t]_x R`` at a stack of poses.

    ``r`` has shape (N, 3, 3) and ``t`` shape (N, 3); returns N values.
    Frames: the left-translated skew basis on the rotation factor and a
    tangent frame of the sphere at t (inputs); the rotated tangent basis
    of the variety at the image (outputs).  The input directions map to
    the tangents ``[t]_x U F U^T R`` and ``[u_j]_x R``, and each value is
    ``sqrt(det J J^T)``.  Raises :class:`DegenerateInput` if any pose is
    not a rotation and a unit vector to 1e-12.
    """
    r = np.asarray(r, dtype=float).reshape(-1, 3, 3)
    t = np.asarray(t, dtype=float).reshape(-1, 3)
    if len(r) != len(t):
        raise ValueError("need as many rotations as translations")
    orth = np.max(np.abs(r @ np.swapaxes(r, 1, 2) - np.eye(3)), axis=(1, 2))
    if not (np.all(orth <= 1e-12) and np.all(np.abs(np.linalg.det(r) - 1.0) <= 1e-12)):
        raise DegenerateInput("rotation input violates its invariant")
    if not np.all(np.abs(np.linalg.norm(t, axis=1) - 1.0) <= 1e-12):
        raise DegenerateInput("translation must be a unit vector")

    u, v = _witnesses(r, t)
    # rotation directions U F U^T R, one per skew basis element F
    dirs = u[:, None] @ so3_basis() @ np.swapaxes(u, 1, 2)[:, None] @ r[:, None]
    on_rot = cross_matrix(t)[:, None] @ dirs
    # sphere directions u_j, j = 1, 2: the velocities of great circles through t
    on_sphere = cross_matrix(np.swapaxes(u[:, :, 1:], 1, 2)) @ r[:, None]
    return _tangent_gram_root(np.concatenate([on_rot, on_sphere], axis=1), u, v)


def sample_poses(seed: int, n: int):
    """Haar poses (R, t) for sample indices 0..n-1, one ``rng_for(seed, index)`` each.

    Each stream draws nine Gaussians for the rotation, then three for t,
    as ``haar_rotations`` of ``standard_normal((1, 3, 3))`` followed by
    ``standard_normal(3)`` does; the streams are drawn through one
    re-keyed Philox (``distributions.Streams``), and one stacked QR then
    turns the Gaussians into rotations.  Returns r (n, 3, 3) and unit t
    (n, 3).
    """
    draws = dists.Streams(seed, 0, n).fill(dists._normals, np.empty((n, 12)))
    return dists.haar_rotations(draws[:, :9].reshape(n, 3, 3)), dists._unit(draws[:, 9:])


@dataclass
class CheckReport:
    name: str
    passed: bool
    value: float
    expected: float
    worst_deviation: float
    samples: int = 1

    def to_dict(self) -> dict:
        return asdict(self)


def verify_nj_E(samples: int = 100, seed: int = 0) -> CheckReport:
    """The pose-map normal Jacobian equals 1/4 at every sampled point.

    The report's value is the one at the reference pose (I, e1), which
    is checked together with the ``samples`` random poses.
    """
    r, t = sample_poses(seed, samples)
    nj = nj_pose_map(np.concatenate([np.eye(3)[None], r]),
                     np.concatenate([np.eye(3)[:1], t]))
    worst = float(np.max(np.abs(nj - 0.25)))
    return CheckReport("nj_pose_map", worst <= EXACT_TOL, float(nj[0]), 0.25, worst, samples + 1)


def nj_rotation_action(u, v) -> np.ndarray:
    """Normal Jacobians of ``(U, V) -> U E0 V^T`` at a stack of pairs.

    ``u`` and ``v`` have shape (N, 3, 3); returns N values.  Inputs: the
    curves V exp(s F), then U exp(s F), for the skew basis elements F,
    with tangents ``-U E0 F V^T`` and ``U F E0 V^T``; outputs: the
    tangent basis of the variety carried to U E0 V^T.  Entries are
    half-trace inner products, and each value is ``sqrt(det J J^T)``.
    """
    u = np.asarray(u, dtype=float).reshape(-1, 3, 3)
    v = np.asarray(v, dtype=float).reshape(-1, 3, 3)
    f = so3_basis()
    tangents = u[:, None] @ np.concatenate([-E0 @ f, f @ E0]) @ np.swapaxes(v, 1, 2)[:, None]
    return _tangent_gram_root(tangents, u, v)


def verify_nj_gamma(seed: int = 0, samples: int = 10) -> CheckReport:
    """The two-sided action has normal Jacobian 1/sqrt(8), everywhere.

    The report's value is the one at (I, I), checked together with
    ``samples`` Haar pairs, pair i drawn from ``rng_for(seed, i)``.
    """
    expected = 1.0 / math.sqrt(8.0)
    gauss = dists.Streams(seed, 0, samples).fill(dists._normals, np.empty((samples, 2, 3, 3)))
    pairs = np.concatenate([np.broadcast_to(np.eye(3), (1, 2, 3, 3)),
                            dists.haar_rotations(gauss.reshape(-1, 3, 3)).reshape(-1, 2, 3, 3)])
    nj = nj_rotation_action(pairs[:, 0], pairs[:, 1])
    worst = float(np.max(np.abs(nj - expected)))
    return CheckReport("nj_rotation_action", worst <= EXACT_TOL, float(nj[0]), expected, worst,
                       samples + 1)


def nj_quadric_param(p) -> np.ndarray:
    """Normal Jacobians of the quadric parametrization at a stack of points.

    The parametrization maps (a, b, r, s, theta) to the correspondence
    u = (a, r cos, r sin), v = (b, s cos, s sin) on the base quadric
    u^T E0 v = 0.  ``p`` holds parameters in a stack (N, 5); returns N
    values ``sqrt(det J^T J)`` of the 6x5 Jacobians into the u and v
    coordinates.
    """
    p = np.asarray(p, dtype=float).reshape(-1, 5)
    _, _, r, s, theta = p.T
    w = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    dw = np.stack([-w[:, 1], w[:, 0]], axis=1)
    jac = np.zeros((len(p), 5, 2, 3))           # J^T: row per parameter, u then v
    jac[:, 0, 0, 0] = jac[:, 1, 1, 0] = 1.0
    jac[:, 2, 0, 1:] = jac[:, 3, 1, 1:] = w
    jac[:, 4, 0, 1:] = r[:, None] * dw
    jac[:, 4, 1, 1:] = s[:, None] * dw
    return _gram_root(jac.reshape(-1, 5, 6))


def _quadric_point(rng: np.random.Generator, out: np.ndarray) -> None:
    rng.standard_normal(out=out)
    out[4] = rng.uniform(0.0, 2.0 * math.pi)


def verify_quadric_param_nj(samples: int = 50, seed: int = 0) -> CheckReport:
    """The quadric parametrization scales volume by sqrt(r^2 + s^2).

    Point i draws a, b, r, s standard normal and theta uniform from
    ``rng_for(seed, i)``.  The report's value and expected value are those
    of the first sample.
    """
    p = dists.Streams(seed, 0, samples).fill(_quadric_point, np.empty((samples, 5)))
    expected = np.hypot(p[:, 2], p[:, 3])
    got = nj_quadric_param(p)
    worst = float(np.max(np.abs(got - expected)))
    return CheckReport("nj_quadric_param", worst <= EXACT_TOL, float(got[0]), float(expected[0]),
                       worst, samples)


def mc_volume_essential(n: int = 10_000, seed: int = 0) -> tuple[float, float]:
    """Monte Carlo volume of the unit-sphere essential variety.

    Averages the pose-map normal Jacobian over Haar-random poses and
    multiplies by half the product of the rotation-group and sphere
    volumes (the map is 2:1).  The Jacobian is constant, so the estimate
    is exact to rounding: 4 pi^3.  The poses are drawn at once and mapped
    ``VOLUME_BLOCK`` at a time, so the Jacobian temporaries are those of
    one block; a pose's value does not depend on its block.
    Returns the pair (volume, max |NJ - 1/4| over the samples).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    r, t = sample_poses(seed, n)
    nj = np.concatenate([nj_pose_map(r[lo:lo + VOLUME_BLOCK], t[lo:lo + VOLUME_BLOCK])
                         for lo in range(0, n, VOLUME_BLOCK)])
    volume = 0.5 * VOL_SO3 * VOL_S2 * float(np.mean(nj))
    return volume, float(np.max(np.abs(nj - 0.25)))


def incidence_jacobian_blocks(points: np.ndarray) -> np.ndarray:
    """The 5x30 block matrices of quadric gradients at five correspondences.

    ``points`` has shape (..., 5, 2, 3); returns (..., 5, 30).  Row i is
    the gradient of ``u^T E0 v`` at (u_i, v_i), i.e.
    ``[0, -v3, v2, 0, u3, -u2]``, placed in block-diagonal position.
    """
    points = np.asarray(points, dtype=float)
    u, v = points[..., 0, :], points[..., 1, :]
    zero = np.zeros(u.shape[:-1])
    grads = np.stack([zero, -v[..., 2], v[..., 1], zero, u[..., 2], -u[..., 1]], axis=-1)
    out = np.zeros(u.shape[:-1] + (5, 6))
    out[..., range(5), range(5), :] = grads
    return out.reshape(u.shape[:-1] + (30,))


def verify_detAAT_identity(samples: int = 200, seed: int = 0) -> CheckReport:
    """det(A A^T) equals the product of u2^2 + u3^2 + v2^2 + v3^2.

    Sample i draws its five correspondences from ``rng_for(seed, i)``.
    The report's value and expected value are those of the first sample.
    """
    pts = dists.Streams(seed, 0, samples).fill(dists._normals, np.empty((samples, 5, 2, 3)))
    a = incidence_jacobian_blocks(pts)
    lhs = np.linalg.det(a @ np.swapaxes(a, 1, 2))
    sq = pts[..., 1:] ** 2
    rhs = np.prod(sq[..., 0, 0] + sq[..., 0, 1] + sq[..., 1, 0] + sq[..., 1, 1], axis=1)
    worst = float(np.max(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300)))
    return CheckReport("det_AAT_identity", worst <= DETAAT_TOL, float(lhs[0]), float(rhs[0]), worst,
                       samples)


def verify_detB_identity(samples: int = 200, seed: int = 0) -> CheckReport:
    """|det B| = 4 |det Z| for every matrix Z of the determinant route's draw.

    Z is ``sample_z_matrices(rng_for(seed, 0), samples)``; its parameters
    are drawn again in the order of :func:`distributions.z_slices`, block
    by block: each block's a, b, r, s in one call, then its thetas.  Then
    B_ij = u_i^T T_j v_i for the correspondence u = (a, r cos, r sin),
    v = (b, s cos, s sin) of column i and the tangent basis T.  Deviations
    are scaled by the Hadamard bound 4 prod_i |z_i|, which bounds the
    rounding of ``abs_det5`` and, unlike |det Z|, does not vanish when
    the columns are nearly dependent.  The report's value and expected
    value are those of the first matrix.
    """
    z = dists.sample_z_matrices(dists.rng_for(seed, 0), samples)
    rng = dists.rng_for(seed, 0)
    blocks = []
    for lo in range(0, 5 * samples, dists._Z_SLICE):
        k = min(dists._Z_SLICE, 5 * samples - lo)
        blocks.append(np.vstack([rng.standard_normal((4, k)), 2.0 * math.pi * rng.random(k)]))
    a, b, r, s, theta = np.hstack(blocks)
    cos, sin = np.cos(theta), np.sin(theta)
    u = np.stack([a, r * cos, r * sin], axis=1)
    v = np.stack([b, s * cos, s * sin], axis=1)
    det_b = abs_det5(np.einsum("nk,jkl,nl->nj", u, tangent_basis_E0(), v).reshape(-1, 5, 5))
    four_det_z = 4.0 * abs_det5(z)
    hadamard = 4.0 * np.prod(np.sqrt(np.sum(z * z, axis=1)), axis=1)
    worst = float(np.max(np.abs(det_b - four_det_z) / hadamard))
    return CheckReport("detB_identity", worst <= EXACT_TOL, float(det_b[0]), float(four_det_z[0]),
                       worst, samples)


def run_suite(suite: str = "all", seed: int = 0) -> dict:
    """Run the requested verification checks and report pass/fail."""
    if suite not in ("all", "nj", "volumes", "identities"):
        raise ValueError(f"unknown suite {suite!r}")
    checks = {}

    def record(report: CheckReport):
        checks[report.name] = report.to_dict()

    if suite in ("all", "nj"):
        record(verify_nj_E(100, seed))
        record(verify_nj_gamma(seed))
        record(verify_quadric_param_nj(50, seed))
    if suite in ("all", "volumes"):
        vol_sphere, worst = mc_volume_essential(10_000, seed)
        expected = 4.0 * math.pi ** 3
        ratio = (0.5 * vol_sphere) / VOL_RP5
        checks["volume_essential"] = {
            "name": "volume_essential",
            "passed": (abs(vol_sphere - expected) <= EXACT_TOL * expected
                       and abs(ratio - 4.0) <= 4.0 * EXACT_TOL),
            "value": vol_sphere, "expected": expected,
            "projective_ratio": ratio, "worst_deviation": worst,
            "samples": 10_000,
        }
    if suite in ("all", "identities"):
        record(verify_detAAT_identity(200, seed))
        record(verify_detB_identity(200, seed))
    passed = all(check["passed"] for check in checks.values())
    return {"suite": suite, "passed": passed, "checks": checks}
