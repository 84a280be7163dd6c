"""Lower bound for the correspondence average via the support-function body.

The expected number of real solutions under the correspondence
distribution equals ``5! * pi^3/4`` times the volume of the convex body K
with support function ``h_K(x) = E|<x, z>| / 2`` over the z-vector
ensemble.  This module evaluates the closed-form lower bounds on ``h_K``
(axis values and complete elliptic integrals), certifies that a family of
scaled points belongs to the bounding body, integrates ``rho1 * rho2`` over
the certified polytope, and assembles the resulting lower bound on the
expected count (>= 0.93).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainError

#: Scaling factors certified for the membership family: lambda_1 for
#: (e_i + e_3), lambda_2 for (e_i + 2/3 e_3), lambda_3 for (2/3 e_i + e_3),
#: lambda_4 for (e_i + 1/3 e_3), lambda_5 for (1/3 e_i + e_3).
LAMBDAS = (0.73, 0.86, 0.85, 0.966, 0.957)

#: The five certified families lambda_k (a e_i + c e_3), i = 1, 2, in the
#: order of ``LAMBDAS``: the name of each point and its (a, c).
FAMILIES = (("l1(p{i}+p3)", 1.0, 1.0), ("l2(p{i}+2/3 p3)", 1.0, 2.0 / 3.0),
            ("l3(2/3 p{i}+p3)", 2.0 / 3.0, 1.0), ("l4(p{i}+1/3 p3)", 1.0, 1.0 / 3.0),
            ("l5(1/3 p{i}+p3)", 1.0 / 3.0, 1.0))

#: Diagonal map sending polytope coordinates to support-body coordinates.
AXIS_SCALE = np.array([2.0 / math.pi ** 2, 2.0 / math.pi ** 2, 1.0 / math.pi])

MEMBERSHIP_TOL = 1e-9


def elliptic_E(m) -> np.ndarray:
    """Complete elliptic integral of the second kind, parameter m in [0, 1].

    scipy's ``ellipe``, elementwise over an array of parameters.
    """
    arr = np.asarray(m, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise DomainError("parameter must lie in [0, 1]")
    # imported here, as ConvexHull is, so that the other commands load no scipy
    from scipy.special import ellipe

    return ellipe(arr)


def F_bound(x, y) -> np.ndarray:
    """Elliptic support lower bound ``2/pi^2 sqrt(x^2+y^2) E(x^2/(x^2+y^2))``.

    At the origin it takes its limit, 0.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rad2 = x * x + y * y
    ratio = np.divide(x * x, rad2, out=np.zeros(rad2.shape), where=rad2 != 0.0)
    return (2.0 / math.pi ** 2) * np.sqrt(rad2) * elliptic_E(ratio)


def hL_support(rho) -> np.ndarray:
    """Support function of the bounding body on the nonnegative octant.

    The maximum of the axis bounds and the two elliptic bounds at each
    point of ``rho`` (..., 3); the result has the shape of its leading axes.
    """
    r1, r2, r3 = np.moveaxis(np.asarray(rho, dtype=float), -1, 0)
    values = np.stack([
        np.zeros_like(r1),
        (2.0 / math.pi ** 2) * r1,
        (2.0 / math.pi ** 2) * r2,
        (1.0 / math.pi) * r3,
        F_bound(r1, r3),
        F_bound(r2, r3),
    ])
    return values.max(axis=0)


def _directions(theta, phi) -> np.ndarray:
    """Unit directions (..., 3) at polar angle theta and azimuth phi."""
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)


#: The eight compass moves (d theta, d phi) of the polish, in units of its step.
_MOVES = np.array([(dt, dp) for dt in (-1, 0, 1) for dp in (-1, 0, 1) if dt or dp], float).T
_POLISH_STOP = 1e-13
_POLISH_CELLS = 12       # worst scan cells polished per point


def _margin(q, theta, phi) -> np.ndarray:
    """``h(|rho|) - <rho, q>`` at the directions rho of (theta, phi); outside the
    octant, no smaller than the margin of the reflected direction, as q >= 0."""
    rho = _directions(theta, phi)
    return hL_support(np.abs(rho)) - (rho * q).sum(axis=-1)


def _polish(q, theta, phi, step: float) -> np.ndarray:
    """Smallest margin a compass search finds from each start (theta, phi).

    ``q`` (n, 3) holds the point of each start; theta and phi (n,) move in
    place.  Each start tries its eight neighbours at its own step, moves to
    the best one if that lowers its margin and halves its step if not,
    until the step is below ``_POLISH_STOP``; it ends where it would alone.
    """
    best = _margin(q, theta, phi)
    step = np.full(best.shape, step)
    while (live := np.flatnonzero(step >= _POLISH_STOP)).size:
        t = theta[live, None] + step[live, None] * _MOVES[0]
        p = phi[live, None] + step[live, None] * _MOVES[1]
        trial = _margin(q[live, None], t, p)
        pick = trial.argmin(axis=1)[:, None]
        trial = np.take_along_axis(trial, pick, axis=1)[:, 0]
        better = trial < best[live]
        moved = live[better]
        theta[moved] = np.take_along_axis(t, pick, axis=1)[better, 0]
        phi[moved] = np.take_along_axis(p, pick, axis=1)[better, 0]
        best[moved] = trial[better]
        step[live[~better]] *= 0.5
    return best


def membership_check(q, grid: int = 128):
    """Certify ``<q, rho> <= h(rho) + 1e-9`` over unit octant directions.

    ``q`` holds points (..., 3).  One scan evaluates ``h`` on
    a grid of ``grid**2`` directions (``grid >= 2`` points per angle) and
    the margins ``h(rho) - <q, rho>`` of every point there; then a stacked
    compass search (:func:`_polish`) polishes the 12 worst cells of every
    point together, starting at the grid spacing.  This is a search, not
    a proof.  Returns ``(certified, worst_margin)``, arrays shaped like the
    leading axes of ``q`` (0-d for one point); a negative margin beyond the
    tolerance means the point lies outside the body.
    """
    q = np.asarray(q, dtype=float)
    points = q.reshape(-1, 3)
    if np.any(points < 0.0):
        raise ValueError("membership points live in the nonnegative octant")
    if grid < 2:
        raise ValueError("grid needs at least 2 points per angle")
    angles = np.linspace(0.0, 0.5 * math.pi, grid)
    theta, phi = (a.ravel() for a in np.meshgrid(angles, angles, indexing="ij"))
    dirs = _directions(theta, phi)
    margins = hL_support(dirs) - (dirs * points[:, None]).sum(axis=-1)
    cells = np.argsort(margins, axis=1)[:, :_POLISH_CELLS]
    polished = _polish(np.repeat(points, cells.shape[1], axis=0), theta[cells].ravel(),
                       phi[cells].ravel(), angles[1])
    worst = np.minimum(margins.min(axis=1), polished.reshape(cells.shape).min(axis=1))
    worst = worst.reshape(q.shape[:-1])
    return worst >= -MEMBERSHIP_TOL, worst


@dataclass(frozen=True, eq=False)
class Polytope3:
    """Convex hull of a generator set with a tetrahedral decomposition."""

    generators: np.ndarray     # input points, (m, 3)
    vertices: np.ndarray       # hull vertices, (k, 3)
    tetrahedra: np.ndarray     # (t, 4, 3), nonnegative volumes
    volume: float

    @classmethod
    def from_points(cls, points, apex=None) -> "Polytope3":
        # scipy takes ~0.4 s to import and nothing else uses it, so only this route loads it
        from scipy.spatial import ConvexHull

        points = np.asarray(points, dtype=float)
        hull = ConvexHull(points)
        if apex is None:
            apex = points[hull.vertices].mean(axis=0)
        apex = np.asarray(apex, dtype=float)
        # every generator must lie inside the hull
        worst = float((hull.equations[:, :3] @ points.T + hull.equations[:, 3:]).max())
        if worst > 1e-12:
            raise ValueError(f"hull misses a generator by {worst:.3e}")
        # swap two corners of each facet whose tetrahedron with the apex is negatively oriented
        tris = points[hull.simplices]
        flip = np.linalg.det(tris - apex) < 0
        tris[flip] = tris[flip][:, [1, 0, 2]]
        tets = np.concatenate([np.broadcast_to(apex, (len(tris), 1, 3)), tris], axis=1)
        vols = np.abs(np.linalg.det(tets[:, 1:] - tets[:, :1])) / 6.0
        total = float(vols.sum())
        if abs(total - hull.volume) > 1e-12 * max(hull.volume, 1.0):
            raise ValueError("tetrahedra do not fill the hull")
        return cls(points, points[hull.vertices], tets, total)


# Degree-2 exact barycentric rule on a tetrahedron (4 points, weight 1/4).
_BARY_A = (5.0 + 3.0 * math.sqrt(5.0)) / 20.0
_BARY_B = (5.0 - math.sqrt(5.0)) / 20.0
_QUAD_BARY = np.full((4, 4), _BARY_B) + (_BARY_A - _BARY_B) * np.eye(4)


def integrate_rho1rho2(poly: Polytope3) -> float:
    """Exact integral of the monomial rho1 * rho2 over the polytope.

    Applies the degree-2 exact 4-point simplex rule on each tetrahedron of
    the decomposition; the integrand is quadratic, so no quadrature error.
    """
    tets = poly.tetrahedra
    vols = np.abs(np.linalg.det(tets[:, 1:] - tets[:, :1])) / 6.0
    nodes = _QUAD_BARY @ tets                       # (t, 4, 3)
    vals = nodes[:, :, 0] * nodes[:, :, 1]
    return float(np.sum(vols * vals.mean(axis=1)))


def polytope_generators(lambdas=LAMBDAS, symmetrized: bool = True) -> np.ndarray:
    """Generator list of the certified polytope in unscaled coordinates.

    The literal list contains 0, the three unit axis points, the scaled
    diagonal point lambda_1 (e_1 + e_3) and the eight i-indexed points for
    i = 1, 2; the symmetrized variant adds lambda_1 (e_2 + e_3), making
    the generator set symmetric under swapping the first two axes.
    """
    one, two = _family_points(lambdas, 1), _family_points(lambdas, 2)
    diagonals = [one[0], two[0]] if symmetrized else [one[0]]
    return np.array([np.zeros(3), *np.eye(3)] + [p for _, p in diagonals + one[1:] + two[1:]])


def _family_points(lambdas, i: int) -> list:
    """(name, point) of the five families on axis i = 1 or 2, in unscaled coordinates."""
    e = np.eye(3)
    return [(name.format(i=i), lam * (a * e[i - 1] + c * e[2]))
            for lam, (name, a, c) in zip(lambdas, FAMILIES)]


def build_polytope_P(lambdas=LAMBDAS, symmetrized: bool = True) -> Polytope3:
    """Convex hull of the certified generator set, tetrahedralized."""
    return Polytope3.from_points(polytope_generators(lambdas, symmetrized))


@dataclass
class ZonoidBoundReport:
    """All intermediates of the lower-bound pipeline."""

    lambdas: tuple
    memberships: list          # dicts: name, point, certified, margin
    membership_ok: bool
    integral_literal: float
    integral_symmetrized: float
    integral_used: float
    factor_count_from_volume: float       # 5! * pi^3 / 4
    factor_fibers: float       # 2 (2 pi)^2
    factor_scaling: float      # (2/pi^2)^4 / pi
    vol_k_lower: float
    bound: float

    def to_dict(self) -> dict:
        return asdict(self)


def membership_points(lambdas=LAMBDAS):
    """The thirteen certified points: three axis points plus ten scaled ones."""
    axes = [(f"p{i}", e) for i, e in enumerate(np.eye(3), 1)]
    return [(name, AXIS_SCALE * p)
            for name, p in axes + _family_points(lambdas, 1) + _family_points(lambdas, 2)]


def zonoid_lower_bound(grid: int = 128, lambdas=LAMBDAS) -> ZonoidBoundReport:
    """Assemble the certified lower bound on the correspondence average.

    Checks membership of all thirteen scaled points, integrates
    ``rho1 rho2`` over both generator variants of the polytope, and chains
    the volume factors into ``5! (pi^3/4) (2^7/pi^7) I_P``.  The headline
    bound uses the symmetrized integral; membership failures are flagged
    in the report.
    """
    names, points = zip(*membership_points(lambdas))
    certified, margins = membership_check(np.array(points), grid=grid)
    memberships = [{"name": name, "point": point.tolist(), "certified": bool(ok),
                    "margin": float(margin)}
                   for name, point, ok, margin in zip(names, points, certified, margins)]
    ok = bool(certified.all())

    integral_literal = integrate_rho1rho2(build_polytope_P(lambdas, symmetrized=False))
    integral_symmetrized = integrate_rho1rho2(build_polytope_P(lambdas, symmetrized=True))
    integral_used = integral_symmetrized

    factor_count_from_volume = 120.0 * math.pi ** 3 / 4.0
    factor_fibers = 2.0 * (2.0 * math.pi) ** 2
    factor_scaling = (2.0 / math.pi ** 2) ** 4 / math.pi
    vol_k_lower = factor_fibers * factor_scaling * integral_used
    bound = factor_count_from_volume * vol_k_lower
    return ZonoidBoundReport(
        lambdas=tuple(lambdas),
        memberships=memberships,
        membership_ok=ok,
        integral_literal=integral_literal,
        integral_symmetrized=integral_symmetrized,
        integral_used=integral_used,
        factor_count_from_volume=factor_count_from_volume,
        factor_fibers=factor_fibers,
        factor_scaling=factor_scaling,
        vol_k_lower=vol_k_lower,
        bound=bound,
    )
