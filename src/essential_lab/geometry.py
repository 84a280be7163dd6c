"""Exact constructions and identities on the essential variety.

Essential matrices are the 3x3 matrices of the form ``[t]_x @ R`` with
``R`` a rotation and ``t`` a unit translation direction.  Up to scale they
are cut out by ten cubic equations (the determinant together with the nine
entries of ``2*E*E^T*E - tr(E*E^T)*E``).  All metric statements in this
module use the half-trace inner product ``<A, B> = tr(A @ B.T) / 2`` --
with that normalization the pose map sends ``SO(3) x S^2`` onto the unit
sphere of essential matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInput

# Tolerance ladder: construction identities / type invariants / classification.
TOL_CONSTRUCTION = 1e-12
TOL_INVARIANT = 1e-9
TOL_CLASSIFY = 1e-6

E0 = np.array([
    [0.0, 0.0, 0.0],
    [0.0, 0.0, -1.0],
    [0.0, 1.0, 0.0],
])
E0.setflags(write=False)


def half_trace_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Half-trace inner product ``tr(a @ b.T) / 2`` on 3x3 matrices."""
    return 0.5 * float(np.sum(np.asarray(a) * np.asarray(b)))


def half_trace_norm(a: np.ndarray) -> float:
    return np.sqrt(half_trace_inner(a, a))


def cross_matrix(t: np.ndarray) -> np.ndarray:
    """Skew matrix of the cross product: ``cross_matrix(t) @ x == cross(t, x)``.

    Takes one vector or a stack (..., 3) and returns (..., 3, 3).
    """
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape + (3,))
    out[..., 0, 1], out[..., 0, 2] = -t[..., 2], t[..., 1]
    out[..., 1, 0], out[..., 1, 2] = t[..., 2], -t[..., 0]
    out[..., 2, 0], out[..., 2, 1] = -t[..., 1], t[..., 0]
    return out


def demazure_residuals(e: np.ndarray) -> np.ndarray:
    """The ten cubic residuals of a 3x3 matrix, or of each in a stack (..., 3, 3).

    Component 0 is ``det(e)``; components 1..9 are the entries of
    ``2 e e^T e - tr(e e^T) e`` in row-major order.  All ten vanish exactly
    on the cone over the essential variety.
    """
    e = np.asarray(e, dtype=float)
    eet = e @ np.swapaxes(e, -1, -2)
    tr = np.trace(eet, axis1=-2, axis2=-1)[..., None, None]
    mat = 2.0 * (eet @ e) - tr * e
    out = np.empty(e.shape[:-2] + (10,))
    out[..., 0] = np.linalg.det(e)
    out[..., 1:] = mat.reshape(e.shape[:-2] + (9,))
    return out


@dataclass(frozen=True, eq=False)
class Rotation:
    """Element of SO(3); validated on construction."""

    m: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        if m.shape != (3, 3) or not np.all(np.isfinite(m)):
            raise DegenerateInput("rotation must be a finite 3x3 matrix")
        if np.max(np.abs(m @ m.T - np.eye(3))) > 1e-12:
            raise DegenerateInput("matrix is not orthogonal to 1e-12")
        if abs(np.linalg.det(m) - 1.0) > 1e-12:
            raise DegenerateInput("determinant is not +1 to 1e-12")
        m.setflags(write=False)
        object.__setattr__(self, "m", m)


@dataclass(frozen=True, eq=False)
class UnitVec3:
    """Unit vector in R^3; validated on construction."""

    v: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float).reshape(3)
        if not np.all(np.isfinite(v)) or abs(np.linalg.norm(v) - 1.0) > 1e-12:
            raise DegenerateInput("vector is not unit length to 1e-12")
        v.setflags(write=False)
        object.__setattr__(self, "v", v)


@dataclass(frozen=True, eq=False)
class EssentialMatrix:
    """Unit-norm essential matrix; checks norm and cubic residuals."""

    m: np.ndarray
    residual: float = field(default=0.0, compare=False)

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        if m.shape != (3, 3) or not np.all(np.isfinite(m)):
            raise DegenerateInput("essential matrix must be a finite 3x3 matrix")
        if abs(half_trace_norm(m) - 1.0) > TOL_INVARIANT:
            raise DegenerateInput("half-trace norm deviates from 1 beyond 1e-9")
        res = float(np.max(np.abs(demazure_residuals(m))))
        if res > TOL_INVARIANT:
            raise DegenerateInput(f"cubic residuals {res:.3e} exceed 1e-9")
        m.setflags(write=False)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "residual", res)

    @classmethod
    def trusted(cls, m: np.ndarray, residual: float) -> "EssentialMatrix":
        """Construct without re-validating; caller certifies the invariants.

        The solver builds every solution it accepts this way, with the
        residual it accepted (at most 1e-8, above the 1e-9 that the
        validating constructor asks for).
        """
        obj = object.__new__(cls)
        m.setflags(write=False)
        object.__setattr__(obj, "m", m)
        object.__setattr__(obj, "residual", float(residual))
        return obj


@dataclass(frozen=True, eq=False)
class ProjectivePoint2:
    """Point of RP^2 stored as a unit representative of its sign class."""

    v: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float).reshape(3)
        n = np.linalg.norm(v)
        if not np.all(np.isfinite(v)) or n == 0.0:
            raise DegenerateInput("projective point needs a nonzero finite vector")
        v = v / n
        v.setflags(write=False)
        object.__setattr__(self, "v", v)

    def distance(self, other: "ProjectivePoint2") -> float:
        """Distance in the sphere quotient: min over the +- representative."""
        w = other.v
        return min(np.linalg.norm(self.v - w), np.linalg.norm(self.v + w))

    def same_point(self, other: "ProjectivePoint2", tol: float = TOL_INVARIANT) -> bool:
        return self.distance(other) <= tol


def _pose_arrays(r, t):
    rm = r.m if isinstance(r, Rotation) else Rotation(np.asarray(r)).m
    tv = t.v if isinstance(t, UnitVec3) else UnitVec3(np.asarray(t)).v
    return rm, tv


def essential_from_pose(r, t) -> EssentialMatrix:
    """Essential matrix ``[t]_x @ R`` of a pose; has half-trace norm 1."""
    rm, tv = _pose_arrays(r, t)
    return EssentialMatrix(cross_matrix(tv) @ rm)


def twisted_pair(r, t) -> tuple[Rotation, UnitVec3]:
    """The second pose mapping to the same essential matrix.

    Returns ``(M @ R, -t)`` with ``M = 2 t t^T - 1`` (a half-turn about t).
    Applying it twice gives the original pose back.
    """
    rm, tv = _pose_arrays(r, t)
    m = 2.0 * np.outer(tv, tv) - np.eye(3)
    return Rotation(m @ rm), UnitVec3(-tv)


def _procrustes_rotation(k: np.ndarray) -> np.ndarray:
    """Rotation maximizing ``tr(R^T K)`` (special orthogonal Procrustes)."""
    u, _, vt = np.linalg.svd(k)
    d = np.sign(np.linalg.det(u @ vt))
    return u @ np.diag([1.0, 1.0, d]) @ vt


def recover_poses(e) -> list[tuple[Rotation, UnitVec3]]:
    """The two poses ``(R, t)`` with ``[t]_x @ R`` equal to the input.

    The translation is the unit kernel vector of ``E^T`` with its first
    nonzero component made positive; the rotation comes from a Procrustes
    alignment.  Raises :class:`DegenerateInput` when the cubic residuals
    exceed 1e-6 (the input is not an essential matrix).
    """
    em = e.m if isinstance(e, EssentialMatrix) else np.asarray(e, dtype=float)
    if np.max(np.abs(demazure_residuals(em))) > TOL_CLASSIFY:
        raise DegenerateInput("matrix does not satisfy the cubic equations")
    nrm = half_trace_norm(em)
    if nrm < TOL_CLASSIFY:
        raise DegenerateInput("matrix is numerically zero")
    em = em / nrm

    u, _, _ = np.linalg.svd(em)
    t = u[:, 2]
    lead = np.flatnonzero(np.abs(t) > TOL_INVARIANT)
    if lead.size and t[lead[0]] < 0:
        t = -t
    t = t / np.linalg.norm(t)

    best = None
    for tv in (t, -t):
        r = _procrustes_rotation(cross_matrix(tv).T @ em)
        res = np.max(np.abs(cross_matrix(tv) @ r - em))
        if best is None or res < best[0]:
            best = (res, r, tv)
    res, r, tv = best
    if res > 1e-8:
        raise DegenerateInput(f"pose reconstruction residual {res:.3e}")
    first = (Rotation(r), UnitVec3(tv))
    return [first, twisted_pair(*first)]


def tangent_basis_E0() -> np.ndarray:
    """Orthonormal basis of the tangent space to the variety at ``E0``.

    Shape (5, 3, 3); orthonormal for the half-trace inner product.
    """
    s = np.sqrt(2.0)
    b = np.zeros((5, 3, 3))
    b[0, 2, 0] = s
    b[1, 1, 0] = s
    b[2, 0, 2] = s
    b[3, 0, 1] = s
    b[4, 1, 1] = 1.0
    b[4, 2, 2] = 1.0
    b.setflags(write=False)
    return b


def so3_basis() -> np.ndarray:
    """Basis F_12, F_13, F_23 of skew matrices, unit in half-trace norm."""
    out = np.zeros((3, 3, 3))
    for k, (i, j) in enumerate(((0, 1), (0, 2), (1, 2))):
        out[k, i, j] = 1.0
        out[k, j, i] = -1.0
    out.setflags(write=False)
    return out
