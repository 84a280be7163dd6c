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

#: Tolerance of the essential-matrix invariants: unit norm and cubic residuals.
TOL_INVARIANT = 1e-9

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
    eet = e @ e.swapaxes(-1, -2)
    tr = eet.trace(axis1=-2, axis2=-1)[..., None, None]
    mat = 2.0 * (eet @ e) - tr * e
    return np.concatenate([np.linalg.det(e)[..., None], mat.reshape(e.shape[:-2] + (9,))],
                          axis=-1)


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
