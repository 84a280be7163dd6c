"""Random generators for poses, image points, linear spaces and z-vectors.

Three distributions of codimension-5 linear spaces are provided:

* ``sample_unifG`` -- rotation-invariant spaces (i.i.d. Gaussian rows; the
  row span is then invariant under the full orthogonal group of R^9);
* ``sample_psi`` -- spaces cut out by five random point correspondences,
  each image point uniform on the projective plane;
* ``sample_box`` -- correspondences drawn uniformly from pixel boxes in
  the affine chart, the distribution used for camera-like experiments.

The base quadric u^T E0 v = 0 lives here too: ``quadric_draw``,
``quadric_param`` and ``quadric_z`` give its parameters, correspondences
and z-vectors, whose determinant ensemble reproduces the correspondence
average; the box Metropolis-Hastings chain proposes from it.

Every sampler draws from explicit ``numpy.random.Generator`` objects.  For
scheduling-independent parallel runs, derive one generator per sample
index with :func:`rng_for`, which keys a counter-based Philox stream by
``(seed, index)``.  The three linear-space samplers take a sequence of
such generators and return one instance per generator, stacked as arrays:
rows (N, 5, 9) and kernel bases (N, 4, 9).  Each instance gets exactly the
draws it gets in a stack of one.  Given a :class:`Streams`, the generators
of a run of indices, they draw every instance from one Philox re-keyed
index by index, which makes the draws of ``rng_for`` without building a
generator per index; the norms, signs, rows and rank checks then run once
for the whole stack.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import RankDeficient
from .solver import nullspace_basis

VOL_RP2 = 2.0 * np.pi   # Riemannian area of the projective plane


_MASK = (1 << 64) - 1


def _key(seed: int, index: int) -> np.ndarray:
    return np.array([seed & _MASK, index & _MASK], dtype=np.uint64)


def rng_for(seed: int, index: int) -> np.random.Generator:
    """Independent generator for one sample: Philox keyed by (seed, index)."""
    return np.random.Generator(np.random.Philox(key=_key(seed, index)))


class Streams(Sequence):
    """The generators ``rng_for(seed, start + i)`` for ``i`` in ``range(n)``.

    :meth:`fill` makes one draw per index from a single Philox whose state
    is set, index after index, to key (seed, start + i), counter 0 and an
    empty buffer: the state ``rng_for`` starts in, so each draw is the one
    ``rng_for(seed, start + i)`` makes, at a fraction of the cost of a new
    generator.  ``streams[i]`` is instance i's own generator, built by
    ``rng_for`` on first use and advanced by that draw, so later draws
    from it (a redraw, a new solver chart) continue where they would.
    """

    def __init__(self, seed: int, start: int, n: int):
        self.seed, self.start, self.n = seed, start, n
        self._replay = None
        self._own = {}

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i) -> np.random.Generator:
        if not 0 <= i < self.n:
            raise IndexError(f"stream {i} out of range({self.n})")
        if i not in self._own:
            rng = rng_for(self.seed, self.start + int(i))
            if self._replay is not None:
                self._replay(rng)
            self._own[i] = rng
        return self._own[i]

    def fill(self, draw, out: np.ndarray) -> np.ndarray:
        """Call ``draw(generator, out[i])`` with the stream of every index i in turn."""
        bit_generator = np.random.Philox(0)
        rng = np.random.Generator(bit_generator)
        state = {"bit_generator": "Philox",
                 "state": {"counter": np.zeros(4, dtype=np.uint64), "key": None},
                 "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
                 "has_uint32": 0, "uinteger": 0}
        for i in range(self.n):
            state["state"]["key"] = _key(self.seed, self.start + i)
            bit_generator.state = state
            draw(rng, out[i])
        shape = out.shape[1:]
        self._replay = lambda g: draw(g, np.empty(shape))
        return out


def _fill(rngs, draw, out: np.ndarray) -> np.ndarray:
    """``draw(generator, out[i])`` for the generator of each instance i."""
    if isinstance(rngs, Streams):
        return rngs.fill(draw, out)
    for rng, slot in zip(rngs, out):
        draw(rng, slot)
    return out


def _normals(rng: np.random.Generator, out: np.ndarray) -> None:
    rng.standard_normal(out=out)


@dataclass(frozen=True)
class BoxSpec:
    """Axis-aligned rectangle [a, b] x [c, d] in the affine chart."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if not (self.a < self.b and self.c < self.d):
            raise ValueError("box needs a < b and c < d")

    @property
    def area(self) -> float:
        return (self.b - self.a) * (self.d - self.c)


def _rotations(rng: np.random.Generator, n: int) -> np.ndarray:
    """Stack of n Haar rotations drawn from ``rng``."""
    return haar_rotations(rng.standard_normal((n, 3, 3)))


def haar_rotations(gauss: np.ndarray) -> np.ndarray:
    """Haar rotations from Gaussian matrices (n, 3, 3): det-corrected QR factor."""
    q, r = np.linalg.qr(gauss)
    q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    flip = np.linalg.det(q) < 0
    q[flip, :, 2] *= -1.0
    return q


def _rp2_points(v: np.ndarray, rngs) -> np.ndarray:
    """Uniform projective points from Gaussian 3-vectors v (N, k, 3), normalized in place.

    A vector shorter than 1e-12 is redrawn from its instance's generator
    ``rngs[i]`` until none is; each point's sign is canonical.
    """
    norms = np.linalg.norm(v, axis=-1)
    for i in np.flatnonzero(np.any(norms < 1e-12, axis=-1)):
        while np.any(norms[i] < 1e-12):
            bad = norms[i] < 1e-12
            v[i, bad] = rngs[i].standard_normal((int(bad.sum()), 3))
            norms[i] = np.linalg.norm(v[i], axis=-1)
    v /= norms[..., None]
    # canonical sign: first component of largest magnitude made positive
    lead = np.argmax(np.abs(v), axis=-1)
    return v * np.sign(np.take_along_axis(v, lead[..., None], axis=-1))


def _unit(v: np.ndarray) -> np.ndarray:
    """3-vectors (..., 3) scaled to unit length by the root of their own dot product."""
    return v / np.sqrt(v[..., None, :] @ v[..., :, None])[..., 0]


def _pair_rows(points: np.ndarray) -> np.ndarray:
    """Rows vec(u_i v_i^T) (..., 5, 9) of points (..., 10, 3) ordered u1, v1, ..., u5, v5."""
    u, v = points[..., 0::2, :], points[..., 1::2, :]
    return (u[..., :, None] * v[..., None, :]).reshape(points.shape[:-2] + (5, 9))


def _stack(rngs, draw, shape, rows_of, redraw):
    """One draw from each generator, turned into rows and rank-checked together.

    ``draw(rng, out)`` fills one instance's slot of shape ``shape``, and
    ``rows_of(raw, rngs)`` maps the stacked draws to rows (N, 5, 9).
    Returns the rows and their kernel bases (N, 4, 9) from one SVD per
    instance.  With ``redraw`` a rank-deficient instance is drawn again
    from its own generator until it has full rank; without, it raises
    :class:`RankDeficient`.
    """
    rows = rows_of(_fill(rngs, draw, np.empty((len(rngs),) + shape)), rngs)
    basis = nullspace_basis(rows)
    for i in np.flatnonzero(np.isnan(basis[:, 0, 0])):
        if not redraw:
            raise RankDeficient("rows are numerically rank deficient")
        while np.isnan(basis[i, 0, 0]):
            raw = np.empty((1,) + shape)
            draw(rngs[i], raw[0])
            rows[i] = rows_of(raw, [rngs[i]])[0]
            basis[i] = nullspace_basis(rows[i:i + 1])[0]
    return rows, basis


def sample_unifG(rngs):
    """Rotation-invariant random linear spaces: i.i.d. Gaussian rows.

    Draws one space from each generator of ``rngs`` (a list, or a
    :class:`Streams`) and returns their rows (N, 5, 9) with kernel bases
    (N, 4, 9).  A rank-deficient draw is redrawn from the same generator.
    """
    return _stack(rngs, _normals, (5, 9), lambda raw, _: raw, redraw=True)


def sample_psi(rngs):
    """Spaces of five correspondences of i.i.d. uniform projective points.

    The image points are ordered u1, v1, ..., u5, v5, and row i is
    vec(u_i v_i^T), so row . vec(E) = u_i^T E v_i.  Returns rows and kernel
    bases as :func:`sample_unifG` does, redrawing the same way.
    """
    return _stack(rngs, _normals, (10, 3),
                  lambda raw, rngs: _pair_rows(_unit(_rp2_points(raw, rngs))), redraw=True)


def sample_box(rngs, boxes):
    """Correspondences uniform in pixel boxes, embedded as [y1 : y2 : 1].

    ``boxes`` holds ten :class:`BoxSpec` (or 4-tuples), ordered
    u1, v1, u2, v2, ..., u5, v5.  Representatives have positive third
    coordinate.  Returns rows and kernel bases as :func:`sample_unifG`
    does; rank deficiency (possible for degenerate boxes) raises
    :class:`RankDeficient`, not resampled.
    """
    boxes = [b if isinstance(b, BoxSpec) else BoxSpec(*b) for b in boxes]
    if len(boxes) != 10:
        raise ValueError("need ten boxes (u and v for each of five pairs)")
    low = np.array([(b.a, b.c) for b in boxes]).ravel()
    high = np.array([(b.b, b.d) for b in boxes]).ravel()

    def draw(g, out):
        out[:] = g.uniform(low, high)

    def points(y):
        y = y.reshape(y.shape[:-1] + (10, 2))
        return np.concatenate([y, np.ones(y.shape[:-1] + (1,))], axis=-1)

    return _stack(rngs, draw, (20,), lambda raw, _: _pair_rows(_unit(points(raw))),
                  redraw=False)


_Z_SLICE = 65_536    # z-vectors mapped at a time, so the map's temporaries stay small


def _z_batch(rng: np.random.Generator, n: int) -> np.ndarray:
    """n z-vectors (n, 5): a, b, r, s drawn as four rows of n normals, then n thetas.

    The parameters (5, n) are overwritten by their z-vectors slice by
    slice; the result is the transposed view of that one array.
    """
    p = np.empty((5, n))
    rng.standard_normal(out=p[:4])
    # random() scaled in place draws what uniform(0, 2 pi, n) draws, with no temporary
    rng.random(out=p[4])
    p[4] *= 2.0 * np.pi
    for lo in range(0, n, _Z_SLICE):
        part = p[:, lo:lo + _Z_SLICE]
        part[...] = quadric_z(part.T).T
    return p.T


def sample_z_matrices(rng: np.random.Generator, n: int) -> np.ndarray:
    """n matrices (n, 5, 5) with i.i.d. z-vector columns."""
    return _z_batch(rng, 5 * n).reshape(n, 5, 5).transpose(0, 2, 1)


def quadric_draw(rng: np.random.Generator, shape) -> np.ndarray:
    """Quadric parameters (*shape, 5) of (a, b, r, s, theta).

    Draws all a, b, r, s standard normal first (shape (*shape, 4)), then
    every theta uniform on [0, 2 pi).
    """
    base = rng.standard_normal((*shape, 4))
    theta = rng.uniform(0.0, 2.0 * np.pi, shape)
    return np.concatenate([base, theta[..., None]], axis=-1)


def quadric_param(a5: np.ndarray) -> np.ndarray:
    """Map (a, b, r, s, theta) per point to correspondence vectors.

    Input shape (..., 5, 5) (one row per correspondence); output
    (..., 5, 2, 3) with u = (a, r cos, r sin) and v = (b, s cos, s sin),
    which satisfy u^T E0 v = 0 by construction.
    """
    a, b, r, s, theta = np.moveaxis(np.asarray(a5, dtype=float), -1, 0)
    cos, sin = np.cos(theta), np.sin(theta)
    u = np.stack([a, r * cos, r * sin], axis=-1)
    v = np.stack([b, s * cos, s * sin], axis=-1)
    return np.stack([u, v], axis=-2)


def quadric_z(p: np.ndarray) -> np.ndarray:
    """z-vectors (..., 5) of quadric parameters (..., 5).

    Each is (b r sin, b r cos, a s sin, a s cos, r s), i.e.
    (v0 u2, v0 u1, u0 v2, u0 v1, u1 v1 + u2 v2) of the correspondence
    (u, v) that :func:`quadric_param` gives for the same parameters.
    """
    a, b, r, s, theta = np.moveaxis(np.asarray(p, dtype=float), -1, 0)
    sin, cos = np.sin(theta), np.cos(theta)
    return np.stack([b * r * sin, b * r * cos, a * s * sin, a * s * cos, r * s], axis=-1)


def rotated_quadric_draw(rng: np.random.Generator, m: int):
    """m uniform essential matrices, each with five correspondences on it.

    Draws m Haar rotations U, then m rotations V, then the quadric
    parameters (m, 5, 5) by :func:`quadric_draw`.  Returns the parameters
    and the points (m, 5, 2, 3) of :func:`quadric_param` rotated as
    u -> U u, v -> V v, which lie on u^T (U E0 V^T) v = 0.
    """
    us = _rotations(rng, m)
    vs = _rotations(rng, m)
    p = quadric_draw(rng, (m, 5))
    pts = quadric_param(p)
    return p, np.stack([pts[:, :, 0] @ np.swapaxes(us, 1, 2),
                        pts[:, :, 1] @ np.swapaxes(vs, 1, 2)], axis=2)


def box_weights(points: np.ndarray, boxes) -> np.ndarray:
    """Density of stacked correspondence tuples under the box law, per uniform law.

    ``points`` has shape (n, 5, 2, 3).  Each weight is the product over
    all ten image points of ``vol(RP^2) * g(point) / area(box)`` when
    every point lies in its box chart region, else 0.  Densities are
    taken with respect to the uniform probability measure, which is what
    the integral-formula estimators expect.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 10, 3)
    boxes = [b if isinstance(b, BoxSpec) else BoxSpec(*b) for b in boxes]
    lo1 = np.array([b.a for b in boxes])
    hi1 = np.array([b.b for b in boxes])
    lo2 = np.array([b.c for b in boxes])
    hi2 = np.array([b.d for b in boxes])
    areas = np.array([b.area for b in boxes])

    norms = np.linalg.norm(pts, axis=2)
    w3 = pts[:, :, 2]
    safe = np.abs(w3) > 1e-12 * norms
    w3s = np.where(safe, w3, 1.0)
    y1 = pts[:, :, 0] / w3s
    y2 = pts[:, :, 1] / w3s
    inside = safe & (y1 >= lo1) & (y1 <= hi1) & (y2 >= lo2) & (y2 <= hi2)
    g = (norms ** 2 / w3s ** 2) * (norms / np.abs(w3s))
    factors = np.where(inside, VOL_RP2 * g / areas, 0.0)
    return np.prod(factors, axis=1)


def mh_box_chain(rng: np.random.Generator, n: int, boxes, psi=None):
    """Independence-proposal Metropolis-Hastings chain for a box target.

    Proposals are pairs of a uniform essential matrix (through its Haar
    witnesses U, V) and a fresh base draw of (a, b, r, s, theta) per
    correspondence; the target density over the proposal measure is
    ``psi`` evaluated on the rotated correspondences (default: the box
    density).  ``psi`` takes a stack (m, 5, 2, 3) and returns m densities.
    Since proposals are independent, only the density values enter the
    accept/reject scan, which visits the proposals of positive density in
    order.  Returns the accepted states (with their first chain position
    and density) and the acceptance count.
    """
    if psi is None:
        def psi(points):
            return box_weights(points, boxes)

    batch = 4096
    states = []          # (chain_index, points, density) of accepted proposals
    current_density = 0.0
    produced = 0
    while produced < n:
        m = min(batch, n - produced)
        _, pts = rotated_quadric_draw(rng, m)
        densities = np.asarray(psi(pts), dtype=float)
        if densities.shape != (m,):
            raise ValueError(f"psi must return {m} densities, got shape {densities.shape}")
        for i in np.flatnonzero(densities > 0.0):
            density = float(densities[i])
            if current_density > 0.0:
                ratio = density / current_density
                if not (ratio >= 1.0 or rng.uniform() < ratio):
                    continue
            states.append((produced + int(i), pts[i].copy(), density))
            current_density = density
        produced += m
    return states, len(states)
