"""Random generators for poses, image points, linear spaces and z-vectors.

Three distributions of codimension-5 linear spaces are provided:

* ``sample_unifG`` -- rotation-invariant spaces (i.i.d. Gaussian rows; the
  row span is then invariant under the full orthogonal group of R^9);
* ``sample_psi`` -- spaces cut out by five random point correspondences,
  each image point uniform on the projective plane;
* ``sample_box`` -- correspondences drawn uniformly from pixel boxes in
  the affine chart, the distribution used for camera-like experiments.

The base quadric u^T E0 v = 0 lives here too: its parameters
(a, b, r, s, theta) stand for the correspondence u = (a, r cos, r sin),
v = (b, s cos, s sin), and their z-vector takes (a, b, r, s) only as the
products b r, a s, r s.  ``quadric_fold`` forms those products and
``quadric_z_of_products`` maps them and theta to z-vectors.  The
z-vectors make the determinant ensemble, whose average reproduces the
correspondence average.  ``z_slices`` draws z-vectors one block of
``DET_BLOCK`` whole matrices at a time, parameters and then thetas, so
that the ensemble holds one block's parameters and never a stack of its
matrices, and the block lays out the stream of the draw; the verify
suite checks ``sample_z_matrices``, the same draw in one stack, matrix
by matrix.

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

import sys
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import RankDeficient
from .solver import nullspace_basis

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
        # compared before any arithmetic: a JSON integer beyond the float range stays an int
        big = sys.float_info.max
        if not (all(abs(x) <= big for x in (self.a, self.b, self.c, self.d))
                and self.b - self.a <= big and self.d - self.c <= big):
            raise ValueError("box needs finite bounds and finite widths")


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
    Returns the rows and their kernel bases (N, 4, 9) from one QR
    factorization per instance, which also checks the rank
    (:func:`nullspace_basis`).  With ``redraw`` a rank-deficient instance
    is drawn again from its own generator until it has full rank; without,
    it raises :class:`RankDeficient`.
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
    """Random linear spaces invariant under rotations: i.i.d. Gaussian rows.

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


DET_BLOCK = 8192         # matrices per block of the z-vector draw's stream, and of abs_det5
_Z_SLICE = 5 * DET_BLOCK    # z-vectors drawn and mapped at a time: one block of whole matrices


def quadric_fold(a: np.ndarray, b: np.ndarray, r: np.ndarray, s: np.ndarray) -> None:
    """Fold s into the quadric parameters a, b, r in place: they become a s, b r, r s.

    These three products are all a z-vector takes of its parameters (see
    :func:`quadric_z_of_products`), so s may be a piece drawn after a, b
    and r and dropped once folded in.
    """
    b *= r
    a *= s
    r *= s


def quadric_z_of_products(br: np.ndarray, as_: np.ndarray, rs: np.ndarray,
                          theta: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Write the z-vectors (br sin, br cos, as sin, as cos, rs) of theta into z (5, ...).

    br, as_, rs are the products :func:`quadric_fold` leaves of the
    parameters (a, b, r, s, theta), which stand for the correspondence
    u = (a, r cos, r sin), v = (b, s cos, s sin); the z-vector is then
    (v0 u2, v0 u1, u0 v2, u0 v1, u1 v1 + u2 v2).  theta may be the row
    z[4]: the sines and cosines are taken into rows 0 and 1 before it is
    overwritten, so no temporary is made.  Returns z.
    """
    np.sin(theta, out=z[0])
    np.cos(theta, out=z[1])
    np.multiply(as_, z[0], out=z[2])
    np.multiply(as_, z[1], out=z[3])
    z[0] *= br
    z[1] *= br
    z[4] = rs
    return z


def z_slices(rng: np.random.Generator, n: int):
    """Draw n z-vectors and yield them in order, as slices (k, 5) of ``_Z_SLICE`` or fewer.

    The draw goes block by block, one slice of k z-vectors at a time:
    the slice's a, b, r and s are drawn by one call into a buffer (4, k)
    and folded into a s, b r and r s by :func:`quadric_fold`, then its
    thetas are drawn, uniform on [0, 2 pi), and
    :func:`quadric_z_of_products` writes its z-vectors into a second
    buffer (5, k).  So the stream of a draw is laid out in blocks of
    ``DET_BLOCK`` matrices, and only these two buffers are held, whatever
    n is.  Every slice is a view of the same buffer, which the next slice
    overwrites: copy a slice to keep it.
    """
    size = min(n, _Z_SLICE)
    params, buffer = np.empty(4 * size), np.empty((5, size))
    for lo in range(0, n, _Z_SLICE):
        k = min(_Z_SLICE, n - lo)
        # flat, then reshaped: a (4, k) view of a (4, size) array is not contiguous
        a, b, r, s = rng.standard_normal(out=params[:4 * k]).reshape(4, k)
        quadric_fold(a, b, r, s)
        z = buffer[:, :k]
        # random() scaled in place draws what uniform(0, 2 pi, k) draws, with no temporary
        rng.random(out=z[4])
        z[4] *= 2.0 * np.pi
        yield quadric_z_of_products(b, a, r, z[4], z).T


def _z_batch(rng: np.random.Generator, n: int) -> np.ndarray:
    """n z-vectors (n, 5), gathered from the slices of :func:`z_slices`.

    The result is the transposed view of one array (5, n), as each slice is.
    """
    z = np.empty((5, n)).T
    for lo, part in zip(range(0, n, _Z_SLICE), z_slices(rng, n)):
        z[lo:lo + len(part)] = part
    return z


def z_matrices(z: np.ndarray) -> np.ndarray:
    """The matrices (k, 5, 5) whose columns are the z-vectors of z (5k, 5), five by five."""
    return z.reshape(-1, 5, 5).transpose(0, 2, 1)


def sample_z_matrices(rng: np.random.Generator, n: int) -> np.ndarray:
    """n matrices (n, 5, 5) with i.i.d. z-vector columns.

    The 5n z-vectors are drawn by :func:`z_slices` and gathered into one
    array; the determinant route itself takes the slices one at a time.
    ``verify.verify_detB_identity`` checks this draw matrix by matrix.
    """
    return z_matrices(_z_batch(rng, 5 * n))

