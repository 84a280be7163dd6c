"""Count the real solutions of the five-point relative-pose problem.

Given five linear equations on the space of 3x3 matrices, the solutions of
the pose problem are the points of the essential variety cut out by them.
The pipeline below parametrizes the 4-dimensional nullspace of the linear
equations, expands the ten cubic equations of the variety over that chart,
performs a Gauss-Jordan reduction to a 10x10 multiplication ("action")
matrix, reads candidate solutions off its eigenvectors, and validates the
real ones, refining by Gauss-Newton those that the eigenvectors give too
coarsely.  Ten complex solutions exist for generic input, so the real count
is an even number between 0 and 10.

No stage takes an SVD.  The nullspace comes from a complete QR
factorization of the transposed equations, and the equations have full
rank when every diagonal entry of R exceeds 1e-10 times the largest.  The
reduction is one LU solve that also returns the inverse of the eliminated
block, and the block passes when its exact 1-norm condition number is
below 1e12.

Every stage takes a stack of instances along leading axes, and a failed
instance comes back from it as NaN.  :func:`solve_batch` runs a whole
stack through the stages at once and returns a :class:`StackResult` of
arrays, each failed instance taking the retry path on its own;
:func:`solve_five_point` is its one-instance case and the only place
that builds solution objects.

The module also counts real roots of determinant pencils ``det(s*A + t*B)``
of 3x3 matrices, used for the rank-two (uncalibrated-camera) average.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DegeneratePencil, RankDeficient
from .geometry import TOL_INVARIANT, EssentialMatrix, demazure_residuals

REAL_IMAG_TOL = 1e-6      # |Im| threshold before refinement
ACCEPT_RESIDUAL = 1e-8    # max residual after refinement
COND_LIMIT = 1e12         # 1-norm condition ceiling for the elimination block

#: Failure reasons of an instance, indexed by the codes below.
FAILURE_REASONS = ("", "elimination", "parity")
SOLVED, ELIMINATION, PARITY = range(3)

# Monomial bases.  Degree-1 basis is [x, y, z, 1]; the degree-2 basis
# doubles as the quotient basis of the action matrix; the degree-3 basis
# orders the constraint-matrix columns.
_LIN_EXPS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0))
_QUAD_EXPS = (
    (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1),
    (0, 0, 2), (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0),
)
_CUB_EXPS = (
    (3, 0, 0), (2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 1, 1),
    (1, 0, 2), (0, 3, 0), (0, 2, 1), (0, 1, 2), (0, 0, 3),
) + _QUAD_EXPS

MONOMIAL_EXPONENTS = np.array(_CUB_EXPS)


def _product_tensor(left_exps, right_exps, target_exps):
    index = {e: i for i, e in enumerate(target_exps)}
    out = np.zeros((len(target_exps), len(left_exps), len(right_exps)))
    for a, ea in enumerate(left_exps):
        for b, eb in enumerate(right_exps):
            s = tuple(x + y for x, y in zip(ea, eb))
            out[index[s], a, b] = 1.0
    return out


_P2 = _product_tensor(_LIN_EXPS, _LIN_EXPS, _QUAD_EXPS)     # lin*lin -> quad
_P3 = _product_tensor(_QUAD_EXPS, _LIN_EXPS, _CUB_EXPS)     # quad*lin -> cubic
_P2_FLAT = _P2.reshape(10, 16).T.copy()                     # (4*4, 10)
_P3_CQT = _P3.transpose(2, 1, 0).copy()                     # (4, 10, 20)
_P33_FLAT = np.einsum("tqc,qab->abct", _P3, _P2).reshape(64, 20)  # lin*lin*lin -> cubic
_EYE10 = np.eye(10)
_SOLVE_FAILED = (np.full((10, 20), np.nan),)
_EIG_FAILED = (np.full(10, np.nan, dtype=complex), np.full((10, 10), np.nan, dtype=complex))
_LEVI_CIVITA = np.cross(np.eye(3)[:, None], np.eye(3)[None]).reshape(9, 3)  # (j k, i)


@dataclass(frozen=True, eq=False)
class LinearSpace:
    """Five linear functionals on 3x3 matrices (row-major vectorization).

    The row span must have numerical rank 5, as :func:`nullspace_basis`
    tests it (every diagonal entry of R in the QR factorization of the
    transposed rows above 1e-10 times the largest in magnitude), or
    RankDeficient is raised.  The QR that checks it also gives ``basis``,
    an orthonormal basis (4x9) of the common kernel.
    """

    rows: np.ndarray
    basis: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.shape != (5, 9):
            raise RankDeficient("need a finite 5x9 coefficient matrix")
        basis = nullspace_basis(rows)
        if np.isnan(basis[0, 0]):   # a bad instance gets an all-NaN basis
            raise RankDeficient("rows are numerically rank deficient" if np.isfinite(rows).all()
                                else "need a finite 5x9 coefficient matrix")
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        basis.setflags(write=False)
        object.__setattr__(self, "basis", basis)


@dataclass(frozen=True)
class CountResult:
    """Validated real-solution count for one instance.

    ``status`` is "ok", "retried" (with ``retries`` re-randomizations of the
    nullspace chart) or "failed" (``reason`` set, no solutions reported).
    """

    real_count: int
    solutions: tuple
    status: str
    retries: int = 0
    reason: str = ""
    residual_max: float = 0.0

    @property
    def failed(self) -> bool:
        return self.status == "failed"


class StackResult(NamedTuple):
    """Outcome of every instance of a stack, as arrays.

    ``kept``, ``solutions`` and ``residuals`` hold the candidates of the
    round that decided each instance: whether each was accepted, its
    solution matrix at half-trace norm 1 (zero for a non-real candidate)
    and its residual.  Read as one result, as code written for a single
    instance reads it (perfbench's span recorder does), a stack is
    ``failed`` when every instance failed, and its ``real_count`` sums the
    counts of the solved instances.
    """

    count: np.ndarray       # (N,) real solutions; 0 for a failed instance
    reason: np.ndarray      # (N,) index into FAILURE_REASONS; SOLVED (0) unless failed
    retries: np.ndarray     # (N,) charts re-randomized
    kept: np.ndarray        # (N, 10) accepted candidates
    solutions: np.ndarray   # (N, 10, 3, 3)
    residuals: np.ndarray   # (N, 10)

    @property
    def failed(self) -> bool:
        return bool(np.all(self.reason != SOLVED))

    @property
    def real_count(self) -> int:
        return int(self.count[self.reason == SOLVED].sum())


def nullspace_basis(rows) -> np.ndarray:
    """Orthonormal basis (4x9) of the common kernel of the five rows.

    ``rows`` is (..., 5, 9); one complete QR factorization of the
    transposed rows per instance gives both the basis (the last four
    columns of Q) and the rank check: every diagonal entry of R must
    exceed 1e-10 times the largest in magnitude.  The smallest entry is
    taken over the whole diagonal, because a dependency among the first
    rows shows in a middle entry, not only in the last.  An instance whose
    rows are not finite or not of numerical rank 5 gets a NaN basis.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.shape[-2:] != (5, 9):
        raise RankDeficient("need 5x9 coefficient matrices")
    finite = np.isfinite(rows).all(axis=(-2, -1))
    q, r = np.linalg.qr(_masked(finite, rows, 0.0).swapaxes(-1, -2), mode="complete")
    diag = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    full_rank = finite & (diag.min(axis=-1) > 1e-10 * diag.max(axis=-1))
    return _masked(full_rank, q[..., 5:].swapaxes(-1, -2).copy(), np.nan)


def _masked(ok, blocks, fill):
    """``blocks`` with the entries of each instance whose ``ok`` is false set to ``fill``.

    ``blocks`` itself when every ``ok`` holds; ``np.count_nonzero`` tells
    that at a fraction of the cost of ``ok.all()`` on the masks of one instance.
    """
    if np.count_nonzero(ok) == ok.size:
        return blocks
    return np.where(ok.reshape(ok.shape + (1,) * (blocks.ndim - ok.ndim)), blocks, fill)


def _stacked_or_each(func, failed, *stacks):
    """``func(*stacks)``, one stacked LAPACK call returning a tuple of arrays.

    LAPACK fails a stacked call as a whole when one matrix fails (an
    exactly singular matrix in ``solve``, an eigen-iteration that does not
    converge in ``eig``).  Then ``func`` runs matrix by matrix, and a
    matrix that fails gets ``failed``, one matrix's worth of each output.
    """
    try:
        return func(*stacks)
    except np.linalg.LinAlgError:
        each = []
        for args in zip(*stacks):
            try:
                each.append(func(*args))
            except np.linalg.LinAlgError:
                each.append(failed)
        return tuple(map(np.stack, zip(*each)))


def _solve(a, b):
    return (np.linalg.solve(a, b),)


def _norm1(a):
    """Matrix 1-norms (...) of ``a`` (..., n, n): the largest absolute column sum."""
    return np.abs(a).sum(axis=-2).max(axis=-1)


def build_constraint_matrix(basis) -> np.ndarray:
    """Coefficients of the ten cubic equations over the nullspace chart.

    ``basis`` holds four independent 9-vectors E1..E4 (rows of a 4x9
    array, or of each 4x9 block of a stack).  Row k of the result holds
    the coefficients of the k-th cubic residual of
    ``E(x,y,z) = x*E1 + y*E2 + z*E3 + E4`` over the fixed degree-3 monomial
    basis (row 0 is the determinant, rows 1..9 the matrix equation).
    """
    basis = np.asarray(basis, dtype=float)
    lin = basis.reshape(-1, 4, 3, 3)             # lin[n, a, i, j]: entry (i, j) of E_a
    n = lin.shape[0]

    # Determinant: the trilinear form det(row 0 of E_a, row 1 of E_b, row 2 of E_c).
    pairs = lin[:, :, None, 1, :, None] * lin[:, None, :, 2, None, :]        # (b, c, j, k)
    cross = pairs.reshape(n, 16, 9) @ _LEVI_CIVITA                           # (b c, i)
    det_row = (lin[:, :, 0] @ cross.transpose(0, 2, 1)).reshape(n, 1, 64) @ _P33_FLAT
    del pairs, cross

    # E E^T entries as degree-2 polynomials, then trace.
    rows = lin.reshape(n, 12, 3)
    outer = (rows @ rows.transpose(0, 2, 1)).reshape(n, 4, 3, 4, 3)          # (a, i, b, k)
    quad = outer.transpose(0, 2, 4, 1, 3).reshape(n, 9, 16) @ _P2_FLAT
    quad = quad.reshape(n, 3, 3, 10)                                         # (i, k, q)
    tr = quad[:, 0, 0] + quad[:, 1, 1] + quad[:, 2, 2]
    del outer

    # 2 E E^T E - tr(E E^T) E, entrywise degree 3; the trace term is
    # multiplied into the cubic basis before it meets E.
    cols = lin.transpose(0, 3, 1, 2).reshape(n, 1, 12, 3)                  # (l c, k)
    eete = (cols @ quad).reshape(n, 9, 40)                                   # (i l, c q)
    tr_cubic = (tr[:, None, None] @ _P3_CQT)[:, :, 0]                        # (c, t)
    entries = lin.transpose(0, 2, 3, 1).reshape(n, 9, 4)                     # (i l, c)
    mat_rows = 2.0 * (eete @ _P3_CQT.reshape(40, 20)) - entries @ tr_cubic

    out = np.concatenate([det_row, mat_rows], axis=1)
    return out.reshape(basis.shape[:-2] + (10, 20))


def action_matrix(m: np.ndarray) -> np.ndarray:
    """Multiplication-by-x operator on the quotient basis.

    Gauss-Jordan reduces the 10x20 constraint matrix to ``[1 | B]`` (the
    left block is indexed by the ten degree-3 monomials) and assembles the
    10x10 matrix of multiplication by x on the quotient basis
    [x^2, xy, xz, y^2, yz, z^2, x, y, z, 1]: products that leave the basis
    are rewritten through B, the rest are basis inclusions.  One solve
    with the right-hand side ``[right block | I]`` gives B and the inverse
    of the left block; a left block whose exact 1-norm condition number,
    ``|block|_1 * |inverse|_1``, is not below 1e12, or that LAPACK finds
    exactly singular, fails the elimination, and the instance's action
    matrix is NaN.
    """
    m = np.asarray(m, dtype=float)
    finite = np.isfinite(m).all(axis=(-2, -1))
    block = _masked(finite, m[..., :10], _EYE10)
    rhs = np.empty(m.shape)
    rhs[..., :10] = m[..., 10:]
    rhs[..., 10:] = _EYE10
    (solved,) = _stacked_or_each(_solve, _SOLVE_FAILED, block, rhs)
    reduced, inverse = solved[..., :10], solved[..., 10:]
    ok = finite & (_norm1(block) * _norm1(inverse) < COND_LIMIT)

    t = np.zeros(m.shape[:-2] + (10, 10))
    # x * {x^2, xy, xz, y^2, yz, z^2} = {x^3, x^2y, x^2z, xy^2, xyz, xz^2}
    t[..., :6] = -reduced[..., :6, :].swapaxes(-1, -2)
    t[..., 0, 6] = 1.0   # x * x = x^2
    t[..., 1, 7] = 1.0   # x * y = xy
    t[..., 2, 8] = 1.0   # x * z = xz
    t[..., 6, 9] = 1.0   # x * 1 = x
    return _masked(ok, t, np.nan)


class EigenCandidates(NamedTuple):
    values: np.ndarray    # ten complex eigenvalues per action matrix, matrix after matrix
    triples: np.ndarray   # (10 per matrix, 3) complex (x, y, z) read off the eigenvectors


def eigen_candidates(t: np.ndarray) -> EigenCandidates:
    """Eigen-decompose the action matrix and extract candidate solutions.

    Evaluation at a solution point is a left eigenvector of the
    multiplication operator, so the monomial vectors are eigenvectors of
    the transpose; (x, y, z) are the coordinate ratios of the monomials
    x, y, z against the monomial 1.  Complex candidates come in conjugate
    pairs.  The candidates of a stack of matrices are listed matrix after
    matrix, ten each; those of a matrix that is NaN or whose
    eigen-iteration did not converge are NaN.
    """
    t = np.asarray(t, dtype=float)
    stack = t.reshape(-1, 10, 10)
    finite = np.isfinite(stack).all(axis=(1, 2))
    values, vectors = _stacked_or_each(np.linalg.eig, _EIG_FAILED,
                                       _masked(finite, stack, 0.0).swapaxes(1, 2))
    # eig returns real arrays when every eigenvalue is real
    values = _masked(finite, values.astype(complex, copy=False), np.nan)
    vectors = _masked(finite, vectors.astype(complex, copy=False), np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        triples = (vectors[:, 6:9] / vectors[:, 9:10]).swapaxes(1, 2)
    return EigenCandidates(values.reshape(-1), triples.reshape(-1, 3))


def _haar_o4(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((4, 4)))
    return q * np.sign(np.diag(r))


def _monomials_and_gradients(w: np.ndarray):
    """Degree<=3 monomial values (k,20) and gradients (k,20,3) at chart points."""
    k = w.shape[0]
    powers = np.ones((k, 3, 4))
    for e in range(1, 4):
        powers[:, :, e] = powers[:, :, e - 1] * w
    ex = MONOMIAL_EXPONENTS
    mon = (powers[:, 0, ex[:, 0]] * powers[:, 1, ex[:, 1]] * powers[:, 2, ex[:, 2]])
    grad = np.empty((k, 20, 3))
    for v in range(3):
        e = ex[:, v]
        down = powers[:, v, np.maximum(e - 1, 0)]
        o1, o2 = [u for u in range(3) if u != v]
        others = powers[:, o1, ex[:, o1]] * powers[:, o2, ex[:, o2]]
        grad[:, :, v] = e * down * others
    return mon, grad


def _refine_on_chart(w: np.ndarray, constraint: np.ndarray, iters: int = 10):
    """Gauss-Newton on the ten cubic residuals over the chart coordinates.

    ``w`` (k, 3) holds chart points, each with its own constraint matrix
    in ``constraint`` (k, 10, 20).  The five linear residuals vanish
    identically on the chart, so this is the 15-residual refinement
    restricted to the solution chart.  A point stops once its residuals
    fall below 1e-13.
    """
    w = w.copy()
    for _ in range(iters):
        mon, grad = _monomials_and_gradients(w)
        r = (constraint @ mon[..., None])[..., 0]
        live = np.max(np.abs(r), axis=1) >= 1e-13
        if not live.any():
            break
        j = constraint @ grad                       # (k, 10, 3)
        jt = j.transpose(0, 2, 1)
        h = jt @ j
        g = jt @ r[..., None]
        h += 1e-14 * np.trace(h, axis1=1, axis2=2)[:, None, None] * np.eye(3)
        try:
            step = np.linalg.solve(h, g)[..., 0]
        except np.linalg.LinAlgError:
            step = (np.linalg.pinv(h) @ g)[..., 0]
        step[~live | ~np.all(np.isfinite(step), axis=1)] = 0.0
        w -= step
    return w


def _unit_residuals(w, basis, rows_unit):
    """Solution matrices (..., 3, 3) and acceptance residuals (...) at chart points.

    ``w`` (..., 3) are chart coordinates over ``basis`` (..., 4, 9); a
    solution matrix is the unit solution vector times sqrt(2), of
    half-trace norm 1.  The residual is the largest of the five unit-row
    equations and of the ten cubics of that matrix.  A point whose vector
    is not finite or vanishes gets a zero matrix and an infinite residual.
    """
    evecs = (w[..., None, :] @ basis[..., :3, :])[..., 0, :] + basis[..., 3, :]
    norms = np.sqrt(np.add.reduce(evecs * evecs, axis=-1))
    bad = ~(np.isfinite(norms) & (norms > 1e-12))
    if np.count_nonzero(bad):
        evecs, norms = np.where(bad[..., None], 0.0, evecs), np.where(bad, 1.0, norms)
    units = evecs / norms[..., None]
    linear = np.abs(units[..., None, :] @ rows_unit.swapaxes(-1, -2)).max(axis=(-2, -1))
    mats = (units * np.sqrt(2.0)).reshape(units.shape[:-1] + (3, 3))
    residuals = np.maximum(linear, np.abs(demazure_residuals(mats)).max(axis=-1))
    residuals[bad] = np.inf
    return mats, residuals


def validate_and_count(candidates, rows, basis, constraint) -> StackResult:
    """Filter and refine candidate solutions, and count the accepted ones.

    Keeps candidates whose imaginary parts are below 1e-6 and accepts a
    solution when the unit-normalized matrix satisfies the five (unit-row)
    linear equations and the ten cubics to 1e-8; only a candidate that
    misses 1e-9 before is refined by Gauss-Newton first.  No candidates
    are merged: each simple real eigenvalue of the action matrix is one
    solution, so close candidates are distinct solutions, and a double
    eigenvalue counted twice keeps the count even.  An odd count fails
    the instance with reason "parity" so the caller can re-randomize the
    chart and retry.

    ``candidates`` are the :class:`EigenCandidates` of the action matrices
    built from ``constraint`` (N, 10, 20) over the kernel bases ``basis``
    (N, 4, 9) of ``rows`` (N, 5, 9); they are split evenly among the
    instances.  An instance whose eigenvalues are NaN (its elimination or
    eigen-iteration failed) fails with reason "elimination".  The result
    has ``retries`` 0.
    """
    basis = np.asarray(basis, dtype=float)
    n = basis.shape[0]
    triples = np.asarray(candidates.triples, dtype=complex).reshape(n, -1, 3)
    broken = np.isnan(np.asarray(candidates.values)).reshape(n, -1).any(axis=1)
    rows = np.asarray(rows, dtype=float)
    rows_unit = rows / np.sqrt(np.add.reduce(rows * rows, axis=-1, keepdims=True))

    realish = ((np.abs(triples.imag) <= REAL_IMAG_TOL) & np.isfinite(triples.real)).all(axis=2)
    w = triples.real
    solutions = np.zeros(realish.shape + (3, 3))
    residuals = np.full(realish.shape, np.inf)
    real = realish.nonzero()
    solutions[real], residuals[real] = found = _unit_residuals(w[real], basis[real[0]],
                                                               rows_unit[real[0]])
    doubt = ~(found[1] <= TOL_INVARIANT)
    if np.count_nonzero(doubt):
        redo = real[0][doubt], real[1][doubt]
        owner = redo[0]
        refined = _refine_on_chart(w[redo], np.asarray(constraint, dtype=float)[owner])
        solutions[redo], residuals[redo] = _unit_residuals(refined, basis[owner], rows_unit[owner])

    kept = residuals <= ACCEPT_RESIDUAL     # a candidate that is not real has residual inf
    count = kept.sum(axis=1)
    reason = np.where(broken, ELIMINATION, count % 2 * PARITY)    # an even count is SOLVED (0)
    return StackResult(np.where(reason == SOLVED, count, 0), reason,
                       np.zeros(n, dtype=np.int64), kept, solutions, residuals)


def solve_batch(rows, basis, rngs, retries: int = 5) -> StackResult:
    """Solve a stack of instances together; one row of arrays per instance.

    ``rows`` (N, 5, 9) have numerical rank 5 and ``basis`` (N, 4, 9) holds
    their kernel bases, as :func:`nullspace_basis` gives them.  Every stage
    runs on the whole stack.  An instance whose elimination or
    eigen-iteration fails is recombined by a random orthogonal 4x4 mixing
    of its basis (a new chart) drawn from its own generator ``rngs[i]``,
    up to ``retries`` times; a parity failure earns one extra
    re-randomized attempt.  The instances that need a new chart rerun the
    stages together, so each instance gets the result it gets alone.
    ``rngs[i]`` is looked up only when instance i needs a new chart.
    """
    rows = np.ascontiguousarray(rows, dtype=float)
    basis = np.ascontiguousarray(basis, dtype=float)
    out = _solve_on_charts(rows, basis)
    todo = (out.reason != SOLVED).nonzero()[0]
    parity_used = np.zeros(len(basis), dtype=bool)
    while todo.size:
        parity = out.reason[todo] == PARITY
        todo = todo[(out.retries[todo] < retries) & ~(parity & parity_used[todo])]
        if not todo.size:
            break
        parity_used[todo] |= out.reason[todo] == PARITY
        out.retries[todo] += 1
        charts = np.stack([_haar_o4(rngs[i]) @ basis[i] for i in todo])
        judged = _solve_on_charts(rows[todo], charts)
        for field in ("count", "reason", "kept", "solutions", "residuals"):
            getattr(out, field)[todo] = getattr(judged, field)
        todo = todo[judged.reason != SOLVED]
    return out


def _solve_on_charts(rows, charts) -> StackResult:
    """One round of :func:`solve_batch`: the four stages on a stack of charts."""
    constraint = build_constraint_matrix(charts)
    return validate_and_count(eigen_candidates(action_matrix(constraint)), rows, charts, constraint)


def solve_five_point(space: LinearSpace, retries: int = 5, rng=None) -> CountResult:
    """Full solve of one instance: :func:`solve_batch` on a stack of one.

    Nullspace chart, action matrix, eigen candidates, validation; on
    elimination or eigen-iteration failure the solve is retried on a new
    chart, up to ``retries`` times, and a parity failure earns one extra
    re-randomized attempt.  Every accepted solution becomes an
    :class:`EssentialMatrix` through ``EssentialMatrix.trusted`` with the
    residual it was accepted at.  Deterministic for a fixed ``rng`` seed.
    """
    if not isinstance(space, LinearSpace):
        space = LinearSpace(np.asarray(space))
    # a seed numpy takes as it is waits for a first retry to become a
    # generator; anything else is checked by building the generator now
    if not (rng is None or isinstance(rng, (np.random.Generator, np.random.BitGenerator))
            or isinstance(rng, (int, np.integer)) and rng >= 0):
        rng = np.random.default_rng(rng)
    out = solve_batch(space.rows[None], space.basis[None],
                      defaultdict(lambda: np.random.default_rng(rng)), retries)
    tries = int(out.retries[0])
    if out.reason[0] != SOLVED:
        return CountResult(0, (), "failed", tries, FAILURE_REASONS[out.reason[0]], 0.0)
    kept = out.kept[0]
    residuals = out.residuals[0, kept].tolist()
    solutions = tuple(map(EssentialMatrix.trusted, out.solutions[0, kept], residuals))
    return CountResult(len(solutions), solutions, "retried" if tries else "ok", tries, "",
                       max(residuals, default=0.0))


def _pencil_coefficients(a: np.ndarray, b: np.ndarray):
    """Coefficients of det(s*A + t*B) over [s^3, s^2 t, s t^2, t^3] (batched)."""
    c0 = np.linalg.det(a)
    c3 = np.linalg.det(b)
    splus = np.linalg.det(a + b)
    sminus = np.linalg.det(a - b)
    c1 = 0.5 * (splus - sminus) - c3
    c2 = 0.5 * (splus + sminus) - c0
    return np.stack([c0, c1, c2, c3], axis=-1)


def pencil_real_root_counts(a: np.ndarray, b: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Real projective roots of det(s*A + t*B) for stacked 3x3 pencils.

    Roots are counted without multiplicity via the binary-cubic
    discriminant on max-normalized coefficients; the count is 3, 2 or 1.
    Pencils whose determinant vanishes identically raise
    :class:`DegeneratePencil` (the four interpolation points are four
    distinct evaluation directions, so all-zero values force an
    identically zero cubic).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    coeff = _pencil_coefficients(a, b)
    scale = np.max(np.abs(coeff), axis=-1)
    mats_scale = np.maximum(
        (np.max(np.abs(a), axis=(-2, -1)) + np.max(np.abs(b), axis=(-2, -1))) ** 3,
        1.0,
    )
    if np.any(scale <= 1e-13 * mats_scale):
        raise DegeneratePencil("det(s*A + t*B) vanishes identically")
    c0, c1, c2, c3 = np.moveaxis(coeff / scale[..., None], -1, 0)
    disc = (
        18.0 * c0 * c1 * c2 * c3
        - 4.0 * c1 ** 3 * c3
        + c1 ** 2 * c2 ** 2
        - 4.0 * c0 * c2 ** 3
        - 27.0 * c0 ** 2 * c3 ** 2
    )
    counts = np.where(disc > tol, 3, 1)
    degenerate = np.abs(disc) <= tol
    if np.any(degenerate):
        # repeated roots: double+simple gives 2 distinct, triple gives 1
        d0 = c1 ** 2 - 3.0 * c0 * c2
        d1 = c2 ** 2 - 3.0 * c1 * c3
        triple = (np.abs(d0) <= tol) & (np.abs(d1) <= tol)
        counts = np.where(degenerate, np.where(triple, 1, 2), counts)
    return counts
