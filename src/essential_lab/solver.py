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

Every stage takes a stack of instances along leading axes, and
:func:`solve_batch` runs a whole stack through them at once;
:func:`solve_five_point` is its one-instance case, and :func:`count_batch`
applies the same rule but returns only each instance's count, failure
reason and retries, as arrays, building no solution objects.  A stage
given a single instance raises on failure, while in a stack the failed
instances come back as NaN and take the retry path on their own.

The module also counts real roots of determinant pencils ``det(s*A + t*B)``
of 3x3 matrices, used for the rank-two (uncalibrated-camera) average.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    DegeneratePencil,
    EigenNoConvergence,
    EliminationFailed,
    RankDeficient,
)
from .geometry import TOL_INVARIANT, EssentialMatrix, demazure_residuals

REAL_IMAG_TOL = 1e-6      # |Im| threshold before refinement
ACCEPT_RESIDUAL = 1e-8    # max residual after refinement
COND_LIMIT = 1e12         # condition ceiling for the elimination block

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
_LEVI_CIVITA = np.cross(np.eye(3)[:, None], np.eye(3)[None]).reshape(9, 3)  # (j k, i)


@dataclass(frozen=True, eq=False)
class LinearSpace:
    """Five linear functionals on 3x3 matrices (row-major vectorization).

    The row span must have numerical rank 5: the smallest singular value
    has to exceed 1e-10 times the largest.  The SVD that checks it also
    gives ``basis``, an orthonormal basis (4x9) of the common kernel.
    """

    rows: np.ndarray
    basis: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.shape != (5, 9) or not np.all(np.isfinite(rows)):
            raise RankDeficient("need a finite 5x9 coefficient matrix")
        basis = nullspace_basis(rows)
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


class CountResults(tuple):
    """The :class:`CountResult` of every instance of a stack, in stack order.

    Read as one result, as code written for a single instance reads it
    (perfbench's span recorder does), a stack is ``failed`` when every
    instance failed, and its ``real_count`` totals the other instances.
    """

    @property
    def failed(self) -> bool:
        return all(result.failed for result in self)

    @property
    def real_count(self) -> int:
        return sum(result.real_count for result in self if not result.failed)


def nullspace_basis(rows) -> np.ndarray:
    """Orthonormal basis (4x9) of the common kernel of the five rows.

    ``rows`` is (..., 5, 9); one SVD per instance gives both the rank
    check and the basis.  In a stack, an instance whose rows are not
    finite or not of numerical rank 5 gets a NaN basis; a single one
    raises RankDeficient.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.shape[-2:] != (5, 9):
        raise RankDeficient("need 5x9 coefficient matrices")
    finite = np.all(np.isfinite(rows), axis=(-2, -1))
    _, svals, vt = np.linalg.svd(np.where(finite[..., None, None], rows, 0.0))
    full_rank = finite & (svals[..., -1] > 1e-10 * svals[..., 0])
    if rows.ndim == 2 and not full_rank:
        raise RankDeficient("rows are numerically rank deficient")
    return np.where(full_rank[..., None, None], vt[..., 5:, :], np.nan)


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
    are rewritten through B, the rest are basis inclusions.  A left block
    with condition number beyond 1e12 fails the elimination.
    """
    m = np.asarray(m, dtype=float)
    block = m[..., :10]
    finite = np.all(np.isfinite(m), axis=(-2, -1))
    svals = np.linalg.svd(np.where(finite[..., None, None], block, 0.0), compute_uv=False)
    ok = finite & (svals[..., -1] > svals[..., 0] / COND_LIMIT)
    if m.ndim == 2 and not ok:
        raise EliminationFailed("leading 10x10 block is too ill-conditioned")
    reduced = np.linalg.solve(np.where(ok[..., None, None], block, np.eye(10)), m[..., 10:])

    t = np.zeros(m.shape[:-2] + (10, 10))
    # x * {x^2, xy, xz, y^2, yz, z^2} = {x^3, x^2y, x^2z, xy^2, xyz, xz^2}
    t[..., :6] = -np.swapaxes(reduced[..., :6, :], -1, -2)
    t[..., 0, 6] = 1.0   # x * x = x^2
    t[..., 1, 7] = 1.0   # x * y = xy
    t[..., 2, 8] = 1.0   # x * z = xz
    t[..., 6, 9] = 1.0   # x * 1 = x
    t[~ok] = np.nan
    return t


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
    values = np.full((stack.shape[0], 10), np.nan, dtype=complex)
    vectors = np.full((stack.shape[0], 10, 10), np.nan, dtype=complex)
    finite = np.flatnonzero(np.all(np.isfinite(stack), axis=(1, 2)))
    if finite.size:
        try:
            values[finite], vectors[finite] = np.linalg.eig(np.swapaxes(stack[finite], 1, 2))
        except np.linalg.LinAlgError:
            # A stacked call fails as a whole: find the matrices that failed.
            for i in finite:
                try:
                    values[i], vectors[i] = np.linalg.eig(stack[i].T)
                except np.linalg.LinAlgError:
                    pass
    if t.ndim == 2 and np.isnan(values).any():
        raise EigenNoConvergence("eigenvalue iteration did not converge")
    with np.errstate(divide="ignore", invalid="ignore"):
        triples = np.swapaxes(vectors[:, 6:9] / vectors[:, 9:10], 1, 2)
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
    """Unit solution vectors (..., 9) and acceptance residuals (...) at chart points.

    ``w`` (..., 3) are chart coordinates over ``basis`` (..., 4, 9); the
    residual is the largest of the five unit-row equations and of the ten
    cubics of the half-trace-normalized matrix.  A point whose vector is
    not finite or vanishes gets a zero vector and an infinite residual.
    """
    evecs = (w[..., None, :] @ basis[..., :3, :])[..., 0, :] + basis[..., 3, :]
    norms = np.linalg.norm(evecs, axis=-1)
    ok = np.isfinite(norms) & (norms > 1e-12)
    units = np.where(ok[..., None], evecs / np.where(ok, norms, 1.0)[..., None], 0.0)
    linear = np.max(np.abs(units[..., None, :] @ np.swapaxes(rows_unit, -1, -2)), axis=(-2, -1))
    mats = (units * np.sqrt(2.0)).reshape(units.shape[:-1] + (3, 3))
    cubic = np.max(np.abs(demazure_residuals(mats)), axis=-1)
    return units, np.where(ok, np.maximum(linear, cubic), np.inf)


def _validate(candidates, rows, basis, constraint):
    """The array core of :func:`validate_and_count`.

    Returns, per instance, whether its eigenvalues are NaN (``broken``),
    and per candidate whether it is accepted (``kept``), its unit
    solution vector and its residual.
    """
    basis = np.asarray(basis, dtype=float)
    charts = basis.reshape(-1, 4, 9)
    n = charts.shape[0]
    triples = np.asarray(candidates.triples, dtype=complex).reshape(n, -1, 3)
    broken = np.isnan(np.asarray(candidates.values)).reshape(n, -1).any(axis=1)
    rows = np.asarray(rows, dtype=float)
    rows_unit = (rows / np.linalg.norm(rows, axis=-1, keepdims=True)).reshape(n, 5, 9)
    constraint = np.asarray(constraint, dtype=float).reshape(n, 10, 20)

    finite = np.all(np.isfinite(triples), axis=2)
    realish = finite & (np.max(np.abs(triples.imag), axis=2) <= REAL_IMAG_TOL)
    w = triples.real
    units = np.zeros(realish.shape + (9,))
    residuals = np.full(realish.shape, np.inf)
    real = np.nonzero(realish)
    units[real], residuals[real] = _unit_residuals(w[real], charts[real[0]],
                                                   rows_unit[real[0]])
    redo = np.nonzero(realish & ~(residuals <= TOL_INVARIANT))
    if redo[0].size:
        owner = redo[0]
        refined = _refine_on_chart(w[redo], constraint[owner])
        units[redo], residuals[redo] = _unit_residuals(refined, charts[owner], rows_unit[owner])
    return broken, realish & (residuals <= ACCEPT_RESIDUAL), units, residuals


def validate_and_count(candidates, rows, basis, constraint, retries=0):
    """Filter and refine candidate solutions, and count the accepted ones.

    Keeps candidates whose imaginary parts are below 1e-6 and accepts a
    solution when the unit-normalized matrix satisfies the five (unit-row)
    linear equations and the ten cubics to 1e-8; only a candidate that
    misses 1e-9 before is refined by Gauss-Newton first.  No candidates
    are merged: each simple real eigenvalue of the action matrix is one
    solution, so close candidates are distinct solutions, and a double
    eigenvalue counted twice keeps the count even.  An odd count is
    reported as status "failed" with reason "parity" so the caller can
    re-randomize the chart and retry.  Every accepted solution becomes an
    :class:`EssentialMatrix` through ``EssentialMatrix.trusted`` with the
    residual it was accepted at, so a solution is returned for each one
    counted.

    ``candidates`` are the :class:`EigenCandidates` of the action matrices
    built from ``constraint`` (10x20 per instance) over the kernel
    ``basis`` (4x9) of ``rows`` (5x9).  For a stack, ``basis`` is
    (N, 4, 9), ``rows`` (N, 5, 9) and ``constraint`` (N, 10, 20), the
    candidates are split evenly among the instances, and ``retries`` may
    give one count per instance; the result is a :class:`CountResults`.
    An instance whose eigenvalues are NaN (its elimination or
    eigen-iteration failed) fails with reason "elimination".
    """
    broken, kept, units, residuals = _validate(candidates, rows, basis, constraint)
    n = kept.shape[0]
    retries = np.zeros(n, dtype=np.int64) + retries
    counts = kept.sum(axis=1)
    residual_max = np.max(np.where(kept, residuals, 0.0), axis=1, initial=0.0)

    results = []
    for i in range(n):
        tries = int(retries[i])
        if broken[i]:
            results.append(CountResult(0, (), "failed", tries, "elimination", 0.0))
        elif counts[i] % 2:
            results.append(CountResult(int(counts[i]), (), "failed", tries, "parity",
                                       float(residual_max[i])))
        else:
            mats = units[i, kept[i]] * np.sqrt(2.0)     # half-trace norm 1
            solutions = tuple(EssentialMatrix.trusted(mat.reshape(3, 3), residual)
                              for mat, residual in zip(mats, residuals[i, kept[i]]))
            results.append(CountResult(len(solutions), solutions,
                                       "retried" if tries else "ok", tries, "",
                                       float(residual_max[i])))
    return results[0] if np.ndim(basis) == 2 else CountResults(results)


def _solve_rounds(rows, basis, rngs, retries, validate):
    """The retry loop shared by :func:`solve_batch` and :func:`count_batch`.

    Runs every stage on the whole stack, then again on the instances that
    failed, each on a new chart drawn from its own generator, until every
    instance is solved or out of retries.  ``validate(candidates, rows,
    charts, constraint, mixes)`` judges one round: it returns the reason
    codes of the round's instances, then their counts and their results,
    either of which may be None.  Returns the final reason, count (0 for a
    failure), retries and result of every instance.
    """
    rows = np.asarray(rows, dtype=float)
    basis = np.asarray(basis, dtype=float)
    n = basis.shape[0]
    charts = basis.copy()
    mixes = np.zeros(n, dtype=np.int64)
    parity_used = np.zeros(n, dtype=bool)
    reason = np.zeros(n, dtype=np.int64)
    count = np.zeros(n, dtype=np.int64)
    results = [None] * n
    todo = np.arange(n)
    while todo.size:
        constraint = build_constraint_matrix(charts[todo])
        codes, counts, judged = validate(eigen_candidates(action_matrix(constraint)),
                                         rows[todo], charts[todo], constraint, mixes[todo])
        reason[todo] = codes
        if counts is not None:
            count[todo] = counts
        if judged is not None:
            for i, result in zip(todo, judged):
                results[i] = result
        todo = todo[codes != SOLVED]
        if todo.size:
            parity = reason[todo] == PARITY
            todo = todo[(mixes[todo] < retries) & ~(parity & parity_used[todo])]
            parity_used[todo] |= reason[todo] == PARITY
            mixes[todo] += 1
            for i in todo:
                charts[i] = _haar_o4(rngs[i]) @ basis[i]
    count[reason != SOLVED] = 0
    return reason, count, mixes, results


def _judge_counts(candidates, rows, charts, constraint, mixes):
    broken, kept, _, _ = _validate(candidates, rows, charts, constraint)
    counts = kept.sum(axis=1)
    return np.where(broken, ELIMINATION, np.where(counts % 2, PARITY, SOLVED)), counts, None


def _judge_results(candidates, rows, charts, constraint, mixes):
    judged = validate_and_count(candidates, rows, charts, constraint, retries=mixes)
    return np.array([FAILURE_REASONS.index(r.reason) for r in judged]), None, judged


class StackCounts(NamedTuple):
    """Outcome of every instance of a stack, as arrays (see :func:`count_batch`)."""

    count: np.ndarray     # real solutions; 0 for a failed instance
    reason: np.ndarray    # index into FAILURE_REASONS; SOLVED (0) unless failed
    retries: np.ndarray   # charts re-randomized

    @property
    def failed(self) -> np.ndarray:
        return self.reason != SOLVED


def count_batch(rows, basis, rngs, retries: int = 5) -> StackCounts:
    """:func:`solve_batch` reduced to counts: the same rule, no solution objects.

    Each instance's count, failure reason and retries are those of its
    :class:`CountResult` from :func:`solve_batch` on the same input and
    generators (a failed instance counts 0).
    """
    reason, count, mixes, _ = _solve_rounds(rows, basis, rngs, retries, _judge_counts)
    return StackCounts(count, reason, mixes)


def solve_batch(rows, basis, rngs, retries: int = 5) -> CountResults:
    """Solve a stack of instances together, one :class:`CountResult` each.

    ``rows`` (N, 5, 9) have numerical rank 5 and ``basis`` (N, 4, 9) holds
    their kernel bases, as :func:`nullspace_basis` gives them.  Every stage
    runs on the whole stack.  An instance whose elimination or
    eigen-iteration fails is recombined by a random orthogonal 4x4 mixing
    of its basis (a new chart) drawn from its own generator ``rngs[i]``,
    up to ``retries`` times; a parity failure earns one extra
    re-randomized attempt.  The instances that need a new chart rerun the
    stages together, so each instance gets the count, status and retries
    it gets alone.
    """
    reason, _, mixes, results = _solve_rounds(rows, basis, rngs, retries, _judge_results)
    return CountResults(
        result if code == SOLVED
        else CountResult(0, (), "failed", int(tries), FAILURE_REASONS[code], 0.0)
        for code, tries, result in zip(reason, mixes, results))


def solve_five_point(space: LinearSpace, retries: int = 5, rng=None) -> CountResult:
    """Full solve of one instance: :func:`solve_batch` on a stack of one.

    Nullspace chart, action matrix, eigen candidates, validation; on
    elimination or eigen-iteration failure the solve is retried on a new
    chart, up to ``retries`` times, and a parity failure earns one extra
    re-randomized attempt.  Deterministic for a fixed ``rng`` seed.
    """
    if not isinstance(space, LinearSpace):
        space = LinearSpace(np.asarray(space))
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    return solve_batch(space.rows[None], space.basis[None], [rng], retries)[0]


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
