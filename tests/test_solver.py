import json
import re
from pathlib import Path

import numpy as np
import pytest

from essential_lab import distributions as dist
from essential_lab import solver as sv
from essential_lab.errors import DegeneratePencil, RankDeficient
from essential_lab.geometry import demazure_residuals

from oracles import cubic_residuals_direct, planted_instance, projective_distance

CLOSE_PAIRS = json.loads((Path(__file__).parent / "data" / "planted_close_pairs.json")
                         .read_text(encoding="utf-8"))["cases"]


def random_orthonormal_basis(rng):
    return np.linalg.qr(rng.standard_normal((9, 4)))[0].T


def pencil_count(a, b):
    """Real projective roots of det(s*A + t*B) for one pencil, as a stack of one."""
    return int(sv.pencil_real_root_counts(np.asarray(a)[None], np.asarray(b)[None])[0])


def chart_coordinates(basis, target_vec):
    """Chart coordinates of a nullspace vector, last coefficient scaled to 1."""
    alpha = basis @ target_vec
    return alpha[:3] / alpha[3]


class TestLinearSpace:
    def test_rank_check(self):
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((5, 9))
        rows[4] = rows[3]
        with pytest.raises(RankDeficient):
            sv.LinearSpace(rows)

    def test_shape_check(self):
        with pytest.raises(RankDeficient):
            sv.LinearSpace(np.zeros((4, 9)))

    def test_zero_rows_are_rank_deficient(self):
        with pytest.raises(RankDeficient):
            sv.LinearSpace(np.zeros((5, 9)))


class TestNullspaceBasis:
    def test_coordinate_kernel(self):
        rows = np.eye(9)[:5]
        basis = sv.nullspace_basis(rows)
        # span must be exactly the last four coordinates
        assert np.max(np.abs(basis[:, :5])) <= 1e-12
        assert np.allclose(basis @ basis.T, np.eye(4), atol=1e-12)

    def test_random_residual(self):
        rows = np.random.default_rng(1).standard_normal((20, 5, 9))
        basis = sv.nullspace_basis(rows)
        assert np.max(np.abs(rows @ basis.swapaxes(1, 2))) <= 1e-13
        assert np.max(np.abs(basis @ basis.swapaxes(1, 2) - np.eye(4))) <= 1e-13

    def test_rank_deficient_rejected(self):
        rng = np.random.default_rng(2)
        rows = rng.standard_normal((5, 9))
        rows[1] = rows[0]
        basis = sv.nullspace_basis(rows[None])
        assert basis.shape == (1, 4, 9) and np.all(np.isnan(basis))

    def test_middle_dependency_rejected(self):
        """A dependency among the first rows shows in a middle diagonal entry of R."""
        rows = np.random.default_rng(21).standard_normal((5, 9))
        rows[2] = rows[0] - rows[1]
        r = np.linalg.qr(rows.T, mode="complete")[1]
        diag = np.abs(np.diag(r))
        assert diag[4] > 1e-10 * diag.max() and diag.min() <= 1e-10 * diag.max()
        assert np.all(np.isnan(sv.nullspace_basis(rows)))

    @pytest.mark.parametrize("smallest, full_rank", [(1e-13, False), (1e-9, True)])
    def test_rank_follows_the_smallest_relative_singular_value(self, smallest, full_rank):
        rng = np.random.default_rng(22)
        left = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        right = np.linalg.qr(rng.standard_normal((9, 5)))[0]
        rows = left @ np.diag([1.0, 0.8, 0.6, 0.4, smallest]) @ right.T
        basis = sv.nullspace_basis(rows)
        assert np.all(np.isfinite(basis)) if full_rank else np.all(np.isnan(basis))


class TestConstraintMatrix:
    def test_evaluation_oracle(self):
        rng = np.random.default_rng(3)
        basis = random_orthonormal_basis(rng)
        matrix = sv.build_constraint_matrix(basis)
        for _ in range(20):
            xyz = rng.standard_normal(3)
            mon, _ = sv._monomials_and_gradients(xyz[None])
            e = (xyz[0] * basis[0] + xyz[1] * basis[1] + xyz[2] * basis[2]
                 + basis[3]).reshape(3, 3)
            direct = cubic_residuals_direct(e)
            scale = max(np.max(np.abs(direct)), 1.0)
            assert np.max(np.abs(matrix @ mon[0] - direct)) / scale <= 1e-10

    def test_det_row_homogeneity(self):
        rng = np.random.default_rng(4)
        basis = random_orthonormal_basis(rng)
        m1 = sv.build_constraint_matrix(basis)
        m2 = sv.build_constraint_matrix(3.0 * basis)
        assert np.allclose(m2[0], 27.0 * m1[0], rtol=1e-12)

    def test_planted_monomial_vector_in_kernel(self):
        rng = np.random.default_rng(5)
        rows, target, _ = planted_instance(rng)
        basis = sv.nullspace_basis(rows)
        xyz = chart_coordinates(basis, target)
        matrix = sv.build_constraint_matrix(basis)
        mon, _ = sv._monomials_and_gradients(xyz[None])
        assert np.max(np.abs(matrix @ mon[0])) <= 1e-10


class TestActionMatrix:
    def test_eigenvalue_matches_x_coordinate(self):
        rng = np.random.default_rng(6)
        basis = sv.nullspace_basis(rng.standard_normal((5, 9)))
        op = sv.action_matrix(sv.build_constraint_matrix(basis))
        values, triples = sv.eigen_candidates(op)
        for lam, (x, _, _) in zip(values, triples):
            if np.isfinite(x):
                assert abs(lam - x) <= 1e-6 * max(abs(lam), 1.0)

    def test_trace_equals_sum_of_x(self):
        rng = np.random.default_rng(7)
        rows, _, _ = planted_instance(rng)
        basis = sv.nullspace_basis(rows)
        op = sv.action_matrix(sv.build_constraint_matrix(basis))
        _, triples = sv.eigen_candidates(op)
        assert np.all(np.isfinite(triples[:, 0]))
        assert np.trace(op) == pytest.approx(float(np.sum(triples[:, 0]).real), rel=1e-8)

    def test_duplicate_rows_fail_elimination(self):
        rng = np.random.default_rng(8)
        basis = random_orthonormal_basis(rng)
        matrix = sv.build_constraint_matrix(basis)
        matrix[1] = matrix[0]
        op = sv.action_matrix(matrix[None])
        assert op.shape == (1, 10, 10) and np.all(np.isnan(op))

    def test_a_chart_with_a_solution_at_infinity_fails_and_a_retry_restores_the_count(self):
        """E4 orthogonal to a real solution e puts e at w = 0 of the chart's homogenization,
        so the left block cannot be invertible (see the README); a new chart settles it."""
        for seed in range(100, 140):
            streams = dist.Streams(seed, 0, 1)
            rows, basis = dist.sample_psi(streams)
            solved = sv.solve_batch(rows, basis, streams)
            assert solved.reason[0] == sv.SOLVED and solved.count[0] > 0
            e = solved.solutions[0, solved.kept[0].argmax()].ravel()
            chart = np.linalg.qr(np.column_stack([e, basis[0].T]))[0][:, :4].T
            assert np.all(np.isnan(sv.action_matrix(sv.build_constraint_matrix(chart))))
            again = sv.solve_batch(rows, chart[None], [np.random.default_rng(seed)])
            assert again.reason[0] == sv.SOLVED and again.retries[0] >= 1
            assert again.count[0] == solved.count[0]

    @pytest.mark.parametrize("scale", [1e-3, 1e3])
    @pytest.mark.parametrize("cond, kept", [(1e11, True), (1e13, False)])
    def test_elimination_keeps_blocks_below_the_1_norm_condition_ceiling(self, cond, kept,
                                                                         scale):
        """The ceiling is on |block|_1 * |inverse|_1, whatever the block's own scale."""
        diagonal = scale * np.r_[[1.0] * 9, 1.0 / cond]
        matrix = np.zeros((1, 10, 20))
        matrix[0, :, :10] = np.diag(diagonal)
        matrix[0, :, 10:] = np.random.default_rng(9).standard_normal((10, 10))
        op = sv.action_matrix(matrix)
        if kept:
            reduced = matrix[0, :, 10:] / diagonal[:, None]
            assert np.allclose(op[0, :, :6], -reduced[:6].T, rtol=1e-15, atol=0.0)
        else:
            assert np.all(np.isnan(op))


class TestEigenCandidates:
    def test_diagonal(self):
        values, _ = sv.eigen_candidates(np.diag(np.arange(1.0, 11.0)))
        assert np.allclose(np.sort(values.real), np.arange(1.0, 11.0))
        assert np.max(np.abs(values.imag)) == 0.0

    def test_rotation_block(self):
        t = np.diag(np.arange(3.0, 11.0))
        block = np.array([[0.6, -0.8], [0.8, 0.6]])
        full = np.zeros((10, 10))
        full[:2, :2] = block
        full[2:, 2:] = t
        values, _ = sv.eigen_candidates(full)
        complex_vals = values[np.abs(values.imag) > 1e-12]
        assert complex_vals.size == 2
        assert np.allclose(sorted(complex_vals.imag), [-0.8, 0.8])
        assert np.allclose(complex_vals.real, 0.6)

    def test_conjugate_pairing(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            basis = sv.nullspace_basis(rng.standard_normal((5, 9)))
            values, _ = sv.eigen_candidates(sv.action_matrix(sv.build_constraint_matrix(basis)))
            nonreal = values[np.abs(values.imag) > 1e-8]
            paired = np.sort_complex(nonreal)
            conjugates = np.sort_complex(nonreal.conj())
            assert np.allclose(paired, conjugates, atol=1e-8)

    def test_planted_candidate(self):
        rng = np.random.default_rng(10)
        rows, target, _ = planted_instance(rng)
        basis = sv.nullspace_basis(rows)
        xyz = chart_coordinates(basis, target)
        _, triples = sv.eigen_candidates(sv.action_matrix(sv.build_constraint_matrix(basis)))
        dist = np.min(np.abs(triples - xyz).max(axis=1))
        assert dist <= 1e-6 * max(1.0, np.abs(xyz).max())


class TestValidateAndSolve:
    def test_planted_solution_recovered(self):
        rng = np.random.default_rng(11)
        for trial in range(50):
            rows, target, _ = planted_instance(rng)
            result = sv.solve_five_point(sv.LinearSpace(rows), rng=trial)
            assert not result.failed
            assert result.real_count % 2 == 0
            dist = min(projective_distance(s.m.ravel() / np.sqrt(2.0), target)
                       for s in result.solutions)
            assert dist <= 1e-6

    def test_solution_residuals(self):
        rng = np.random.default_rng(12)
        rows = rng.standard_normal((5, 9))
        result = sv.solve_five_point(rows, rng=0)
        rows_unit = rows / np.linalg.norm(rows, axis=1, keepdims=True)
        assert result.residual_max <= 1e-8
        for sol in result.solutions:
            vec = sol.m.ravel() / np.sqrt(2.0)
            assert np.max(np.abs(rows_unit @ vec)) <= 1e-8
            assert np.max(np.abs(demazure_residuals(sol.m))) <= 1e-9

    def test_counts_even_and_bounded(self):
        rng = np.random.default_rng(13)
        for i in range(50):
            space = sv.LinearSpace(rng.standard_normal((5, 9)))
            result = sv.solve_five_point(space, rng=i)
            assert not result.failed
            assert result.real_count in {0, 2, 4, 6, 8, 10}

    @pytest.mark.parametrize("scale", [1e-8, 1e6, 1e8])
    def test_projective_invariance_of_row_scaling(self, scale):
        rng = np.random.default_rng(14)
        rows = rng.standard_normal((5, 9))
        base = sv.solve_five_point(sv.LinearSpace(rows), rng=0)
        scaled_rows = rows.copy()
        scaled_rows[2] *= scale
        scaled = sv.solve_five_point(sv.LinearSpace(scaled_rows), rng=0)
        assert scaled.real_count == base.real_count
        for sol in base.solutions:
            vec = sol.m.ravel() / np.sqrt(2.0)
            dist = min(projective_distance(vec, other.m.ravel() / np.sqrt(2.0))
                       for other in scaled.solutions)
            assert dist <= 1e-8

    def test_determinism(self):
        rng = np.random.default_rng(15)
        space = sv.LinearSpace(rng.standard_normal((5, 9)))
        first = sv.solve_five_point(space, rng=123)
        second = sv.solve_five_point(space, rng=123)
        assert first.status == second.status
        assert first.real_count == second.real_count
        assert first.retries == second.retries
        for a, b in zip(first.solutions, second.solutions):
            assert np.array_equal(a.m, b.m)

    def test_candidates_accepted_above_1e9_are_returned_as_solutions(self):
        rows, basis = dist.sample_unifG([dist.rng_for(5, 0)])
        cands = sv.eigen_candidates(sv.action_matrix(sv.build_constraint_matrix(basis)))
        real = np.abs(cands.triples.imag).max(axis=1) <= 1e-6
        shifted = sv.EigenCandidates(cands.values[real][:2], cands.triples[real][:2].real + 2.1e-9)
        # a zero constraint matrix makes Gauss-Newton a no-op, so the shift stays
        zero = np.zeros((1, 10, 20))
        result = sv.validate_and_count(shifted, rows, basis, zero)
        assert (result.count.tolist(), result.reason.tolist()) == ([2], [sv.SOLVED])
        assert result.kept.tolist() == [[True, True]]
        residuals = sorted(result.residuals[0])
        assert residuals[0] == pytest.approx(1.0e-9, rel=0.05)
        assert residuals[1] == pytest.approx(3.0e-9, rel=0.05)
        assert np.all(np.abs(demazure_residuals(result.solutions[0])) <= 1e-8)

    def test_validate_reports_parity_failure(self):
        rng = np.random.default_rng(16)
        rows = rng.standard_normal((5, 9))
        basis = sv.nullspace_basis(rows)
        constraint = sv.build_constraint_matrix(basis)
        cands = sv.eigen_candidates(sv.action_matrix(constraint))
        real = np.abs(cands.triples.imag).max(axis=1) <= 1e-6
        if real.sum() < 2:
            pytest.skip("instance has fewer than two real candidates")
        # drop one genuine real candidate: surviving count is odd
        reals = sv.EigenCandidates(cands.values[real][1:], cands.triples[real][1:])
        result = sv.validate_and_count(reals, rows[None], basis[None], constraint[None])
        assert (result.count.tolist(), result.reason.tolist()) == ([0], [sv.PARITY])
        assert result.failed and result.kept.sum() % 2 == 1
        assert np.all(result.residuals[result.kept] <= 1e-8)

    @pytest.mark.parametrize("case", CLOSE_PAIRS,
                             ids=lambda case: re.sub(r"\W+", "-", case["source"]).strip("-"))
    def test_close_real_solutions_are_all_counted(self, case):
        """Two real solutions 1e-6 apart count twice: each real eigenvalue is one solution."""
        result = sv.solve_five_point(np.array(case["rows"]), rng=case["rng"])
        assert (result.real_count, result.status) == (case["real_count"], "ok")
        gap = min(projective_distance(s.m.ravel() / np.sqrt(2.0), np.array(case["planted"]))
                  for s in result.solutions)
        assert gap <= 1e-6


class TestCubicPencil:
    def test_three_distinct_roots(self):
        assert pencil_count(np.eye(3), np.diag([-1.0, -2.0, -3.0])) == 3

    def test_rotation_pencil_single_root(self):
        rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert pencil_count(np.eye(3), rot) == 1

    def test_root_at_infinity_counted(self):
        # det(s A + t B) with det(A) = 0: [1 : 0] is a root
        a = np.diag([0.0, 1.0, 1.0])
        b = np.diag([1.0, 2.0, 3.0])
        assert pencil_count(a, b) == 3

    def test_degenerate_pencil(self):
        rank1 = np.outer([1.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        with pytest.raises(DegeneratePencil):
            pencil_count(rank1, rank1)

    def test_batch_mean_near_two(self):
        rng = np.random.default_rng(17)
        counts = sv.pencil_real_root_counts(rng.standard_normal((200_000, 3, 3)),
                                            rng.standard_normal((200_000, 3, 3)))
        assert set(np.unique(counts)) <= {1, 2, 3}
        # counts are 1 or 3 a.s.; sigma = 1, so a 4.5-sigma band at 2e5
        assert abs(counts.mean() - 2.0) <= 0.01
