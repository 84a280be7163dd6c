import math
import tracemalloc

import numpy as np
import pytest
import sympy as sp
from scipy.linalg import expm

from essential_lab import distributions as dists
from essential_lab import verify as vf
from essential_lab.errors import DegenerateInput
from essential_lab.geometry import E0, half_trace_inner, so3_basis, tangent_basis_E0

from oracles import (
    complex_step_normal_jacobian,
    pose_map_volume_loop,
    quadric_correspondences,
    quaternion_rotation_sample,
)

#: The nine matrices sqrt(2) e_i e_j^T, orthonormal for the half-trace inner product.
AMBIENT = [math.sqrt(2.0) * np.outer(np.eye(3)[i], np.eye(3)[j])
           for i in range(3) for j in range(3)]


def cross(t):
    """Cross-product matrix of a vector, complex entries kept."""
    return np.array([[0.0, -t[2], t[1]], [t[2], 0.0, -t[0]], [-t[1], t[0], 0.0]])


def pose_by_oracle(r0, t0):
    """Normal Jacobian of (R, t) -> [t]_x R at (r0, t0), one curve at a time.

    The curves are exp(s F) r0 for the skew basis elements F and the great
    circles from t0 towards an orthonormal basis of its complement, taken
    from an SVD.  The output frame is the whole ambient space, so neither
    the library's witness rotations nor its tangent basis enter.
    """
    complement = np.linalg.svd(t0[None])[2][1:]
    curves = [(lambda s, f=f: (expm(s * f) @ r0, t0)) for f in so3_basis()] \
        + [(lambda s, w=w: (r0, np.cos(s) * t0 + np.sin(s) * w)) for w in complement]
    return complex_step_normal_jacobian(lambda p: cross(p[1]) @ p[0], curves, AMBIENT,
                                        inner=half_trace_inner)


def action_by_oracle(u0, v0, frame=None):
    """Normal Jacobian of (U, V) -> U E0 V^T at (u0, v0), one curve at a time.

    The curves are those of the library: V exp(s F), then U exp(s F).
    The output frame defaults to the tangent basis carried to u0 E0 v0^T.
    """
    curves = [(lambda s, f=f: (u0, v0 @ expm(s * f))) for f in so3_basis()] \
        + [(lambda s, f=f: (u0 @ expm(s * f), v0)) for f in so3_basis()]
    if frame is None:
        frame = [u0 @ b @ v0.T for b in tangent_basis_E0()]
    return complex_step_normal_jacobian(lambda p: p[0] @ E0 @ p[1].T, curves, frame,
                                        inner=half_trace_inner)


def quadric_by_oracle(point):
    """Normal Jacobian of the quadric parametrization at one point, one curve at a time."""
    curves = [(lambda s, i=i: point + s * np.eye(5)[i]) for i in range(5)]
    return complex_step_normal_jacobian(quadric_correspondences, curves,
                                        list(np.eye(6).reshape(6, 2, 3)))


class TestFiniteDifferenceJacobian:
    """Self-tests of the per-curve complex-step oracle, and the pose map at its reference."""

    def test_identity_map(self):
        curves = [lambda s, i=i: s * np.eye(3)[i] for i in range(3)]
        frame = list(np.eye(3))
        value = complex_step_normal_jacobian(lambda p: p, curves, frame)
        assert value == pytest.approx(1.0, abs=1e-10)

    def test_linear_map_singular_values(self):
        mat = np.array([[2.0, 0.0], [0.0, 3.0]])
        curves = [lambda s, i=i: s * np.eye(2)[i] for i in range(2)]
        frame = list(np.eye(2))
        value = complex_step_normal_jacobian(lambda p: mat @ p, curves, frame)
        assert value == pytest.approx(6.0, abs=1e-8)

    def test_pose_map_at_reference(self):
        value = vf.nj_pose_map(np.eye(3)[None], np.array([[1.0, 0.0, 0.0]]))[0]
        assert value == pytest.approx(0.25, abs=1e-15)


class TestPoseMapJacobian:
    def test_constant_at_random_points(self):
        report = vf.verify_nj_E(samples=25, seed=3)
        assert report.passed
        assert report.worst_deviation <= 1e-12

    def test_non_unit_translation_rejected(self):
        with pytest.raises(DegenerateInput):
            vf.nj_pose_map(np.eye(3)[None], np.array([[1.0, 1.0, 0.0]]))

    def test_non_rotation_rejected(self):
        with pytest.raises(DegenerateInput):
            vf.nj_pose_map(np.diag([1.0, 1.0, -1.0])[None], np.array([[1.0, 0.0, 0.0]]))


class TestStackedPoseMapJacobian:
    def test_stack_matches_one_pose_at_a_time(self):
        r, t = vf.sample_poses(31, 200)
        stacked = vf.nj_pose_map(r, t)
        single = np.array([vf.nj_pose_map(ri[None], ti[None])[0] for ri, ti in zip(r, t)])
        assert np.max(np.abs(stacked - single)) <= 1e-14

    def test_stack_matches_the_oracle(self):
        r, t = vf.sample_poses(34, 40)
        stacked = vf.nj_pose_map(r, t)
        single = np.array([pose_by_oracle(ri, ti) for ri, ti in zip(r, t)])
        assert np.max(np.abs(stacked - single)) <= 1e-14

    def test_poses_are_the_per_index_draws(self):
        r, t = vf.sample_poses(32, 300)
        r_ref, t_ref = [], []
        for index in range(300):
            rng = dists.rng_for(32, index)
            r_ref.append(dists.haar_rotations(rng.standard_normal((1, 3, 3)))[0])
            ti = rng.standard_normal(3)
            t_ref.append(ti / np.linalg.norm(ti))
        assert np.array_equal(r, np.array(r_ref))
        assert np.array_equal(t, np.array(t_ref))

    def test_volume_matches_a_per_pose_loop(self):
        value, worst = vf.mc_volume_essential(2000, seed=33)
        reference = pose_map_volume_loop(
            2000, 33, lambda r, t: vf.nj_pose_map(r[None], t[None])[0], dists.rng_for)
        assert value == pytest.approx(reference, rel=1e-12)
        nj = vf.nj_pose_map(*vf.sample_poses(33, 2000))
        assert worst == np.max(np.abs(nj - 0.25))
        assert 0.0 < worst <= 1e-12

    def test_one_bad_pose_fails_the_stack(self):
        r, t = vf.sample_poses(35, 20)
        reflected = r.copy()
        reflected[7, :, 2] *= -1.0
        with pytest.raises(DegenerateInput):
            vf.nj_pose_map(reflected, t)
        long = t.copy()
        long[11] *= 1.0 + 1e-9
        with pytest.raises(DegenerateInput):
            vf.nj_pose_map(r, long)

    def test_volume_check_maps_poses_in_blocks(self):
        # one nj_pose_map call on all 10k poses peaks near 35 MiB
        tracemalloc.start()
        try:
            vf.mc_volume_essential(10_000, 0)
            peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
        assert peak < 16.0

    def test_volume_needs_a_sample(self):
        with pytest.raises(ValueError):
            vf.mc_volume_essential(0)


class TestRotationActionJacobian:
    def test_reference_value(self):
        report = vf.verify_nj_gamma(samples=5)
        assert report.passed
        assert report.value == pytest.approx(1.0 / math.sqrt(8.0), abs=1e-12)

    def test_equivariance(self):
        u0, v0 = quaternion_rotation_sample(np.random.default_rng(0), 2)
        base, away = vf.nj_rotation_action(np.stack([np.eye(3), u0]), np.stack([np.eye(3), v0]))
        assert away == pytest.approx(base, abs=1e-12)

    def test_stack_matches_the_oracle(self):
        u = quaternion_rotation_sample(np.random.default_rng(1), 40)
        v = quaternion_rotation_sample(np.random.default_rng(2), 40)
        stacked = vf.nj_rotation_action(u, v)
        single = np.array([action_by_oracle(u0, v0) for u0, v0 in zip(u, v)])
        assert np.max(np.abs(stacked - single)) <= 1e-14

    def test_pairs_are_the_per_index_draws(self, monkeypatch):
        seen = []
        stacked = vf.nj_rotation_action

        def spy(u, v):
            seen.append((u, v))
            return stacked(u, v)

        monkeypatch.setattr(vf, "nj_rotation_action", spy)
        report = vf.verify_nj_gamma(seed=12, samples=6)
        (u, v), = seen
        assert np.array_equal(u[0], np.eye(3)) and np.array_equal(v[0], np.eye(3))
        for index in range(6):
            u0, v0 = dists.haar_rotations(dists.rng_for(12, index).standard_normal((2, 3, 3)))
            assert np.array_equal(u[index + 1], u0) and np.array_equal(v[index + 1], v0)
        nj = [action_by_oracle(u0, v0) for u0, v0 in zip(u, v)]
        assert report.value == pytest.approx(nj[0], abs=1e-14)
        assert report.worst_deviation == pytest.approx(
            np.max(np.abs(np.array(nj) - 1.0 / math.sqrt(8.0))), abs=1e-14)

    def test_wrong_output_frame_changes_value(self):
        ambient = [math.sqrt(2.0) * np.outer(np.eye(3)[i], np.eye(3)[j])
                   for i in range(3) for j in range(3)]
        value = action_by_oracle(np.eye(3), np.eye(3), frame=ambient)
        assert abs(value - 1.0 / math.sqrt(8.0)) > 1e-3


class TestQuadricParametrization:
    def test_reference_points(self):
        points = np.array([[0.0, 0.0, 1.0, 0.0, 0.3],
                           [0.4, -0.2, 3.0, 4.0, 1.1],
                           [0.4, -0.2, 0.0, 0.0, 1.1]])
        stacked = vf.nj_quadric_param(points)
        for point, got, expected in zip(points, stacked, [1.0, 5.0, 0.0]):
            assert quadric_by_oracle(point) == pytest.approx(expected, abs=1e-12)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_stack_matches_the_oracle(self):
        points = np.random.default_rng(3).standard_normal((60, 5))
        stacked = vf.nj_quadric_param(points)
        single = np.array([quadric_by_oracle(point) for point in points])
        assert np.max(np.abs(stacked - single)) <= 1e-14

    def test_points_are_the_per_index_draws(self):
        report = vf.verify_quadric_param_nj(samples=8, seed=13)
        worst = 0.0
        for index in range(8):
            rng = dists.rng_for(13, index)
            point = rng.standard_normal(5)
            point[4] = rng.uniform(0.0, 2.0 * math.pi)
            deviation = abs(quadric_by_oracle(point) - math.hypot(point[2], point[3]))
            if index == 0:
                assert report.value == pytest.approx(quadric_by_oracle(point), abs=1e-14)
                assert report.expected == pytest.approx(math.hypot(point[2], point[3]),
                                                        rel=1e-15)
            worst = max(worst, deviation)
        assert report.worst_deviation == pytest.approx(worst, abs=1e-14)

    def test_random_points(self):
        report = vf.verify_quadric_param_nj(samples=25, seed=5)
        assert report.passed


class TestExactConstants:
    """The closed-form Jacobians, built exactly, give the three constants exactly."""

    E0 = sp.Matrix([[0, 0, 0], [0, 0, -1], [0, 1, 0]])
    SO3 = [sp.Matrix([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]),
           sp.Matrix([[0, 0, 1], [0, 0, 0], [-1, 0, 0]]),
           sp.Matrix([[0, 0, 0], [0, 0, 1], [0, -1, 0]])]
    TANGENT = [sp.sqrt(2) * sp.Matrix(3, 3, lambda i, j: int((i, j) == entry))
               for entry in ((2, 0), (1, 0), (0, 2), (0, 1))] + [sp.diag(0, 1, 1)]

    @staticmethod
    def cross(t):
        return sp.Matrix([[0, -t[2], t[1]], [t[2], 0, -t[0]], [-t[1], t[0], 0]])

    def jacobian(self, tangents):
        """Half-trace inner products of the tangents with the tangent basis at E0."""
        return sp.Matrix([[sum(b.multiply_elementwise(x)) / 2 for x in tangents]
                          for b in self.TANGENT])

    def test_bases_are_the_library_bases(self):
        assert np.array_equal(np.array(self.SO3, dtype=float), so3_basis())
        assert np.array_equal(np.array(self.TANGENT, dtype=float), tangent_basis_E0())
        assert np.array_equal(np.array(self.E0, dtype=float), E0)

    def test_pose_map_at_the_reference_pose(self):
        # at (I, e1) the witnesses are U = V = I and [e1]_x = E0
        u, v = vf._witnesses(np.eye(3)[None], np.eye(3)[:1])
        assert np.array_equal(u[0], np.eye(3)) and np.array_equal(v[0], np.eye(3))
        e = sp.eye(3)
        assert self.cross(e[:, 0]) == self.E0
        tangents = [self.E0 * f for f in self.SO3] + [self.cross(e[:, j]) for j in (1, 2)]
        jac = self.jacobian(tangents)
        assert sp.sqrt((jac * jac.T).det()) == sp.Rational(1, 4)

    def test_rotation_action_at_the_identity_pair(self):
        tangents = [-self.E0 * f for f in self.SO3] + [f * self.E0 for f in self.SO3]
        jac = self.jacobian(tangents)
        assert sp.simplify(sp.sqrt((jac * jac.T).det()) - 1 / sp.sqrt(8)) == 0

    def test_quadric_parametrization_at_a_symbolic_point(self):
        a, b, r, s, theta = sp.symbols("a b r s theta", real=True)
        uv = sp.Matrix([a, r * sp.cos(theta), r * sp.sin(theta),
                        b, s * sp.cos(theta), s * sp.sin(theta)])
        jac = uv.jacobian([a, b, r, s, theta])
        assert sum(entry != 0 for entry in jac) == 10
        assert sp.simplify(sp.sqrt((jac.T * jac).det())) == sp.sqrt(r ** 2 + s ** 2)


class TestIncidenceIdentity:
    def test_zero_row_case(self):
        pts = np.random.default_rng(0).standard_normal((5, 2, 3))
        pts[2, 0] = np.eye(3)[0]
        pts[2, 1] = np.eye(3)[0]
        a = vf.incidence_jacobian_blocks(pts)
        assert np.linalg.det(a @ a.T) == pytest.approx(0.0, abs=1e-15)

    def test_random_identity(self):
        report = vf.verify_detAAT_identity(samples=100, seed=6)
        assert report.passed
        assert report.worst_deviation <= 1e-10

    def test_stack_matches_one_tuple_at_a_time(self):
        pts = np.random.default_rng(8).standard_normal((30, 5, 2, 3))
        stacked = vf.incidence_jacobian_blocks(pts)
        for one, block in zip(pts, stacked):
            expected = np.zeros((5, 30))
            for i, (u, v) in enumerate(one):
                expected[i, 6 * i: 6 * i + 6] = [0.0, -v[2], v[1], 0.0, u[2], -u[1]]
            assert np.array_equal(block, expected)
            assert np.array_equal(vf.incidence_jacobian_blocks(one), expected)

    def test_samples_are_the_per_index_draws(self):
        report = vf.verify_detAAT_identity(samples=5, seed=14)
        pts = dists.rng_for(14, 0).standard_normal((5, 2, 3))
        a = vf.incidence_jacobian_blocks(pts)
        assert report.value == pytest.approx(np.linalg.det(a @ a.T), rel=1e-14)
        assert report.expected == pytest.approx(
            np.prod([u[1] ** 2 + u[2] ** 2 + v[1] ** 2 + v[2] ** 2 for u, v in pts]), rel=1e-14)

    def test_scaling_degree(self):
        # the per-pair factor is quadratic under joint scaling of (u, v),
        # so the block determinant picks up c^2
        rng = np.random.default_rng(7)
        pts = rng.standard_normal((5, 2, 3))
        a1 = vf.incidence_jacobian_blocks(pts)
        scaled = pts.copy()
        scaled[3] *= 2.0
        a2 = vf.incidence_jacobian_blocks(scaled)
        ratio = np.linalg.det(a2 @ a2.T) / np.linalg.det(a1 @ a1.T)
        assert ratio == pytest.approx(2.0 ** 2, rel=1e-10)


class TestVolumes:
    def test_volume_estimate(self):
        value, _ = vf.mc_volume_essential(400, seed=8)
        expected = 4.0 * math.pi ** 3
        assert abs(value - expected) / expected <= 1e-12
        assert (0.5 * value) / vf.VOL_RP5 == pytest.approx(4.0, abs=4e-12)


class TestDetBIdentity:
    def test_detB_matches_scaled_ensemble(self):
        # the parameters of z_slices' draw, their correspondences, and B and Z of the
        # first matrix written out from them one entry at a time
        n = 200
        report = vf.verify_detB_identity(samples=n, seed=9)
        assert (report.name, report.passed, report.samples) == ("detB_identity", True, n)
        assert report.worst_deviation <= 1e-12
        rng = dists.rng_for(9, 0)
        params = rng.standard_normal((4, 5 * n))
        theta = rng.uniform(0.0, 2.0 * np.pi, 5 * n)
        pts = quadric_correspondences(np.vstack([params, theta]).T[:5])
        b = np.array([[u @ t @ v for t in tangent_basis_E0()] for u, v in pts])
        z = np.array([[v[0] * u[2], v[0] * u[1], u[0] * v[2], u[0] * v[1],
                       u[1] * v[1] + u[2] * v[2]] for u, v in pts]).T
        assert np.allclose(z, dists.sample_z_matrices(dists.rng_for(9, 0), n)[0],
                           rtol=1e-15, atol=1e-15)
        assert report.value == pytest.approx(abs(np.linalg.det(b)), rel=1e-12)
        assert report.expected == pytest.approx(4.0 * abs(np.linalg.det(z)), rel=1e-12)


class TestSuiteRunner:
    def test_all_suites_pass(self):
        report = vf.run_suite("all", seed=10, nj_samples=10, volume_samples=300)
        assert report["passed"]
        assert 0.0 < report["checks"]["volume_essential"]["worst_deviation"] <= 1e-12
        assert report["checks"]["detB_identity"]["worst_deviation"] <= 1e-12
        assert set(report["checks"]) == {
            "nj_pose_map", "nj_rotation_action", "nj_quadric_param",
            "volume_essential", "det_AAT_identity", "detB_identity",
        }

    def test_failed_check_is_reported_with_its_figures(self, monkeypatch):
        failed = vf.verify_nj_gamma(samples=2, tol=0.0)
        assert failed.name == "nj_rotation_action"
        assert failed.passed is False
        monkeypatch.setattr(vf, "nj_rotation_action", lambda u, v: np.full(len(u), 0.3))
        report = vf.run_suite("nj", seed=1, nj_samples=2)
        assert report["passed"] is False
        assert report["checks"]["nj_rotation_action"]["passed"] is False
        assert report["checks"]["nj_rotation_action"]["value"] == 0.3
        assert report["checks"]["nj_pose_map"]["passed"] is True

    def test_identities_pass_on_every_seed(self):
        # a benchmark runs verify at a fresh seed every round: no tolerance may rest on one seed
        worst = 0.0
        for seed in range(1000):
            report = vf.run_suite("identities", seed)
            assert report["passed"], seed
            worst = max(worst, report["checks"]["detB_identity"]["worst_deviation"])
        assert worst <= 1e-14

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            vf.run_suite("everything")
