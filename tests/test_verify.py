import math

import numpy as np
import pytest

from essential_lab import distributions as dists
from essential_lab import verify as vf
from essential_lab.errors import DegenerateInput
from essential_lab.geometry import E0, half_trace_inner, so3_basis

from oracles import pose_map_volume_loop, quaternion_rotation_sample


class TestFiniteDifferenceJacobian:
    def test_identity_map(self):
        curves = [lambda s, i=i: s * np.eye(3)[i] for i in range(3)]
        frame = list(np.eye(3))
        value = vf.finite_diff_normal_jacobian(lambda p: p, curves, frame)
        assert value == pytest.approx(1.0, abs=1e-10)

    def test_linear_map_singular_values(self):
        mat = np.array([[2.0, 0.0], [0.0, 3.0]])
        curves = [lambda s, i=i: s * np.eye(2)[i] for i in range(2)]
        frame = list(np.eye(2))
        value = vf.finite_diff_normal_jacobian(lambda p: mat @ p, curves, frame)
        assert value == pytest.approx(6.0, abs=1e-8)

    def test_pose_map_at_reference(self):
        value = vf.nj_pose_map_at(np.eye(3), np.array([1.0, 0.0, 0.0]))
        assert value == pytest.approx(0.25, abs=1e-6)

    def test_step_size_validation(self):
        curves = [lambda s: s * np.eye(2)[0], lambda s: s * np.eye(2)[1]]
        with pytest.raises(ValueError):
            vf.finite_diff_normal_jacobian(lambda p: p, curves, list(np.eye(2)), h=1e-2)


class TestPoseMapJacobian:
    def test_constant_at_random_points(self):
        report = vf.verify_nj_E(samples=25, seed=3)
        assert report.passed
        assert report.worst_deviation <= 1e-6

    def test_non_unit_translation_rejected(self):
        with pytest.raises(DegenerateInput):
            vf.nj_pose_map_at(np.eye(3), np.array([1.0, 1.0, 0.0]))

    def test_non_rotation_rejected(self):
        with pytest.raises(DegenerateInput):
            vf.nj_pose_map_at(np.diag([1.0, 1.0, -1.0]), np.array([1.0, 0.0, 0.0]))


class TestStackedPoseMapJacobian:
    def test_stack_matches_one_pose_at_a_time(self):
        r, t = vf.sample_poses(31, 200)
        stacked = vf.nj_pose_map(r, t)
        single = np.array([vf.nj_pose_map_at(ri, ti) for ri, ti in zip(r, t)])
        assert np.max(np.abs(stacked - single)) <= 1e-14

    def test_poses_are_the_per_index_draws(self):
        r, t = vf.sample_poses(32, 300)
        r_ref, t_ref = [], []
        for index in range(300):
            rng = dists.rng_for(32, index)
            r_ref.append(dists._rotations(rng, 1)[0])
            ti = rng.standard_normal(3)
            t_ref.append(ti / np.linalg.norm(ti))
        assert np.array_equal(r, np.array(r_ref))
        assert np.array_equal(t, np.array(t_ref))

    def test_volume_matches_a_per_pose_loop(self):
        value, worst = vf.mc_volume_essential(2000, seed=33)
        reference = pose_map_volume_loop(2000, 33, vf.nj_pose_map_at, dists.rng_for)
        assert value == pytest.approx(reference, rel=1e-12)
        nj = vf.nj_pose_map(*vf.sample_poses(33, 2000))
        assert worst == np.max(np.abs(nj - 0.25))
        assert 0.0 < worst <= 1e-6

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

    def test_volume_needs_a_sample(self):
        with pytest.raises(ValueError):
            vf.mc_volume_essential(0)


class TestRotationActionJacobian:
    def test_reference_value(self):
        report = vf.verify_nj_gamma(samples=5)
        assert report.passed
        assert report.value == pytest.approx(1.0 / math.sqrt(8.0), abs=1e-5)

    def test_equivariance(self):
        base = vf.nj_rotation_action_at(np.eye(3), np.eye(3))
        u0, v0 = quaternion_rotation_sample(np.random.default_rng(0), 2)
        away = vf.nj_rotation_action_at(u0, v0)
        assert away == pytest.approx(base, abs=1e-6)

    def test_wrong_output_frame_changes_value(self):
        fs = so3_basis()
        curves = [(lambda s, f=f: (np.eye(3), vf._rodrigues(f, s))) for f in fs] \
            + [(lambda s, f=f: (vf._rodrigues(f, s), np.eye(3))) for f in fs]
        ambient = [math.sqrt(2.0) * np.outer(np.eye(3)[i], np.eye(3)[j])
                   for i in range(3) for j in range(3)]
        value = vf.finite_diff_normal_jacobian(
            lambda p: p[0] @ E0 @ p[1].T, curves, ambient, inner=half_trace_inner)
        assert abs(value - 1.0 / math.sqrt(8.0)) > 1e-3


class TestQuadricParametrization:
    def test_reference_points(self):
        frame = list(np.eye(6).reshape(6, 2, 3))
        for point, expected in [
            (np.array([0.0, 0.0, 1.0, 0.0, 0.3]), 1.0),
            (np.array([0.4, -0.2, 3.0, 4.0, 1.1]), 5.0),
            (np.array([0.4, -0.2, 0.0, 0.0, 1.1]), 0.0),
        ]:
            curves = [(lambda s, i=i, p=point: p + s * np.eye(5)[i]) for i in range(5)]
            value = vf.finite_diff_normal_jacobian(dists.quadric_param, curves, frame)
            assert value == pytest.approx(expected, abs=1e-6)

    def test_random_points(self):
        report = vf.verify_quadric_param_nj(samples=25, seed=5)
        assert report.passed


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
        assert abs(value - expected) / expected <= 0.01
        assert (0.5 * value) / vf.VOL_RP5 == pytest.approx(4.0, abs=0.04)


class TestDistributionalIdentity:
    def test_detB_matches_scaled_ensemble(self):
        out = vf.verify_detB_identity(150_000, seed=9)
        assert out["passed"]


class TestSuiteRunner:
    def test_all_suites_pass(self):
        report = vf.run_suite("all", seed=10, nj_samples=10, volume_samples=300)
        assert report["passed"]
        assert 0.0 < report["checks"]["volume_essential"]["worst_deviation"] <= 1e-6
        assert set(report["checks"]) == {
            "nj_pose_map", "nj_rotation_action", "nj_quadric_param",
            "volume_essential", "det_AAT_identity", "detB_identity",
        }

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            vf.run_suite("everything")
