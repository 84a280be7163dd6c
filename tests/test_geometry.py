import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from essential_lab import geometry as geo
from essential_lab.errors import DegenerateInput

from oracles import quaternion_rotation_sample

finite_floats = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


def haar_pose(rng):
    r = quaternion_rotation_sample(rng, 1)[0]
    t = rng.standard_normal(3)
    t /= np.linalg.norm(t)
    return r, t


class TestCrossMatrix:
    def test_e1(self):
        assert np.array_equal(geo.cross_matrix([1, 0, 0]), geo.E0)

    def test_zero(self):
        assert np.array_equal(geo.cross_matrix([0, 0, 0]), np.zeros((3, 3)))

    def test_explicit_product(self):
        out = geo.cross_matrix([1, 2, 3]) @ np.array([4.0, 5.0, 6.0])
        assert np.allclose(out, [-3.0, 6.0, -3.0])

    @given(st.tuples(finite_floats, finite_floats, finite_floats),
           st.tuples(finite_floats, finite_floats, finite_floats))
    @settings(max_examples=50, deadline=None)
    def test_matches_cross_product(self, t, x):
        t = np.array(t)
        x = np.array(x)
        assert np.allclose(geo.cross_matrix(t) @ x, np.cross(t, x), atol=1e-6)


class TestHalfTrace:
    def test_identity(self):
        assert geo.half_trace_inner(np.eye(3), np.eye(3)) == pytest.approx(1.5)

    def test_e0(self):
        assert geo.half_trace_inner(geo.E0, geo.E0) == pytest.approx(1.0)

    def test_orthogonal_rank_one_units(self):
        a = np.outer(np.eye(3)[0], np.eye(3)[1])
        b = np.outer(np.eye(3)[1], np.eye(3)[0])
        assert geo.half_trace_inner(a, b) == 0.0

    @given(st.lists(finite_floats, min_size=9, max_size=9),
           st.lists(finite_floats, min_size=9, max_size=9))
    @settings(max_examples=50, deadline=None)
    def test_symmetric(self, a, b):
        a = np.reshape(a, (3, 3))
        b = np.reshape(b, (3, 3))
        assert geo.half_trace_inner(a, b) == pytest.approx(geo.half_trace_inner(b, a),
                                                           rel=1e-12, abs=1e-12)


class TestEssentialFromPose:
    """Essential matrices of poses, built as ``cross_matrix(t) @ R``."""

    def test_unit_norm_random(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            r, t = haar_pose(rng)
            e = geo.cross_matrix(t) @ r
            assert abs(geo.half_trace_norm(e) - 1.0) <= 1e-12
            assert np.max(np.abs(geo.demazure_residuals(e))) <= 1e-12

    def test_twisted_pair_same_matrix(self):
        # the half-turn M = 2 t t^T - I about t sends (R, t) to (M R, -t), the
        # other pose of the same matrix: the pose map is 2:1
        rng = np.random.default_rng(2)
        for _ in range(100):
            r, t = haar_pose(rng)
            twist = 2.0 * np.outer(t, t) - np.eye(3)
            e = geo.cross_matrix(t) @ r
            e2 = geo.cross_matrix(-t) @ twist @ r
            assert np.max(np.abs(e - e2)) <= 1e-12


class TestDemazureResiduals:
    def test_e0_vanishes(self):
        assert np.max(np.abs(geo.demazure_residuals(geo.E0))) == 0.0

    def test_identity_matrix(self):
        res = geo.demazure_residuals(np.eye(3))
        assert res[0] == pytest.approx(1.0)
        assert np.allclose(res[1:].reshape(3, 3), -np.eye(3))

    def test_random_essential(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            r, t = haar_pose(rng)
            e = geo.cross_matrix(t) @ r
            assert np.max(np.abs(geo.demazure_residuals(e))) <= 1e-12


class TestTangentBasis:
    def test_orthonormal(self):
        basis = geo.tangent_basis_E0()
        gram = np.array([[geo.half_trace_inner(a, b) for b in basis] for a in basis])
        assert np.allclose(gram, np.eye(5), atol=1e-14)

    def test_span_of_action_derivatives(self):
        # the six derivative matrices of the two-sided rotation action at E0
        span = []
        for f in geo.so3_basis():
            span.append(geo.E0 @ f.T)
            span.append(f @ geo.E0)
        span = np.stack([m.ravel() for m in span]).T     # (9, 6)
        for b in geo.tangent_basis_E0():
            coeffs = np.linalg.lstsq(span, b.ravel(), rcond=None)[0]
            assert np.linalg.norm(span @ coeffs - b.ravel()) <= 1e-12

    def test_last_element_norm(self):
        b5 = geo.tangent_basis_E0()[4]
        assert np.array_equal(b5, np.diag([0.0, 1.0, 1.0]))
        assert geo.half_trace_inner(b5, b5) == pytest.approx(1.0)


class TestTypes:
    def test_essential_matrix_validation(self):
        with pytest.raises(DegenerateInput):
            geo.EssentialMatrix(np.eye(3))
        scaled = 1.01 * geo.E0
        with pytest.raises(DegenerateInput):
            geo.EssentialMatrix(scaled)
        # the constructor computes the residual; it takes none to overwrite
        with pytest.raises(TypeError):
            geo.EssentialMatrix(geo.E0.copy(), residual=0.5)
