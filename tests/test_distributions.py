import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency, ks_2samp

from essential_lab import distributions as dist
from essential_lab import solver as sv
from essential_lab.errors import RankDeficient
from essential_lab.geometry import E0

from oracles import quadric_correspondences, quaternion_rotation_sample, z_vectors_at_once

BOXES55 = [dist.BoxSpec(-5.0, 5.0, -5.0, 5.0)] * 10
LOW = np.array([-1.0, 0.0, 2.0])
HIGH = np.array([1.0, 5.0, 2.5])


def every_kind_of_draw(rng, out):
    """Normals into a slot, uniforms, uniforms with array bounds, then integers."""
    rng.standard_normal(out=out[:4])
    out[4:6] = rng.random(2)
    out[6:9] = rng.uniform(LOW, HIGH)
    out[9:12] = rng.integers(0, 1000, 3)     # three 32-bit draws leave half a word buffered
    out[12] = rng.integers(-2 ** 40, 2 ** 40)


def rp2(rng, n):
    """n uniform projective points (n, 3) drawn from one generator."""
    return dist._rp2_points(rng.standard_normal((1, n, 3)), [rng])[0]


class TestRngFor:
    def test_deterministic(self):
        a = dist.rng_for(7, 3).standard_normal(4)
        b = dist.rng_for(7, 3).standard_normal(4)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = dist.rng_for(7, 3).standard_normal(4)
        b = dist.rng_for(7, 4).standard_normal(4)
        c = dist.rng_for(8, 3).standard_normal(4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @given(st.integers(-2 ** 70, 2 ** 70), st.integers(-2 ** 70, 2 ** 70))
    @example(-1, 2 ** 64 - 2)
    @example(2 ** 64 + 3, -(2 ** 64))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_streams_draw_what_rng_for_draws(self, seed, start):
        streams = dist.Streams(seed, start, 3)
        drawn = streams.fill(every_kind_of_draw, np.empty((3, 13)))
        for i in range(3):
            alone = dist.rng_for(seed, start + i)
            expected = np.empty(13)
            every_kind_of_draw(alone, expected)
            assert np.array_equal(drawn[i], expected)
            # an instance's own generator continues where rng_for's does
            assert np.array_equal(streams[i].standard_normal(4), alone.standard_normal(4))


class TestRotationSampler:
    def test_invariants(self):
        r = dist.haar_rotations(dist.rng_for(0, 0).standard_normal((50, 3, 3)))
        assert np.max(np.abs(r @ np.swapaxes(r, 1, 2) - np.eye(3))) <= 1e-12
        assert np.max(np.abs(np.linalg.det(r) - 1.0)) <= 1e-12

    def test_moments_against_quaternion_oracle(self):
        n = 10 ** 6
        r = dist.haar_rotations(dist.rng_for(1, 0).standard_normal((n, 3, 3)))
        assert np.max(np.abs(r.mean(axis=0))) <= 3e-3
        tr = np.trace(r, axis1=1, axis2=2)
        oracle = quaternion_rotation_sample(np.random.default_rng(2), 200_000)
        tr_oracle = np.trace(oracle, axis1=1, axis2=2)
        # character identities: E tr = 0 and E tr^2 = 1 on the rotation group
        assert abs(tr.mean()) <= 0.01
        assert abs(tr_oracle.mean()) <= 0.01
        assert abs((tr ** 2).mean() - 1.0) <= 0.01
        assert abs((tr_oracle ** 2).mean() - 1.0) <= 0.015


class TestRp2Sampler:
    def test_unit_norm(self):
        v = rp2(dist.rng_for(3, 0), 100)
        assert np.max(np.abs(np.linalg.norm(v, axis=1) - 1.0)) <= 1e-12

    def test_third_coordinate_moment(self):
        v = rp2(dist.rng_for(4, 0), 10 ** 6)
        assert abs((v[:, 2] ** 2).mean() - 1.0 / 3.0) <= 0.002

    def test_rotation_invariance(self):
        v = rp2(dist.rng_for(5, 0), 10 ** 6)
        rot = quaternion_rotation_sample(np.random.default_rng(0), 1)[0]
        w = v @ rot.T
        assert abs((w[:, 2] ** 2).mean() - 1.0 / 3.0) <= 0.002


class TestLinearSpaceBuilders:
    def test_unifg_rank(self):
        rng = dist.rng_for(6, 0)
        rows, _ = dist.sample_unifG([rng] * 20)
        for instance in rows:
            assert np.linalg.matrix_rank(instance) == 5

    def test_row_from_basis_points(self):
        e = np.eye(3)
        points = np.array([e[0], e[0], e[1], e[1], e[2], e[2], e[0], e[1], e[1], e[2]])
        assert np.allclose(dist._pair_rows(points)[0], np.eye(9)[0])

    def test_pairing_identity(self):
        rng = dist.rng_for(7, 0)
        for _ in range(50):
            points = rp2(rng, 10)
            e = rng.standard_normal((3, 3))
            for row, u, v in zip(dist._pair_rows(points), points[0::2], points[1::2]):
                assert row @ e.ravel() == pytest.approx(float(u @ e @ v), abs=1e-13)

    def test_rows_are_rank_one(self):
        rows, _ = dist.sample_psi([dist.rng_for(8, 0)])
        for row in rows[0]:
            svals = np.linalg.svd(row.reshape(3, 3), compute_uv=False)
            assert svals[1] <= 1e-12 * svals[0]

    def test_degenerate_correspondences_rejected(self):
        same = np.array([1.0, 0.0, 0.0])
        with pytest.raises(RankDeficient):
            sv.LinearSpace(dist._pair_rows(np.array([same] * 10)))


class TestBoxSampler:
    def test_chart_representatives(self):
        rows, _ = dist.sample_box([dist.rng_for(9, 0)], BOXES55)
        # row i is u_i v_i^T with u, v of positive third coordinate, so its
        # (2, 2) entry is positive and the third column and row give the
        # chart coordinates of u and v
        m = rows[0].reshape(5, 3, 3)
        third = m[:, 2, 2]
        assert np.all(third > 0)
        for chart in (m[:, :2, 2] / third[:, None], m[:, 2, :2] / third[:, None]):
            assert np.all(np.abs(chart) <= 5.0)

    def test_degenerate_boxes_propagate_rank_failure(self):
        tiny = [dist.BoxSpec(0.0, 1e-30, 0.0, 1e-30)] * 10
        with pytest.raises(RankDeficient):
            dist.sample_box([dist.rng_for(10, 0)], tiny)

    def test_box_spec_validation(self):
        with pytest.raises(ValueError):
            dist.BoxSpec(1.0, 1.0, 0.0, 1.0)
        for bounds in ((0.0, np.inf, 0.0, 1.0), (-np.inf, 0.0, 0.0, 1.0),
                       (-1e308, 1e308, 0.0, 1.0), (0.0, 1.0, 0.0, 10 ** 400)):
            with pytest.raises(ValueError):
                dist.BoxSpec(*bounds)


class TestZVector:
    def test_mean_and_second_moments(self):
        z = dist._z_batch(dist.rng_for(11, 0), 10 ** 6)
        assert np.max(np.abs(z.mean(axis=0))) <= 0.005
        second = (z ** 2).mean(axis=0)
        assert np.max(np.abs(second - [0.5, 0.5, 0.5, 0.5, 1.0])) <= 0.01

    def test_sign_symmetry(self):
        z = dist._z_batch(dist.rng_for(12, 0), 50_000)
        w = dist._z_batch(dist.rng_for(12, 1), 50_000)
        for k in range(5):
            assert ks_2samp(z[:, k], -w[:, k]).pvalue > 0.001

    def test_matrix_shape(self):
        mats = dist.sample_z_matrices(dist.rng_for(13, 0), 7)
        assert mats.shape == (7, 5, 5)

    def test_slices_are_the_draw_in_one_piece(self):
        m = 2 * dist.DET_BLOCK + 3
        parts = [part.copy() for part in dist.z_slices(dist.rng_for(13, 3), 5 * m)]
        assert [len(part) for part in parts] == [5 * dist.DET_BLOCK] * 2 + [15]
        whole = z_vectors_at_once(dist.rng_for(13, 3), 5 * m, 5 * dist.DET_BLOCK)
        assert np.array_equal(np.concatenate(parts), whole)
        mats = dist.sample_z_matrices(dist.rng_for(13, 3), m)
        assert np.array_equal(dist.z_matrices(np.concatenate(parts)), mats)
        assert np.array_equal(mats[-1], whole[-5:].T)
        # a count that is no multiple of five, and one whose last block is one z-vector
        for n in (7, 5 * dist.DET_BLOCK + 1):
            assert np.array_equal(dist._z_batch(dist.rng_for(13, 4), n),
                                  z_vectors_at_once(dist.rng_for(13, 4), n, 5 * dist.DET_BLOCK))

    def test_z_vectors_of_the_quadric_correspondences(self):
        rng = dist.rng_for(13, 1)
        p = np.concatenate([rng.standard_normal((400, 5, 4)),
                            rng.uniform(0.0, 2.0 * np.pi, (400, 5, 1))], axis=-1)
        pts = quadric_correspondences(p)
        u, v = pts[..., 0, :], pts[..., 1, :]
        expected = np.stack([v[..., 0] * u[..., 2], v[..., 0] * u[..., 1],
                             u[..., 0] * v[..., 2], u[..., 0] * v[..., 1],
                             u[..., 1] * v[..., 1] + u[..., 2] * v[..., 2]], axis=-1)
        a, b, r, s, theta = np.moveaxis(p.copy(), -1, 0)
        dist.quadric_fold(a, b, r, s)
        z = dist.quadric_z_of_products(b, a, r, theta, np.empty((5,) + theta.shape))
        assert np.max(np.abs(np.moveaxis(z, 0, -1) - expected)) <= 1e-12

    def test_in_place_map_in_slices(self, monkeypatch):
        # slices and blocks of 7 z-vectors, against the products written out
        monkeypatch.setattr(dist, "_Z_SLICE", 7)
        n = 50
        z = np.concatenate([part.copy() for part in dist.z_slices(dist.rng_for(13, 2), n)])
        assert np.array_equal(z, z_vectors_at_once(dist.rng_for(13, 2), n, 7))


class TestEssentialUniform:
    def test_mean_zero(self):
        rng = dist.rng_for(15, 0)
        us = dist.haar_rotations(rng.standard_normal((10 ** 6, 3, 3)))
        vs = dist.haar_rotations(rng.standard_normal((10 ** 6, 3, 3)))
        mats = np.einsum("nij,jk,nlk->nil", us, E0, vs)
        assert np.max(np.abs(mats.mean(axis=0))) <= 0.005

    def test_two_sided_invariance(self):
        rng = dist.rng_for(16, 0)
        us = dist.haar_rotations(rng.standard_normal((200_000, 3, 3)))
        vs = dist.haar_rotations(rng.standard_normal((200_000, 3, 3)))
        mats = np.einsum("nij,jk,nlk->nil", us, E0, vs)
        fixed_u = quaternion_rotation_sample(np.random.default_rng(1), 2)
        rotated = np.einsum("ij,njk,lk->nil", fixed_u[0], mats, fixed_u[1])
        base_moment = np.einsum("nij,nkl->ijkl", mats, mats) / mats.shape[0]
        rot_moment = np.einsum("nij,nkl->ijkl", rotated, rotated) / rotated.shape[0]
        assert np.max(np.abs(base_moment - rot_moment)) <= 0.01


class TestBoxWeight:
    def test_quadric_points_satisfy_base_equation(self):
        rng = dist.rng_for(18, 0)
        a5 = rng.standard_normal((5, 5))
        pts = quadric_correspondences(a5)
        for u, v in pts:
            assert abs(u @ E0 @ v) <= 1e-12

    def test_unit_mean_per_point(self):
        # density of the box law over the uniform law must average to one
        n = 10 ** 6
        v = rp2(dist.rng_for(19, 0), n)
        safe = np.abs(v[:, 2]) > 1e-12
        y1 = v[safe, 0] / v[safe, 2]
        y2 = v[safe, 1] / v[safe, 2]
        inside = (np.abs(y1) <= 5.0) & (np.abs(y2) <= 5.0)
        g = 1.0 / np.abs(v[safe, 2]) ** 3
        w = np.zeros(n)
        # the uniform law has density 1 / (2 pi) on the projective plane
        w[safe] = np.where(inside, 2.0 * np.pi * g / (10.0 * 10.0), 0.0)
        se = w.std() / np.sqrt(n)
        assert abs(w.mean() - 1.0) <= 3.0 * se


class TestZeroCountFrequency:
    def test_rotation_invariant_spaces_rarely_have_no_real_solutions(self, unifg_100k):
        # observed frequency is on the order of one percent
        fraction = unifg_100k.histogram[0] / (unifg_100k.n - unifg_100k.failures)
        assert 0.002 <= fraction <= 0.03

    def test_correspondence_spaces_almost_always_have_real_solutions(self, psi_100k):
        rep = psi_100k
        fraction = rep.histogram[0] / (rep.n - rep.failures)
        assert fraction <= 0.01


class TestUnifGInvariance:
    def test_rotated_rows_same_count_distribution(self, unifg_100k):
        """Pre-multiplying rows by a fixed orthogonal matrix is invisible."""
        rng_q = np.random.default_rng(99)
        q, r = np.linalg.qr(rng_q.standard_normal((9, 9)))
        q *= np.sign(np.diag(r))
        n = unifg_100k.n
        hist = np.zeros(11, dtype=np.int64)
        for start in range(0, n, 1000):
            streams = dist.Streams(unifg_100k.seed + 1_000_003, start, min(1000, n - start))
            rows = streams.fill(dist._normals, np.empty((len(streams), 5, 9))) @ q
            basis = sv.nullspace_basis(rows)
            assert not np.isnan(basis).any()
            solved = sv.solve_batch(rows, basis, streams)
            hist += np.bincount(solved.count[solved.reason == sv.SOLVED], minlength=11)
        base = np.array(unifg_100k.histogram)[[0, 2, 4, 6, 8, 10]]
        rotated = hist[[0, 2, 4, 6, 8, 10]]
        table = np.stack([base, rotated])
        keep = table.sum(axis=0) > 0
        _, pvalue, _, _ = chi2_contingency(table[:, keep])
        assert pvalue > 0.01
