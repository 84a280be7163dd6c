import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency, ks_2samp

from essential_lab import distributions as dist
from essential_lab import solver as sv
from essential_lab.errors import RankDeficient
from essential_lab.geometry import E0, EssentialMatrix, half_trace_norm

from oracles import box_weight, mh_box_chain_loop, quaternion_rotation_sample

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
        r = dist._rotations(dist.rng_for(0, 0), 50)
        assert np.max(np.abs(r @ np.swapaxes(r, 1, 2) - np.eye(3))) <= 1e-12
        assert np.max(np.abs(np.linalg.det(r) - 1.0)) <= 1e-12

    def test_moments_against_quaternion_oracle(self):
        n = 10 ** 6
        r = dist._rotations(dist.rng_for(1, 0), n)
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


class TestDensityG:
    """The chart factor g(u) = |u|^3 / |u3|^3 of box_weights, one point at a time."""

    # boxes of area vol(RP^2) = 2 pi, so a point at the pole weighs 1
    HALF = np.sqrt(2.0 * np.pi) / 2.0
    BOXES = [dist.BoxSpec(-HALF, HALF, -HALF, HALF)] * 10

    def g(self, u):
        """box_weights of u with nine points at the pole, over that of ten at the pole."""
        points = np.tile([0.0, 0.0, 1.0], (1, 5, 2, 1))
        poles = dist.box_weights(points, self.BOXES)[0]
        points[0, 0, 0] = u
        return dist.box_weights(points, self.BOXES)[0] / poles

    def test_pole(self):
        assert self.g(np.array([0.0, 0.0, 1.0])) == pytest.approx(1.0)

    def test_diagonal_point(self):
        u = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
        assert self.g(u) == pytest.approx(3.0 * np.sqrt(3.0), rel=1e-12)

    def test_scale_invariance(self):
        u = np.array([0.3, -0.2, 0.5])
        assert self.g(u) == pytest.approx(self.g(4.0 * u), rel=1e-12)

    def test_chart_singularity(self):
        # a point on the chart boundary u3 = 0 lies in no box: weight 0, no division
        assert self.g(np.array([1.0, 1.0, 0.0])) == 0.0
        assert self.g(np.array([1.0, 1.0, 1e-13])) == 0.0


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

    def test_z_vectors_of_the_quadric_correspondences(self):
        p = dist.quadric_draw(dist.rng_for(13, 1), (400, 5))
        pts = dist.quadric_param(p)
        u, v = pts[..., 0, :], pts[..., 1, :]
        expected = np.stack([v[..., 0] * u[..., 2], v[..., 0] * u[..., 1],
                             u[..., 0] * v[..., 2], u[..., 0] * v[..., 1],
                             u[..., 1] * v[..., 1] + u[..., 2] * v[..., 2]], axis=-1)
        assert np.max(np.abs(dist.quadric_z(p) - expected)) <= 1e-12


class TestEssentialUniform:
    def test_invariants(self):
        # rotated_quadric_draw draws U, then V, then the base parameters
        rng = dist.rng_for(14, 0)
        us, vs = dist._rotations(rng, 20), dist._rotations(rng, 20)
        _, points = dist.rotated_quadric_draw(dist.rng_for(14, 0), 20)
        for u, v, tuple5 in zip(us, vs, points):
            e = EssentialMatrix(u @ E0 @ v.T)
            assert abs(half_trace_norm(e.m) - 1.0) <= 1e-9
            residuals = [p @ e.m @ q / (np.linalg.norm(p) * np.linalg.norm(q)) for p, q in tuple5]
            assert np.max(np.abs(residuals)) <= 1e-12

    def test_mean_zero(self):
        rng = dist.rng_for(15, 0)
        us = dist._rotations(rng, 10 ** 6)
        vs = dist._rotations(rng, 10 ** 6)
        mats = np.einsum("nij,jk,nlk->nil", us, E0, vs)
        assert np.max(np.abs(mats.mean(axis=0))) <= 0.005

    def test_two_sided_invariance(self):
        rng = dist.rng_for(16, 0)
        us = dist._rotations(rng, 200_000)
        vs = dist._rotations(rng, 200_000)
        mats = np.einsum("nij,jk,nlk->nil", us, E0, vs)
        fixed_u = quaternion_rotation_sample(np.random.default_rng(1), 2)
        rotated = np.einsum("ij,njk,lk->nil", fixed_u[0], mats, fixed_u[1])
        base_moment = np.einsum("nij,nkl->ijkl", mats, mats) / mats.shape[0]
        rot_moment = np.einsum("nij,nkl->ijkl", rotated, rotated) / rotated.shape[0]
        assert np.max(np.abs(base_moment - rot_moment)) <= 0.01


class TestBoxWeight:
    def test_scalar_matches_batch(self):
        rng = dist.rng_for(17, 0)
        for _ in range(50):
            a5 = rng.standard_normal((5, 5))
            a5[:, 4] = rng.uniform(0.0, 2.0 * np.pi, 5)
            pts = dist.quadric_param(a5)
            w_scalar = box_weight(pts, BOXES55)
            w_batch = dist.box_weights(pts[None], BOXES55)[0]
            assert w_scalar == pytest.approx(w_batch, rel=1e-12, abs=1e-300)

    def test_quadric_points_satisfy_base_equation(self):
        rng = dist.rng_for(18, 0)
        a5 = rng.standard_normal((5, 5))
        pts = dist.quadric_param(a5)
        for u, v in pts:
            assert abs(u @ E0 @ v) <= 1e-12

    def test_unit_mean_per_point(self):
        # density of the box law over the uniform law must average to one
        n = 10 ** 6
        v = rp2(dist.rng_for(19, 0), n)
        box = BOXES55[0]
        norms = np.ones(n)
        safe = np.abs(v[:, 2]) > 1e-12
        y1 = v[safe, 0] / v[safe, 2]
        y2 = v[safe, 1] / v[safe, 2]
        inside = (np.abs(y1) <= 5.0) & (np.abs(y2) <= 5.0)
        g = 1.0 / np.abs(v[safe, 2]) ** 3
        w = np.zeros(n)
        w[safe] = np.where(inside, dist.VOL_RP2 * g / box.area, 0.0)
        se = w.std() / np.sqrt(n)
        assert abs(w.mean() - 1.0) <= 3.0 * se


class TestMhChain:
    def test_constant_density_accepts_everything(self):
        states, accepted = dist.mh_box_chain(dist.rng_for(20, 0), 2000, BOXES55,
                                             psi=lambda pts: np.ones(len(pts)))
        assert accepted == 2000
        assert len(states) == 2000

    def test_psi_must_weigh_the_whole_batch(self):
        with pytest.raises(ValueError):
            dist.mh_box_chain(dist.rng_for(20, 0), 100, BOXES55, psi=lambda pts: 1.0)

    def test_stacked_chain_matches_one_proposal_at_a_time(self):
        n = 20_000
        states, accepted = dist.mh_box_chain(dist.rng_for(23, 0), n, BOXES55)
        reference = mh_box_chain_loop(dist.rng_for(23, 0), n,
                                      lambda pts: box_weight(pts, BOXES55))
        assert accepted == len(states) == len(reference) > 0
        assert [p for p, _, _ in states] == [p for p, _, _ in reference]
        for (_, pts, density), (_, ref_pts, ref_density) in zip(states, reference):
            assert np.max(np.abs(pts - ref_pts)) <= 1e-12
            assert density == pytest.approx(ref_density, rel=1e-12)

    def test_box_chain_acceptance_is_small(self):
        # heavy-tailed target: very few accepted states (hundreds per 1e6)
        states, accepted = dist.mh_box_chain(dist.rng_for(21, 0), 10 ** 6, BOXES55)
        assert 0 < accepted < 20_000
        positions = np.array([p for p, _, _ in states] + [10 ** 6])
        occupancy = np.diff(positions)
        counts = []
        for (pos, pts, _), occ in zip(states, occupancy):
            rows = np.stack([np.outer(u, v).ravel() for u, v in pts])
            res = sv.solve_five_point(sv.LinearSpace(rows), rng=dist.rng_for(22, pos))
            counts.append(res.real_count if not res.failed else np.nan)
        counts = np.array(counts, dtype=float)
        ok = ~np.isnan(counts)
        weighted = float(np.sum(counts[ok] * occupancy[ok]) / np.sum(occupancy[ok]))
        # qualitative: the direct estimate is ~3.8; the chain is biased and noisy
        assert 2.0 <= weighted <= 6.0


class TestZeroCountFrequency:
    def test_rotation_invariant_spaces_rarely_have_no_real_solutions(self, unifg_100k):
        # observed frequency is on the order of one percent
        fraction = unifg_100k.histogram[0] / (unifg_100k.n - unifg_100k.failures)
        assert 0.002 <= fraction <= 0.03

    def test_correspondence_spaces_almost_always_have_real_solutions(self, psi_crosscheck_100k):
        rep = psi_crosscheck_100k.solver_report
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
            counted = sv.count_batch(rows, basis, streams)
            hist += np.bincount(counted.count[~counted.failed], minlength=11)
        base = np.array(unifg_100k.histogram)[[0, 2, 4, 6, 8, 10]]
        rotated = hist[[0, 2, 4, 6, 8, 10]]
        table = np.stack([base, rotated])
        keep = table.sum(axis=0) > 0
        _, pvalue, _, _ = chi2_contingency(table[:, keep])
        assert pvalue > 0.01
