import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from essential_lab import distributions as dist
from essential_lab import montecarlo as mc
from essential_lab import zonoid as zn
from essential_lab.errors import DomainError

from oracles import elliptic_second_kind_quadrature, simplex_monomial_integral, support_estimate

TWO_OVER_PI2 = 2.0 / math.pi ** 2
ONE_OVER_PI = 1.0 / math.pi


def support(x, n, seed):
    """Monte Carlo h_K(x), chunk i of the z-vectors drawn from ``rng_for(seed, i)``."""
    return support_estimate(x, n, lambda i, m: dist._z_batch(dist.rng_for(seed, i), m))


class TestEllipticE:
    def test_endpoints(self):
        assert zn.elliptic_E(0.0) == pytest.approx(math.pi / 2.0, abs=1e-15)
        assert zn.elliptic_E(1.0) == 1.0

    def test_half_parameter(self):
        # frozen from the quadrature oracle at tolerance 1e-14
        assert zn.elliptic_E(0.5) == pytest.approx(1.3506438810476755, abs=1e-12)

    def test_against_quadrature_oracle(self):
        rng = np.random.default_rng(0)
        for m in rng.uniform(0.0, 1.0, 200):
            assert abs(zn.elliptic_E(m) - elliptic_second_kind_quadrature(m)) <= 1e-12

    def test_monotone_decreasing(self):
        grid = np.linspace(0.0, 1.0, 500)
        vals = zn.elliptic_E(grid)
        assert np.all(np.diff(vals) < 0.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            zn.elliptic_E(-0.1)
        with pytest.raises(DomainError):
            zn.elliptic_E(1.1)

    def test_vectorized(self):
        arr = zn.elliptic_E(np.array([0.0, 0.25, 1.0]))
        assert arr.shape == (3,)

    def test_against_mpmath(self):
        ms = np.concatenate([[0.0, 0.5, 1.0 - 1e-16], np.linspace(0.0, 1.0, 1001)[:-1],
                             np.random.default_rng(3).uniform(0.0, 1.0, 1000)])
        values = zn.elliptic_E(ms)
        with mpmath.workdps(40):
            for m, value in zip(ms, values):
                exact = float(mpmath.ellipe(mpmath.mpf(float(m))))
                assert abs(value - exact) <= 2.0 * np.spacing(exact)

    def test_each_value_stops_on_its_own(self):
        ms = np.array([0.3, 0.5, 0.9, 0.94211311, 1.0 - 1e-16])
        assert zn.elliptic_E(ms).tolist() == [zn.elliptic_E(m) for m in ms]


class TestFBound:
    def test_degenerate_axes(self):
        assert zn.F_bound(2.0, 0.0) == pytest.approx(4.0 / math.pi ** 2, rel=1e-14)
        assert zn.F_bound(0.0, 3.0) == pytest.approx(3.0 / math.pi, rel=1e-14)

    def test_diagonal_value(self):
        oracle = (2.0 * math.sqrt(2.0) / math.pi ** 2) * elliptic_second_kind_quadrature(0.5)
        assert zn.F_bound(1.0, 1.0) == pytest.approx(oracle, abs=1e-12)
        assert zn.F_bound(1.0, 1.0) == pytest.approx(0.3870669617321277, abs=1e-12)

    def test_origin_takes_the_limit_zero(self):
        assert zn.F_bound(0.0, 0.0) == 0.0
        got = zn.F_bound([0.0, 1.0, 0.0], [0.0, 1.0, 3.0])
        assert got.tolist() == [0.0, zn.F_bound(1.0, 1.0), zn.F_bound(0.0, 3.0)]


class TestSupportFunctionLowerBound:
    def test_axis_values(self):
        assert zn.hL_support([1.0, 0.0, 0.0]) == pytest.approx(TWO_OVER_PI2, rel=1e-14)
        assert zn.hL_support([0.0, 1.0, 0.0]) == pytest.approx(TWO_OVER_PI2, rel=1e-14)
        assert zn.hL_support([0.0, 0.0, 1.0]) == pytest.approx(ONE_OVER_PI, rel=1e-14)

    def test_elliptic_term_dominates(self):
        val = zn.hL_support([1.0, 0.0, 1.0])
        assert val == pytest.approx(zn.F_bound(1.0, 1.0), rel=1e-14)
        assert val > max(TWO_OVER_PI2, ONE_OVER_PI)

    def test_batch(self):
        out = zn.hL_support(np.eye(3))
        assert np.allclose(out, [TWO_OVER_PI2, TWO_OVER_PI2, ONE_OVER_PI])


class TestMembership:
    def test_axis_point_inside(self):
        ok, margin = zn.membership_check(np.array([0.0, 0.0, ONE_OVER_PI]), grid=80)
        assert ok and margin >= -1e-9

    def test_scaled_diagonal_point_inside(self):
        point = 0.73 * np.array([TWO_OVER_PI2, 0.0, ONE_OVER_PI])
        ok, margin = zn.membership_check(point, grid=80)
        assert ok and margin >= 0.0

    def test_far_point_outside(self):
        ok, margin = zn.membership_check(np.array([0.0, 0.0, 2.0]), grid=80)
        assert not ok
        assert margin == pytest.approx(ONE_OVER_PI - 2.0, abs=1e-6)

    def test_negative_point_rejected(self):
        with pytest.raises(ValueError):
            zn.membership_check(np.array([-1.0, 0.0, 0.0]))

    def test_grid_below_two_rejected(self):
        for grid in (1, 0, -5):
            with pytest.raises(ValueError):
                zn.membership_check(np.array([0.0, 0.0, ONE_OVER_PI]), grid=grid)


#: Worst margins of the thirteen membership points in the order of
#: ``membership_points()``, frozen from the 12 Nelder-Mead polishes that
#: the compass search replaced (grid 128).
NELDER_MEAD_MARGINS = [0.0, 0.0, 0.0] + 2 * [
    0.00043113660211244187, 0.00022098881805174275, 0.0008437368595966832,
    8.015148006898509e-05, 0.00011041046239412822]


class TestStackedSearch:
    @pytest.fixture(scope="class")
    def points(self):
        return np.array([point for _, point in zn.membership_points()])

    def test_margins_match_the_nelder_mead_polish(self, points):
        certified, margins = zn.membership_check(points)
        assert certified.all()
        frozen = np.array(NELDER_MEAD_MARGINS)
        assert np.all(margins <= frozen + 1e-15)
        assert np.all(margins >= frozen - 1e-12)

    def test_stack_matches_one_point_at_a_time(self, points):
        points = np.concatenate([points, [[0.0, 0.0, 2.0], [0.3, 0.1, 0.2]]])
        certified, margins = zn.membership_check(points, grid=40)
        for point, ok, margin in zip(points, certified, margins):
            assert zn.membership_check(point, grid=40) == (ok, margin)

    def test_results_take_the_leading_axes_of_the_input(self, points):
        flat = np.concatenate([points[[3, 8]], [[0.0, 0.0, 2.0], [0.3, 0.1, 0.2]]])
        stack = flat.reshape(2, 2, 3)
        h = zn.hL_support(stack)
        certified, margins = zn.membership_check(stack, grid=40)
        assert h.shape == certified.shape == margins.shape == (2, 2)
        flat_ok, flat_margins = zn.membership_check(flat, grid=40)
        assert h.ravel().tolist() == zn.hL_support(flat).tolist()
        assert certified.ravel().tolist() == flat_ok.tolist()
        assert margins.ravel().tolist() == flat_margins.tolist()
        one = zn.membership_check(flat[0], grid=40)
        assert zn.hL_support(flat[0]).shape == one[0].shape == one[1].shape == ()


def test_importing_the_program_leaves_unused_libraries_out():
    # scipy takes ~0.4 s to import, which every command paid at start-up; only the
    # zonoid route needs it, only a worker pool needs multiprocessing, only --entropy secrets
    code = ("import sys\n"
            "from essential_lab import (cli, distributions, geometry, montecarlo, solver,\n"
            "                           verify, zonoid)\n"
            "print(sorted(name for name in sys.modules\n"
            "             if name.partition('.')[0] in ('scipy', 'multiprocessing', 'secrets')))\n"
            "print(zonoid.elliptic_E(0.5) > 1.35, zonoid.build_polytope_P().volume > 0)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(Path(zn.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.split("\n")[:2] == ["[]", "True True"]


class TestPolytope:
    def test_generators_inside_hull(self):
        poly = zn.build_polytope_P()
        worst = -np.inf
        # hull support check: every generator satisfies all facet inequalities
        from scipy.spatial import ConvexHull
        hull = ConvexHull(poly.generators)
        vals = hull.equations[:, :3] @ poly.generators.T + hull.equations[:, 3:]
        worst = vals.max()
        assert worst <= 1e-12

    def test_symmetric_hull(self):
        poly = zn.build_polytope_P(symmetrized=True)
        swapped = poly.vertices[:, [1, 0, 2]]
        for v in swapped:
            dists = np.linalg.norm(poly.vertices - v, axis=1)
            assert dists.min() <= 1e-12

    def test_tetrahedra_fill_volume(self):
        poly = zn.build_polytope_P()
        # signed: every tetrahedron is oriented positively, with no absolute value taken
        vols = np.linalg.det(poly.tetrahedra[:, 1:] - poly.tetrahedra[:, :1]) / 6.0
        assert np.all(vols >= 0.0)
        assert vols.sum() == pytest.approx(poly.volume, rel=1e-12)

    def test_all_scaled_vertices_certified(self):
        poly = zn.build_polytope_P()
        for vertex in poly.vertices:
            if np.allclose(vertex, 0.0):
                continue
            ok, _ = zn.membership_check(zn.AXIS_SCALE * vertex, grid=60)
            assert ok


class TestIntegration:
    def test_unit_cube(self):
        pts = np.array([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)], float)
        poly = zn.Polytope3.from_points(pts)
        assert zn.integrate_rho1rho2(poly) == pytest.approx(0.25, rel=1e-13)

    def test_unit_simplex(self):
        poly = zn.Polytope3.from_points(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0],
                                                  [0, 0, 1]], float))
        assert zn.integrate_rho1rho2(poly) == pytest.approx(
            simplex_monomial_integral((1, 1, 0)), rel=1e-13)

    def test_certified_polytope_values(self):
        lit = zn.integrate_rho1rho2(zn.build_polytope_P(symmetrized=False))
        sym = zn.integrate_rho1rho2(zn.build_polytope_P(symmetrized=True))
        assert sym == pytest.approx(0.0236165, abs=1e-4)   # printed reference value
        assert lit < sym


class TestSupportEstimate:
    def test_zero_direction(self):
        assert support(np.zeros(5), 1000, seed=0).value == 0.0

    def test_first_axis(self):
        est = support(np.eye(5)[0], 300_000, seed=1)
        assert abs(est.value - TWO_OVER_PI2) <= 3.0 * est.stderr

    def test_last_axis(self):
        est = support(np.eye(5)[4], 300_000, seed=2)
        assert abs(est.value - ONE_OVER_PI) <= 3.0 * est.stderr


class TestSupportInvariants:
    def _batched_support(self, xs, z):
        vals = 0.5 * np.abs(xs @ z.T)
        return vals.mean(axis=1), vals.std(axis=1) / math.sqrt(z.shape[0])

    def test_matches_streaming_estimator(self):
        z = dist._z_batch(dist.rng_for(7, 0), 100_000)
        xs = np.eye(5)[:2]
        means, _ = self._batched_support(xs, z)
        for x, mean in zip(xs, means):
            est = support(x, 100_000, seed=7)
            assert est.value == pytest.approx(mean, rel=1e-12)

    def test_sublinearity(self):
        rng = np.random.default_rng(3)
        z = dist._z_batch(dist.rng_for(8, 0), 20_000)
        xs = rng.standard_normal((10_000, 5))
        ys = rng.standard_normal((10_000, 5))
        hx, sx = self._batched_support(xs, z)
        hy, sy = self._batched_support(ys, z)
        hxy, sxy = self._batched_support(xs + ys, z)
        slack = 5.0 * (sx + sy + sxy)
        assert np.all(hxy <= hx + hy + slack)

    def test_dominates_closed_form_lower_bound(self):
        rng = np.random.default_rng(4)
        z = dist._z_batch(dist.rng_for(9, 0), 20_000)
        xs = rng.standard_normal((10_000, 5))
        est, se = self._batched_support(xs, z)
        rho = np.stack([
            np.hypot(xs[:, 0], xs[:, 1]),
            np.hypot(xs[:, 2], xs[:, 3]),
            np.abs(xs[:, 4]),
        ], axis=1)
        lower = zn.hL_support(rho)
        assert np.all(est + 3.0 * se >= lower - 1e-9)


class TestVolumeEstimate:
    def test_matches_reference_mean(self):
        # vol K = E|det Z| / 5!, and the mean count is 5! pi^3/4 vol K
        det = mc.estimate_abs_det(10 ** 6, seed=5)
        vol_k, stderr = det.mean_abs_det / 120.0, det.se_mean / 120.0
        derived = 120.0 * (math.pi ** 3 / 4.0) * vol_k
        assert abs(derived - 3.95) <= 4.0 * 120.0 * (math.pi ** 3 / 4.0) * stderr

    def test_lower_bound_stays_below_solver_mean(self, psi_100k):
        report = zn.zonoid_lower_bound(grid=60)
        assert report.bound <= psi_100k.mean


@pytest.fixture(scope="module")
def lower_bound_report():
    return zn.zonoid_lower_bound(grid=110)


class TestLowerBoundPipeline:
    @pytest.fixture()
    def report(self, lower_bound_report):
        return lower_bound_report

    def test_membership_all_certified(self, report):
        assert report.membership_ok
        assert len(report.memberships) == 13
        assert all(m["margin"] >= -1e-9 for m in report.memberships)

    def test_bound_value(self, report):
        assert report.bound >= 0.93
        expected = 120.0 * (2.0 ** 5 / math.pi ** 4) * report.integral_used
        assert report.bound == pytest.approx(expected, rel=1e-12)

    def test_bound_chain_consistency(self, report):
        assert report.vol_k_lower == pytest.approx(
            (2.0 ** 7 / math.pi ** 7) * report.integral_used, rel=1e-12)
        assert report.integral_used == report.integral_symmetrized

    def test_mutated_scaling_is_flagged(self, monkeypatch):
        bad = (0.73, 0.86, 0.85, 1.2, 0.957)
        monkeypatch.setattr(zn, "LAMBDAS", bad)
        report = zn.zonoid_lower_bound(grid=60)
        assert report.lambdas == bad
        assert not report.membership_ok
        failing = [m for m in report.memberships if not m["certified"]]
        assert failing and all("l4" in m["name"] for m in failing)
