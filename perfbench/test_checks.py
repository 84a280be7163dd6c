"""The checkers accept the program's genuine outputs and reject tampered ones.

    python3 -m pytest perfbench/test_checks.py -q

Genuine outputs come from small calls into the program (``src/``); each
test then changes one value the way a fault would and expects the checker
to report it.
"""

import copy
import json
import math
import os
import sys

import numpy as np
import pytest

import checks
from workload import planted_instances

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from essential_lab import montecarlo, solver, verify, zonoid  # noqa: E402


def _envelope(report: dict, config: dict) -> dict:
    return json.loads(json.dumps({"config": config, **report}))


@pytest.fixture(scope="module")
def psi_report():
    rep = montecarlo.run_experiment("psi", 600, 5, workers=1).to_dict()
    return _envelope(rep, {"dist": "psi", "n": 600, "seed": 5})


def test_experiment_accepts_genuine(psi_report):
    assert checks.check_experiment(psi_report, "psi", 600, 5) == []


def test_experiment_rejects_odd_bin(psi_report):
    bad = copy.deepcopy(psi_report)
    bad["histogram"][4] -= 1
    bad["histogram"][3] += 1
    assert any("odd" in p for p in checks.check_experiment(bad, "psi", 600, 5))


def test_experiment_rejects_lost_instance(psi_report):
    bad = copy.deepcopy(psi_report)
    bad["histogram"][2] -= 1
    assert any("sums to" in p for p in checks.check_experiment(bad, "psi", 600, 5))


def test_experiment_rejects_wrong_mean(psi_report):
    bad = copy.deepcopy(psi_report)
    bad["mean"] += 0.01
    assert any("histogram mean" in p for p in checks.check_experiment(bad, "psi", 600, 5))


def test_experiment_rejects_far_mean():
    # Mean 8/3 with 300 instances: more than 5 standard errors from 4.
    hist = [0, 0, 200, 0, 100, 0, 0, 0, 0, 0, 0]
    report = {"config": {"dist": "unifG", "n": 300, "seed": 1}, "histogram": hist,
              "failures": 0, "mean": 8.0 / 3.0, "variance": 800.0 / 900.0 * 300.0 / 299.0}
    assert any("from 4" in p for p in checks.check_experiment(report, "unifG", 300, 1))


def test_worker_identity(psi_report):
    same = copy.deepcopy(psi_report)
    same["wall_time"] += 1.0
    assert checks.check_worker_identity(psi_report, same) == []
    other = copy.deepcopy(psi_report)
    other["histogram"][2] += 1
    assert checks.check_worker_identity(psi_report, other)


@pytest.fixture(scope="module")
def planted():
    rows, target = planted_instances(3, 0, 20)
    counts, owner, sols = [], [], []
    for k in range(len(rows)):
        result = solver.solve_five_point(rows[k], rng=k)
        assert not result.failed
        counts.append(result.real_count)
        for s in result.solutions:
            owner.append(k)
            sols.append(s.m)
    return rows, target, np.array(counts), np.array(owner), np.array(sols)


def test_planted_rows_vanish_on_planted_matrix():
    rows, target = planted_instances(7, 1, 50)
    assert np.max(np.abs(np.einsum("npk,nk->np", rows, target))) < 1e-12
    mats = target.reshape(-1, 3, 3) * math.sqrt(2.0)
    assert np.max(np.abs(checks.cubic_residuals(mats))) < 1e-12


def test_planted_accepts_genuine(planted):
    assert checks.check_planted(*planted) == []


def test_planted_rejects_perturbed_solution(planted):
    rows, target, counts, owner, sols = planted
    bad = sols.copy()
    bad[0, 1, 2] += 1e-6
    assert any("residual" in p for p in checks.check_planted(rows, target, counts, owner, bad))


def test_planted_rejects_missing_planted_matrix(planted):
    rows, target, counts, owner, sols = planted
    keep = owner != 0
    bad_counts = counts.copy()
    bad_counts[0] = 0
    problems = checks.check_planted(rows, target, bad_counts, owner[keep], sols[keep])
    assert any("planted matrix missing" in p for p in problems)
    assert any("odd count or fewer than 2" in p for p in problems)


def test_planted_rejects_odd_count(planted):
    rows, target, counts, owner, sols = planted
    drop = np.flatnonzero(owner == 0)[-1]
    keep = np.arange(len(owner)) != drop
    bad_counts = counts.copy()
    bad_counts[0] -= 1
    problems = checks.check_planted(rows, target, bad_counts, owner[keep], sols[keep])
    assert any("odd count" in p for p in problems)


def test_det_accepts_genuine_and_rejects_wrong_factor():
    report = montecarlo.estimate_abs_det(300_000, 9).to_dict()
    assert checks.check_det(report, 300_000, 9) == []
    bad = dict(report, derived_mean=report["derived_mean"] * 1.001)
    assert any("derived_mean" in p for p in checks.check_det(bad, 300_000, 9))
    shifted = dict(report, mean_abs_det=report["mean_abs_det"] * 1.1,
                   derived_mean=report["derived_mean"] * 1.1)
    assert any("outside" in p for p in checks.check_det(shifted, 300_000, 9))


def test_polytope_integral_closed_forms():
    # integral of x*y over the unit simplex is 1/5! = 1/120; over the unit cube 1/4
    simplex = np.vstack([np.zeros(3), np.eye(3)])
    assert abs(checks.polytope_integral(simplex) - 1.0 / 120.0) < 1e-15
    cube = np.array([[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)], float)
    assert abs(checks.polytope_integral(cube) - 0.25) < 1e-14


@pytest.fixture(scope="module")
def zonoid_report():
    return json.loads(json.dumps(zonoid.zonoid_lower_bound(grid=32).to_dict()))


def test_zonoid_accepts_genuine(zonoid_report):
    generators = zonoid.polytope_generators()
    assert checks.check_zonoid(zonoid_report, 0, generators) == []


def test_zonoid_rejects_wrong_bound(zonoid_report):
    generators = zonoid.polytope_generators()
    bad = dict(zonoid_report, bound=zonoid_report["bound"] * 1.01)
    assert any("does not follow" in p for p in checks.check_zonoid(bad, 0, generators))
    low = dict(zonoid_report, integral_used=zonoid_report["integral_used"] * 0.9)
    problems = checks.check_zonoid(low, 0, generators)
    assert any("recomputed" in p for p in problems)
    assert checks.check_zonoid(zonoid_report, 3, generators)


def test_verify_rejects_wrong_volume_and_constants():
    report = json.loads(json.dumps(verify.run_suite("nj", seed=2)))
    expected = 4.0 * math.pi ** 3
    report["checks"]["volume_essential"] = {"value": expected * 1.001, "passed": True}
    assert checks.check_verify(report, 0) == []
    far = copy.deepcopy(report)
    far["checks"]["volume_essential"]["value"] = expected * 1.02
    assert any("4 pi^3" in p for p in checks.check_verify(far, 0))
    off = copy.deepcopy(report)
    off["checks"]["nj_rotation_action"]["value"] += 1e-4
    assert any("1/sqrt(8)" in p for p in checks.check_verify(off, 0))
    failed = dict(report, passed=False)
    assert checks.check_verify(failed, 3)
