"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The expensive batch
runs (the two 1e5-instance experiments and the 1e7- and 1e6-draw
determinant ensembles) are session fixtures shared with the rest of the suite; every
tolerance is fixed here.
"""

import json
import math

import numpy as np
import pytest

from essential_lab import distributions as dist
from essential_lab import montecarlo as mc
from essential_lab import solver as sv
from essential_lab import verify as vf
from essential_lab import zonoid as zn

from conftest import ACCEPT_SEED
from oracles import (
    elliptic_second_kind_quadrature,
    gap_and_budget,
    planted_instance,
    projective_distance,
)

BOXES55 = [(-5.0, 5.0, -5.0, 5.0)] * 10
# the solver's box mean for BOXES55 in the README: 1e6 instances at seeds 101, 202, ..., 505
BOX55_MEAN = 3.733


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="session")
def det_10m():
    return mc.estimate_abs_det(10_000_000, ACCEPT_SEED)


def test_criterion_01_rotation_invariant_mean(unifg_100k):
    rep = unifg_100k
    odd_bins = [rep.histogram[k] for k in (1, 3, 5, 7, 9)]
    se = rep.se_mean
    ok = (3.90 <= rep.mean <= 4.10 and all(b == 0 for b in odd_bins)
          and rep.failures < 0.001 * rep.n and abs(rep.mean - 4.0) <= 4.0 * se)
    _report(1, ok, f"mean={rep.mean:.4f} in [3.90, 4.10] and within 4 se "
                   f"({4.0 * se:.4f}) of the exact 4, odd bins {odd_bins}, "
                   f"failures={rep.failures}/{rep.n}")


def test_criterion_02_correspondence_mean(psi_100k):
    rep = psi_100k
    ok = 3.80 <= rep.mean <= 4.05
    _report(2, ok, f"mean={rep.mean:.4f} in [3.80, 4.05]")


def test_criterion_03_determinant_estimator(det_10m):
    est = det_10m
    ok = (3.90 <= est.derived_mean <= 4.00) and (7.3 <= est.second_moment <= 7.7)
    _report(3, ok, f"derived mean={est.derived_mean:.4f} in [3.90, 4.00], "
                   f"det second moment={est.second_moment:.3f} in [7.3, 7.7]")


def test_criterion_04_cross_check(psi_100k, det_1m):
    gap, budget = gap_and_budget(psi_100k, det_1m, mc.DET_TO_COUNT)
    ok = gap < 0.1 and gap <= budget
    _report(4, ok, f"solver={psi_100k.mean:.4f} vs determinant={det_1m.derived_mean:.4f}, "
                   f"gap={gap:.4f} < 0.1 (3-sigma budget {budget:.4f})")


def test_criterion_05_rank_two_pencil_average():
    total = squares = 0
    n = 1_000_000
    chunk = 100_000
    for index in range(n // chunk):
        rng = dist.rng_for(ACCEPT_SEED + 5, index)
        counts = sv.pencil_real_root_counts(rng.standard_normal((chunk, 3, 3)),
                                            rng.standard_normal((chunk, 3, 3)))
        total += int(counts.sum())
        squares += int((counts * counts).sum())
    mean = total / n
    se = math.sqrt((n * squares - total * total) / (n * (n - 1)) / n)
    ok = 1.99 <= mean <= 2.01 and abs(mean - 2.0) <= 4.0 * se
    _report(5, ok, f"pencil mean={mean:.4f} in [1.99, 2.01] and within 4 se "
                   f"({4.0 * se:.4f}) of the exact 2 over 1e6 draws")


def test_criterion_06_box_experiment():
    rep = mc.run_experiment("box", 10_000, ACCEPT_SEED, boxes=BOXES55)
    se = rep.se_mean
    ok = (3.64 <= rep.mean <= 3.94 and rep.failures < 0.001 * rep.n
          and abs(rep.mean - BOX55_MEAN) <= 4.0 * se)
    _report(6, ok, f"box mean={rep.mean:.4f} in [3.64, 3.94] and within 4 se "
                   f"({4.0 * se:.4f}) of the measured {BOX55_MEAN}, failures={rep.failures}")


def test_criterion_07_normal_jacobian_constants():
    pose = vf.verify_nj_E(samples=100, seed=ACCEPT_SEED)
    gamma = vf.verify_nj_gamma(seed=ACCEPT_SEED)
    ok = (pose.passed and pose.worst_deviation <= 1e-6
          and gamma.passed and abs(gamma.value - 1 / math.sqrt(8)) <= 1e-5)
    _report(7, ok, f"pose map NJ=0.25 (worst dev {pose.worst_deviation:.2e} <= 1e-6), "
                   f"action NJ={gamma.value:.6f} (target 0.353553 +- 1e-5)")


def test_criterion_08_variety_volume():
    vol, _ = vf.mc_volume_essential(10_000, seed=ACCEPT_SEED)
    expected = 4.0 * math.pi ** 3
    ratio = (0.5 * vol) / vf.VOL_RP5
    ok = abs(vol - expected) <= 0.01 * expected and 3.96 <= ratio <= 4.04
    _report(8, ok, f"vol={vol:.3f} within 1% of 4*pi^3={expected:.3f}, "
                   f"projective ratio={ratio:.4f} in [3.96, 4.04]")


def test_criterion_09_zonoid_pipeline():
    rep = zn.zonoid_lower_bound(grid=128)
    margins_ok = all(m["margin"] >= -1e-9 for m in rep.memberships)
    integral_ok = abs(rep.integral_used - 0.0236165) <= 1e-4
    bound_ok = rep.bound >= 0.93
    rng = np.random.default_rng(ACCEPT_SEED)
    worst = 0.0
    for m in rng.uniform(0.0, 1.0, 1000):
        worst = max(worst, abs(zn.elliptic_E(m) - elliptic_second_kind_quadrature(m)))
    elliptic_ok = worst <= 1e-12
    ok = margins_ok and integral_ok and bound_ok and elliptic_ok
    _report(9, ok, f"13/13 memberships (min margin "
                   f"{min(m['margin'] for m in rep.memberships):.2e} >= -1e-9), "
                   f"I_P={rep.integral_used:.7f} within 1e-4 of 0.0236165, "
                   f"bound={rep.bound:.4f} >= 0.93, elliptic worst err {worst:.2e} <= 1e-12")


def test_criterion_10_planted_pose_recovery():
    recovered = 0
    parity_failures = 0
    odd_counts = 0
    worst = 0.0
    n = 1000
    for index in range(n):
        rng = dist.rng_for(ACCEPT_SEED + 10, index)
        rows, target, _ = planted_instance(rng)
        result = sv.solve_five_point(sv.LinearSpace(rows), rng=rng)
        if result.failed:
            parity_failures += 1
            continue
        if result.real_count % 2:
            odd_counts += 1
            continue
        dists = [projective_distance(s.m.ravel() / np.sqrt(2.0), target)
                 for s in result.solutions]
        best = min(dists)
        worst = max(worst, best)
        if best <= 1e-6:
            recovered += 1
    ok = recovered == n and parity_failures == 0 and odd_counts == 0
    _report(10, ok, f"{recovered}/{n} planted matrices recovered "
                    f"(worst distance {worst:.2e} <= 1e-6), counts all even, "
                    f"{parity_failures} parity failures")


def test_criterion_11_worker_reproducibility():
    configs = [("unifG", None), ("psi", None), ("box", BOXES55)]
    all_ok = True
    details = []
    for name, boxes in configs:
        blobs = []
        for workers in (1, 4, 16):
            rep = mc.run_experiment(name, 256, ACCEPT_SEED + 11, workers=workers,
                                    boxes=boxes)
            payload = rep.to_dict()
            payload.pop("wall_time")
            blobs.append(json.dumps(payload, sort_keys=True).encode())
        identical = blobs[0] == blobs[1] == blobs[2]
        all_ok = all_ok and identical
        details.append(f"{name}:{'byte-identical' if identical else 'MISMATCH'}")
    _report(11, all_ok, "workers {1,4,16} -> " + ", ".join(details))
