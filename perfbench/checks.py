"""Checks of the program's outputs, computed apart from the program.

Nothing here imports ``essential_lab``.  Every check is a property or an
independent reference: exact values from the paper, standard-error bands
taken from the run's own report (so that they hold on any seed), residuals
recomputed entry by entry, and the polytope integral redone with a
Delaunay decomposition and the closed-form quadratic moment of a
tetrahedron.

Each ``check_*`` function returns a list of problems; an empty list means
the output passed.  Reports are parsed with Python's ``json`` module,
which accepts the bare ``NaN`` that ``verify`` writes.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.spatial import Delaunay

#: Standard errors allowed between an estimate and its exact value.
SIGMAS = 5.0
#: The paper's interval for the correspondence average: 3.95 +- 0.05.
PSI_CENTER, PSI_HALF_WIDTH = 3.95, 0.05
#: Acceptance thresholds of the solver, as documented in its module.
ACCEPT_RESIDUAL = 1e-8
PLANTED_DISTANCE = 1e-6
#: Headroom for recomputing a residual in another summation order.
ROUNDING = 1e-12
ZONOID_MIN_BOUND = 0.93
VOLUME_REL_TOL = 0.01
NJ_POSE, NJ_POSE_TOL = 0.25, 1e-6
NJ_ACTION, NJ_ACTION_TOL = 1.0 / math.sqrt(8.0), 1e-5


def load_report(path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# --- experiment ------------------------------------------------------------

def check_experiment(report: dict, dist: str, n: int, seed: int) -> list:
    """Histogram shape, moments recomputed from it, and the exact value."""
    problems = []
    config = report.get("config", {})
    if (config.get("dist"), config.get("n"), config.get("seed")) != (dist, n, seed):
        problems.append(f"config echo {config} is not ({dist}, {n}, {seed})")
    hist = report["histogram"]
    failures = report["failures"]
    if len(hist) != 11 or any(int(h) != h or h < 0 for h in hist):
        return problems + [f"histogram {hist} is not 11 nonnegative integers"]
    solved = sum(hist)
    if solved != n - failures:
        problems.append(f"histogram sums to {solved}, expected n - failures = {n - failures}")
    odd = {k: hist[k] for k in range(1, 11, 2) if hist[k]}
    if odd:
        problems.append(f"odd real counts in histogram: {odd}")
    if solved < 2:
        return problems + ["fewer than two solved instances"]
    counts = np.arange(11, dtype=float)
    weights = np.asarray(hist, dtype=float)
    mean = float(counts @ weights) / solved
    variance = float(((counts - mean) ** 2) @ weights) / (solved - 1)
    if not _close(report["mean"], mean, 1e-9):
        problems.append(f"mean {report['mean']} differs from histogram mean {mean}")
    if not _close(report["variance"], variance, 1e-9):
        problems.append(f"variance {report['variance']} differs from histogram {variance}")
    se = math.sqrt(variance / solved)
    if dist == "unifG":
        if abs(mean - 4.0) > SIGMAS * se:
            problems.append(f"unifG mean {mean:.4f} is more than 5 se = {SIGMAS * se:.4f} "
                            "from 4")
    elif dist == "psi":
        if abs(mean - PSI_CENTER) > PSI_HALF_WIDTH + SIGMAS * se:
            problems.append(f"psi mean {mean:.4f} outside 3.95 +- (0.05 + 5 se) = "
                            f"3.95 +- {PSI_HALF_WIDTH + SIGMAS * se:.4f}")
    return problems


def strip_wall_time(report: dict) -> bytes:
    payload = dict(report)
    payload.pop("wall_time", None)
    return json.dumps(payload, sort_keys=True).encode()


def check_worker_identity(one: dict, two: dict) -> list:
    """Reports for 1 and 2 workers agree byte for byte apart from wall_time."""
    if strip_wall_time(one) != strip_wall_time(two):
        return ["reports for 1 and 2 workers differ beyond wall_time"]
    return []


# --- planted solves --------------------------------------------------------

def cubic_residuals(mats: np.ndarray) -> np.ndarray:
    """det(E) and the entries of 2 E E^T E - tr(E E^T) E, entry by entry."""
    e = mats
    det = (e[:, 0, 0] * (e[:, 1, 1] * e[:, 2, 2] - e[:, 1, 2] * e[:, 2, 1])
           - e[:, 0, 1] * (e[:, 1, 0] * e[:, 2, 2] - e[:, 1, 2] * e[:, 2, 0])
           + e[:, 0, 2] * (e[:, 1, 0] * e[:, 2, 1] - e[:, 1, 1] * e[:, 2, 0]))
    eet = np.einsum("nik,njk->nij", e, e)
    trace = np.einsum("nii->n", eet)
    mat = 2.0 * np.einsum("nij,njk->nik", eet, e) - trace[:, None, None] * e
    return np.concatenate([det[:, None], mat.reshape(-1, 9)], axis=1)


def check_planted(rows: np.ndarray, planted: np.ndarray, counts: np.ndarray,
                  owner: np.ndarray, solutions: np.ndarray) -> list:
    """Every planted solve: planted matrix found, residuals small, count even.

    ``rows`` (m, 5, 9) are the linear equations, ``planted`` (m, 9) the
    unit planted matrices, ``counts`` (m,) the reported real counts, and
    ``solutions`` (s, 3, 3) every returned solution with ``owner`` (s,)
    the instance it belongs to.
    """
    problems = []
    m = rows.shape[0]
    if np.any(counts % 2) or np.any(counts < 2):
        bad = np.flatnonzero((counts % 2) | (counts < 2))
        problems.append(f"{bad.size} instances with odd count or fewer than 2, e.g. "
                        f"#{bad[0]} count {counts[bad[0]]}")
    if np.any(np.bincount(owner, minlength=m) != counts):
        problems.append("number of solutions differs from the reported count")
    if solutions.shape[0] == 0:
        return problems + ["no solutions returned"]

    # Half-trace norm 1 means Frobenius norm sqrt(2); compare as unit 9-vectors.
    flat = solutions.reshape(-1, 9)
    units = flat / np.linalg.norm(flat, axis=1, keepdims=True)
    half_trace = 0.5 * np.sum(flat * flat, axis=1)
    if np.max(np.abs(half_trace - 1.0)) > 1e-9:
        problems.append("a solution does not have half-trace norm 1")

    unit_rows = rows / np.linalg.norm(rows, axis=2, keepdims=True)
    linear = np.abs(np.einsum("sk,sjk->sj", units, unit_rows[owner]))
    cubic = np.abs(cubic_residuals(units.reshape(-1, 3, 3) * math.sqrt(2.0)))
    worst_linear = float(linear.max())
    worst_cubic = float(cubic.max())
    if worst_linear > ACCEPT_RESIDUAL + ROUNDING:
        problems.append(f"linear residual {worst_linear:.3e} above {ACCEPT_RESIDUAL:.0e}")
    if worst_cubic > ACCEPT_RESIDUAL + ROUNDING:
        problems.append(f"cubic residual {worst_cubic:.3e} above {ACCEPT_RESIDUAL:.0e}")

    gap = np.minimum(np.linalg.norm(units - planted[owner], axis=1),
                     np.linalg.norm(units + planted[owner], axis=1))
    best = np.full(m, np.inf)
    np.minimum.at(best, owner, gap)
    missed = np.flatnonzero(best > PLANTED_DISTANCE)
    if missed.size:
        problems.append(f"planted matrix missing in {missed.size} of {m} instances, "
                        f"e.g. #{missed[0]} at distance {best[missed[0]]:.3e}")
    return problems


# --- estimators ------------------------------------------------------------

DET_TO_COUNT = math.pi ** 3 / 4.0


def check_det(report: dict, n: int, seed: int) -> list:
    problems = []
    if (report.get("n"), report.get("seed")) != (n, seed):
        problems.append(f"det report is for n={report.get('n')}, seed={report.get('seed')}")
    derived = DET_TO_COUNT * report["mean_abs_det"]
    if not _close(report["derived_mean"], derived):
        problems.append(f"derived_mean {report['derived_mean']} != pi^3/4 * mean_abs_det "
                        f"= {derived}")
    se = DET_TO_COUNT * report["se_mean"]
    if not 0.0 < se < 1.0:
        problems.append(f"implausible standard error {se}")
    if abs(derived - PSI_CENTER) > PSI_HALF_WIDTH + SIGMAS * se:
        problems.append(f"derived mean {derived:.4f} outside 3.95 +- (0.05 + 5 se) = "
                        f"3.95 +- {PSI_HALF_WIDTH + SIGMAS * se:.4f}")
    return problems


def tetra_moment_xy(tets: np.ndarray) -> np.ndarray:
    """Exact integral of x*y over each tetrahedron (t, 4, 3).

    For a 3-simplex of volume V with vertices v_i,
    ``int x_a x_b = V/20 * (sum_i v_ia v_ib + (sum_i v_ia)(sum_i v_ib))``.
    """
    vols = np.abs(np.linalg.det(tets[:, 1:] - tets[:, :1])) / 6.0
    x, y = tets[:, :, 0], tets[:, :, 1]
    return vols / 20.0 * (np.sum(x * y, axis=1) + x.sum(axis=1) * y.sum(axis=1))


def polytope_integral(generators: np.ndarray) -> float:
    """Integral of rho1 * rho2 over the convex hull, via Delaunay."""
    generators = np.asarray(generators, dtype=float)
    tri = Delaunay(generators)
    return float(tetra_moment_xy(generators[tri.simplices]).sum())


#: Factors of the bound chain: 5! pi^3/4 * 2 (2 pi)^2 * (2/pi^2)^4 / pi.
COUNT_FROM_VOLUME = 120.0 * math.pi ** 3 / 4.0
FIBERS = 2.0 * (2.0 * math.pi) ** 2
SCALING = (2.0 / math.pi ** 2) ** 4 / math.pi


def check_zonoid(report: dict, exit_code: int, generators: np.ndarray) -> list:
    problems = []
    if exit_code != 0:
        problems.append(f"zonoid exited {exit_code}")
    if not report["membership_ok"] or any(m["margin"] < -1e-9 for m in report["memberships"]):
        problems.append("a membership point is not certified")
    integral = polytope_integral(generators)
    if not _close(report["integral_used"], integral, 1e-9):
        problems.append(f"integral_used {report['integral_used']} != recomputed {integral}")
    vol_k = FIBERS * SCALING * report["integral_used"]
    bound = COUNT_FROM_VOLUME * vol_k
    if not _close(report["vol_k_lower"], vol_k) or not _close(report["bound"], bound):
        problems.append(f"bound {report['bound']} does not follow from integral_used "
                        f"(recomputed {bound})")
    if report["bound"] < ZONOID_MIN_BOUND:
        problems.append(f"bound {report['bound']:.4f} below {ZONOID_MIN_BOUND}")
    return problems


def check_verify(report: dict, exit_code: int) -> list:
    problems = []
    if exit_code != 0 or not report.get("passed"):
        problems.append(f"verify did not pass (exit {exit_code})")
    checks = report.get("checks", {})
    try:
        volume = checks["volume_essential"]["value"]
        pose = checks["nj_pose_map"]
        action = checks["nj_rotation_action"]
    except KeyError as exc:
        return problems + [f"verify report lacks {exc}"]
    exact_volume = 4.0 * math.pi ** 3
    if not abs(volume - exact_volume) <= VOLUME_REL_TOL * exact_volume:
        problems.append(f"volume {volume} not within 1% of 4 pi^3")
    if not (abs(pose["value"] - NJ_POSE) <= NJ_POSE_TOL
            and pose["worst_deviation"] <= NJ_POSE_TOL):
        problems.append(f"pose-map normal Jacobian {pose['value']} is not 1/4")
    if not (abs(action["value"] - NJ_ACTION) <= NJ_ACTION_TOL
            and action["worst_deviation"] <= NJ_ACTION_TOL):
        problems.append(f"action normal Jacobian {action['value']} is not 1/sqrt(8)")
    return problems
