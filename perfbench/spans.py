"""Spans around the program's public functions, and the layer metrics.

A :class:`Tracer` replaces module attributes of ``essential_lab`` and
``numpy.linalg``, and three methods of ``LinearSpace`` and
``EssentialMatrix``, with wrappers that record one span
per call: name, parent span, operation, round, start and end.  The spans
stay in memory while the rounds run; :meth:`Tracer.write` saves them and
:func:`layer_metrics` derives the per-layer figures from them.

A span's self time is its duration minus the durations of its direct
children that belong to the program.  ``numpy.linalg`` spans are not a
layer of the program: their time stays in the self time of the caller,
and they are counted and summed on their own.
"""

from __future__ import annotations

import csv
import time

import numpy as np

LINALG = ("svd", "eig", "solve", "det", "norm", "qr", "pinv")

#: Spans under which numpy.linalg calls count as solver work.
SOLVER_SCOPE = ("solver.solve_five_point", "solver.LinearSpace")
#: The solver's |Im| filter on eigen candidates (``solver.REAL_IMAG_TOL``).
REAL_IMAG_TOL = 1e-6


def _targets(lab):
    """(owner, attribute, span name) for every traced entry point."""
    cli, dists, geometry, mc, solver, verify, zonoid = (
        lab.cli, lab.distributions, lab.geometry, lab.montecarlo, lab.solver,
        lab.verify, lab.zonoid)
    out = [
        (cli, "dispatch", "cli.dispatch"),
        (mc, "run_experiment", "montecarlo.run_experiment"),
        (mc, "estimate_abs_det", "montecarlo.estimate_abs_det"),
        (dists, "rng_for", "distributions.rng_for"),
        (dists, "sample_unifG", "distributions.sample_unifG"),
        (dists, "sample_psi", "distributions.sample_psi"),
        (dists, "sample_z_matrices", "distributions.sample_z_matrices"),
        (solver.LinearSpace, "__post_init__", "solver.LinearSpace"),
        (solver, "solve_five_point", "solver.solve_five_point"),
        (mc, "solve_five_point", "solver.solve_five_point"),
        (solver, "nullspace_basis", "solver.nullspace_basis"),
        (solver, "build_constraint_matrix", "solver.build_constraint_matrix"),
        (solver, "action_matrix", "solver.action_matrix"),
        (solver, "eigen_candidates", "solver.eigen_candidates"),
        (solver, "validate_and_count", "solver.validate_and_count"),
        (geometry.EssentialMatrix, "__post_init__", "geometry.EssentialMatrix"),
        (geometry.EssentialMatrix, "trusted", "geometry.EssentialMatrix"),
        (zonoid, "zonoid_lower_bound", "zonoid.zonoid_lower_bound"),
        (zonoid, "membership_check", "zonoid.membership_check"),
        (zonoid, "build_polytope_P", "zonoid.build_polytope_P"),
        (zonoid, "integrate_rho1rho2", "zonoid.integrate_rho1rho2"),
        (verify, "run_suite", "verify.run_suite"),
        (verify, "verify_nj_E", "verify.verify_nj_E"),
        (verify, "verify_nj_gamma", "verify.verify_nj_gamma"),
        (verify, "verify_quadric_param_nj", "verify.verify_quadric_param_nj"),
        (verify, "mc_volume_essential", "verify.mc_volume_essential"),
        (verify, "verify_detAAT_identity", "verify.verify_detAAT_identity"),
        (verify, "verify_detB_identity", "verify.verify_detB_identity"),
    ]
    out.extend((np.linalg, name, f"linalg.{name}") for name in LINALG)
    return out


def _keep_retries(args, kwargs, result):
    return result.retries


def _keep_validation(args, kwargs, result):
    candidates = args[0] if args else kwargs["candidates"]
    return candidates, 0 if result.failed else result.real_count


def _keep_draws(args, kwargs, result):
    return 5 * (args[1] if len(args) > 1 else kwargs["n"])


def _keep_n(args, kwargs, result):
    return result.n


_KEEP = {
    "solver.solve_five_point": _keep_retries,
    "solver.validate_and_count": _keep_validation,
    "distributions.sample_z_matrices": _keep_draws,
    "montecarlo.estimate_abs_det": _keep_n,
    "montecarlo.run_experiment": _keep_n,
}


class Tracer:
    """Records spans while installed; :meth:`uninstall` restores the program."""

    def __init__(self, lab):
        self.lab = lab
        self.spans = []      # [name, parent, op, round, start, end, kept]
        self.stack = []
        self.op = 0
        self.round = 0
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        keep = _KEEP.get(name)

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, self.op, self.round, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[4] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = clock()
                stack.pop()
            if keep is not None:
                span[6] = keep(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name in _targets(self.lab):
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(name, original.__func__))
            else:
                wrapped = self._wrap(name, original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["span", "parent", "op", "round", "name", "start_s", "end_s"])
            for index, (name, parent, op, rnd, start, end, _) in enumerate(self.spans):
                writer.writerow([index, parent, op, rnd, name, f"{start:.9f}", f"{end:.9f}"])


def layer_metrics(spans) -> dict:
    """Per-layer figures from a list of recorded spans.

    Times use every span.  Counts and ratios use the spans of round 0
    only, whose inputs are fixed by the seed, so that they repeat exactly.
    """
    n = len(spans)
    names = [s[0] for s in spans]
    name_arr = np.array(names)
    parent = np.array([s[1] for s in spans], dtype=np.int64)
    rounds = np.array([s[3] for s in spans], dtype=np.int64)
    dur = np.array([s[5] - s[4] for s in spans])
    is_linalg = np.char.startswith(name_arr, "linalg.")

    child_time = np.zeros(n)
    has_parent = (parent >= 0) & ~is_linalg
    np.add.at(child_time, parent[has_parent], dur[has_parent])
    self_time = dur - child_time

    in_solver = np.zeros(n, dtype=bool)
    for i, name in enumerate(names):
        in_solver[i] = name in SOLVER_SCOPE or (parent[i] >= 0 and in_solver[parent[i]])

    by_name = {}
    for i, name in enumerate(names):
        by_name.setdefault(name, []).append(i)

    def idx(name, round0=False):
        found = np.array(by_name.get(name, []), dtype=np.int64)
        return found[rounds[found] == 0] if round0 else found

    def total_self(*names_):
        return float(sum(self_time[idx(name)].sum() for name in names_))

    def mean_self(name):
        found = idx(name)
        return float(self_time[found].mean()) if found.size else float("nan")

    def per_call(total, calls):
        return total / calls if calls else float("nan")

    solves = idx("solver.solve_five_point")
    n_solves = solves.size
    solves0 = idx("solver.solve_five_point", round0=True)
    n_solves0 = solves0.size
    linalg_solver = is_linalg & in_solver
    linalg_solver0 = linalg_solver & (rounds == 0)

    def linalg_count(name):
        return per_call(int(np.sum(linalg_solver0 & (name_arr == name))), n_solves0)

    retries = sum(spans[i][6] for i in solves0)
    realish = accepted = 0
    for i in idx("solver.validate_and_count", round0=True):
        candidates, kept = spans[i][6]
        triples = np.asarray(candidates.triples)
        finite = np.all(np.isfinite(triples), axis=1)
        imag = np.max(np.abs(np.where(np.isfinite(triples), triples, 0).imag), axis=1)
        realish += int(np.sum(finite & (imag <= REAL_IMAG_TOL)))
        accepted += kept

    experiment_instances = sum(spans[i][6] for i in idx("montecarlo.run_experiment"))
    draws_z = sum(spans[i][6] for i in idx("distributions.sample_z_matrices"))
    det_draws = sum(spans[i][6] for i in idx("montecarlo.estimate_abs_det"))
    lower_bounds = idx("zonoid.zonoid_lower_bound")
    suites = idx("verify.run_suite")

    def inclusive_per(names_, calls):
        return per_call(float(sum(dur[idx(name)].sum() for name in names_)), calls)

    solve_us = dur[solves] * 1e6
    return {
        "distributions.rng_for_us": (mean_self("distributions.rng_for") * 1e6, "us"),
        "distributions.sample_unifG_us": (mean_self("distributions.sample_unifG") * 1e6, "us"),
        "distributions.sample_psi_us": (mean_self("distributions.sample_psi") * 1e6, "us"),
        "distributions.sample_z_ns_per_draw": (
            per_call(total_self("distributions.sample_z_matrices"), draws_z) * 1e9, "ns"),
        "solver.linear_space_us": (mean_self("solver.LinearSpace") * 1e6, "us"),
        "solver.nullspace_us": (
            per_call(total_self("solver.nullspace_basis"), n_solves) * 1e6, "us"),
        "solver.constraint_us": (
            per_call(total_self("solver.build_constraint_matrix"), n_solves) * 1e6, "us"),
        "solver.action_us": (per_call(total_self("solver.action_matrix"), n_solves) * 1e6, "us"),
        "solver.eig_us": (per_call(total_self("solver.eigen_candidates"), n_solves) * 1e6, "us"),
        "solver.validate_us": (
            per_call(total_self("solver.validate_and_count"), n_solves) * 1e6, "us"),
        "solver.solve_p50_us": (
            float(np.percentile(solve_us, 50)) if n_solves else float("nan"), "us"),
        "solver.solve_p99_us": (
            float(np.percentile(solve_us, 99)) if n_solves else float("nan"), "us"),
        "geometry.essential_matrix_us": (
            per_call(total_self("geometry.EssentialMatrix"), n_solves) * 1e6, "us"),
        "solver.svd_calls_per_instance": (linalg_count("linalg.svd"), "count"),
        "solver.eig_calls_per_instance": (linalg_count("linalg.eig"), "count"),
        "solver.linalg_calls_per_instance": (
            per_call(int(linalg_solver0.sum()), n_solves0), "count"),
        "solver.linalg_us_per_instance": (
            per_call(float(dur[linalg_solver].sum()), n_solves) * 1e6, "us"),
        "solver.retries_per_1k": (per_call(1000.0 * retries, n_solves0), "count"),
        "solver.realish_per_instance": (per_call(realish, n_solves0), "count"),
        "solver.accepted_per_realish": (per_call(accepted, realish), "ratio"),
        "montecarlo.orchestration_us_per_instance": (
            per_call(total_self("montecarlo.run_experiment"), experiment_instances) * 1e6,
            "us"),
        "montecarlo.det_ns_per_draw": (
            per_call(total_self("montecarlo.estimate_abs_det"), det_draws) * 1e9, "ns"),
        "zonoid.membership_ms": (mean_self("zonoid.membership_check") * 1e3, "ms"),
        "zonoid.polytope_ms": (
            per_call(total_self("zonoid.build_polytope_P", "zonoid.integrate_rho1rho2"),
                     lower_bounds.size) * 1e3, "ms"),
        "zonoid.lower_bound_s": (inclusive_per(["zonoid.zonoid_lower_bound"],
                                               lower_bounds.size), "s"),
        "verify.nj_s": (inclusive_per(["verify.verify_nj_E", "verify.verify_nj_gamma",
                                       "verify.verify_quadric_param_nj"], suites.size), "s"),
        "verify.volume_s": (inclusive_per(["verify.mc_volume_essential"], suites.size), "s"),
        "verify.identities_s": (inclusive_per(["verify.verify_detAAT_identity",
                                               "verify.verify_detB_identity"],
                                              suites.size), "s"),
        "cli.overhead_ms": (mean_self("cli.dispatch") * 1e3, "ms"),
    }

