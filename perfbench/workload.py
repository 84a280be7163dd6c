"""One benchmark run of one workload, in a fresh process.

``run.py`` starts this script and reads back ``result.json`` from the
output directory.  The script imports the program from ``src/`` of the
current directory, warms it up, then runs whole rounds of the workload's
operations until ``--seconds`` are spent, timing each round.  Round ``r``
draws its inputs from ``(seed, r)``.  With ``--trace 1`` it runs the rounds once
untraced and once traced on the same inputs, then one traced round of each
other workload, so that every layer metric is measured.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np

#: Instances per distribution in one experiment round: three solver
#: chunks of the program (512 each), so the worker-count check spans
#: several chunks.
EXPERIMENT_N = 1100
#: Planted instances solved in one round.
PLANTED_N = 1000
#: Determinant draws per round: four of the program's 250k-draw chunks.
DET_N = 1_000_000


def round_seed(seed: int, rnd: int) -> int:
    return seed * 10_000 + rnd


def cpu_seconds() -> float:
    """User plus system time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Workload:
    """Rounds of operations on the program; subclasses define one round."""

    name = ""

    def __init__(self, lab, out_dir: str, seed: int):
        self.lab = lab
        self.out_dir = out_dir
        self.seed = seed
        self.outputs = []        # what run.py checks, one dict per output
        self.errors = []
        self.tracer = None

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, f"{self.name}-{name}")

    def dispatch(self, argv) -> int:
        """One CLI operation; an exception counts as a failed operation."""
        if self.tracer is not None:
            self.tracer.op += 1
        try:
            return self.lab.cli.dispatch([str(a) for a in argv])
        except Exception:  # the operation boundary: record and go on
            self.errors.append(traceback.format_exc())
            return -1

    def warm_up(self) -> None:
        raise NotImplementedError

    def prepare(self, rnd: int) -> None:
        """Build the round's inputs, outside the timed section."""

    def run(self, rnd: int) -> tuple:
        """Run one round; return (attempted, failed)."""
        raise NotImplementedError

    def record(self, rnd: int) -> None:
        """Keep the round's outputs for the checks, outside the timed section."""

    def finish(self) -> None:
        """Untimed work after the rounds, such as outputs for the checks."""


class Experiment(Workload):
    """CLI experiments for unifG and psi, one worker, reports to files."""

    name = "experiment"
    dists = ("unifG", "psi")

    def warm_up(self):
        for dist in self.dists:
            self.dispatch(["experiment", "--dist", dist, "--n", 2, "--seed", 0,
                           "--workers", 1, "--out", self.path(f"warmup-{dist}.json")])

    def run(self, rnd):
        failed = [self.experiment(dist, rnd) for dist in self.dists]
        return len(failed), sum(failed)

    def experiment(self, dist, rnd):
        seed = round_seed(self.seed, rnd)
        out = self.path(f"r{rnd}-{dist}.json")
        code = self.dispatch(["experiment", "--dist", dist, "--n", EXPERIMENT_N,
                              "--seed", seed, "--workers", 1, "--out", out])
        if code == 0:
            self.outputs.append({"kind": "experiment", "path": out, "dist": dist,
                                 "n": EXPERIMENT_N, "seed": seed})
        return code != 0

    def finish(self):
        seed = round_seed(self.seed, 0)
        for dist in self.dists:
            out = self.path(f"workers2-{dist}.json")
            code = self.dispatch(["experiment", "--dist", dist, "--n", EXPERIMENT_N,
                                  "--seed", seed, "--workers", 2, "--out", out])
            self.outputs.append({"kind": "workers", "exit": code, "path": out,
                                 "one": self.path(f"r0-{dist}.json")})


def haar_rotations(rng: np.random.Generator, n: int) -> np.ndarray:
    """Rotations from uniform unit quaternions (not the program's QR sampler)."""
    q = rng.standard_normal((n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    w, x, y, z = q.T
    return np.stack([
        np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], -1),
        np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], -1),
        np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], -1),
    ], axis=1)


def planted_instances(seed: int, rnd: int, n: int):
    """Five correspondences on a known essential matrix, per instance.

    A pose (R, t) has a Haar rotation and a uniform unit translation; five
    world points X are standard normal.  With u = R X + t and v = X,
    u^T [t]_x R v = 0, so each row vec(u v^T) vanishes on E = [t]_x R.
    Returns the rows (n, 5, 9) and the unit vectorized E (n, 9).
    """
    rng = np.random.default_rng([seed, rnd])
    rot = haar_rotations(rng, n)
    t = rng.standard_normal((n, 3))
    t /= np.linalg.norm(t, axis=1, keepdims=True)
    cross = np.zeros((n, 3, 3))
    cross[:, 0, 1], cross[:, 0, 2], cross[:, 1, 2] = -t[:, 2], t[:, 1], -t[:, 0]
    cross -= cross.transpose(0, 2, 1)
    e = (cross @ rot).reshape(n, 9)
    x = rng.standard_normal((n, 5, 3))
    u = np.einsum("nij,npj->npi", rot, x) + t[:, None, :]
    u /= np.linalg.norm(u, axis=2, keepdims=True)
    v = x / np.linalg.norm(x, axis=2, keepdims=True)
    rows = np.einsum("npi,npj->npij", u, v).reshape(n, 5, 9)
    return rows, e / np.linalg.norm(e, axis=1, keepdims=True)


class SolvePlanted(Workload):
    """Library calls of solve_five_point, one planted instance per call."""

    name = "solve-planted"

    def __init__(self, lab, out_dir, seed):
        super().__init__(lab, out_dir, seed)
        self.rows = self.planted = None
        self.results = []

    def warm_up(self):
        rows, _ = planted_instances(0, 0, 1)
        self.lab.solver.solve_five_point(rows[0], rng=0)

    def prepare(self, rnd):
        self.rows, self.planted = planted_instances(self.seed, rnd, PLANTED_N)
        self.results = []

    def run(self, rnd):
        solve = self.lab.solver.solve_five_point
        failed = 0
        for k in range(PLANTED_N):
            if self.tracer is not None:
                self.tracer.op += 1
            try:
                result = solve(self.rows[k], rng=k)
            except Exception:  # the operation boundary: record and go on
                self.errors.append(traceback.format_exc())
                result = None
            failed += result is None or result.failed
            self.results.append(result)
        return PLANTED_N, failed

    def record(self, rnd):
        solved = [k for k, result in enumerate(self.results)
                  if result is not None and not result.failed]
        owner = [i for i, k in enumerate(solved) for _ in self.results[k].solutions]
        solutions = [s.m for k in solved for s in self.results[k].solutions]
        out = self.path(f"r{rnd}.npz")
        np.savez(out, rows=self.rows[solved], planted=self.planted[solved],
                 counts=np.array([self.results[k].real_count for k in solved], dtype=np.int64),
                 owner=np.array(owner, dtype=np.int64),
                 solutions=np.array(solutions).reshape(-1, 3, 3))
        self.outputs.append({"kind": "planted", "path": out})
        self.results = []


class Estimators(Workload):
    """CLI det, zonoid and verify --suite all: the routes without the solver."""

    name = "estimators"

    def warm_up(self):
        self.dispatch(["det", "--n", 1000, "--seed", 0,
                       "--out", self.path("warmup-det.json")])

    def run(self, rnd):
        failed = [self.det(rnd), self.zonoid(rnd), self.verify(rnd)]
        return len(failed), sum(failed)

    def det(self, rnd):
        seed = round_seed(self.seed, rnd)
        out = self.path(f"r{rnd}-det.json")
        code = self.dispatch(["det", "--n", DET_N, "--seed", seed, "--out", out])
        if code == 0:
            self.outputs.append({"kind": "det", "path": out, "n": DET_N, "seed": seed})
        return code != 0

    # zonoid and verify exit 3 when their own check fails; the report is
    # still written, and run.py rejects it.
    def zonoid(self, rnd):
        out = self.path(f"r{rnd}-zonoid.json")
        code = self.dispatch(["zonoid", "--out", out])
        if code in (0, 3):
            self.outputs.append({"kind": "zonoid", "path": out, "exit": code,
                                 "generators": self.path("generators.json")})
        return code != 0

    def verify(self, rnd):
        out = self.path(f"r{rnd}-verify.json")
        code = self.dispatch(["verify", "--suite", "all", "--seed", round_seed(self.seed, rnd),
                              "--out", out])
        if code in (0, 3):
            self.outputs.append({"kind": "verify", "path": out, "exit": code})
        return code != 0

    def finish(self):
        with open(self.path("generators.json"), "w", encoding="utf-8") as handle:
            json.dump(self.lab.zonoid.polytope_generators().tolist(), handle)


WORKLOADS = {cls.name: cls for cls in (Experiment, SolvePlanted, Estimators)}


def run_rounds(workload: Workload, seconds: float, counts: list, tracer=None) -> list:
    """Whole rounds until the next one would end after ``seconds``.

    Returns the wall and CPU seconds of each round; adds each round's
    attempted and failed operations to ``counts``.
    """
    rounds = []
    start = time.perf_counter()
    rnd = 0
    while True:
        workload.prepare(rnd)
        if tracer is not None:
            tracer.round = rnd
            tracer.install()
        workload.tracer = tracer
        try:
            wall0, cpu0 = time.perf_counter(), cpu_seconds()
            attempted, failed = workload.run(rnd)
            wall1, cpu1 = time.perf_counter(), cpu_seconds()
        finally:
            if tracer is not None:
                tracer.uninstall()
            workload.tracer = None
        workload.record(rnd)
        counts[0] += attempted
        counts[1] += failed
        rounds.append({"wall": wall1 - wall0, "cpu": cpu1 - cpu0})
        rnd += 1
        typical = statistics.median(r["wall"] for r in rounds)
        if time.perf_counter() - start + typical > seconds:
            return rounds


def import_program():
    """Import essential_lab from src/ of the current directory, nowhere else."""
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    lab = importlib.import_module("essential_lab")
    for module in ("cli", "distributions", "geometry", "montecarlo", "solver",
                   "verify", "zonoid"):
        importlib.import_module(f"essential_lab.{module}")
    if not os.path.abspath(lab.__file__).startswith(src + os.sep):
        raise ImportError(f"essential_lab was imported from {lab.__file__}, not {src}")
    return lab


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    args = parser.parse_args()

    lab = import_program()
    workload = WORKLOADS[args.workload](lab, args.out_dir, args.seed)
    workload.warm_up()
    setup_s = time.monotonic() - args.spawned_at

    counts = [0, 0]
    result = {"setup_s": setup_s}
    if not args.trace:
        result["rounds"] = run_rounds(workload, args.seconds, counts)
        result["peak_rss_mb"] = peak_rss_mb()
        workloads = [workload]
    else:
        from spans import Tracer, layer_metrics

        others = [cls(lab, args.out_dir, args.seed) for name, cls in sorted(WORKLOADS.items())
                  if name != args.workload]
        for other in others:
            other.warm_up()
        tracer = Tracer(lab)
        plain = run_rounds(workload, args.seconds / 2, counts)
        traced = run_rounds(workload, args.seconds / 2, counts, tracer)
        for other in others:
            run_rounds(other, 0.0, counts, tracer)
        tracer.write(os.path.join(args.out_dir, "trace.csv"))
        metrics = layer_metrics(tracer.spans)
        metrics["trace.overhead_s"] = (statistics.median(r["wall"] for r in traced)
                                       - statistics.median(r["wall"] for r in plain), "s")
        result["layers"] = metrics
        workloads = [workload] + others

    for each in workloads:
        each.finish()
    result["attempted"], result["failed"] = counts
    # traced rounds rewrite the files of untraced rounds on the same inputs
    outputs = {out["path"]: out for each in workloads for out in each.outputs}
    result["outputs"] = list(outputs.values())
    result["errors"] = [err for each in workloads for err in each.errors]
    with open(os.path.join(args.out_dir, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
