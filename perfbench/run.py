"""Benchmark entry point: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload experiment --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The workload runs in a child process
(``workload.py``), which times whole rounds of operations and writes the
program's outputs under ``.perfbench_out/<workload>/``.  This process then
checks those outputs with ``checks.py``, which does not use the program,
and prints one JSON line: ``correct``, ``attempted``, ``failed`` and the
metrics.  ``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run.  The exit code is 0 only when every
check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("experiment", "solve-planted", "estimators")
OUT_ROOT = ".perfbench_out"
#: The child must end before the run's own 180-second limit.
CHILD_TIMEOUT_S = 170


def end_to_end(result: dict) -> dict:
    def median(key):
        return statistics.median(r[key] for r in result["rounds"])

    return {
        "setup_s": {"value": result["setup_s"], "unit": "s"},
        "wall_s": {"value": median("wall"), "unit": "s"},
        "cpu_s": {"value": median("cpu"), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def check_output(out: dict) -> list:
    kind = out["kind"]
    if kind == "workers":
        if out["exit"] != 0:
            return [f"experiment with 2 workers exited {out['exit']}"]
        return checks.check_worker_identity(checks.load_report(out["one"]),
                                            checks.load_report(out["path"]))
    if kind == "planted":
        with np.load(out["path"]) as data:
            return checks.check_planted(data["rows"], data["planted"], data["counts"],
                                        data["owner"], data["solutions"])
    report = checks.load_report(out["path"])
    if kind == "experiment":
        return checks.check_experiment(report, out["dist"], out["n"], out["seed"])
    if kind == "det":
        return checks.check_det(report, out["n"], out["seed"])
    if kind == "zonoid":
        with open(out["generators"], "r", encoding="utf-8") as handle:
            generators = np.array(json.load(handle))
        return checks.check_zonoid(report, out["exit"], generators)
    if kind == "verify":
        return checks.check_verify(report, out["exit"])
    return [f"unknown output kind {kind!r}"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "essential_lab", "__init__.py")):
        print("error: run from the root of a checkout holding src/essential_lab",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(OUT_ROOT, args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)

    command = [sys.executable, os.path.join(HERE, "workload.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", out_dir]
    spawned_at = time.monotonic()
    try:
        child = subprocess.run(command + ["--spawned-at", repr(spawned_at)],
                               timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload did not end within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 2
    if child.returncode != 0:
        print(f"error: workload process exited {child.returncode}", file=sys.stderr)
        return 2
    with open(os.path.join(out_dir, "result.json"), "r", encoding="utf-8") as handle:
        result = json.load(handle)

    for error in result["errors"]:
        print(error, file=sys.stderr)
    problems = []
    for out in result["outputs"]:
        problems.extend(check_output(out))
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in result["layers"].items()}
    else:
        metrics = end_to_end(result)
    bad = [name for name, m in metrics.items() if not math.isfinite(m["value"])]
    if bad:
        problems.append(f"metrics without a finite value: {bad}")
        print(f"check failed: {problems[-1]}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
