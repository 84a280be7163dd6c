"""Command-line front end; all output machine-readable JSON (or CSV histograms).

Exit codes: 0 success, 1 usage error, 2 validation or I/O failure,
3 a verification or bound check did not pass.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys

import numpy as np

from . import __version__
from . import distributions as dists
from . import montecarlo as mc
from . import verify as vf
from . import zonoid as zn
from .errors import EssentialLabError
from .solver import LinearSpace, solve_five_point

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_CHECK = 3

#: Fixed default seed so command-line runs reproduce in CI; pass --entropy
#: to draw a fresh one instead.
DEFAULT_SEED = 42


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="essential-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one instance file")
    solve.add_argument("--input", required=True, help="instance JSON path")
    solve.add_argument("--seed", type=int, default=DEFAULT_SEED)
    solve.add_argument("--retries", type=int, default=5)
    solve.add_argument("--out", default=None)

    exp = sub.add_parser("experiment", help="batch experiment over a distribution")
    exp.add_argument("--dist", required=True, choices=["unifG", "psi", "box"])
    exp.add_argument("--n", type=int, required=True)
    exp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    exp.add_argument("--entropy", action="store_true",
                     help="use a fresh random seed instead of the fixed default")
    exp.add_argument("--workers", type=int, default=1)
    exp.add_argument("--boxes", default=None, help="JSON file with box config")
    exp.add_argument("--out", default=None)
    exp.add_argument("--format", choices=["json", "csv"], default="json")

    det = sub.add_parser("det", help="determinant-ensemble estimator")
    det.add_argument("--n", type=int, required=True)
    det.add_argument("--seed", type=int, default=DEFAULT_SEED)
    det.add_argument("--entropy", action="store_true")
    det.add_argument("--out", default=None)

    zon = sub.add_parser("zonoid", help="support-body lower-bound pipeline")
    zon.add_argument("--grid", type=int, default=128)
    zon.add_argument("--out", default=None)

    ver = sub.add_parser("verify", help="numerical verification suite")
    ver.add_argument("--suite", choices=["all", "nj", "volumes", "identities"],
                     default="all")
    ver.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ver.add_argument("--out", default=None)
    return parser


def _numbers(value, depth: int) -> bool:
    """Whether a JSON value is a list nested ``depth`` deep around finite numbers.

    A number beyond the float range fails: an integer too large for a
    float, NaN and the infinities.  So do ``true`` and ``false``, which
    Python reads as ``bool``, a subclass of ``int``.
    """
    if depth == 0:
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and abs(value) <= sys.float_info.max)
    return isinstance(value, list) and all(_numbers(item, depth - 1) for item in value)


def load_instance(path: str) -> LinearSpace:
    """Read an instance file of rows or correspondences; ValueError if it has another shape."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError("instance file needs a JSON object")
    if "rows" in data:
        if not _numbers(data["rows"], 2):
            raise ValueError("'rows' must be a list of lists of finite numbers")
        return LinearSpace(np.asarray(data["rows"], dtype=float))
    if "correspondences" in data:
        entries = data["correspondences"]
        if not (isinstance(entries, list) and len(entries) == 5 and all(
                isinstance(c, dict) and _numbers(c.get(k), 1) and len(c[k]) == 3
                for c in entries for k in ("u", "v"))):
            raise ValueError("'correspondences' must be five {'u': [3 finite numbers], "
                             "'v': [3 finite numbers]}")
        points = np.array([c[k] for c in entries for k in ("u", "v")], dtype=float)
        if not np.all(np.any(points != 0.0, axis=1)):
            raise ValueError("a correspondence point is the zero vector")
        return LinearSpace(dists._pair_rows(dists._unit(points)))
    raise ValueError("instance file needs 'rows' or 'correspondences'")


def load_boxes(path: str):
    """Read a box config ``{"boxes": [[a, b, c, d] x10]}``; ValueError if it has another shape."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    entries = data.get("boxes") if isinstance(data, dict) else None
    if not (_numbers(entries, 2) and len(entries) == 10
            and all(len(entry) == 4 for entry in entries)):
        raise ValueError("box config needs 'boxes': ten [a, b, c, d] lists of finite numbers")
    return [dists.BoxSpec(*entry) for entry in entries]


def write_report(report: dict, path, fmt: str = "json") -> None:
    """Serialize a report: stable key order, version field, config echo.

    CSV is only available for experiment reports and writes the histogram
    as ``real_count,frequency`` rows.
    """
    if fmt == "csv" and "histogram" not in report:
        raise ValueError("CSV format is only available for histogram reports")
    # the csv module ends rows with \r\n itself, so the file must not translate newlines
    with (contextlib.nullcontext(sys.stdout) if path is None
          else open(path, "w", newline="", encoding="utf-8")) as handle:
        if fmt == "csv":
            writer = csv.writer(handle)
            writer.writerow(["real_count", "frequency"])
            writer.writerows((k, int(v)) for k, v in enumerate(report["histogram"]))
        else:
            handle.write(json.dumps(report, sort_keys=True, indent=2) + "\n")


def _with_envelope(payload: dict, config: dict) -> dict:
    return {"version": __version__, "config": config, **payload}


def _cmd_solve(args) -> int:
    space = load_instance(args.input)
    result = solve_five_point(space, retries=args.retries, rng=args.seed)
    payload = {
        "real_count": result.real_count,
        "status": result.status,
        "retries": result.retries,
        "reason": result.reason,
        "residual_max": result.residual_max,
        "solutions": [s.m.tolist() for s in result.solutions],
    }
    write_report(_with_envelope(payload, {"input": args.input, "seed": args.seed}),
                 args.out)
    return EXIT_OK


def _seed(args) -> int:
    """The run's seed: ``--seed``, or 31 fresh random bits under ``--entropy``."""
    if not args.entropy:
        return args.seed
    import secrets      # imported here: only --entropy needs it

    return secrets.randbits(31)


def _cmd_experiment(args) -> int:
    seed = _seed(args)
    boxes = load_boxes(args.boxes) if args.boxes is not None else None
    report = mc.run_experiment(args.dist, args.n, seed, workers=args.workers,
                               boxes=boxes)
    config = {"dist": args.dist, "n": args.n, "seed": seed}
    if args.boxes is not None:
        config["boxes"] = [[b.a, b.b, b.c, b.d] for b in boxes]
    write_report(_with_envelope(report.to_dict(), config), args.out, args.format)
    return EXIT_OK


def _cmd_det(args) -> int:
    seed = _seed(args)
    est = mc.estimate_abs_det(args.n, seed)
    write_report(_with_envelope(est.to_dict(), {"n": args.n, "seed": seed}), args.out)
    return EXIT_OK


def _cmd_zonoid(args) -> int:
    report = zn.zonoid_lower_bound(grid=args.grid)
    write_report(_with_envelope(report.to_dict(), {"grid": args.grid}), args.out)
    ok = report.membership_ok and report.bound >= 0.93
    return EXIT_OK if ok else EXIT_CHECK


def _cmd_verify(args) -> int:
    report = vf.run_suite(args.suite, seed=args.seed)
    write_report(_with_envelope(report, {"suite": args.suite, "seed": args.seed}),
                 args.out)
    return EXIT_OK if report["passed"] else EXIT_CHECK


def dispatch(argv) -> int:
    """Parse arguments and run one subcommand, mapping failures to exit codes."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    handlers = {
        "solve": _cmd_solve,
        "experiment": _cmd_experiment,
        "det": _cmd_det,
        "zonoid": _cmd_zonoid,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (OSError, ValueError, KeyError, json.JSONDecodeError, EssentialLabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
