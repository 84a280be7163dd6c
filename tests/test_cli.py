import argparse
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from essential_lab import cli
from essential_lab import distributions as dists
from essential_lab import verify as vf

from oracles import planted_instance

README = Path(__file__).resolve().parent.parent / "README.md"
PAIR = {"u": [1.0, 2.0, 3.0], "v": [0.5, -1.0, 2.0]}
#: A solvable instance, as rows and as correspondences.
ROWS = np.random.default_rng(2).standard_normal((5, 9)).tolist()
POINTS = [{"u": u, "v": v} for u, v in np.random.default_rng(3).standard_normal((5, 2, 3)).tolist()]


def run_cli(args):
    return cli.dispatch(args)


def strip_wall_time(path):
    data = json.loads(path.read_text())
    data.pop("wall_time", None)
    return data


class TestSolveCommand:
    def test_rows_instance(self, tmp_path, capsys):
        rows, target, _ = planted_instance(np.random.default_rng(0))
        instance = tmp_path / "instance.json"
        instance.write_text(json.dumps({"rows": rows.tolist()}))
        out = tmp_path / "result.json"
        assert run_cli(["solve", "--input", str(instance), "--out", str(out)]) == 0
        result = json.loads(out.read_text())
        assert result["status"] in ("ok", "retried")
        assert result["real_count"] == len(result["solutions"])
        dists = [
            min(np.linalg.norm(np.asarray(sol).ravel() / np.sqrt(2) - target),
                np.linalg.norm(np.asarray(sol).ravel() / np.sqrt(2) + target))
            for sol in result["solutions"]
        ]
        assert min(dists) <= 1e-6

    def test_correspondence_instance(self, tmp_path):
        """Points at any scale solve as the rows vec(u v^T) of their unit representatives."""
        rng = np.random.default_rng(1)
        points = rng.standard_normal((10, 3)) * rng.uniform(0.01, 100.0, (10, 1))
        instance = tmp_path / "corr.json"
        instance.write_text(json.dumps({"correspondences": [
            {"u": u.tolist(), "v": v.tolist()} for u, v in zip(points[0::2], points[1::2])]}))
        unit = points / np.linalg.norm(points, axis=1, keepdims=True)
        rows = tmp_path / "rows.json"
        rows.write_text(json.dumps({"rows": [
            np.outer(u, v).ravel().tolist() for u, v in zip(unit[0::2], unit[1::2])]}))
        results = []
        for path in (instance, rows):
            out = tmp_path / f"result-{path.stem}.json"
            assert run_cli(["solve", "--input", str(path), "--out", str(out)]) == 0
            results.append(json.loads(out.read_text()))
        from_points, from_rows = results
        assert from_points["real_count"] % 2 == 0
        assert from_points["real_count"] == from_rows["real_count"] > 0
        for sol in np.array(from_points["solutions"]):
            gap = min(min(np.linalg.norm(sol - other), np.linalg.norm(sol + other))
                      for other in np.array(from_rows["solutions"]))
            assert gap <= 1e-10

    def test_missing_file_is_validation_error(self, tmp_path):
        assert run_cli(["solve", "--input", str(tmp_path / "nope.json")]) == 2

    def test_bad_schema_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"points": []}))
        assert run_cli(["solve", "--input", str(bad)]) == 2

    @pytest.mark.parametrize("payload", [
        {"correspondences": [1, 2, 3, 4, 5]},
        7,
        {"correspondences": [PAIR] * 4},
        {"correspondences": [PAIR] * 4 + [{"u": [1.0, 2.0], "v": [0.5, -1.0, 2.0]}]},
        {"correspondences": [PAIR] * 4 + [{"u": [0.0, 0.0, 0.0], "v": [0.5, -1.0, 2.0]}]},
        {"correspondences": [PAIR] * 5},
        {"rows": [[10 ** 400] + [0.0] * 8] + [[1.0] * 9] * 4},
        {"correspondences": [PAIR] * 4 + [{"u": [10 ** 400, 1.0, 1.0], "v": [0.5, -1.0, 2.0]}]},
        # JSON true and false are not numbers, though Python reads them as ints
        {"rows": [[True] + ROWS[0][1:]] + ROWS[1:]},
        {"rows": ROWS[:4] + [ROWS[4][:8] + [False]]},
        {"correspondences": [{"u": [True, 0.2, 1.0], "v": PAIR["v"]}] + POINTS[1:]},
        {"correspondences": POINTS[:4] + [{"u": PAIR["u"], "v": [0.3, False, 1.0]}]},
    ])
    def test_malformed_instance_is_validation_error(self, tmp_path, payload):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert run_cli(["solve", "--input", str(bad)]) == 2


class TestExperimentCommand:
    def test_json_report_and_determinism(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        args = ["experiment", "--dist", "unifG", "--n", "300", "--seed", "5",
                "--workers", "1"]
        assert run_cli(args + ["--out", str(out1)]) == 0
        assert run_cli(args + ["--out", str(out2)]) == 0
        a = strip_wall_time(out1)
        b = strip_wall_time(out2)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert a["version"] == cli.__version__
        assert a["config"]["dist"] == "unifG"
        assert 2.0 <= a["mean"] <= 6.0

    def test_json_is_identical_across_worker_counts(self, tmp_path):
        texts = []
        for workers in ("1", "2", "4"):
            out = tmp_path / f"w{workers}.json"
            assert run_cli(["experiment", "--dist", "psi", "--n", "300", "--seed", "7",
                            "--workers", workers, "--out", str(out)]) == 0
            texts.append(json.dumps(strip_wall_time(out)))
        assert texts[0] == texts[1] == texts[2]
        assert "se_mean" in texts[0] and "chebyshev" not in texts[0]

    def test_csv_histogram(self, tmp_path):
        out = tmp_path / "hist.csv"
        assert run_cli(["experiment", "--dist", "psi", "--n", "200", "--seed", "3",
                        "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "real_count,frequency"
        assert len(lines) == 12
        counts = [int(line.split(",")[1]) for line in lines[1:]]
        assert sum(counts) == 200

    def test_box_needs_config(self):
        assert run_cli(["experiment", "--dist", "box", "--n", "10"]) == 2

    def test_box_config(self, tmp_path):
        boxes = tmp_path / "boxes.json"
        boxes.write_text(json.dumps({"boxes": [[-5, 5, -5, 5]] * 10}))
        out = tmp_path / "box.json"
        assert run_cli(["experiment", "--dist", "box", "--n", "100", "--seed", "2",
                        "--boxes", str(boxes), "--out", str(out)]) == 0
        assert strip_wall_time(out)["config"]["boxes"][0] == [-5, 5, -5, 5]

    @pytest.mark.parametrize("payload", [
        {"boxes": [[1, 2, 3]]},
        {"boxes": [[-5, 5, -5, 5]] * 9 + [[-5, 5, -5]]},
        {"boxes": 5},
        {"boxes": [[-5, 5, -5, 5]] * 9 + [[-5, math.inf, -5, 5]]},
        {"boxes": [[-5, 5, -5, 5]] * 9 + [[-1e308, 1e308, -5, 5]]},
        {"boxes": [[-5, 5, -5, 5]] * 9 + [[-5, 10 ** 400, -5, 5]]},
        {"boxes": [[-5, 5, -5, 5]] * 9 + [[False, 5, -5, 5]]},
    ])
    def test_malformed_box_config_is_validation_error(self, tmp_path, payload):
        boxes = tmp_path / "boxes.json"
        boxes.write_text(json.dumps(payload))
        assert run_cli(["experiment", "--dist", "box", "--n", "10",
                        "--boxes", str(boxes)]) == 2

    def test_unwritable_path_is_io_error(self, tmp_path):
        assert run_cli(["experiment", "--dist", "psi", "--n", "10",
                        "--out", str(tmp_path / "missing-dir" / "x.json")]) == 2

    def test_malformed_flags_usage_error(self):
        assert run_cli(["experiment", "--dist", "gauss", "--n", "10"]) == 1
        assert run_cli(["experiment"]) == 1
        assert run_cli([]) == 1


class TestReportKeys:
    @pytest.mark.parametrize("args, keys", [
        (["experiment", "--dist", "psi", "--n", "50"],
         {"version", "config", "distribution", "n", "seed", "mean", "variance", "se_mean",
          "histogram", "failures", "wall_time"}),
        (["det", "--n", "50"],
         {"version", "config", "n", "seed", "mean_abs_det", "second_moment", "derived_mean",
          "se_mean", "se_second", "wall_time"}),
    ])
    def test_top_level_keys_are_pinned_and_documented(self, tmp_path, args, keys):
        out = tmp_path / "report.json"
        assert run_cli(args + ["--out", str(out)]) == 0
        assert set(json.loads(out.read_text())) == keys
        readme = README.read_text(encoding="utf-8")
        assert sorted(key for key in keys if f"`{key}`" not in readme) == []


class TestOptions:
    def test_every_option_is_named_in_the_readme(self):
        parser = cli._build_parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        options = {option for command in commands.choices.values() for action in command._actions
                   for option in action.option_strings if option.startswith("--")}
        options.discard("--help")
        readme = README.read_text(encoding="utf-8")
        assert "--dist" in options
        assert sorted(o for o in options if not re.search(re.escape(o) + r"(?![\w-])", readme)) == []


class TestDetCommand:
    def test_report(self, tmp_path):
        out = tmp_path / "det.json"
        assert run_cli(["det", "--n", "200000", "--seed", "4", "--out", str(out)]) == 0
        data = strip_wall_time(out)
        assert 3.5 <= data["derived_mean"] <= 4.4
        assert data["n"] == 200000

    def test_no_environment_variable_sets_the_workers(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ESSENTIAL_LAB_THREADS", "abc")
        assert run_cli(["det", "--n", "10", "--out", str(tmp_path / "det.json")]) == 0


class TestZonoidCommand:
    def test_report_and_exit_code(self, tmp_path):
        out = tmp_path / "zonoid.json"
        assert run_cli(["zonoid", "--grid", "60", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["membership_ok"] is True
        assert data["bound"] >= 0.93
        assert len(data["memberships"]) == 13

    def test_csv_is_usage_error(self):
        assert run_cli(["zonoid", "--format", "csv"]) == 1

    def test_grid_below_two_is_validation_error(self, capsys):
        assert run_cli(["zonoid", "--grid", "-5"]) == 2
        assert capsys.readouterr().out == ""


class TestVerifyCommand:
    def test_nj_suite(self, tmp_path):
        out = tmp_path / "verify.json"
        assert run_cli(["verify", "--suite", "nj", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["passed"] is True
        checks = data["checks"]
        assert checks["nj_pose_map"]["value"] == pytest.approx(0.25, abs=1e-12)
        assert checks["nj_rotation_action"]["value"] == pytest.approx(0.3535533905932738,
                                                                      abs=1e-12)

    def test_a_slightly_wrong_tangent_frame_fails(self, tmp_path, monkeypatch):
        # one frame element 1e-9 too long moves both constants by ~3e-10, and the
        # detB identity by ~7e-10: far above rounding, far below the truncation
        # error of a finite difference
        basis = vf.tangent_basis_E0()

        def stretched():
            out = basis.copy()
            out[-1] *= 1.0 + 1e-9
            return out

        monkeypatch.setattr(vf, "tangent_basis_E0", stretched)
        out = tmp_path / "verify.json"
        for suite, failing in (("nj", ("nj_pose_map", "nj_rotation_action")),
                               ("identities", ("detB_identity",))):
            assert run_cli(["verify", "--suite", suite, "--out", str(out)]) == 3
            checks = json.loads(out.read_text())["checks"]
            assert [name for name in failing if checks[name]["passed"]] == []

    def test_a_slightly_wrong_z_formula_fails(self, tmp_path, monkeypatch):
        """The last z-row 1e-9 too long fails the detB identity.

        A stretch is chosen because it changes |det Z|: a permutation of the
        z formula's rows or a flip of one row's sign leaves every |det|
        unchanged, so neither the identity nor the determinant route can see
        it.
        """
        exact = dists.quadric_fold

        def stretched(a, b, r, s):
            exact(a, b, r, s)
            r *= 1.0 + 1e-9

        monkeypatch.setattr(dists, "quadric_fold", stretched)
        out = tmp_path / "verify.json"
        assert run_cli(["verify", "--suite", "identities", "--out", str(out)]) == 3
        checks = json.loads(out.read_text())["checks"]
        assert not checks["detB_identity"]["passed"]
        assert checks["det_AAT_identity"]["passed"]

    def test_all_suite_is_strict_json(self, tmp_path):
        out = tmp_path / "verify.json"
        assert run_cli(["verify", "--suite", "all", "--out", str(out)]) == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        data = json.loads(out.read_text(), parse_constant=reject)
        assert 0.0 < data["checks"]["volume_essential"]["worst_deviation"] <= 1e-12
        for name, tol in (("det_AAT_identity", 1e-10), ("nj_quadric_param", 1e-12)):
            check = data["checks"][name]
            assert abs(check["value"] - check["expected"]) <= tol * abs(check["expected"])

    def test_bad_suite_flag(self):
        assert run_cli(["verify", "--suite", "everything"]) == 1
