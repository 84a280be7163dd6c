"""The benchmark under perfbench/ runs against the program as it is.

The benchmark's tracer wraps program functions by name (``spans._targets``,
whose attributes ``test_dead_code.test_traced_entry_points_exist``
checks), and a traced run derives its layer metrics from their spans: a
renamed function or a dropped call leaves a metric without a value, and
``run.py`` then exits 1.  This test runs one short traced run of the
checkout's ``src``.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_a_traced_run_is_correct_with_finite_metrics(tmp_path):
    # run.py works in its current directory; the symlink keeps its outputs out of the checkout
    (tmp_path / "src").symlink_to(ROOT / "src")
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "experiment",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["metrics"]
    assert [name for name, metric in result["metrics"].items()
            if not math.isfinite(metric["value"])] == []
