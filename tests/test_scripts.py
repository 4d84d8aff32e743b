"""The experiment scripts run end to end on small inputs.

Each script runs in its own interpreter with ``src`` on ``PYTHONPATH``, as
a user would run it from a checkout, and must exit 0 with some output and
leave nothing behind in its temporary directory.  A count below 1 is a
usage error, exit 2, as in the CLI.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(script, args, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["TMPDIR"] = str(tmp_path)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120, cwd=ROOT,
    )


@pytest.mark.parametrize(
    "script, args",
    [
        ("dimension_demo.py", ["--depth", "8", "--k", "4"]),
        ("genericity_experiment.py", ["--trials", "5"]),
        ("neck_gap_stats.py", ["--length", "500"]),
    ],
)
def test_script_runs(script, args, tmp_path):
    proc = run_script(script, args, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "script, flag",
    [
        ("genericity_experiment.py", "--trials"),
        ("neck_gap_stats.py", "--length"),
        ("neck_gap_stats.py", "--thinning"),
        ("dimension_demo.py", "--depth"),
        ("dimension_demo.py", "--k"),
        ("dimension_demo.py", "--seeds"),
        ("genericity_experiment.py", "--d"),
    ],
)
def test_counts_below_one_are_refused(script, flag, tmp_path):
    proc = run_script(script, [flag, "0"], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert f"argument {flag}: must be at least 1, got 0" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_dimension_above_the_dense_blade_limit_is_refused(tmp_path):
    proc = run_script("genericity_experiment.py", ["--d", "13"], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "argument --d: must be at most 12, got 13" in proc.stderr
    assert "Traceback" not in proc.stderr
