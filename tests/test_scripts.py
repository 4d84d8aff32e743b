"""The experiment scripts run end to end on small inputs.

Each script runs in its own interpreter with ``src`` on ``PYTHONPATH``, as
a user would run it from a checkout, and must exit 0 with some output and
leave nothing behind in its temporary directory.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args",
    [
        ("dimension_demo.py", ["--depth", "8", "--k", "4"]),
        ("genericity_experiment.py", ["--trials", "5"]),
        ("neck_gap_stats.py", ["--length", "500"]),
    ],
)
def test_script_runs(script, args, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["TMPDIR"] = str(tmp_path)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert not list(tmp_path.iterdir())
