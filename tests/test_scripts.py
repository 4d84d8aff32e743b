"""The experiment scripts run end to end on small inputs.

Each script runs in its own interpreter with ``src`` on ``PYTHONPATH``, as
a user would run it from a checkout, and must exit 0 with some output and
leave nothing behind in its temporary directory.  A count below 1 is a
usage error, exit 2, as in the CLI, and no bad input ends in a traceback.
``dimension_demo.py`` tabulates ``affdim dim`` runs and ``neck_gap_stats.py``
an ``affdim simulate`` run, so their figures are the CLI's.
"""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from affdim import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
CORNER = ROOT / "docs" / "examples" / "corner_system.json"
GRAPH = ROOT / "docs" / "examples" / "graph_system.json"


@pytest.fixture
def docs(tmp_path_factory):
    """Variants of the corner document, outside the TMPDIR the scripts see."""
    where = tmp_path_factory.mktemp("docs")
    corner = json.loads(CORNER.read_text())
    free = {key: value for key, value in corner.items() if key != "translations"}
    loose = {**corner, "bounds": {"sigma_lo": 0.45, "sigma_hi": 0.6}}
    paths = {"corner": str(CORNER), "missing": str(where / "missing.json")}
    for name, doc in (("free", free), ("loose", loose)):
        (where / f"{name}.json").write_text(json.dumps(doc))
        paths[name] = str(where / f"{name}.json")
    return paths


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


@pytest.mark.parametrize(
    "doc, seeds, dim_args",
    [("free", 2, ["--depth", "8", "--k", "4"]), ("corner", 1, ["--depth", "8", "--k", "10"])],
    ids=["unbound-seeds", "k-above-depth"],
)
def test_demo_rows_are_dim_reports(doc, seeds, dim_args, docs, tmp_path):
    proc = run_script("dimension_demo.py", [docs[doc], "--seeds", str(seeds), *dim_args], tmp_path)
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[1:]
    assert len(rows) == seeds
    for seed, row in enumerate(rows):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli(["dim", docs[doc], *dim_args, "--seed", str(seed)]) == 0
        r = json.loads(out.getvalue())
        gap = abs(r["box_estimate"] - r["dimension"])
        assert row == (f"{seed:>4}  {r['s0']:>10.6f}  {r['box_estimate']:>10.6f}"
                       f"  {gap:>8.4f}  {r['dimension']:>10.6f}  {r['flag'] or '-'}")


def test_neck_gap_mean_is_the_simulated_one(tmp_path):
    args = ["--seed", "3", "--thinning", "2"]
    proc = run_script("neck_gap_stats.py", args, tmp_path)
    assert proc.returncode == 0, proc.stderr
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli(["simulate", str(GRAPH), *args]) == 0
    gaps = [int(row.split(",")[1]) for row in out.getvalue().splitlines()[1:]]
    assert f"gap mean: {sum(gaps) / len(gaps):.4f} " in proc.stdout


@pytest.mark.parametrize(
    "script, args, code, message",
    [
        ("dimension_demo.py", ["--depth", "6", "--k", "3"], 2,
         "error: box counting needs at least 1000 points, got 729"),
        ("dimension_demo.py", ["--family", "nope"], 2, "error: families: no family labeled 'nope'"),
        ("dimension_demo.py", ["{missing}"], 2, "error: [Errno 2] No such file or directory"),
        ("dimension_demo.py", ["{loose}"], 1,
         "error: the dimension formula requires declared bounds 0 < sigma_lo <= sigma_hi < 1/2"),
        ("genericity_experiment.py", ["--tol", "nan"], 2,
         "argument --tol: must be finite and >= 0, got nan"),
        ("genericity_experiment.py", ["--tol", "-1"], 2,
         "argument --tol: must be finite and >= 0, got -1.0"),
        ("neck_gap_stats.py", ["{missing}"], 2, "error: [Errno 2] No such file or directory"),
        ("neck_gap_stats.py", ["{corner}"], 2,
         "error: graph: simulate needs a document with a graph section"),
    ],
    ids=["demo-shallow-depth", "demo-unknown-family", "demo-missing-doc", "demo-loose-bounds",
         "genericity-tol-nan", "genericity-tol-negative", "neck-missing-doc", "neck-no-graph"],
)
def test_bad_input_exits_with_the_cli_code(script, args, code, message, docs, tmp_path):
    proc = run_script(script, [a.format(**docs) for a in args], tmp_path)
    assert proc.returncode == code, proc.stderr
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""  # a refused first run leaves no table header behind

