"""The benchmark (``perfbench/``) drives affdim from outside, so a change here
can break it unseen.  Its span tracer (``perfbench/tracer.py``) wraps affdim
functions by module and name, so a rename or a moved import silently drops
its spans; its workloads (``perfbench/workloads.py``) run fixed CLI argv, so
a removed flag turns a benchmark run into a failed one.  These guards load
both files as they are: one runs a ``dim`` through the tracer, the other
parses every workload step's argv.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from affdim import cli, code_tree, io_cli

ROOT = Path(__file__).resolve().parents[1]
CORNER = str(ROOT / "docs" / "examples" / "corner_system.json")


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_tracer_targets_resolve_and_leave_stdout_alone(capsys, monkeypatch):
    tracer = load_perfbench("tracer")
    for modname, attr, *_ in tracer.TARGETS:
        assert callable(getattr(sys.modules[modname], attr)), (modname, attr)
    # below the word count, pressure_zero streams its passes through partition_sums
    monkeypatch.setattr(code_tree, "_SPECTRUM_CACHE_WORDS", 0)
    argv = ["dim", CORNER, "--k", "5", "--depth", "7"]
    assert cli(argv) == 0
    plain = capsys.readouterr().out

    tr = tracer.Tracer()
    tr.install()
    try:
        assert sys.modules["affdim.io_cli"].cli(argv) == 0
    finally:
        tr.uninstall()
    traced = capsys.readouterr().out
    summary = tr.summary()

    assert traced.encode() == plain.encode()
    assert summary["code_tree.partition_sums"]["calls"] >= 1
    assert summary["dimension.pressure_zero"]["calls"] == 1
    assert summary["dimension.pressure_zero"]["passes"] == summary["code_tree.partition_sums"]["calls"]
    assert sys.modules["affdim.io_cli"].cli is cli


@pytest.mark.parametrize("threads", ["1", "2"])
def test_every_workload_argv_parses(tmp_path, threads):
    workloads = load_perfbench("workloads")
    # boxdim reads its scales from the dim step's report
    prev = {"dim": json.dumps({"box_scales": [2, 3, 4, 5]})}
    parser = io_cli._build_parser()
    steps = [step for wl in workloads.WORKLOADS.values() for step in wl.steps(str(tmp_path))]
    assert steps
    for step in steps:
        argv = step.argv(prev)
        args = parser.parse_args(argv + ["--threads", threads])
        assert args.command == argv[0] == step.name
