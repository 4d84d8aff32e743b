"""The benchmark's span tracer (``perfbench/tracer.py``) wraps affdim functions
by module and name from outside, so a rename or a moved import silently drops
its spans.  This guard loads the tracer as it is and runs one ``dim`` through
it.
"""

import importlib.util
import sys
from pathlib import Path

from affdim import cli, dimension

ROOT = Path(__file__).resolve().parents[1]
CORNER = str(ROOT / "docs" / "examples" / "corner_system.json")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve_and_leave_stdout_alone(capsys, monkeypatch):
    tracer = load_tracer()
    for modname, attr, *_ in tracer.TARGETS:
        assert callable(getattr(sys.modules[modname], attr)), (modname, attr)
    # below the word count, pressure_zero streams its passes through partition_sums
    monkeypatch.setattr(dimension, "_SPECTRUM_CACHE_WORDS", 0)
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
