"""The README's library quick start runs and prints what its comments say.

Each ``print`` line of the block carries the expected output as a trailing
``# ...`` comment; a trailing ``...`` there means "starts with".
"""

import contextlib
import io
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def quick_start_block() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_prints_its_comments(monkeypatch):
    code = quick_start_block()
    expected = [
        line.split("#", 1)[1].strip() for line in code.splitlines() if line.startswith("print(")
    ]
    assert len(expected) == 3
    monkeypatch.chdir(ROOT)  # the block reads docs/examples by relative path
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(expected)
    for got, want in zip(printed, expected):
        if want.endswith("..."):
            assert got.startswith(want[:-3]), (got, want)
        else:
            assert got == want, (got, want)
