"""Every public name is reached by a pipeline.

A name in ``affdim.__all__`` stays only if a pipeline (the CLI, a script or
another module) reaches it.  It passes when one of these holds:

- it appears as a word in another ``src/affdim`` module, a script, the
  benchmark harness (``perfbench/*.py``) or ``tests/test_acceptance.py``;
- it is listed in ``REACHED_THROUGH`` beside a function of its own module
  that is reached as above and whose source names it: the function returns
  or raises it, or calls it;
- it is in ``AWAITING_PIPELINE``, the test-only code that ROADMAP items 2
  and 13 connect to ``dim``: the fullness constant of their lower bounds.

A module-level private helper (``_function`` or ``_Class``) in ``src/affdim``
stays only if code outside its own definition names it: a module of the
package, a script or the benchmark harness, not only tests.  Comments and
docstrings do not count.  Code inside an ``AWAITING_PIPELINE`` definition does
not reach a helper either; the helpers only it names are listed in
``AWAITING_HELPERS``.

Each module imports from exactly the package modules ``IMPORTS`` lists for it,
and the package imports no module outside the standard library but numpy.
"""

import ast
import inspect
import pathlib
import re
import sys

import pytest

import affdim

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = ("code_tree", "dimension", "exterior_algebra", "fs_checker", "io_cli", "singular_values")

# name -> the function of its module that returns, raises or calls it
REACHED_THROUGH = {
    "build_code_tree": "deterministic_tree",
    "PressureCurve": "pressure_curve",
    "PressureZeroResult": "pressure_zero",
    "BoxCountFit": "box_dimension",
    "DimensionReport": "dimension_report",
    "CompoundMatrix": "compound_matrix",
    "FailWitness": "check_cs",
    "CriterionReport": "criterion_cscm",
    "SystemSpec": "parse_system",
    "SystemSpecError": "parse_system",
}

# ROADMAP items 2 and 13: reached only by tests until ``dim``'s lower bounds use them
AWAITING_PIPELINE = {"estimate_fullness", "FullnessEstimate"}

# private helper -> the AWAITING_PIPELINE definition that is the only code naming it
AWAITING_HELPERS = {"_fullness_pair": "estimate_fullness"}


def _outside_texts(module: str) -> list[str]:
    paths = [p for p in (ROOT / "src" / "affdim").glob("*.py") if p.stem != module]
    paths += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    paths.append(ROOT / "tests" / "test_acceptance.py")
    return [p.read_text(encoding="utf-8") for p in paths]


def _names_word(text: str, name: str) -> bool:
    return re.search(rf"\b{re.escape(name)}\b", text) is not None


def _reached(module: str, name: str) -> bool:
    return any(_names_word(text, name) for text in _outside_texts(module))


PUBLIC = [(module, name) for module in MODULES for name in sys.modules[f"affdim.{module}"].__all__]


@pytest.mark.parametrize("module, name", PUBLIC, ids=[name for _, name in PUBLIC])
def test_public_name_is_reached(module, name):
    if name in AWAITING_PIPELINE or _reached(module, name):
        return
    via = REACHED_THROUGH.get(name)
    assert via is not None, f"{module}.{name}: no pipeline reaches it"
    assert _reached(module, via), f"{module}.{name}: listed beside {via}, which no pipeline reaches"
    source = inspect.getsource(getattr(sys.modules[f"affdim.{module}"], via))
    assert _names_word(source, name), f"{module}.{name}: {via} neither returns, raises nor calls it"


def test_listings_name_public_names():
    stale = (set(REACHED_THROUGH) | set(REACHED_THROUGH.values()) | AWAITING_PIPELINE) - set(affdim.__all__)
    assert not stale


def _code_names(node: ast.AST) -> set[str]:
    """Identifiers the code of ``node`` uses: names, attributes and imports."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rsplit(".", 1)[-1])
    return out


def _statements(path: pathlib.Path) -> list[tuple[str | None, set[str]]]:
    """Each top-level statement of a file as (the name it defines, if any, names it uses)."""
    body = ast.parse(path.read_text(encoding="utf-8")).body
    return [(getattr(node, "name", None), _code_names(node)) for node in body]


PACKAGE = {module: _statements(ROOT / "src" / "affdim" / f"{module}.py") for module in MODULES}
OUTSIDE = [
    statement
    for path in sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    for statement in _statements(path)
]
HELPERS = [
    (module, name)
    for module, statements in PACKAGE.items()
    for name, _ in statements
    if name is not None and name.startswith("_") and not name.startswith("__")
]


def _naming(module: str, name: str) -> set[str | None]:
    """The top-level definitions (None for other statements) whose code names
    ``name``, leaving out its own definition."""
    found = {defined for defined, used in OUTSIDE if name in used}
    for other, statements in PACKAGE.items():
        found |= {defined for defined, used in statements if name in used and (other, defined) != (module, name)}
    return found


@pytest.mark.parametrize("module, name", HELPERS, ids=[f"{m}.{n}" for m, n in HELPERS])
def test_private_helper_is_reached(module, name):
    naming = _naming(module, name)
    if name in AWAITING_HELPERS:
        assert naming == {AWAITING_HELPERS[name]}, f"{module}.{name}: named by {sorted(map(str, naming))}"
    else:
        assert naming - AWAITING_PIPELINE, f"{module}.{name}: no pipeline reaches it"


def test_awaiting_helpers_are_package_helpers():
    assert set(AWAITING_HELPERS) <= {name for _, name in HELPERS}
    assert set(AWAITING_HELPERS.values()) <= AWAITING_PIPELINE


# module -> the package modules it imports from: the pressure branch
# (singular_values, code_tree, dimension) needs no spanning check
IMPORTS = {
    "exterior_algebra": set(),
    "singular_values": set(),
    "fs_checker": {"exterior_algebra", "singular_values"},
    "code_tree": {"singular_values"},
    "dimension": {"code_tree", "singular_values"},
    "io_cli": {"code_tree", "dimension", "exterior_algebra", "fs_checker"},
}


def test_package_imports_follow_the_pipeline():
    assert set(IMPORTS) == set(MODULES)
    for module, expected in IMPORTS.items():
        body = ast.parse((ROOT / "src" / "affdim" / f"{module}.py").read_text(encoding="utf-8"))
        found = {node.module for node in ast.walk(body)
                 if isinstance(node, ast.ImportFrom) and node.level == 1}
        assert found == expected, module


def test_numpy_is_the_only_runtime_dependency():
    top = set()
    for path in sorted((ROOT / "src" / "affdim").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                top |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                top.add(node.module.split(".")[0])
    assert top - set(sys.stdlib_module_names) - {"affdim"} == {"numpy"}
