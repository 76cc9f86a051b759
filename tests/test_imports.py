"""Every name the demos and the benchmark take from nodesteer still exists.

The demos and ``perfbench/`` are not imported by the unit tests, so a deleted
or renamed package name would otherwise only show when they are run. The
sources are read, not executed.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def _nodesteer_imports(path):
    """(module, name) for each nodesteer import in the file; name is None for a plain import."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "nodesteer":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names if alias.name.split(".")[0] == "nodesteer")


def test_scripts_are_found():
    assert {p.parent.name for p in SCRIPTS} == {"demos", "perfbench"}


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_imported_names_resolve(path):
    for module, name in _nodesteer_imports(path):
        mod = importlib.import_module(module)
        assert name is None or hasattr(mod, name), f"{path.name}: {module} has no {name}"


def test_traced_functions_resolve():
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    functions = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["FUNCTIONS"]
    )
    assert functions
    for module, attr in functions:
        assert hasattr(importlib.import_module(module), attr), f"{module} has no {attr}"
