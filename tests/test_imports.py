"""Every name the demos and the benchmark take from nodesteer still exists.

The demos and ``perfbench/`` are not imported by the unit tests, so a deleted
or renamed package name would otherwise only show when they are run. The
sources are read, not executed. Two more tests check, in fresh interpreters,
that the CLI loads no scipy or concurrent module and sweeps without scipy.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
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


CONFIGS = [ROOT / "tests" / "configs" / name for name in ("rotation_sweep.json", "translation_endpoint.json")]


def _fresh_python(probe, *args):
    """Standard output of a new interpreter running probe with nodesteer on its path."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    cmd = [sys.executable, "-c", probe, *map(str, args)]
    return subprocess.run(cmd, env=env, capture_output=True, text=True, check=True).stdout


def test_cli_set_up_loads_no_scipy():
    """A cold start and config parse load no scipy module and no thread pool.

    Only the assignment fallback needs scipy, and sweep rows run on the
    calling thread, so ``concurrent`` has no user either.
    """
    probe = (
        "import sys, pathlib, nodesteer, nodesteer.cli\n"
        "for p in sys.argv[1:]: nodesteer.ExperimentConfig.from_json(pathlib.Path(p).read_text())\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'concurrent')))"
    )
    assert _fresh_python(probe, *CONFIGS).strip() == "[]"


@pytest.mark.parametrize("command, config", zip(["sweep", "endpoint"], CONFIGS), ids=["sweep", "endpoint"])
def test_sweeps_run_without_scipy(command, config, tmp_path):
    """With scipy unimportable, each test config sweeps to exit 0 with every row ok.

    These configs' solves never reach the assignment fallback, so the scipy
    cost is removed from a sweep, not moved into its first solve.
    """
    probe = (
        "import sys, csv, json\n"
        "sys.modules['scipy'] = None\n"
        "from nodesteer import cli\n"
        "command, config, out = sys.argv[1:]\n"
        "code = cli.main([command, '--config', config, '--out', out])\n"
        "print(json.dumps([code, [r['status'] for r in csv.DictReader(open(out + '/results.csv'))]]))"
    )
    code, statuses = json.loads(_fresh_python(probe, command, config, tmp_path).splitlines()[-1])
    assert code == 0
    assert statuses and set(statuses) == {"ok"}


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


def _perfbench_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_instrument_patches_and_restores_its_targets(monkeypatch):
    """Tracing patches every function and method the benchmark names, and restores each on exit."""
    import nodesteer.cli  # noqa: F401  (loads every module a sweep calls through)
    from nodesteer.fields import VectorFieldSpec
    from nodesteer.flow import MeasureTrajectory
    from nodesteer.synthesis import ControlSchedule

    spans = _perfbench_spans(monkeypatch)
    owners = [m for n, m in sorted(sys.modules.items()) if n == "nodesteer" or n.startswith("nodesteer.")]
    owners += [MeasureTrajectory, VectorFieldSpec, ControlSchedule]
    missing = object()

    def changed(a, b):
        return {
            (owner.__name__, attr)
            for owner, x, y in zip(owners, a, b)
            for attr in x.keys() | y.keys()
            if x.get(attr, missing) is not y.get(attr, missing)
        }

    before = [dict(vars(owner)) for owner in owners]
    with spans.instrument(spans.Tracer()):
        during = [dict(vars(owner)) for owner in owners]
    after = [dict(vars(owner)) for owner in owners]

    patched = changed(before, during)
    assert set(spans.FUNCTIONS) <= patched
    assert {
        ("MeasureTrajectory", "save"),
        ("MeasureTrajectory", "load"),
        ("VectorFieldSpec", "velocity"),
        ("ControlSchedule", "static_piece"),
    } <= patched
    assert changed(before, after) == set()
