"""The names the perfbench harness reaches into must exist.

perfbench/spans.py wraps kerrswitch bindings by (module, attribute) and
perfbench/probes.py imports and calls kerrswitch names directly; a
simplification that drops one of them would break the traced benchmark
without failing any other test.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import kerrswitch as ks

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "module,attr",
    [(m, a) for m, attrs in _load("spans").WRAPPED.items() for a in attrs],
)
def test_wrapped_binding_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_probe_imports_resolve():
    tree = ast.parse((PERFBENCH / "probes.py").read_text())
    imports = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("kerrswitch")
    ]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"


def test_probe_calls_resolve():
    tree = ast.parse((PERFBENCH / "probes.py").read_text())
    used = {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "ks"
    }
    assert used
    for name in used:
        assert hasattr(ks, name), f"kerrswitch.{name}"


def test_monte_carlo_accepts_workers():
    assert "workers" in inspect.signature(ks.monte_carlo_experiment).parameters
