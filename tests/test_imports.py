"""Every module-level import in the package is used by its module.

The one exception is a binding that perfbench's tracer wraps by name
(`perfbench/spans.py::WRAPPED`): the harness looks it up on that module at
run time, so the module keeps it though its own code never calls it.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kerrswitch"


def _wrapped():
    path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


def _module_imports(tree):
    """Name -> line of each binding an import statement makes at module
    level, in blocks such as ``try`` and ``if`` too, not in a function or
    class body."""
    bound = {}
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module != "__future__":
                for alias in node.names:
                    bound[alias.asname or alias.name] = node.lineno
        else:
            pending.extend(ast.iter_child_nodes(node))
    return bound


def _unused(source, keep=()):
    tree = ast.parse(source)
    used = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(
        f"{name} (line {line})"
        for name, line in _module_imports(tree).items()
        if name not in used and name not in keep
    )


MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_import_is_used(path):
    keep = _wrapped().get(f"kerrswitch.{path.stem}", [])
    assert _unused(path.read_text(), keep) == []


def test_an_unused_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "try:\n"
        "    from json import dumps as write\n"
        "except ImportError:\n"
        "    write = None\n"
        "from math import pi, tau\n"
        "def f():\n"
        "    import sys\n"
        "    return pi\n"
    )
    assert _unused(source) == ["os (line 2)", "tau (line 7)", "write (line 4)"]
    assert _unused(source, keep=["os", "write"]) == ["tau (line 7)"]
