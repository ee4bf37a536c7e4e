"""Every private module-level name in the package is read somewhere in it.

A private name is a module-level function, class or constant whose name
starts with one underscore. It is read where it appears as a name, or as
an attribute (``module._name``), in Load context; its own ``def``, ``class``
or assignment, and an import of it, are not reads.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kerrswitch"


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _defined(tree):
    """Name -> line of each private function, class or constant the module
    body defines."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        defined.update((name, node.lineno) for name in names if _private(name))
    return defined


def _read(tree):
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def _dead(sources):
    """`module.name (line n)` of each private name that `sources`, a map of
    module name to source text, defines and never reads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = set().union(*map(_read, trees.values()))
    return sorted(
        f"{module}.{name} (line {line})"
        for module, tree in trees.items()
        for name, line in _defined(tree).items()
        if name not in read
    )


def test_every_private_name_is_read():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert _dead(sources) == []


def test_a_dead_private_name_is_found():
    sources = {
        "a": (
            "_LIMIT = 3\n"
            "_UNUSED: int = 4\n"
            "def _helper(x):\n"
            "    return x\n"
            "def _orphan(x):\n"
            "    _local = x\n"
            "    return _local\n"
            "class _Box:\n"
            "    pass\n"
            "def public():\n"
            "    return _helper(_LIMIT)\n"
        ),
        "b": "from .a import _Box, _orphan\nimport a\nvalue = a._Box\n",
    }
    assert _dead(sources) == ["a._UNUSED (line 2)", "a._orphan (line 5)"]
