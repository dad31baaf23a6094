"""Imports inside the package go one way: at module level, along an acyclic graph.

``core`` sits at the bottom: it imports ``errors`` and nothing else of the
package, so every other module may build on it.
"""

import ast
import graphlib
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pbindex"


def _modules() -> dict:
    # module name -> syntax tree, for every module of the package but __init__
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "__init__"
    }


def _package_imports(tree) -> set:
    # the package modules a module imports, at any depth; the package imports
    # itself by relative imports only: ``from .x import ...`` and ``from . import x``
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
    return found


def test_no_import_sits_inside_a_function():
    inside = [
        f"{name}.py:{node.lineno} in {fn.name}"
        for name, tree in _modules().items()
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert inside == []


def test_the_import_graph_is_acyclic():
    graph = {name: _package_imports(tree) for name, tree in _modules().items()}
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError on a cycle


def test_core_imports_only_errors():
    assert _package_imports(_modules()["core"]) == {"errors"}
