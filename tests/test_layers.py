"""Module layering of the package, read from the source with ``ast``.

The modules form one strict order: ``graphs`` at the bottom; ``solver``,
``convex`` and ``planar`` on it; ``families`` on those; ``cli`` on top, and
the package ``__init__`` re-exporting the library beside it. A module imports
only modules of a lower layer, at module level, and without a
``TYPE_CHECKING`` block, so there is no import cycle to hide.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "treestretch"
LAYERS = {
    "graphs": 0,
    "solver": 1,
    "convex": 1,
    "planar": 1,
    "families": 2,
    "cli": 3,
    "__init__": 3,
}
MODULES = sorted(p.stem for p in SOURCE.glob("*.py"))


def _tree(module: str) -> ast.Module:
    path = SOURCE / f"{module}.py"
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _package_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, module) for every import of a module of this package."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                found += [(node.lineno, alias.name) for alias in node.names]
            else:
                found.append((node.lineno, node.module.split(".")[0]))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("treestretch."):
            found.append((node.lineno, node.module.split(".")[1]))
        elif isinstance(node, ast.Import):
            found += [
                (node.lineno, alias.name.split(".")[1])
                for alias in node.names
                if alias.name.startswith("treestretch.")
            ]
    return found


@pytest.mark.parametrize("module", MODULES)
def test_imports_only_lower_layers(module):
    assert module in LAYERS, f"{module}.py has no layer"
    layer = LAYERS[module]
    upward = [
        f"{module}.py:{line} imports {target}"
        for line, target in _package_imports(_tree(module))
        if LAYERS.get(target, layer) >= layer
    ]
    assert upward == []


@pytest.mark.parametrize("module", MODULES)
def test_no_import_inside_a_function(module):
    nested = [
        f"{module}.py:{inner.lineno} in {node.name}"
        for node in ast.walk(_tree(module))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]
    assert nested == []


@pytest.mark.parametrize("module", MODULES)
def test_no_type_checking_block(module):
    guarded = [
        f"{module}.py:{node.lineno}"
        for node in ast.walk(_tree(module))
        if isinstance(node, ast.If)
        and any(
            isinstance(n, ast.Name) and n.id == "TYPE_CHECKING"
            or isinstance(n, ast.Attribute) and n.attr == "TYPE_CHECKING"
            for n in ast.walk(node.test)
        )
    ]
    assert guarded == []


@pytest.mark.parametrize("module", MODULES)
def test_no_function_calls_itself(module):
    """No recursion by name, so no input depth can reach Python's recursion limit."""
    recursive = [
        f"{module}.py:{inner.lineno} in {node.name}"
        for node in ast.walk(_tree(module))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, ast.Call)
        and (
            isinstance(inner.func, ast.Name) and inner.func.id == node.name
            or isinstance(inner.func, ast.Attribute)
            and inner.func.attr == node.name
            and isinstance(inner.func.value, ast.Name)
            and inner.func.value.id in ("self", "cls")
        )
    ]
    assert recursive == []
