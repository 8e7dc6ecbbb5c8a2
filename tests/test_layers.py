"""Module layering and exports of the package, read from the source with ``ast``.

The modules form one strict order: ``graphs`` at the bottom; ``solver``,
``convex`` and ``planar`` on it; ``families`` on those; ``cli`` on top, and
the package ``__init__`` re-exporting the library beside it. A module imports
only modules of a lower layer, at module level, and without a
``TYPE_CHECKING`` block, so there is no import cycle to hide.

Every export has a caller in the package, apart from a listed few, and every
name the benchmark patches or calls exists.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import treestretch
import treestretch.cli

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "treestretch"
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
# Exports that no module of the package calls, each with its reason.
UNCALLED_EXPORTS = {
    "enumerate_spanning_trees": "the tests' independent oracle for the exact search",
    "count_spanning_trees_kirchhoff": "the tests' matrix-tree oracle; the benchmark wraps it",
    "induced_subgraph": "solving each block separately (ROADMAP item 11) will call it",
    "relabel_graph": "a label-independent solve (ROADMAP item 14) will call it",
    "sigma_formula": "the closed form without a tree; optimal_construction computes it too",
}


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


def _used_names(node: ast.AST, modules: set[str], inside: tuple[str, ...] = ()) -> set[str]:
    """Names loaded or imported under ``node``, except inside their own def or class.

    A name read off a package module (``convex_mod.construct_tree``, where
    ``convex_mod`` is in ``modules``) counts as loaded.
    """
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside = (*inside, node.name)
    used = set()
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        used.add(node.id)
    elif isinstance(node, ast.alias):
        used.add(node.name)
    elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
        used.add(node.attr)
    for child in ast.iter_child_nodes(node):
        used |= _used_names(child, modules, inside)
    return used - set(inside)


def _literal(path: Path, name: str):
    """The literal value of the module-level assignment to ``name``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    (value,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)
    ]
    return ast.literal_eval(value)


def test_every_export_has_a_caller():
    exports = set(_literal(SOURCE / "__init__.py", "__all__"))
    used = set()
    for module in MODULES:
        if module != "__init__":
            tree = _tree(module)
            aliases = {
                alias.asname or alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
                for alias in node.names
            }
            used |= _used_names(tree, aliases)
    assert sorted(exports - used - set(UNCALLED_EXPORTS)) == []
    assert sorted(set(UNCALLED_EXPORTS) - exports) == []
    assert sorted(set(UNCALLED_EXPORTS) & used) == []


def test_benchmark_names_exist():
    """The benchmark worker patches these on the cli module and calls these
    on the package; a missing one would break its traced runs."""
    worker = ROOT / "perfbench" / "worker.py"
    missing = [
        f"treestretch.cli.{name}"
        for name in _literal(worker, "CLI_CHILDREN")
        if not hasattr(treestretch.cli, name)
    ] + [
        f"treestretch.{name}"
        for name in _literal(worker, "LIBRARY_CALLS")
        if not hasattr(treestretch, name)
    ]
    assert missing == []
