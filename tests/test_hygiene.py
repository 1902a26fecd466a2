"""Source hygiene: every imported name is used in the module that imports it,
and every private name the package defines is used in the module that
defines it."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "kanrel").rglob("*.py"))
MODULES = sorted(
    p
    for top in ("src", "tests")
    for p in (ROOT / top).rglob("*.py")
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _defined(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def unreferenced_privates(source: str) -> list[str]:
    """Private module-level names and private methods that nothing in the
    module reads: a module-level name must be loaded by name, a method
    looked up as an attribute."""
    tree = ast.parse(source)
    loaded = {
        n.id
        for n in ast.walk(tree)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    looked_up = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    unused = []
    for node in tree.body:
        for name in _defined(node):
            if _private(name) and name not in loaded:
                unused.append(f"{name} (line {node.lineno})")
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if (
                    isinstance(member, ast.FunctionDef)
                    and _private(member.name)
                    and member.name not in looked_up
                ):
                    unused.append(f"{member.name} (line {member.lineno})")
    return unused


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_private_name_is_used(path):
    assert unreferenced_privates(path.read_text()) == []
