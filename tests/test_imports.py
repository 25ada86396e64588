"""No module of the package imports a name it never uses.

Each module under ``src/catat/`` is parsed with ``ast``: a name an import
binds must be read somewhere in the module, or be listed in its
``__all__``.  ``from __future__`` imports are not names."""

import ast
from pathlib import Path

import pytest

import catat

PACKAGE = Path(catat.__file__).parent
MODULES = sorted(PACKAGE.rglob("*.py"))


def unused_imports(tree: ast.Module) -> list:
    imported = {}  # bound name -> line
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(PACKAGE)) for p in MODULES])
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert unused_imports(tree) == []


def test_an_unused_import_is_found():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os, sys as system\n"
                     "from .values import INT, PRIM_BY_NAME\n"
                     "__all__ = ['system']\n"
                     "x: INT = 1\n")
    assert unused_imports(tree) == [(2, "os"), (3, "PRIM_BY_NAME")]
