"""What the package's modules import, and what importing it does.

Each module under ``src/catat/`` is parsed with ``ast``: a name an import
binds must be read somewhere in the module, or be listed in its
``__all__``.  ``from __future__`` imports are not names.  No module
applies ``dataclass``, which generates and compiles methods at import,
and ``import catat`` loads the same twelve modules: ``pyemit``,
``compress``, ``cli`` and ``corpus`` load on first use.  No class but the
record bases ``errors.Record`` and ``errors.Frozen`` writes out how a
record compares, prints, hashes, pickles or refuses a change, apart from
the few exceptions named in ``OWN_RECORD_METHODS``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import catat

PACKAGE = Path(catat.__file__).parent
SRC = PACKAGE.parent
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


# -- work at import: no class is generated, and only the eager modules load

EAGER_MODULES = ["catat", "catat.dyninterp", "catat.emitter", "catat.errors",
                 "catat.flatten", "catat.lexer", "catat.nodes",
                 "catat.parser", "catat.specializer", "catat.staging",
                 "catat.staticeval", "catat.values"]


def dataclass_uses(tree: ast.Module) -> list:
    """Lines that import ``dataclass``, read it under the name it was
    imported as, or name ``dataclasses.dataclass``."""
    imports = [node for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and node.module == "dataclasses"
               and any(alias.name == "dataclass" for alias in node.names)]
    names = {alias.asname or alias.name for node in imports
             for alias in node.names if alias.name == "dataclass"}
    return sorted([node.lineno for node in imports] +
                  [node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Name) and node.id in names
                   or isinstance(node, ast.Attribute)
                   and node.attr == "dataclass"])


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(PACKAGE)) for p in MODULES])
def test_no_class_is_generated_by_dataclass(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert dataclass_uses(tree) == []


def test_a_dataclass_use_is_found():
    tree = ast.parse("import dataclasses\n"
                     "from dataclasses import FrozenInstanceError\n"
                     "from dataclasses import dataclass as record\n"
                     "@record(frozen=True)\n"
                     "class A: pass\n"
                     "@dataclasses.dataclass\n"
                     "class B: pass\n")
    assert dataclass_uses(tree) == [3, 4, 6]


# -- record methods: written once, in errors.Record and errors.Frozen

RECORD_METHODS = {"__eq__", "__hash__", "__repr__", "__reduce__",
                  "__setattr__", "__delattr__"}
OWN_RECORD_METHODS = {
    "errors.Record.__eq__", "errors.Record.__hash__",
    "errors.Record.__repr__", "errors.Frozen.__setattr__",
    "errors.Frozen.__delattr__", "errors.Frozen.__hash__",
    "errors.Frozen.__reduce__",
    # a marker, not a record
    "nodes._Fresh.__repr__",
    # a tuple that keeps its hash
    "values.ArrayKey.__hash__",
    # shows ``checked``, which it does not compare
    "specializer.ResidualProgram.__repr__",
}


def record_methods(tree: ast.Module, module: str) -> list:
    """``module.Class.method`` for each record method a class body defines
    or assigns."""
    found = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for stmt in cls.body:
            if isinstance(stmt, ast.FunctionDef):
                names = [stmt.name]
            elif isinstance(stmt, ast.Assign):
                names = [t.id for t in stmt.targets
                         if isinstance(t, ast.Name)]
            else:
                names = []
            found += [f"{module}.{cls.name}.{name}" for name in names
                      if name in RECORD_METHODS]
    return found


def package_record_methods() -> list:
    return [method for path in MODULES
            for method in record_methods(
                ast.parse(path.read_text(encoding="utf-8")),
                ".".join(path.relative_to(PACKAGE).with_suffix("").parts))]


def test_only_the_record_bases_write_record_methods():
    assert [m for m in package_record_methods()
            if m not in OWN_RECORD_METHODS] == []


def test_a_record_method_is_found():
    tree = ast.parse("class A:\n"
                     "    def __eq__(self, other): pass\n"
                     "    __hash__ = None\n"
                     "    def same(self): pass\n"
                     "class B(A):\n"
                     "    __setattr__ = __delattr__ = A.same\n"
                     "    def __init__(self): pass\n")
    assert record_methods(tree, "m") == [
        "m.A.__eq__", "m.A.__hash__", "m.B.__setattr__", "m.B.__delattr__"]


def test_import_loads_exactly_the_eager_modules():
    code = ("import sys, catat; print(' '.join(sorted(m for m in sys.modules"
            " if m == 'catat' or m.startswith('catat.'))))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, check=True,
                            env={**os.environ, "PYTHONPATH": str(SRC)})
    assert result.stdout.split() == EAGER_MODULES
