"""Every module-level import in the package is used or re-exported,
every module-level private helper is read, and every name a module lists
in ``__all__`` is bound in it.

No linter is assumed: each module under ``src/crosstnn`` is parsed with
``ast``, and an import must bind a name that the module reads somewhere
or lists in ``__all__``.  A private function, class, constant or method
must be read by some module of the package.  A refactor that leaves an
import dead, or a helper or constructor that nothing calls any more,
fails here, and so does an ``__all__`` entry left behind by a deletion,
which would otherwise fail only at ``import *``.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "crosstnn"


def unused_imports(source: str) -> list:
    """Names bound by module-level imports that are neither read nor exported."""
    tree = ast.parse(source)
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read and name not in exported:
                    unused.append(name)
    return unused


def test_the_check_finds_a_dead_import():
    source = "import os\nimport sys\nfrom math import gcd, lcm\n__all__ = ['lcm']\nsys.exit(0)\n"
    assert unused_imports(source) == ["os", "gcd"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_definitions(source: str) -> set:
    """Private names a module defines: functions, classes, constants and class methods."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef):
            names.update(
                item.name
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            )
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def names_read(source: str) -> set:
    """Names a module reads, imports from another module or reads as an attribute."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_the_check_finds_an_orphaned_private_helper():
    source = "_LIMIT = 3\n_SEEN: set = set()\n\ndef _used():\n    return _LIMIT\n\ndef _orphan():\n" \
             "    pass\n\nclass _Kept:\n    pass\n\nprint(_used(), _Kept)\n"
    assert private_definitions(source) - names_read(source) == {"_orphan", "_SEEN"}
    assert "_orphan" in names_read("from .helpers import _orphan\n")


def test_the_check_finds_an_orphaned_private_method():
    source = (
        "class Table:\n"
        "    def __len__(self):\n        return self._size()\n"
        "    def _size(self):\n        return 0\n"
        "    @classmethod\n    def _from_rows(cls, rows):\n        return cls()\n"
    )
    assert private_definitions(source) - names_read(source) == {"_from_rows"}
    assert "_from_rows" in names_read("Table._from_rows([])\n")


def test_every_private_helper_is_read():
    sources = [path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))]
    read = set().union(*map(names_read, sources))
    defined = set().union(*map(private_definitions, sources))
    assert defined, "no private helpers found"
    assert sorted(defined - read) == []


def unbound_exports(module) -> list:
    """Names in the module's ``__all__`` that the module does not bind."""
    return [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]


def test_the_check_finds_a_stale_export():
    module = types.ModuleType("stale")
    exec("__all__ = ['kept', 'deleted']\nkept = 1\n", module.__dict__)
    assert unbound_exports(module) == ["deleted"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_exported_name_is_bound(path):
    name = "crosstnn" if path.stem == "__init__" else f"crosstnn.{path.stem}"
    assert unbound_exports(importlib.import_module(name)) == []
