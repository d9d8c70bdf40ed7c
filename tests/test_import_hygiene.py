"""Every module-level import in the package is used or re-exported.

No linter is assumed: each module under ``src/crosstnn`` is parsed with
``ast``, and an import must bind a name that the module reads somewhere
or lists in ``__all__``.  A refactor that leaves an import dead fails here.
"""

import ast
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
