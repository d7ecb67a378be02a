"""Every module-level import in the package is used.

Names listed in a module's ``__all__`` are re-exports, and an import
statement marked ``# noqa: F401`` is kept on purpose; both are exempt.
``__init__.py`` only re-exports, so it is not checked.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "privdeg"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = set()
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in ln for ln in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported.add(alias.asname or alias.name.split(".")[0])
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used - _exported(tree))


def test_checker_flags_only_unread_names():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import sys\n"
              "from math import pi, tau\n"
              "from json import dumps  # noqa: F401\n"
              "from re import compile as rx\n"
              "__all__ = ['tau']\n"
              "def f():\n"
              "    return os.path.join(str(pi))\n")
    assert unused_imports(source) == ["rx", "sys"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
