"""Every name the package and its tests import is read somewhere.

No linter runs on this code, so this is the guard against imports left
behind when the code that used them goes.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(tree: ast.Module) -> list[str]:
    """Names that the imports of ``tree`` bind and nothing reads; names listed
    in ``__all__`` and ``from __future__`` imports are exempt."""
    imported, exported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read - exported)


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_read(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_finds_an_unused_import():
    tree = ast.parse("from __future__ import annotations\nimport numpy.linalg\n"
                     "import os, sys as system\nfrom math import pi, tau\n"
                     "__all__ = ['tau']\nprint(numpy.linalg.norm, system.argv)\n")
    assert unused_imports(tree) == ["os", "pi"]
