"""Every name the package and its tests import is read somewhere, and so is
every private module-level name of the package.

No linter runs on this code, so this is the guard against imports, helpers
and constants left behind when the code that used them goes.
"""

import ast
from collections import Counter
from pathlib import Path
from typing import Mapping

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC_FILES = sorted((ROOT / "src").rglob("*.py"))
FILES = sorted([*SRC_FILES, *(ROOT / "tests").glob("*.py")])


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


def _reads(node: ast.AST) -> Counter:
    """How often each name is read below ``node``, bare or as an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load))


def unread_private_names(trees: Mapping[str, ast.Module]) -> list[str]:
    """``module:name`` of each module-level private function, class and
    constant of ``trees`` that no module reads outside its own definition."""
    total = sum((_reads(tree) for tree in trees.values()), Counter())
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            own = _reads(node)
            unread += [f"{module}:{name}" for name in names
                       if name.startswith("_") and not name.startswith("__")
                       and total[name] == own[name]]
    return sorted(unread)


def test_every_private_name_is_read():
    trees = {str(path.relative_to(ROOT)): ast.parse(path.read_text(encoding="utf-8"))
             for path in SRC_FILES}
    assert unread_private_names(trees) == []


def test_finds_an_unread_private_name():
    trees = {
        "a": ast.parse("_LIMIT = 3\n_UNUSED: int = 4\n__version__ = '1'\n"
                       "def _dead(n):\n    return _dead(n - 1) if n > _LIMIT else n\n"
                       "class _Used:\n    pass\n"),
        "b": ast.parse("import a\nprint(a._Used)\n"),
    }
    assert unread_private_names(trees) == ["a:_UNUSED", "a:_dead"]
