"""Every name a zerotalk module imports is used in that module.

A deletion that leaves its import behind fails here rather than lingering.
``__init__`` is skipped: its imports are the package's exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import zerotalk

PACKAGE = Path(zerotalk.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# perfbench's tracing patches gf.vec_mat in every namespace that holds it,
# and its tests read these two.
UNUSED_ALLOWED = {("mcf", "vec_mat"), ("sim", "vec_mat")}


def annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            yield node.annotation


def imported_and_used(tree: ast.Module) -> tuple[set[str], set[str]]:
    imported, used = set(), set()
    quoted = [c.value for a in annotations(tree) for c in ast.walk(a)
              if isinstance(c, ast.Constant) and isinstance(c.value, str)]  # such as -> "DiscreteSource"
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    for node in [tree, *map(ast.parse, quoted)]:
        used.update(n.id for n in ast.walk(node) if isinstance(n, ast.Name))
    return imported, used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    imported, used = imported_and_used(ast.parse(path.read_text()))
    unused = {name for name in imported - used if (path.stem, name) not in UNUSED_ALLOWED}
    assert not unused, f"{path.name} imports {sorted(unused)} and never uses them"


def test_the_allowed_unused_imports_are_still_imported():
    for stem, name in UNUSED_ALLOWED:
        imported, used = imported_and_used(ast.parse((PACKAGE / f"{stem}.py").read_text()))
        assert name in imported and name not in used, (stem, name)
