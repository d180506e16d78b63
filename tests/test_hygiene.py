"""Every name a package module imports is used in that module.

__init__.py is skipped: its imports are the package's re-exports.
"""
import ast
from pathlib import Path

import pytest

import kneser_colorings

MODULES = sorted(p for p in Path(kneser_colorings.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_detects_an_unused_import():
    tree = ast.parse("from math import comb, isqrt\nimport json as j\nprint(isqrt(4))\n")
    assert _unused_imports(tree) == [(1, "comb"), (2, "j")]
