"""Every name a package module imports is used, and every module-level name is read.

An import must be used in its own module; __init__.py is skipped, its
imports are the package's re-exports.  A module-level name bound by a plain
assignment, a def or a class must be read (as a name or an attribute)
somewhere under src/ or tests/; dunder names such as __all__ are read by
Python itself.  One read by tests alone is code that only tests keep alive,
so it must be part of the package's API: listed in kneser_colorings.__all__.
No module imports dataclasses or inspect, so the package's import generates
no class code and leaves inspect (with ast, dis and tokenize) unloaded.
"""
import ast
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

import kneser_colorings

PACKAGE = Path(kneser_colorings.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
READERS = sorted(PACKAGE.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))


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


def _read_names(trees):
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


@cache
def _read_in_readers():
    return _read_names(ast.parse(p.read_text()) for p in READERS)


@cache
def _read_in_package():
    return _read_names(ast.parse(p.read_text()) for p in PACKAGE.glob("*.py"))


def _unread_assignments(tree, read):
    assigned = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not name.id.startswith("__"):
                        assigned[name.id] = node.lineno
    return sorted((line, name) for name, line in assigned.items() if name not in read)


def _unread_definitions(tree, read):
    return [(node.lineno, node.name) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name not in read]


def _unexported_and_unread(tree, read, exported):
    """Module-level names that `read` (the package's reads) misses and `exported` lacks."""
    unread = _unread_assignments(tree, read) + _unread_definitions(tree, read)
    return sorted((line, name) for line, name in unread if name not in exported)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def _imported_modules(tree):
    """The top-level names of the modules a tree imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_dataclasses_or_inspect(path):
    assert _imported_modules(ast.parse(path.read_text())) & {"dataclasses", "inspect"} == set()


def test_detects_dataclasses_and_inspect_imports():
    tree = ast.parse("import inspect as i\nfrom dataclasses import field\nfrom . import cli\n"
                     "import os.path\n")
    assert _imported_modules(tree) == {"inspect", "dataclasses", "os"}


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import kneser_colorings.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-S", "-c", code, str(PACKAGE.parent)],
                         capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"


def test_detects_an_unused_import():
    tree = ast.parse("from math import comb, isqrt\nimport json as j\nprint(isqrt(4))\n")
    assert _unused_imports(tree) == [(1, "comb"), (2, "j")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_module_constant_is_read(path):
    assert _unread_assignments(ast.parse(path.read_text()), _read_in_readers()) == []


def test_detects_an_unread_assignment():
    tree = ast.parse("Alias = tuple\nLIMIT, CAP = 3, 4\n__all__ = []\n"
                     "def f():\n    return LIMIT\n")
    reader = ast.parse("import mod\nprint(mod.CAP)\n")
    assert _unread_assignments(tree, _read_names([tree, reader])) == [(1, "Alias")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_module_function_and_class_is_read(path):
    assert _unread_definitions(ast.parse(path.read_text()), _read_in_readers()) == []


def test_detects_an_unread_definition():
    tree = ast.parse("def helper():\n    return 1\n\nasync def poll():\n    pass\n\n"
                     "class Spare:\n    pass\n\nclass Used:\n    pass\n\n"
                     "def main():\n    return Used()\n")
    reader = ast.parse("import mod\nmod.main()\n")
    assert _unread_definitions(tree, _read_names([tree, reader])) == [
        (1, "helper"), (4, "poll"), (7, "Spare")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_module_name_read_only_by_tests_is_exported(path):
    tree = ast.parse(path.read_text())
    assert _unexported_and_unread(tree, _read_in_package(), set(kneser_colorings.__all__)) == []


def test_detects_a_name_read_only_by_tests():
    tree = ast.parse("def helper():\n    return 1\n\ndef api():\n    return 2\n\n"
                     "SPARE = 3\nUSED = 4\n\ndef main():\n    return USED\n")
    assert _unexported_and_unread(tree, _read_names([tree]), {"api", "main"}) == [
        (1, "helper"), (7, "SPARE")]
