"""The package's public surface: ``__all__`` lists, root imports and the
names the README points readers to agree with each other, and every
definition in the package is exported or called."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import stochmds

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "stochmds"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py")
                 if not p.stem.startswith("_"))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"stochmds.{name}")
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert not missing, f"stochmds.{name}.__all__ names {missing}"


def test_root_imports_are_exported_by_their_module():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imports = [node for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"stochmds.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, \
                f"{alias.name} is not in stochmds.{node.module}.__all__"


def test_readme_lower_level_pieces_resolve():
    text = (ROOT / "README.md").read_text()
    match = re.search(r"Lower-level pieces \((.*?)\)", text, re.S)
    assert match, "README has no 'Lower-level pieces' list"
    names = re.findall(r"`(\w+)`", match.group(1))
    assert names
    missing = [n for n in names if not hasattr(stochmds, n)]
    assert not missing, f"README names {missing} that stochmds lacks"


def _names_used(node):
    """The names ``node``'s AST uses: names read, attributes taken and
    names imported. Docstrings are strings, so the names they mention do
    not count."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.alias):
            used.add(sub.name)
    return used


def test_every_definition_is_exported_or_called():
    """Every module-level function or class in the package is in its
    module's ``__all__`` or is named somewhere in the package outside its
    own definition: the library keeps only what it exports and what its
    drivers call. The tests' plain references live in
    ``tests/reference.py``."""
    tops = [(p.stem, top) for p in sorted(PACKAGE.glob("*.py"))
            for top in ast.parse(p.read_text()).body]
    uses = [(top, _names_used(top)) for _, top in tops]
    unused = []
    for stem, top in tops:
        if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            continue
        module = importlib.import_module(
            "stochmds" if stem == "__init__" else f"stochmds.{stem}")
        if top.name in getattr(module, "__all__", ()):
            continue
        if not any(top.name in names for other, names in uses
                   if other is not top):
            unused.append(f"{stem}.{top.name}")
    assert not unused, f"defined but neither exported nor called: {unused}"


TESTS = ROOT / "tests"


def _unused_imports(tree):
    """The names ``tree``'s imports bind that no ``ast.Name`` in it reads:
    ``import a.b`` binds ``a``, ``from a import b as c`` binds ``c``.
    ``__future__`` imports bind nothing."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.partition(".")[0]
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
    return sorted(bound - read)


def test_unused_import_is_found():
    tree = ast.parse("import os, numpy.linalg\nfrom a import b, c as d\n"
                     "from __future__ import annotations\nos.sep, d\n")
    assert _unused_imports(tree) == ["b", "numpy"]


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name)
def test_test_module_uses_every_import(path):
    """A test module imports only names it uses."""
    unused = _unused_imports(ast.parse(path.read_text()))
    assert not unused, f"{path.name} imports {unused} and never uses them"
