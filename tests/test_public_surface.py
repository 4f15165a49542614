"""The package's public surface: ``__all__`` lists, root imports and the
names the README points readers to agree with each other."""

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
