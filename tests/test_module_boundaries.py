"""Module boundaries, read from the package source with ast: numpy code lives
only in solver.py, and only solver.py names the keys it keeps in a game's
instance dict, so no other module reads or writes the solver's state.

This file imports no numpy, so it runs where numpy is not installed.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "growthprice"
MODULES = sorted(PACKAGE.glob("*.py"))
# the arrays and the price that the solver keeps on a game, and a link from
# a shifted game to the game it came from, through which another module
# would hand the solver another game's state
SOLVER_KEYS = {"_vector", "_price", "_shifted_from"}


def _tree(path: Path) -> ast.AST:
    return ast.parse(path.read_text(), filename=str(path))


def _imported(tree: ast.AST) -> set[str]:
    """The top-level packages that tree imports, absolutely."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.partition(".")[0])
    return names


def _named(tree: ast.AST) -> set[str]:
    """Every identifier, attribute, keyword, parameter and string constant
    in tree."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.keyword, ast.arg)) and node.arg:
            names.add(node.arg)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_only_the_solver_imports_numpy():
    importers = {path.name for path in MODULES if "numpy" in _imported(_tree(path))}
    assert importers == {"solver.py"}


def test_the_solver_names_the_keys_it_keeps():
    # so that the test below looks for names that are in use
    assert {"_vector", "_price"} <= _named(_tree(PACKAGE / "solver.py"))


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "solver.py"], ids=lambda p: p.name
)
def test_no_other_module_names_what_the_solver_keeps_on_a_game(path):
    assert SOLVER_KEYS.isdisjoint(_named(_tree(path)))
