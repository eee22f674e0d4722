"""Module boundaries, read from the package source with ast: numpy code lives
only in kernels.py, each key kept in a game's instance dict is named by the
one module that owns it, so no other module reads or writes that state, and
every per-outcome sum is reached through kernels.py.

This file imports no numpy, so it runs where numpy is not installed.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "growthprice"
MODULES = sorted(PACKAGE.glob("*.py"))
# the module that names each key kept on a game: the arrays of a wide game,
# the last price, and, named by none, a link from a shifted game to the game
# it came from and a joint Newton start, through which another module would
# hand a solver another game's state
OWNERS = {
    "_vector": "kernels.py",
    "_price": "solver.py",
    "_shifted_from": None,
    "_joint_start": None,
}


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


def _imported_from(tree: ast.AST, module: str) -> set[str]:
    """The names that tree imports from the package module, relatively."""
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module
        for alias in node.names
    }


def _defined(tree: ast.AST) -> set[str]:
    """The functions defined at the top level of tree."""
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


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


def test_only_the_kernels_import_numpy():
    importers = {path.name for path in MODULES if "numpy" in _imported(_tree(path))}
    assert importers == {"kernels.py"}


@pytest.mark.parametrize("key", [key for key, owner in OWNERS.items() if owner])
def test_the_owner_names_the_key_it_keeps(key):
    # so that the test below looks for names that are in use
    assert key in _named(_tree(PACKAGE / OWNERS[key]))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_other_module_names_what_a_game_keeps(path):
    foreign = {key for key, owner in OWNERS.items() if owner != path.name}
    assert foreign.isdisjoint(_named(_tree(path)))


@pytest.mark.parametrize("name", ["solver.py", "translation.py"])
def test_the_solvers_import_nothing_private_from_games(name):
    imported = _imported_from(_tree(PACKAGE / name), "games")
    assert imported and not {n for n in imported if n.startswith("_")}


def test_translation_imports_no_sum_from_the_solver():
    # the sums are kernels.py's functions; the solver defines none of them,
    # so translation reaches each through kernels
    sums = _defined(_tree(PACKAGE / "kernels.py"))
    assert {"_first_order_sum", "_log_growth", "_boundary_growth"} <= sums
    assert sums.isdisjoint(_defined(_tree(PACKAGE / "solver.py")))
    assert sums.isdisjoint(_imported_from(_tree(PACKAGE / "translation.py"), "solver"))
