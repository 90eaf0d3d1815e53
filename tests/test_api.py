"""The public names of torusns resolve, and so does every name the
benchmark under perfbench/ reaches into the package for.

perfbench/ is read as source (ast) and never imported or edited here.
"""

import ast
import importlib
from pathlib import Path

import pytest

import torusns

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("fields", "operators", "helmholtz", "eigenbasis", "galerkin", "estimates", "problems")


def _perfbench_sources():
    return {p.name: ast.parse(p.read_text()) for p in sorted((ROOT / "perfbench").glob("*.py"))}


def _spanned():
    """The (module, attribute) pairs of perfbench/tracing.py SPANNED."""
    for node in ast.walk(_perfbench_sources()["tracing.py"]):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SPANNED" for t in node.targets
        ):
            return [(mod, attr) for mod, attr, _ in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/tracing.py defines no SPANNED")


def _attribute_uses():
    """(module, attribute) for every ``name.attr`` in perfbench/ whose name
    was bound by ``from torusns import name`` or ``import torusns``."""
    uses = set()
    for tree in _perfbench_sources().values():
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "torusns":
                bound.update({a.asname or a.name: f"torusns.{a.name}" for a in node.names})
            elif isinstance(node, ast.Import):
                names = [a for a in node.names if a.name == "torusns"]
                bound.update({a.asname or a.name: a.name for a in names})
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in bound
            ):
                uses.add((bound[node.value.id], node.attr))
    return sorted(uses)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"torusns.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing


def test_package_reexports_resolve():
    tree = ast.parse((ROOT / "src" / "torusns" / "__init__.py").read_text())
    names = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert len(names) > 50
    for module, attr in names:
        source = importlib.import_module(f"torusns.{module}")
        assert getattr(torusns, attr) is getattr(source, attr)


def test_benchmark_spanned_names_exist():
    spanned = _spanned()
    assert spanned
    for module, attr in spanned:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)


def test_benchmark_attribute_uses_exist():
    uses = _attribute_uses()
    assert ("torusns.galerkin", "save_trajectory") in uses
    for module, attr in uses:
        assert hasattr(importlib.import_module(module), attr), (module, attr)
