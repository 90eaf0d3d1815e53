"""The public names of torusns resolve, and so does every name the
benchmark under perfbench/ reaches into the package for.

perfbench/ is read as source (ast) and never imported or edited here.
"""

import ast
import dataclasses
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


# Public names with no caller in src/ or perfbench/ that are kept on purpose.
KEEP_UNREFERENCED = {
    # writes the basis dumps that `selftest --basis` reads
    ("eigenbasis", "save_basis"),
    # the closed-form decay of the acceptance criteria
    ("problems", "analytic_decay_problem"),
    # the pressure of the momentum balance; `residual` takes it implicitly
    ("helmholtz", "recover_pressure"),
}


def _src_sources():
    return {p.stem: ast.parse(p.read_text()) for p in sorted((ROOT / "src" / "torusns").glob("*.py"))}


def _references(nodes):
    """Every identifier used as an ast Name or as an Attribute's attr."""
    refs = set()
    for node in nodes:
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
    return refs


def _module_all(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("module defines no __all__")


def _unreferenced_public_names():
    """(module, name) of every ``__all__`` name that nothing references.

    A reference is an ast Name or Attribute in src/torusns outside the
    name's own top-level definition, in perfbench/ or a SPANNED entry.
    References from inside an unreferenced definition do not count, so the
    scan repeats until no more names drop out.
    """
    sources = _src_sources()
    sites = set()  # (identifier, module, enclosing top-level definition or None)
    for module, tree in sources.items():
        for stmt in tree.body:
            owner = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
            sites |= {(ident, module, owner) for ident in _references(ast.walk(stmt))}
    external = _references(n for tree in _perfbench_sources().values() for n in ast.walk(tree))
    external |= {attr for _, attr in _spanned()}
    public = {(m, a) for m in MODULES for a in _module_all(sources[m])} - KEEP_UNREFERENCED
    dead = set()
    while True:
        live = {
            (ident, (m, owner))
            for ident, m, owner in sites
            if (m, owner) not in dead
        }
        newly = {
            (m, a)
            for m, a in public - dead
            if a not in external and not any(i == a and site != (m, a) for i, site in live)
        }
        if not newly:
            return dead
        dead |= newly


def test_public_names_have_a_caller():
    assert _unreferenced_public_names() == set()


# Public methods and properties of exported classes with no caller in src/
# or perfbench/ that are kept on purpose, each an oracle of the tests.
KEEP_UNREFERENCED_MEMBERS = {
    # the manufactured pressure p*, against which recover_pressure is checked
    ("problems", "ManufacturedProblem", "pressure"),
    # d_t^j u* in closed form, against which the Bochner chain and the
    # momentum balance of the manufactured solution are checked
    ("problems", "ManufacturedProblem", "velocity_derivative"),
    # max |c_-k - conj c_k|, the check that a field is real
    ("fields", "Field", "hermitian_defect"),
    # the k = 0 coefficient, the check of zero-mean fields
    ("fields", "SpectralScalarField", "mean"),
    # one coefficient by wave vector, the check of single modes
    ("fields", "SpectralScalarField", "coefficient"),
}


def _public_members():
    """(module, class, method node) of every public method or property of a
    class in a module's ``__all__`` or of its bases in that module."""
    for module, tree in _src_sources().items():
        if module not in MODULES:
            continue
        classes = {c.name: c for c in tree.body if isinstance(c, ast.ClassDef)}
        names = [n for n in _module_all(tree) if n in classes]
        for name in names:  # grows by the bases it reaches
            bases = [b.id for b in classes[name].bases if isinstance(b, ast.Name)]
            names += [b for b in bases if b in classes and b not in names]
        for name in names:
            for node in classes[name].body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    yield module, name, node


def _unreferenced_public_members():
    """(module, class, name) of every public member that no ast Attribute
    names: in src/torusns outside the member's own definition, or in
    perfbench/.  Names are matched without their class, so a member shares
    the callers of every other attribute of its name."""
    external = _references(n for tree in _perfbench_sources().values() for n in ast.walk(tree))
    src_nodes = [n for tree in _src_sources().values() for n in ast.walk(tree)]
    dead = set()
    for module, cls, node in _public_members():
        inside = {id(n) for n in ast.walk(node)}
        used = any(
            isinstance(n, ast.Attribute) and n.attr == node.name and id(n) not in inside
            for n in src_nodes
        )
        if not used and node.name not in external:
            dead.add((module, cls, node.name))
    return dead


def test_public_members_have_a_caller():
    members = {(module, cls, node.name) for module, cls, node in _public_members()}
    assert KEEP_UNREFERENCED_MEMBERS <= members
    assert _unreferenced_public_members() - KEEP_UNREFERENCED_MEMBERS == set()


def test_solver_config_fields_have_a_caller():
    """Every SolverConfig field is passed as a keyword argument somewhere in
    src/torusns outside galerkin.py, or in perfbench/."""
    trees = [t for m, t in _src_sources().items() if m != "galerkin"]
    trees += _perfbench_sources().values()
    passed = {node.arg for tree in trees for node in ast.walk(tree) if isinstance(node, ast.keyword)}
    fields = {f.name for f in dataclasses.fields(torusns.galerkin.SolverConfig)}
    assert fields - passed == set()


@pytest.mark.parametrize(
    "path",
    [p for p in sorted((ROOT / "src" / "torusns").glob("*.py")) if p.stem != "__init__"]
    + sorted((ROOT / "tests").glob("*.py")),
    ids=lambda p: p.stem,
)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
    assert [b for b in bound if b not in used] == []
