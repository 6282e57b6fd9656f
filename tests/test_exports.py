"""Every exported name resolves.

A stale ``__all__`` entry, or a package-level import of a name a module no
longer defines, fails only when something star-imports or imports it.
These tests star-import every module and import every name, and check that
every module uses each name it imports.  The package is imported inside
each test, so a broken ``nndlab/__init__.py`` fails the tests rather than
their collection.  Two more read the source: every private definition is
used by package code, and every definition is named outside the tests, a
method or property as an attribute ``obj.name``.
A last one keeps counts and seeds read in one place, ``ranking``.
"""

import ast
import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

import pytest

PACKAGE = importlib.util.find_spec("nndlab")
MODULES = sorted(info.name for info in pkgutil.iter_modules(PACKAGE.submodule_search_locations))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"nndlab.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"nndlab.{name}.__all__ names undefined {missing}"
    exec(f"from nndlab.{name} import *", {})


def test_package_imports_resolve():
    package = importlib.import_module("nndlab")
    tree = ast.parse(Path(PACKAGE.origin).read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert imported
    assert [attr for attr in imported if not hasattr(package, attr)] == []


@pytest.mark.parametrize("name", MODULES)
def test_module_uses_its_imports(name):
    # no linter runs on the package; an import left behind by a deletion fails here
    path = Path(PACKAGE.submodule_search_locations[0]) / f"{name}.py"
    tree = ast.parse(path.read_text())
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == [], f"nndlab.{name} imports names it never uses"


def test_private_definitions_are_used():
    # a private helper is reachable only from inside the package, so one that
    # no package code names is dead; a deletion can leave such a helper behind
    trees = [ast.parse(path.read_text())
             for path in sorted(Path(PACKAGE.submodule_search_locations[0]).glob("*.py"))]
    defined = {
        node.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
    }
    used = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    assert defined
    assert sorted(defined - used) == [], "private definitions that no package code uses"


# parameters that hold counts or seeds, which ranking.checked_count and
# ranking.seeded read: a cast of one elsewhere truncates or rounds it
_COUNT_NAMES = {"n", "K", "k", "d", "m", "t", "seed", "cap", "trials", "samples", "sample_sets",
                "sample_size", "max_rounds"}


def test_counts_and_seeds_are_read_only_through_ranking():
    stray = []
    for path in sorted(Path(PACKAGE.submodule_search_locations[0]).glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        if path.stem == "ranking":
            seeded = next(node for node in tree.body
                          if isinstance(node, ast.FunctionDef) and node.name == "seeded")
            allowed = set(map(id, ast.walk(seeded)))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in allowed:
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            cast = (name in ("int", "round") and node.args and isinstance(node.args[0], ast.Name)
                    and node.args[0].id in _COUNT_NAMES)
            if name == "default_rng" or cast:
                stray.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert stray == [], "seed or cast a count through ranking.seeded or ranking.checked_count"


def test_dataclasses_holding_arrays_compare_by_identity():
    # a generated __eq__ compares an ndarray field elementwise and raises "truth
    # value ... is ambiguous", and a frozen one's __hash__ hashes the array and
    # raises "unhashable type"; eq=False keeps object identity for both
    holding, loose = [], []
    for path in sorted(Path(PACKAGE.submodule_search_locations[0]).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            decorators = [d for d in node.decorator_list
                          if ast.unparse(d.func if isinstance(d, ast.Call) else d) == "dataclass"]
            if not decorators or not any(
                isinstance(item, ast.AnnAssign) and ast.unparse(item.annotation) == "np.ndarray"
                for item in node.body
            ):
                continue
            holding.append(node.name)
            keywords = [kw for d in decorators if isinstance(d, ast.Call) for kw in d.keywords]
            if not any(kw.arg == "eq" and ast.unparse(kw.value) == "False" for kw in keywords):
                loose.append(f"{path.name}:{node.lineno}: {node.name}")
    assert holding
    assert loose == [], "dataclasses with an ndarray field that keep the generated __eq__"


def _names(path):
    """The identifiers that the code in ``path`` names, as ``(attributes,
    names)``: every attribute ``obj.name``, and every ``Name`` and imported
    name; no string, docstring or comment."""
    attributes, names = set(), set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add((node.asname or node.name).split(".")[-1])
    return attributes, names


def test_definitions_are_reached_outside_tests():
    # tests alone do not keep a definition alive: a function, class or method
    # that no package code, demo, benchmark script or README example names
    # serves nothing, and belongs in a tests/reference_*.py file or nowhere.
    # A method or property is reached only as an attribute obj.name, so a
    # local variable of the same name does not keep it
    package = Path(PACKAGE.submodule_search_locations[0])
    root = Path(__file__).resolve().parents[1]
    defined, members = set(), set()
    for path in package.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            if isinstance(node, ast.ClassDef):
                members.update(
                    item.name for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                )
    sources = [*package.glob("*.py"), *root.glob("demos/*.py"), *root.glob("perfbench/**/*.py")]
    attributes, names = set(), set()
    for path in sources:
        found_attributes, found_names = _names(path)
        attributes |= found_attributes
        names |= found_names
    readme = (root / "README.md").read_text()
    mentioned = set(re.findall(r"\w+", " ".join(re.findall(r"`([^`]+)`", readme))))
    assert defined and members
    assert sorted(defined - attributes - names - mentioned) == [], \
        "definitions that nothing but tests reaches"
    assert sorted(members - attributes - mentioned) == [], \
        "methods that nothing but tests reaches as an attribute"
