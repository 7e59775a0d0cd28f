"""Package-wide rules: one error base class, no import left unread, syntax
that the oldest supported Python reads, and a package namespace that loads
each module on first use."""

import ast
import importlib
import inspect
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import atlh

SOURCES = sorted(Path(atlh.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]


def test_every_value_error_is_an_atlh_error():
    # `atlh` exits 2 on exactly the `AtlhError`s, so a `ValueError` class
    # outside the hierarchy would leak a traceback
    classes = {
        value
        for path in SOURCES
        if path.stem != "__init__"  # it only re-exports
        for value in vars(importlib.import_module(f"atlh.{path.stem}")).values()
        if inspect.isclass(value) and issubclass(value, ValueError)
        and value.__module__.startswith("atlh")
    }
    names = {cls.__name__ for cls in classes}
    assert {
        "AtlhError", "FormulaError", "ModelError", "CheckError",
        "TranslateError", "SuccinctError", "ScenarioError",
    } <= names
    assert [cls.__name__ for cls in classes if not issubclass(cls, atlh.AtlhError)] == []


def _imported_names(tree: ast.Module) -> set[str]:
    """The names that the module's top-level imports bind."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {alias.asname or alias.name for alias in node.names}
    return names


def _exported_names(path: Path) -> set[str]:
    """The module's `__all__`, read from the module: `atlh`'s is computed."""
    module = importlib.import_module("atlh" if path.stem == "__init__" else f"atlh.{path.stem}")
    return set(getattr(module, "__all__", ()))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_import_is_read_or_exported(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    assert sorted(_imported_names(tree) - read - _exported_names(path)) == []


@pytest.mark.parametrize("tree", ["src/atlh", "tests", "bench"])
def test_every_file_parses_as_python_3_10(tree):
    # pyproject.toml requires Python 3.10, and CI runs it: no file may use
    # syntax newer than that, such as `except*` or a `type` statement
    paths = sorted((ROOT / tree).rglob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def _typed_reexports() -> dict[str, str]:
    """Each name that `atlh/__init__.py` imports for type checkers, and its module."""
    tree = ast.parse((ROOT / "src/atlh/__init__.py").read_text(encoding="utf-8"))
    (block,) = [
        node for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING"
    ]
    return {alias.name: node.module for node in block.body for alias in node.names}


def test_every_public_name_is_its_modules_object():
    homes = _typed_reexports()
    assert sorted(homes) == sorted(atlh.__all__)
    for name, module in homes.items():
        assert getattr(atlh, name) is getattr(importlib.import_module(module), name), name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from atlh import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(atlh.__all__)


def test_unknown_name_is_the_standard_attribute_error():
    with pytest.raises(AttributeError) as info:
        atlh.nosuchname
    assert str(info.value) == "module 'atlh' has no attribute 'nosuchname'"


def test_bare_package_loads_modules_on_first_use():
    # `-I`: a fresh interpreter without the environment or user site-packages;
    # it unpickles a formula with a `Real` threshold before reading any name
    text = "H[a] >= 3/2 {p, q} & H[a] < log(3) {p}"
    data = pickle.dumps(atlh.parse_formula(text)).hex()
    code = f"""
import pickle, sys
sys.path.insert(0, {str(ROOT / "src")!r})
import atlh
assert [m for m in sys.modules if m.startswith("atlh")] == ["atlh"]
assert set(atlh.__all__) <= set(dir(atlh))  # before any name is read
f = pickle.loads(bytes.fromhex({data!r}))
assert pickle.loads(pickle.dumps(f)) == f
assert atlh.mcheck.check is atlh.check
print(atlh.pretty_print(f))
"""
    run = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stdout, run.stderr) == (0, "H[a] >= 1.5 {p, q} & H[a] < log(3) {p}\n", "")
