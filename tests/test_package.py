"""Package-wide rules: one error base class, no import left unread, and
syntax that the oldest supported Python reads."""

import ast
import importlib
import inspect
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


def _exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_import_is_read_or_exported(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    assert sorted(_imported_names(tree) - read - _exported_names(tree)) == []


@pytest.mark.parametrize("tree", ["src/atlh", "tests", "bench"])
def test_every_file_parses_as_python_3_10(tree):
    # pyproject.toml requires Python 3.10, and CI runs it: no file may use
    # syntax newer than that, such as `except*` or a `type` statement
    paths = sorted((ROOT / tree).rglob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
