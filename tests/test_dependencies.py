"""The package imports only the standard library, itself, and the run-time
dependencies that pyproject.toml names, and only at module level."""

import ast
import pathlib
import re
import sys

import pytest

tomllib = pytest.importorskip("tomllib", reason="tomllib is Python 3.11+")

ROOT = pathlib.Path(__file__).resolve().parent.parent
TREES = [(path, ast.parse(path.read_text(encoding="utf-8")))
         for path in sorted((ROOT / "src" / "hreb").glob("*.py"))]


def dependencies():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    # a requirement's name is what precedes its version specifier
    return [re.match(r"[A-Za-z0-9_.-]+", req).group(0)
            for req in project["dependencies"]]


def imports(tree):
    """(line, top-level module name or None for a relative import) for every
    import in the tree, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            yield node.lineno, (None if node.level
                                else node.module.split(".")[0])


def test_numpy_is_the_only_run_time_dependency():
    assert dependencies() == ["numpy"]


def test_every_import_is_stdlib_relative_or_a_dependency():
    allowed = set(sys.stdlib_module_names) | set(dependencies())
    stray = [(path.name, line, name) for path, tree in TREES
             for line, name in imports(tree)
             if name is not None and name not in allowed]
    assert not stray, f"imports that pyproject.toml does not list: {stray}"


def test_no_import_inside_a_function():
    nested = sorted({(path.name, line) for path, tree in TREES
                     for fn in ast.walk(tree)
                     if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                     for line, _ in imports(fn)})
    assert not nested, f"function-level imports: {nested}"
