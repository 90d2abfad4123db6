"""numpy is the only runtime dependency: every import in the package is the
standard library, numpy or the package itself, and the project metadata
declares numpy alone. Every exception class the package defines has an exit
code."""
import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

import hdrdeghost
from hdrdeghost.cli import EXIT_CODES

PACKAGE = Path(hdrdeghost.__file__).resolve().parent
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "hdrdeghost"}


def _imported_roots(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            # a relative import (level > 0) stays inside the package
            yield "hdrdeghost" if node.level else node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_package_imports_only_stdlib_and_numpy(path):
    assert set(_imported_roots(path)) <= ALLOWED


def test_runtime_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    meta = tomllib.loads((PACKAGE.parents[1] / "pyproject.toml").read_text())
    deps = meta["project"]["dependencies"]
    assert [re.match(r"[\w.-]+", d).group() for d in deps] == ["numpy"]


def _environment_reads(path):
    """(module, function) of every os.environ or os.getenv in a module."""
    tree = ast.parse(path.read_text(), str(path))
    found = []

    def visit(node, func):
        if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.append((path.stem, func))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found.extend((path.stem, func) for a in node.names
                         if a.name in ("environ", "getenv"))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_the_only_environment_knob_is_hdt_threads():
    # codecs.max_workers reads HDT_THREADS, which sizes the loader pool
    reads = [r for p in sorted(PACKAGE.glob("*.py")) for r in _environment_reads(p)]
    assert reads == [("codecs", "max_workers")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_exception_class_has_an_exit_code(path):
    # else the CLI would print its traceback instead of exiting 1, 2 or 3
    module = importlib.import_module(
        "hdrdeghost" + ("" if path.stem == "__init__" else f".{path.stem}"))
    kinds = tuple(kind for kinds, _ in EXIT_CODES for kind in kinds)
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.ClassDef):
            cls = getattr(module, node.name)
            if issubclass(cls, BaseException):
                assert issubclass(cls, kinds), node.name
