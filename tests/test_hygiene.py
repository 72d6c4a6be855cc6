"""Source hygiene: every top-level import in the package is used, and no
module of the package imports sympy (only the test references do)."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "dfindex"


def unused_imports(source):
    """Names bound by top-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def sympy_imports(source):
    """Lines of every import of sympy, at any depth of the module."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        if any(n == "sympy" or n.startswith("sympy.") for n in names):
            lines.append(node.lineno)
    return lines


def test_unused_imports_detected():
    src = "import os\nfrom a import b, c as d\nimport x.y\nprint(d, x)\n"
    assert unused_imports(src) == [(1, "os"), (2, "b")]


def test_sympy_imports_detected():
    src = ("import os, sympy as sp\nfrom sympy.abc import x\n"
           "def f():\n    import sympy\n    from .sympy import y\n"
           "import sympyx\n")
    assert sympy_imports(src) == [1, 2, 4]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_sympy_import(path):
    assert sympy_imports(path.read_text()) == []
