"""Source hygiene: every top-level import in the package is used, every
private top-level function or class and every UPPER_CASE module constant is
read somewhere in the package, no module of the package imports a private
name from another, and none imports sympy (only the test references do)."""

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


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


def private_imports(source):
    """(line, name) of every private name that an import at any depth of
    the module takes from another module."""
    return [(node.lineno, alias.name) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            for alias in node.names if _is_private(alias.name)]


def unread_internal_names(sources):
    """(module, name) of every private top-level function or class and every
    UPPER_CASE module constant that no module in sources reads.

    sources maps module names to their text.  A read is a loaded name or an
    attribute of that name anywhere in any module; public functions and
    classes are entry points and out of scope.
    """
    defined = []
    read = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if _is_private(node.name):
                    defined.append((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                for target in targets:
                    for leaf in ast.walk(target):
                        if isinstance(leaf, ast.Name) and leaf.id.isupper():
                            defined.append((module, leaf.id))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(d for d in defined if d[1] not in read)


def test_unused_imports_detected():
    src = "import os\nfrom a import b, c as d\nimport x.y\nprint(d, x)\n"
    assert unused_imports(src) == [(1, "os"), (2, "b")]


def test_unread_internal_names_detected():
    sources = {
        "a": ("X = 1\n_Y, Z = 2, 3\nT: int = 4\n__all__ = []\n"
              "def _f():\n    return X\nclass _C:\n    pass\n"
              "def g():\n    pass\n"),
        "b": "from a import _C\nimport a\nprint(_C, a.T)\n",
    }
    assert unread_internal_names(sources) == [("a", "Z"), ("a", "_Y"),
                                              ("a", "_f")]


def test_private_imports_detected():
    src = ("from .a import b, _c\nfrom __future__ import annotations\n"
           "import _d\nfrom . import __version__\n"
           "def f():\n    from .e import _g as g\n")
    assert private_imports(src) == [(1, "_c"), (6, "_g")]


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
def test_no_private_import(path):
    assert private_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_sympy_import(path):
    assert sympy_imports(path.read_text()) == []


def test_no_unread_internal_names():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    assert unread_internal_names(sources) == []
