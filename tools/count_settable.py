"""Count the settable values of the dfindex package.

Usage, from the root of a checkout:

    python3 tools/count_settable.py [PATH ...]

A settable value is a field of a @dataclass class, or a parameter with a
default: positional and keyword-only parameters of every function, nested
functions and methods included, and of every lambda.  PATH defaults to
src/dfindex; each PATH is a .py file or a directory searched for them.
Prints the total.
"""

from __future__ import annotations

import ast
import os
import sys

DEFAULT_ROOT = os.path.join("src", "dfindex")


def _is_dataclass(node):
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) \
            else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def count_source(text):
    """The number of settable values in one module's source text."""
    total = 0
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            total += sum(isinstance(s, ast.AnnAssign) for s in node.body)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)):
            total += len(node.args.defaults)
            total += sum(d is not None for d in node.args.kw_defaults)
    return total


def _files(path):
    if os.path.isfile(path):
        yield path
        return
    for root, dirs, names in os.walk(path):
        dirs.sort()
        for name in sorted(names):
            if name.endswith(".py"):
                yield os.path.join(root, name)


def count_paths(paths):
    total = 0
    for path in paths:
        for name in _files(path):
            with open(name) as fh:
                total += count_source(fh.read())
    return total


def main(argv=None):
    paths = (sys.argv[1:] if argv is None else argv) or [DEFAULT_ROOT]
    print(count_paths(paths))
    return 0


if __name__ == "__main__":
    sys.exit(main())
