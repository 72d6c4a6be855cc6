"""tools/count_settable.py's count of settable values."""

import os
import runpy
import textwrap

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "count_settable.py")
# the package's settable values; a change that adds one raises this bound
# and says why in CHANGES.md
PACKAGE_SETTABLE = 60


@pytest.fixture(scope="module")
def tool():
    return runpy.run_path(TOOL)


SNIPPET = textwrap.dedent('''
    from dataclasses import dataclass, field
    import dataclasses

    @dataclass
    class Config:
        size: int                                   # 1: a field
        tags: dict = field(default_factory=dict)    # 2: a field
        LIMIT = 3                                   # a class attribute

    @dataclasses.dataclass(frozen=True)
    class Point:
        x: float                                    # 3: a field

    class Plain:
        y: float = 0.0                              # not a dataclass

    def outer(a, b=1, *args, c, d=2, **kw):         # 4: b; 5: d
        def inner(e=3):                             # 6: e
            return e
        f = lambda g, h=4: g + h                    # 7: h
        return inner, f
''')


def test_counts_one_of_each_kind(tool):
    assert tool["count_source"](SNIPPET) == 7


def test_counts_nothing_without_defaults_or_dataclasses(tool):
    assert tool["count_source"]("def f(a, *, b):\n    return lambda c: c\n"
                                "class C:\n    d: int = 1\n") == 0


def test_counts_a_directory(tool, tmp_path):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("def g(x=1):\n    return x\n")
    (tmp_path / "notes.txt").write_text("def h(y=2): pass\n")
    assert tool["count_paths"]([str(tmp_path)]) == 8


def test_package_settable_values_bounded(tool):
    assert tool["count_paths"]([os.path.join(ROOT, "src", "dfindex")]) \
        <= PACKAGE_SETTABLE
