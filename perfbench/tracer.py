"""Outside-in span tracer: wraps functions of an already imported package
from the benchmark's own files, without editing the package.

Modules of the package import each other by name (``from .distance import
foot_points``), so patching the defining module alone would miss most calls.
``install`` therefore rebinds every alias of a wrapped function in every
loaded module of the package.  Methods are patched on their class, which
covers every instance and every alias of the class.

Each span records its name, start, end, parent span, input rows (leading
dimension of the first array argument) and, where asked for, output rows.
A span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np


class Tracer:
    """In-memory span recorder; spans are written out only at the end."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.start = []
        self.end = []
        self.parent = []
        self.rows = []
        self.out_rows = []
        self._stack = []
        self._patches = []      # (owner, attribute, original value)
        self.absent = []        # targets that the package no longer has

    def __len__(self):
        return len(self.names)

    def _open(self, name, rows):
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.rows.append(rows)
        self.out_rows.append(-1)
        self.end.append(float("nan"))
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def _close(self, idx):
        self.end[idx] = self.clock()
        self._stack.pop()

    def wrap(self, name, fn, tag=None, out_rows=None):
        """Wrapper recording one span per call of fn.

        tag(args, kwargs) may return a suffix for the span name (for example
        the jet order); out_rows(result) may return the output row count.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name + tag(args, kwargs) if tag is not None else name
            idx = tracer._open(span, _leading_rows(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if out_rows is not None:
                tracer.out_rows[idx] = int(out_rows(result))
            return result

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self, package, modules, methods=(), extras=(), tags=None,
                out_rows=None):
        """Wrap the layers of an imported package.

        modules: module names under the package whose public functions
            (defined in that module) are wrapped as "<module>.<function>".
        methods: (module, class, method) triples patched on the class.
        extras: (module, function) pairs for private functions to wrap.
        tags, out_rows: span name -> tag / output-row callables.
        Missing modules, classes or attributes are recorded in ``absent``.
        """
        tags = tags or {}
        out_rows = out_rows or {}
        replaced = {}
        for mod_name in modules:
            mod = self._module(package, mod_name)
            if mod is None:
                continue
            for attr, value in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(value) \
                        or value.__module__ != mod.__name__:
                    continue
                replaced[value] = self._patch(mod, attr, f"{mod_name}.{attr}",
                                              tags, out_rows)
        for mod_name, attr in extras:
            mod = self._module(package, mod_name)
            name = f"{mod_name}.{attr}"
            if mod is None or not inspect.isfunction(vars(mod).get(attr)):
                self.absent.append(name)
                continue
            original = vars(mod)[attr]
            replaced[original] = self._patch(mod, attr, name, tags, out_rows)
        for mod_name, cls_name, attr in methods:
            mod = self._module(package, mod_name)
            name = f"{mod_name}.{cls_name}.{attr}"
            cls = getattr(mod, cls_name, None) if mod is not None else None
            if not inspect.isclass(cls) or \
                    not inspect.isfunction(vars(cls).get(attr)):
                self.absent.append(name)
                continue
            self._patch(cls, attr, name, tags, out_rows)
        # rebind aliases imported by name into other modules of the package
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == package
                                   or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replaced \
                        and replaced[value] is not value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, replaced[value])

    def _module(self, package, mod_name):
        try:
            return importlib.import_module(f"{package}.{mod_name}")
        except ImportError:
            self.absent.append(mod_name)
            return None

    def _patch(self, owner, attr, name, tags, out_rows):
        original = vars(owner)[attr]
        wrapper = self.wrap(name, original, tag=tags.get(name),
                            out_rows=out_rows.get(name))
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        return wrapper

    def uninstall(self):
        """Restore every patched attribute, newest first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis -----------------------------------------------------------

    def table(self, first=0):
        """Span arrays from index `first` on, with durations and self times.

        Parents before `first` are treated as absent (top level).
        """
        names = np.array(self.names[first:], dtype=object)
        start = np.array(self.start[first:], dtype=float)
        dur = np.array(self.end[first:], dtype=float) - start
        parent = np.array(self.parent[first:], dtype=int) - first
        parent[parent < 0] = -1
        child_sum = np.zeros(len(names))
        has = parent >= 0
        np.add.at(child_sum, parent[has], dur[has])
        return {"names": names, "dur": dur, "self": dur - child_sum,
                "parent": parent,
                "rows": np.array(self.rows[first:], dtype=float),
                "out_rows": np.array(self.out_rows[first:], dtype=float)}


def _leading_rows(args):
    for a in args:
        if isinstance(a, np.ndarray) and a.ndim >= 1:
            return a.shape[0]
    return 0


def under(table, name, ancestor):
    """Mask of spans called `name` that have a span `ancestor` above them."""
    names, parent = table["names"], table["parent"]
    mask = np.zeros(len(names), dtype=bool)
    for i in np.flatnonzero(names == name):
        p = parent[i]
        while p >= 0 and names[p] != ancestor:
            p = parent[p]
        mask[i] = p >= 0
    return mask
