"""Self-tests of the benchmark's own code (tracer, layer metrics, verdict
check); they do not run dfindex.  From the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import os
import sys
import textwrap

import numpy as np
import pytest

import layers
import verdict
from tracer import Tracer, under
from workloads import INPUT_SETS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


@pytest.fixture
def fakepkg(tmp_path, monkeypatch):
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "low.py").write_text(textwrap.dedent("""
        def project(points):
            return points * 2

        def _helper(points):
            return points

        class Model:
            def eval(self, U):
                return project(U)
    """))
    (pkg / "high.py").write_text(textwrap.dedent("""
        from .low import project

        def pipeline(P):
            return project(P) + 1
    """))
    monkeypatch.syspath_prepend(str(tmp_path))
    import fakepkg.high  # noqa: F401
    yield
    for name in [m for m in sys.modules
                 if m == "fakepkg" or m.startswith("fakepkg.")]:
        del sys.modules[name]


def test_counts_call_through_aliased_import(fakepkg):
    from fakepkg import high, low

    tr = Tracer()
    tr.install("fakepkg", ["low"], methods=[("low", "Model", "eval")])
    try:
        high.pipeline(np.zeros((5, 4)))
        low.Model().eval(np.zeros((3, 4)))
        low._helper(np.zeros(2))
    finally:
        tr.uninstall()
    assert tr.names == ["low.project", "low.Model.eval", "low.project"]
    assert tr.rows == [5, 3, 3]
    assert tr.parent == [-1, -1, 1]
    high.pipeline(np.zeros((2, 4)))     # restored: no new span
    assert len(tr) == 3


def test_missing_layers_report_absent(fakepkg):
    tr = Tracer()
    tr.install("fakepkg", ["low", "gone"],
               methods=[("low", "Model", "fit"), ("low", "Missing", "eval")],
               extras=[("low", "_gone")])
    tr.uninstall()
    assert tr.absent == ["gone", "low._gone", "low.Model.fit",
                         "low.Missing.eval"]


def test_self_times_sum_to_top_level_time():
    ticks = iter([0.0, 2.0, 5.0, 6.0, 8.0, 10.0])
    tr = Tracer(clock=lambda: next(ticks))
    inner = tr.wrap("inner", lambda P: P)

    def body():
        inner(np.zeros(3))
        inner(np.zeros((4, 2)))

    tr.wrap("outer", body)()
    t = tr.table()
    assert t["dur"].tolist() == [10.0, 3.0, 2.0]
    assert t["self"].tolist() == [5.0, 3.0, 2.0]
    assert t["self"].sum() == t["dur"][t["parent"] < 0].sum()
    assert under(t, "inner", "outer").tolist() == [False, True, True]
    assert t["rows"].tolist() == [0, 3, 4]


def test_tag_and_output_rows():
    tr = Tracer()
    fn = tr.wrap("jet", lambda P, order=2: P[:1],
                 tag=lambda a, kw: f".o{kw.get('order', 2)}",
                 out_rows=lambda r: r.shape[0])
    fn(np.zeros((6, 4)), order=3)
    assert tr.names == ["jet.o3"]
    assert tr.out_rows == [1]


def test_layer_metrics_match_benchmark_json_and_survive_no_spans():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    values = layers.metrics(Tracer(), 0, 1.0)
    values["trace.overhead"] = 0.0
    assert set(values) == set(declared)
    assert all(v == 0 for v in values.values())
    assert {k: layers.unit(k) for k in values} == declared
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def _certify_report(certified=True):
    return {
        "certified": certified, "psi": "collar potential (-2 phi)",
        "criterion": {"certified": certified, "maxLHS": 1e-9},
        "oracle": {"certified": True, "minScaled": -2e-11},
        "verdict": {"classification": "Exact"},
        "config": {"out": "a", "seed": 0},
    }


def _estimate_report(bound=0.0):
    recs = [{"eta": e, "certified": e <= bound, "maxLHS": 10.0 * e,
             "psi": "zero" if e <= bound else None, "oracleMinEig": None}
            for e in (0.5, 0.99)]
    return {"bound": bound, "certificate": {
        "records": recs, "diagnostics": {
            "verdict": {"classification": "Obstructed"}}}}


TOL = {"maxLHS": {"abs": 0.0, "rel": 0.01},
       "minScaled": {"abs": 1e-8, "rel": 0.0}}


def _expected(report):
    exact, close = verdict.summarize(report)
    return {"exact": exact, "close": close}


def test_verdict_rejects_flipped_certified():
    ref = _expected(_certify_report(True))
    assert verdict.check(_certify_report(True), ref, TOL) == []
    problems = verdict.check(_certify_report(False), ref, TOL)
    assert "certified: False != True" in problems


def test_verdict_rejects_changed_bound_and_drift():
    ref = _expected(_estimate_report(0.0))
    assert verdict.check(_estimate_report(0.0), ref, TOL) == []
    assert any(p.startswith("bound:")
               for p in verdict.check(_estimate_report(0.5), ref, TOL))
    drifted = _estimate_report(0.0)
    drifted["certificate"]["records"][1]["maxLHS"] *= 1.02
    problems = verdict.check(drifted, ref, TOL)
    assert len(problems) == 1 and problems[0].startswith("eta=0.99.maxLHS")
    del drifted["certificate"]["records"][1]
    assert "eta=0.99.maxLHS: missing from the report" in \
        verdict.check(drifted, ref, TOL)


def test_repeat_identity_ignores_only_the_output_path():
    a = _certify_report()
    b = copy.deepcopy(a)
    b["config"]["out"] = "b"
    assert verdict.comparable(a) == verdict.comparable(b)
    b["config"]["seed"] = 1
    assert verdict.comparable(a) != verdict.comparable(b)


def test_reference_covers_every_workload():
    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)
    assert set(ref) == set(WORKLOADS)
    for entry in ref.values():
        assert set(entry["sets"]) == {str(k) for k in range(INPUT_SETS)}
        for expected in entry["sets"].values():
            names = {k.rsplit(".", 1)[-1] for k in expected["close"]}
            assert names <= set(entry["tolerance"])
