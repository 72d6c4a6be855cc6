"""tools/bench_pairs.py's summary of alternating parent/change pairs."""

import os
import runpy

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools",
                    "bench_pairs.py")


@pytest.fixture(scope="module")
def summarize():
    return runpy.run_path(TOOL)["summarize"]


def _metric(name, better, bound=0.25):
    """An end-to-end metric as BENCHMARK.json declares it."""
    return {"name": name, "unit": "s", "better": better, "bound": bound}


def _pairs(parent, change):
    return [{"parent": {"run_s": p}, "change": {"run_s": c}}
            for p, c in zip(parent, change)]


def test_summary_counts_wins_in_the_better_direction(summarize):
    runs = [{"parent": {"run_s": p, "hits": p}, "change": {"run_s": c,
                                                            "hits": c}}
            for p, c in ((1.0, 0.8), (1.2, 0.9), (0.9, 1.0), (1.1, 0.7))]
    out = summarize(runs, [_metric("run_s", "lower"),
                           _metric("hits", "higher")])
    assert out["run_s"]["wins"] == 3 and out["hits"]["wins"] == 1
    assert out["run_s"]["pairs"] == 4
    # medians of (0.9, 1.0, 1.1, 1.2) and (0.7, 0.8, 0.9, 1.0)
    assert out["run_s"]["parent"][1] == pytest.approx(1.05)
    assert out["run_s"]["change"][1] == pytest.approx(0.85)
    assert out["run_s"]["median_gain"] == pytest.approx(0.2)
    assert out["hits"]["median_gain"] == pytest.approx(-0.2)
    q1, _, q3 = out["run_s"]["parent"]
    assert out["run_s"]["parent_iqr"] == pytest.approx(q3 - q1) and q3 > q1


def test_summary_of_one_pair(summarize):
    runs = [{"parent": {"run_s": 1.0}, "change": {"run_s": 1.0}}]
    out = summarize(runs, [_metric("run_s", "lower")])["run_s"]
    assert out["wins"] == 0
    assert out["parent"] == (1.0, 1.0, 1.0) and out["parent_iqr"] == 0.0


def test_gain_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_iqr(
        summarize):
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]
    wins_all = [p - 0.2 for p in parent]
    out = summarize(_pairs(parent, wins_all), [_metric("run_s", "lower")])
    assert out["run_s"]["wins"] == 10 and out["run_s"]["gain"]
    # nine of ten wins still count; eight do not
    nine = wins_all[:9] + [parent[9] + 0.01]
    assert summarize(_pairs(parent, nine),
                     [_metric("run_s", "lower")])["run_s"]["gain"]
    eight = wins_all[:8] + [p + 0.01 for p in parent[8:]]
    assert not summarize(_pairs(parent, eight),
                         [_metric("run_s", "lower")])["run_s"]["gain"]
    # every pair won, but by less than the parent's interquartile range
    close = [p - 0.001 for p in parent]
    s = summarize(_pairs(parent, close), [_metric("run_s", "lower")])
    assert s["run_s"]["wins"] == 10 and not s["run_s"]["gain"]
    assert s["run_s"]["median_gain"] < s["run_s"]["parent_iqr"]


def test_regression_is_the_median_worse_by_more_than_the_bound(summarize):
    parent = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98]
    verdict = {}
    for label, shift in (("within", 0.2), ("beyond", 0.3), ("better", -0.3)):
        out = summarize(_pairs(parent, [p + shift for p in parent]),
                        [_metric("run_s", "lower", bound=0.25)])
        verdict[label] = out["run_s"]["regression"]
    assert verdict == {"within": "no", "beyond": "yes", "better": "no"}
    # for a higher-is-better metric, a fall is the regression
    runs = [{"parent": {"hits": p}, "change": {"hits": p - 0.3}}
            for p in parent]
    out = summarize(runs, [_metric("hits", "higher", bound=0.25)])
    assert out["hits"]["regression"] == "yes"


def test_regression_is_unresolved_when_the_parent_spreads_beyond_the_bound(
        summarize):
    parent = [0.6, 1.4, 0.7, 1.3, 1.0, 1.0]
    out = summarize(_pairs(parent, parent),
                    [_metric("run_s", "lower", bound=0.25)])["run_s"]
    assert out["parent_iqr"] > 0.25 * out["parent"][1]
    assert out["regression"] == "unresolved"
