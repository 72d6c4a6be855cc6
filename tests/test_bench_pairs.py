"""tools/bench_pairs.py's summary of alternating parent/change pairs."""

import os
import runpy

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools",
                    "bench_pairs.py")


@pytest.fixture(scope="module")
def summarize():
    return runpy.run_path(TOOL)["summarize"]


def test_summary_counts_wins_in_the_better_direction(summarize):
    runs = [{"parent": {"run_s": p, "hits": p}, "change": {"run_s": c,
                                                            "hits": c}}
            for p, c in ((1.0, 0.8), (1.2, 0.9), (0.9, 1.0), (1.1, 0.7))]
    out = summarize(runs, [("run_s", "lower"), ("hits", "higher")])
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
    out = summarize(runs, [("run_s", "lower")])["run_s"]
    assert out["wins"] == 0
    assert out["parent"] == (1.0, 1.0, 1.0) and out["parent_iqr"] == 0.0
