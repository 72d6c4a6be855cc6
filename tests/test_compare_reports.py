"""tools/compare_reports.py's command set and its comparison of two
checkouts' CLI results."""

import os
import runpy

import pytest

from dfindex.cli import _COMMANDS

REPO = os.path.dirname(os.path.dirname(__file__))
TOOL = os.path.join(REPO, "tools", "compare_reports.py")


@pytest.fixture(scope="module")
def tool():
    return runpy.run_path(TOOL)


def _result(exit=0, stdout="{}\n", files=None, raised=None):
    return {"exit": exit, "raised": raised, "stdout": stdout,
            "files": {"report.json": "{}\n"} if files is None else files}


def test_identical_results_have_no_difference(tool):
    cmds = [["sigma"], ["zoo"]]
    parent = [_result(), _result(files={})]
    change = [_result(), _result(files={})]
    assert tool["compare"](cmds, parent, change) == []


def test_every_kind_of_difference_is_reported(tool):
    cmds = [["a"], ["b"], ["c"], ["d"], ["e"], ["f"]]
    parent = [_result() for _ in cmds]
    change = [_result(exit=2), _result(stdout="{ }\n"),
              _result(files={"report.json": "{ }\n"}),
              _result(files={"report.json": "{}\n", "x.csv": ""}),
              _result(files={}), _result(raised="ValueError: x")]
    assert tool["compare"](cmds, parent, change) == [
        "a: exit 0 != 2",
        "b: stdout '{}\\n' != '{ }\\n'",
        "c: report.json differs",
        "d: x.csv missing in the parent",
        "e: report.json missing in the change",
        "f: raised None != 'ValueError: x'",
    ]


def test_a_missing_result_is_a_difference(tool):
    assert tool["compare"]([["a"]], [_result()], []) == [
        "1 results against 0"]


def _command_of(argv):
    """The command an argv names, as dfindex.cli.main reads it: its
    leading words, with zoo alone standing for zoo list."""
    words = []
    for word in argv[:2]:
        if word.startswith("-"):
            break
        words.append(word)
    return {"zoo": "zoo list"}.get(" ".join(words), " ".join(words))


def test_command_set_covers_workloads_domains_and_errors(tool):
    cmds = tool["commands"](REPO)
    workloads = runpy.run_path(os.path.join(REPO, "perfbench",
                                            "workloads.py"))
    runs = len(workloads["WORKLOADS"]) * workloads["INPUT_SETS"]
    assert len({tuple(c) for c in cmds}) == len(cmds)
    for domain in tool["DOMAINS"]:
        assert ["estimate", "--domain", domain, "--mesh", "600",
                "--interior", "60", "--seed", "11"] in cmds
        assert ["zoo", "describe", "--domain", domain, "--res", "9"] in cmds
    for geometry in tool["GEOMETRIES"]:
        assert ["estimate", *geometry, "--mesh", "600", "--interior", "60",
                "--seed", "3"] in cmds
        assert ["potential", *geometry, "--res", "9"] in cmds
    assert ["potential", "--domain", "bidisc", "--res", "24"] in cmds
    assert ["theta", "--domain", "bidisc", "--chart", "leaf_5.498",
            "--res", "9"] in cmds
    assert ["theta", "--domain", "worm", "--chart", "patch",
            "--res", "9"] in cmds
    assert ["estimate", "--domain", "worm", "--slack", "5", "--mesh", "600",
            "--interior", "60", "--seed", "3"] in cmds
    assert ["certify", "--domain", "quartic_circle", "--eta", "0.5",
            "--slack", "1e-3", "--mesh", "600", "--interior", "60",
            "--seed", "3"] in cmds
    assert ["estimate", "--domain", "worm", "--slack", "1.21", "--eta-grid",
            "0.5", "--mesh", "600", "--interior", "60", "--seed", "3"] in cmds
    for argv in (["certify", "--domain", "worm", "--mesh", "3", "--eta",
                  "0.5"], ["estimate", "--domain", "worm", "--mesh", "3"],
                 ["certify", "--domain", "ball", "--mesh", "3"],
                 ["period", "--domain", "worm", "--beta", "1000"]):
        assert argv in cmds
    assert ["sigma", "--domain", "worm", "--beta", "700", "--mesh",
            "100"] in cmds
    assert set(_COMMANDS) <= {_command_of(c) for c in cmds}
    assert len(cmds) == (runs + 24 + 6 + 16 + 6 + 1 + 8 + 11 + 1
                         + len(tool["ERROR_CASES"]))
