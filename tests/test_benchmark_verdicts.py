"""The benchmark's committed verdicts, checked in-process: each workload's
CLI command on its input sets, judged by perfbench/verdict.py against
perfbench/reference.json (both read only)."""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from dfindex.cli import main

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import verdict  # noqa: E402
from workloads import INPUT_SETS, WORKLOADS  # noqa: E402

REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())

# every input set of the family search's workload, two of each other one
CASES = [("worm-estimate", s) for s in range(INPUT_SETS)] + [
    (w, s) for w in ("bidisc-certify", "quartic-estimate") for s in (0, 11)]


@pytest.mark.parametrize("workload,seed", CASES,
                         ids=[f"{w}-{s}" for w, s in CASES])
def test_report_matches_reference_verdict(tmp_path, workload, seed):
    argv = WORKLOADS[workload]["argv"]
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv + ["--seed", str(seed), "--out", str(tmp_path)])
    report = json.loads((tmp_path / f"{argv[0]}.json").read_text())
    assert code == (0 if report.get("certified", True) else 2)
    ref = REFERENCE[workload]
    assert verdict.check(report, ref["sets"][str(seed)],
                         ref["tolerance"]) == []
