"""The benchmark's committed verdicts, checked in-process: each workload's
CLI command on its input sets, judged by perfbench/verdict.py against
perfbench/reference.json (both read only); and each workload's set-up
through perfbench/worker.py, in a fresh interpreter."""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from dfindex.cli import main

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import verdict  # noqa: E402
from workloads import INPUT_SETS, WORKLOADS  # noqa: E402

REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())

# every input set of every workload
CASES = [(w, s) for w in sorted(WORKLOADS) for s in range(INPUT_SETS)]


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


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_worker_setup_runs(tmp_path, workload):
    # the worker's set-up is the one caller outside the tests of
    # RunConfig.load and make_entry
    env = dict(os.environ, PYTHONPATH=str(PERFBENCH.parent / "src"))
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"), "--workload",
         workload, "--seed", "0", "--out", str(tmp_path), "--t0", repr(t0),
         "--setup-only"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"] > 0
