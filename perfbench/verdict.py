"""Checks a dfindex report against the committed reference verdicts.

reference.json holds, per workload, the verdict of every input set and the
tolerances of its numeric fields.  Flags, bounds and psi provenance must
match exactly.  maxLHS and the oracle's minScaled must lie within the
workload's absolute and relative tolerances (README.md justifies them).
The raw oracle minEig is not checked: it sits at the finite-difference
noise floor.
"""

from __future__ import annotations

import json


def summarize(report):
    """(exact fields, numeric fields) of a certify or estimate report."""
    exact, close = {}, {}
    if "certificate" in report:
        cert = report["certificate"]
        exact["bound"] = report["bound"]
        verdict = cert["diagnostics"].get("verdict")
        if verdict is not None:
            exact["classification"] = verdict["classification"]
        for rec in cert["records"]:
            key = f"eta={rec['eta']}"
            exact[f"{key}.certified"] = rec["certified"]
            exact[f"{key}.psi"] = rec["psi"]
            close[f"{key}.maxLHS"] = rec["maxLHS"]
            if "oracleScaled" in rec:
                close[f"{key}.minScaled"] = rec["oracleScaled"]
    else:
        exact["certified"] = report["certified"]
        exact["psi"] = report["psi"]
        exact["criterion.certified"] = report["criterion"]["certified"]
        exact["oracle.certified"] = report["oracle"]["certified"]
        if "verdict" in report:
            exact["classification"] = report["verdict"]["classification"]
        close["criterion.maxLHS"] = report["criterion"]["maxLHS"]
        close["oracle.minScaled"] = report["oracle"]["minScaled"]
    # a missing value (vacuous criterion, oracle not run) must stay missing
    for key in [k for k, v in close.items() if v is None]:
        exact[key] = close.pop(key)
    return exact, close


def check(report, expected, tolerance):
    """List of mismatches between a report and the expected verdict of its
    input set (empty: ok)."""
    exact, close = summarize(report)
    problems = []
    for key in sorted(set(exact) | set(expected["exact"])):
        got = exact.get(key, "<missing>")
        want = expected["exact"].get(key, "<missing>")
        if got != want:
            problems.append(f"{key}: {got!r} != {want!r}")
    for key in sorted(set(close) | set(expected["close"])):
        if key not in close or key not in expected["close"]:
            where = "report" if key not in close else "reference"
            problems.append(f"{key}: missing from the {where}")
            continue
        want = expected["close"][key]
        tol = tolerance[key.rsplit(".", 1)[-1]]
        if abs(close[key] - want) > tol["abs"] + tol["rel"] * abs(want):
            problems.append(f"{key}: {close[key]!r} not within {tol} of "
                            f"{want!r}")
    return problems


def comparable(report):
    """Report text with config.out removed, the only field that differs
    between repeats of the same seed."""
    report = json.loads(json.dumps(report))
    report.get("config", {}).pop("out", None)
    return json.dumps(report, sort_keys=True)
