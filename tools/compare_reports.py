"""Byte-identity check of two dfindex checkouts' CLI outputs.

Usage, from anywhere:

    python3 tools/compare_reports.py --parent DIR --change DIR

It runs one fixed command set through each checkout's own
``dfindex.cli.main``, all commands in one fresh interpreter per checkout
(BLAS pinned to one thread, PYTHONHASHSEED 0), each with the same relative
``--out`` under a new working directory:

- every perfbench workload on each of its input sets (the change's
  perfbench/workloads.py);
- sigma, certify and estimate on every zoo domain at --mesh 600
  --interior 60, seeds 3 and 11;
- sigma, certify and estimate on two more geometries (the worm at
  --beta 6.2832 and the bidisc at --r 0.5) at the same sizes, seed 3;
- theta, period, potential and zoo describe on every domain at --res 9,
  and theta, period and potential on the two geometries;
- potential on the bidisc at --res 24, whose 12-node lattice carries the
  degree-8 fit (--res 9 gives 9 nodes and degree 8);
- theta --chart on every chart that the domain's default chart leaves out
  (the bidisc's seven other leaves and the worm's patch) at --res 9;
- commands that reach report branches the sets above leave out: an
  estimate whose uncertified records carry an oracle report (the worm at
  --slack 5), certify on the worm, the bidisc and the quartic (whose
  curve certificate takes the slack) at set slacks, an estimate at
  --oracle-slack 1e-12, the worm at --slack 1.21 (psi = 0 passes the
  criterion and fails the oracle, the family psi fails the criterion) in
  certify and estimate, and certify and estimate at --mesh 3, where the
  scan keeps no sample (the worm's criterion is then uncertified, the
  ball's vacuous and certified), and period on the worm at --beta 1000,
  whose loops sit on a log-polar chart about 900 wide;
- zoo, and usage and domain errors that end in typed errors, among them
  a worm at --beta 1e308, whose bounding box overflows, in estimate and
  in zoo describe, and sigma on a worm at --beta 700, whose defining
  function's Hessian overflows on the mesh.

Every command of dfindex.cli._COMMANDS is among them.

For each command it compares the exit code, stdout and every file written
under its --out (reports, CSVs, error.json) byte for byte, prints each
difference and exits 1 when there is any; otherwise it prints the number of
commands and files that matched and exits 0.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import runpy
import subprocess
import sys
import tempfile

DOMAINS = ("ball", "bidisc", "worm", "quartic_circle")
GEOMETRIES = (("--domain", "worm", "--beta", "6.2832"),
              ("--domain", "bidisc", "--r", "0.5"))
# charts besides each domain's default (its first by name)
CHARTS = tuple(("bidisc", f"leaf_{k * 0.25 * math.pi:.3f}")
               for k in range(1, 8)) + (("worm", "patch"),)
SIZES = ("--mesh", "600", "--interior", "60", "--seed", "3")
BRANCH_CASES = (
    ["estimate", "--domain", "worm", "--slack", "5", *SIZES],
    ["certify", "--domain", "worm", "--eta", "0.5", "--slack", "5", *SIZES],
    ["certify", "--domain", "bidisc", "--slack", "0.5", "--oracle-slack",
     "1e-3", *SIZES],
    ["certify", "--domain", "quartic_circle", "--eta", "0.5", "--slack",
     "1e-3", *SIZES],
    ["estimate", "--domain", "ball", "--oracle-slack", "1e-12", *SIZES],
    ["estimate", "--domain", "worm", "--slack", "1.21", "--eta-grid", "0.5",
     *SIZES],
    ["certify", "--domain", "worm", "--slack", "1.21", "--eta", "0.5",
     *SIZES],
    ["certify", "--domain", "worm", "--mesh", "3", "--eta", "0.5"],
    ["estimate", "--domain", "worm", "--mesh", "3"],
    ["certify", "--domain", "ball", "--mesh", "3"],
    ["period", "--domain", "worm", "--beta", "1000"],
)
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ERROR_CASES = (
    ["certify", "--meshh", "5"],
    ["frobnicate"],
    ["zoo", "frobnicate"],
    ["sigma", "describe"],
    ["certify", "--mesh", "0"],
    ["estimate", "--eta-grid", "0.5,1.5"],
    ["sigma", "--domain", "nowhere"],
    ["sigma", "--domain", "bidisc", "--r", "1.5"],
    ["sigma", "--domain", "ball", "--radius", "-1"],
    ["sigma", "--domain", "worm", "--beta", "1.0"],
    ["theta", "--domain", "worm", "--chart", "nope"],
    ["period", "--domain", "worm", "--loop", "nope"],
    ["certify", "--domain", "worm", "--interior", "1", "--seed", "2"],
    ["sigma", "--domain", "bidisc", "--mesh", "50", "--seed",
     "18446744073709551616"],
    ["estimate", "--domain", "worm", "--beta", "1e308", "--mesh", "100"],
    ["zoo", "describe", "--domain", "worm", "--beta", "1e308"],
    ["sigma", "--domain", "worm", "--beta", "700", "--mesh", "100"],
)

# runs inside each checkout's interpreter: reads the command list as JSON
# on stdin, writes one JSON line per command to stdout's last line
_RUNNER = r"""
import contextlib, io, json, sys, traceback
import dfindex.cli as cli
results = []
for argv in json.load(sys.stdin):
    buf = io.StringIO()
    code, raised = None, None
    try:
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except Exception:
        raised = traceback.format_exc().splitlines()[-1]
    results.append({"exit": code, "raised": raised, "stdout": buf.getvalue()})
print(json.dumps(results))
"""


def commands(checkout):
    """The fixed command set, (argv without --out) per command."""
    workloads = runpy.run_path(
        os.path.join(checkout, "perfbench", "workloads.py"))
    cmds = [spec["argv"] + ["--seed", str(s)]
            for spec in workloads["WORKLOADS"].values()
            for s in range(workloads["INPUT_SETS"])]
    for cmd in ("sigma", "certify", "estimate"):
        for domain in DOMAINS:
            for seed in ("3", "11"):
                cmds.append([cmd, "--domain", domain, "--mesh", "600",
                             "--interior", "60", "--seed", seed])
    for geometry in GEOMETRIES:
        for cmd in ("sigma", "certify", "estimate"):
            cmds.append([cmd, *geometry, "--mesh", "600", "--interior", "60",
                         "--seed", "3"])
    for cmd in (["theta"], ["period"], ["potential"], ["zoo", "describe"]):
        for domain in DOMAINS:
            cmds.append(cmd + ["--domain", domain, "--res", "9"])
    for cmd in ("theta", "period", "potential"):
        for geometry in GEOMETRIES:
            cmds.append([cmd, *geometry, "--res", "9"])
    cmds.append(["potential", "--domain", "bidisc", "--res", "24"])
    for domain, chart in CHARTS:
        cmds.append(["theta", "--domain", domain, "--chart", chart,
                     "--res", "9"])
    cmds += [list(c) for c in BRANCH_CASES]
    cmds.append(["zoo"])
    return cmds + [list(c) for c in ERROR_CASES]


def run_checkout(checkout, cmds):
    """Per command: exit code, the exception a raising run ended in,
    stdout and the files under its --out as {relative path: text}."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(checkout, "src")
    env["PYTHONHASHSEED"] = "0"
    for key in PINNED:
        env[key] = "1"
    outs = [os.path.join("out", f"{i:03d}") for i in range(len(cmds))]
    with tempfile.TemporaryDirectory(prefix="compare_reports_") as work:
        proc = subprocess.run(
            [sys.executable, "-c", _RUNNER], cwd=work, env=env, text=True,
            capture_output=True,
            input=json.dumps([c + ["--out", o] for c, o in zip(cmds, outs)]))
        if proc.returncode != 0:
            raise SystemExit(f"the runner failed in {checkout}: "
                             f"{proc.stderr.strip()[-2000:]}")
        results = json.loads(proc.stdout.strip().splitlines()[-1])
        for res, out in zip(results, outs):
            res["files"] = {}
            root = os.path.join(work, out)
            for dirpath, _, names in os.walk(root):
                for name in names:
                    path = os.path.join(dirpath, name)
                    with open(path, "rb") as fh:
                        res["files"][os.path.relpath(path, root)] = \
                            fh.read().decode("utf-8", "replace")
    return results


def compare(cmds, parent, change):
    """Differences between two checkouts' results, one line each."""
    diffs = []
    for argv, p, c in zip(cmds, parent, change):
        name = " ".join(argv)
        for key in ("exit", "raised", "stdout"):
            if p[key] != c[key]:
                diffs.append(f"{name}: {key} {p[key]!r} != {c[key]!r}")
        for path in sorted(set(p["files"]) | set(c["files"])):
            if path not in c["files"] or path not in p["files"]:
                side = "change" if path not in c["files"] else "parent"
                diffs.append(f"{name}: {path} missing in the {side}")
            elif p["files"][path] != c["files"][path]:
                diffs.append(f"{name}: {path} differs")
    if len(parent) != len(change):
        diffs.append(f"{len(parent)} results against {len(change)}")
    return diffs


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True,
                   help="root of the parent checkout")
    p.add_argument("--change", required=True,
                   help="root of the changed checkout")
    args = p.parse_args(argv)
    dirs = [os.path.abspath(d) for d in (args.parent, args.change)]
    cmds = commands(dirs[1])
    parent, change = (run_checkout(d, cmds) for d in dirs)
    diffs = compare(cmds, parent, change)
    for line in diffs:
        print(line)
    files = sum(len(r["files"]) for r in change)
    if diffs:
        print(f"{len(diffs)} difference(s) over {len(cmds)} commands")
        return 1
    print(f"{len(cmds)} commands and {files} files byte-identical "
          "(exit codes, stdout, reports, CSVs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
