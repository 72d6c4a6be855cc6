"""Collect one BENCH_<label>.json from perfbench runs of a dfindex checkout.

Usage, from anywhere:

    python3 tools/bench_collect.py --label NAME [--checkout DIR] \
        [--seeds 71 72 73 74] [--seconds 6] [--out DIR]

For every workload in the checkout's perfbench/workloads.py and every seed,
it runs the checkout's own perfbench/run.py with --trace 0, and once per
workload (first seed) with --trace 1 for TRACE_SECONDS.  The file it writes holds:

- the environment, as run.py records it, with PYTHONDONTWRITEBYTECODE (when
  it is set, no bytecode cache is written, so every set-up compiles src/);
- per workload and per seed, run.py's medians of run_s, setup_s and
  peak_rss_mb with correct/attempted/failed, and per workload the median of
  each metric over the seeds;
- the traced run's per-layer metrics;
- the Tier-1 wall time (ROADMAP.md's command) with pytest's summary line.

Two BENCH files from the same machine are the unit of a performance claim.
The host's speed drifts over minutes, so collect the two in close
succession, on the same seeds and --seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import runpy
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
END_TO_END = ("run_s", "setup_s", "peak_rss_mb")
TRACE_SECONDS = 8.0
TIER1 = [sys.executable, "-m", "pytest", "-q",
         "--continue-on-collection-errors"]


def _perfbench(checkout, workload, seed, seconds, trace):
    """run.py's result line and its detail file for one run."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited "
                         f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    path = os.path.join(checkout, ".perfbench_out", workload,
                        f"seed{seed}-trace{trace}.json")
    with open(path) as fh:
        detail = json.load(fh)
    return result, detail


def _workloads(checkout):
    path = os.path.join(checkout, "perfbench", "workloads.py")
    return sorted(runpy.run_path(path)["WORKLOADS"])


def _tier1(checkout):
    env = dict(os.environ)
    src = os.path.join(checkout, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    t0 = time.monotonic()
    proc = subprocess.run(TIER1, cwd=checkout, env=env, capture_output=True,
                          text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    return {"command": " ".join(["python", *TIER1[1:]]), "wall_s": wall,
            "exit": proc.returncode, "summary": lines[-1] if lines else ""}


def collect(checkout, label, seeds, seconds):
    env = None
    workloads = {}
    for name in _workloads(checkout):
        per_seed = {}
        for seed in seeds:
            result, detail = _perfbench(checkout, name, seed, seconds, 0)
            env = env or dict(detail["env"], PYTHONDONTWRITEBYTECODE=(
                os.environ.get("PYTHONDONTWRITEBYTECODE")))
            row = {k: result["metrics"][k]["value"] for k in END_TO_END}
            row.update({k: result[k]
                        for k in ("correct", "attempted", "failed")})
            per_seed[str(seed)] = row
            print(f"{label} {name} seed {seed}: " + ", ".join(
                f"{k} {row[k]:.4g}" for k in END_TO_END)
                + f", failed {row['failed']}", file=sys.stderr)
        traced, _ = _perfbench(checkout, name, seeds[0], TRACE_SECONDS, 1)
        workloads[name] = {
            "median": {k: statistics.median(r[k] for r in per_seed.values())
                       for k in END_TO_END},
            "correct": all(r["correct"] for r in per_seed.values()),
            "failed": sum(r["failed"] for r in per_seed.values()),
            "seeds": per_seed,
            "layers": {"seed": seeds[0], "correct": traced["correct"],
                       "failed": traced["failed"],
                       "metrics": {k: v["value"] for k, v in
                                   traced["metrics"].items()}},
        }
    out = {"label": label, "env": env, "seconds": seconds,
           "trace_seconds": TRACE_SECONDS, "seeds": list(seeds),
           "workloads": workloads, "tier1": _tier1(checkout)}
    print(f"{label} tier-1: {out['tier1']['wall_s']:.1f} s, "
          f"{out['tier1']['summary']}", file=sys.stderr)
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True)
    p.add_argument("--checkout", default=REPO,
                   help="root of the dfindex checkout to measure")
    p.add_argument("--seeds", type=int, nargs="+", default=[71, 72, 73, 74])
    p.add_argument("--seconds", type=float, default=6.0)
    p.add_argument("--out", default=REPO,
                   help="directory that receives BENCH_<label>.json")
    args = p.parse_args(argv)
    checkout = os.path.abspath(args.checkout)
    if not os.path.isfile(os.path.join(checkout, "perfbench", "run.py")):
        p.error(f"{checkout} has no perfbench/run.py")
    data = collect(checkout, args.label, args.seeds, args.seconds)
    path = os.path.join(args.out, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
