"""Alternating parent/change pairs of one perfbench workload.

Usage, from anywhere:

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload W \
        [--pairs 10] [--seed 0]

Each pair runs the parent's and the change's own perfbench/run.py once
each, through bench_collect.py's runner, with --trace 0 and the run_seconds
of the change's BENCHMARK.json: parent first in even pairs and change first
in odd ones, so that a drift of the host's speed falls on both sides.  For
every end-to-end metric of the change's BENCHMARK.json it prints each side's
median and quartiles over the pairs, in how many pairs the change was
better, and two verdicts:

- gain: the change wins at least nine tenths of the pairs (ties count for
  neither side) and its median beats the parent's by more than the
  parent's interquartile range;
- regression: "yes" when the change's median is worse than the parent's
  by more than the metric's bound (a fraction of the parent's median),
  "unresolved" when the parent's interquartile range exceeds that bound,
  and "no" otherwise.

The last stdout line is the same summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import runpy
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SIDES = ("parent", "change")


def _benchmark(checkout):
    """The checkout's run_seconds and its end-to-end metrics, each a dict
    with name, better and bound."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return bench["run_seconds"], bench["end_to_end"]


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(runs, metrics):
    """Per metric: each side's (q1, median, q3), the change's wins, and the
    gain and regression verdicts."""
    out = {}
    for metric in metrics:
        name, better = metric["name"], metric["better"]
        sides = {s: [r[s][name] for r in runs] for s in SIDES}
        sign = 1.0 if better == "lower" else -1.0
        wins = sum(sign * (c - p) < 0
                   for p, c in zip(sides["parent"], sides["change"]))
        q = {s: _quartiles(v) for s, v in sides.items()}
        gain = sign * (q["parent"][1] - q["change"][1])
        iqr = q["parent"][2] - q["parent"][0]
        allowed = metric["bound"] * abs(q["parent"][1])
        if iqr > allowed:
            regression = "unresolved"
        else:
            regression = "yes" if -gain > allowed else "no"
        out[name] = {"better": better, "pairs": len(runs), "wins": wins,
                     "parent": q["parent"], "change": q["change"],
                     "parent_iqr": iqr, "median_gain": gain,
                     "gain": bool(wins >= 0.9 * len(runs) and gain > iqr),
                     "bound": metric["bound"], "regression": regression}
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True,
                   help="root of the parent checkout")
    p.add_argument("--change", required=True,
                   help="root of the changed checkout")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0,
                   help="benchmark seed of every run")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be positive")
    dirs = {"parent": os.path.abspath(args.parent),
            "change": os.path.abspath(args.change)}
    for side, path in dirs.items():
        if not os.path.isfile(os.path.join(path, "perfbench", "run.py")):
            p.error(f"--{side} {path} has no perfbench/run.py")
    seconds, metrics = _benchmark(dirs["change"])
    perfbench = runpy.run_path(os.path.join(HERE, "bench_collect.py"))[
        "_perfbench"]
    runs, failed = [], []
    for i in range(args.pairs):
        pair = {}
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            result, _ = perfbench(dirs[side], args.workload, args.seed,
                                  seconds, 0)
            pair[side] = {k: v["value"] for k, v in
                          result["metrics"].items()}
            if not result["correct"]:
                failed.append(f"pair {i} {side}")
        runs.append(pair)
        print(f"pair {i}: " + ", ".join(
            f"{name} {pair['parent'][name]:.4g} -> {pair['change'][name]:.4g}"
            for name in [m["name"] for m in metrics]), file=sys.stderr)
    summary = summarize(runs, metrics)
    for name, s in summary.items():
        print(f"{args.workload} {name} ({s['better']} is better): parent "
              "median {1:.4g} [{0:.4g}, {2:.4g}], ".format(*s["parent"])
              + "change median {1:.4g} [{0:.4g}, {2:.4g}], ".format(
                  *s["change"])
              + f"change wins {s['wins']} of {s['pairs']}; gain "
              + ("yes" if s["gain"] else "no")
              + f"; regression beyond bound {s['bound']:g}: "
              + s["regression"])
    if failed:
        print(f"runs with failed repeats: {', '.join(failed)}")
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "seconds": seconds, "metrics": summary,
                      "failed": failed, "runs": runs}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
