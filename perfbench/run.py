"""dfindex benchmark: fresh-process repeats of one CLI workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload worm-estimate --seed 0 \
        --seconds 36 --trace 0

Each repeat is a new interpreter (set-up caches such as the lambdified sympy
oracle would otherwise hide set-up cost) with BLAS pinned to one thread.
Repeats run until --seconds have passed, and at least MIN_REPEATS of them.

--trace 0 reports the end-to-end metrics as medians over the repeats:
run_s, setup_s and peak_rss_mb.  --trace 1 spends the first half of the
time on untraced repeats and the second half on traced ones, and reports
the per-layer metrics (medians over the traced repeats) together with
trace.overhead, the traced over the untraced median run time minus one.

Every report is checked against reference.json and against the first
repeat's report (byte-identical apart from config.out).  A repeat fails when
the CLI exits 1, raises, changes a verdict or differs from the first repeat.
The last stdout line is the JSON result; details, the environment and the
span summaries go to .perfbench_out/<workload>/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import verdict  # noqa: E402
from workloads import WORKLOADS, input_set  # noqa: E402

OUT = ".perfbench_out"
MIN_REPEATS = 3
MIN_TRACED = 2
# keep a whole run, set-up and last repeat included, inside 180 s
BUDGET_S = 165.0
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REPEAT_FIELDS = ("setup_s", "run_s", "cpu_s", "peak_rss_mb", "exit",
                 "problems", "layers", "absent")


def _clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _env():
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for key in PINNED:
        env[key] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def env_block():
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        pass
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "pinned_threads": {k: "1" for k in PINNED}}


class Runner:
    def __init__(self, workload, seed, deadline):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.dir = os.path.join(OUT, workload)
        self.env = _env()
        self.count = 0
        self.walls = []         # wall time of each measured repeat

    def spawn(self, trace=0, setup_only=False):
        """One worker process; returns its result dict (with 'report' and
        'problems') or None when out of time."""
        left = self.deadline - _clock()
        if left < 1.3 * max(self.walls, default=0.0) + 1.0:
            return None
        out = os.path.join(self.dir, "reports", f"rep{self.count}")
        self.count += 1
        t0 = _clock()
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--out", out, "--trace", str(trace), "--t0", repr(t0)]
        if setup_only:
            cmd.append("--setup-only")
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True,
                                  text=True, timeout=left)
        except subprocess.TimeoutExpired:
            return {"problems": ["timed out"]}
        if not setup_only:
            self.walls.append(_clock() - t0)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"problems": [f"worker exit {proc.returncode}: "
                                 f"{proc.stderr.strip()[-2000:]}"]}
        res = json.loads(lines[-1])
        res["problems"] = []
        if setup_only:
            return res
        path = os.path.join(out, WORKLOADS[self.workload]["argv"][0] + ".json")
        if res["error"] is not None:
            res["problems"].append(res["error"])
        elif res["exit"] not in (0, 2):
            res["problems"].append(f"CLI exit {res['exit']}")
        elif not os.path.exists(path):
            res["problems"].append("no report written")
        else:
            with open(path) as fh:
                res["report"] = json.load(fh)
            certified = res["report"].get("certified", True)
            if res["exit"] != (0 if certified else 2):
                res["problems"].append(f"CLI exit {res['exit']} with "
                                       f"certified={certified}")
        return res


def judge(results, ref, seed):
    """Adds verdict and repeat-identity problems; returns the failure count."""
    expected = ref["sets"][str(input_set(seed))]
    first = None
    for res in results:
        if "report" not in res:
            continue
        res["problems"] += verdict.check(res["report"], expected,
                                         ref["tolerance"])
        text = verdict.comparable(res["report"])
        if first is None:
            first = text
        elif text != first:
            res["problems"].append("report differs from the first repeat")
    return sum(1 for res in results if res["problems"])


def run_phase(runner, trace, until, minimum):
    """Repeats until `until`, starting none that would end more than half a
    repeat past it, and at least `minimum` of them."""
    results = []
    while len(results) < minimum or _clock() + 0.5 * statistics.median(
            runner.walls or [0.0]) < until:
        res = runner.spawn(trace=trace)
        if res is None:
            break
        results.append(res)
    return results


def _median(results, key):
    vals = [r[key] for r in results if key in r]
    return statistics.median(vals) if vals else None


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join("src", "dfindex", "cli.py")):
        print("perfbench: run from the root of a dfindex checkout "
              "(src/dfindex not found)", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)[args.workload]

    start = _clock()
    runner = Runner(args.workload, args.seed, start + BUDGET_S)
    shutil.rmtree(os.path.join(runner.dir, "reports"), ignore_errors=True)
    os.makedirs(runner.dir, exist_ok=True)
    warm = runner.spawn(setup_only=True)   # compiles bytecode, warms caches
    if warm is None or warm["problems"]:
        print(f"perfbench: set-up failed: {warm and warm['problems']}",
              file=sys.stderr)
        return 1
    t_measure = _clock()
    if args.trace:
        plain = run_phase(runner, 0, t_measure + args.seconds / 2,
                          MIN_TRACED)
        traced = run_phase(runner, 1, t_measure + args.seconds, MIN_TRACED)
    else:
        plain = run_phase(runner, 0, t_measure + args.seconds, MIN_REPEATS)
        traced = []
    results = plain + traced
    failed = judge(results, ref, args.seed)
    timed_plain = [r for r in plain if "run_s" in r]
    timed_traced = [r for r in traced if "layers" in r]
    if not timed_plain or (args.trace and not timed_traced):
        print("perfbench: no repeat completed", file=sys.stderr)
        for res in results:
            print("\n".join(res["problems"]), file=sys.stderr)
        return 1

    if args.trace:
        values = layers.median_metrics([r["layers"] for r in timed_traced])
        values["trace.overhead"] = (_median(timed_traced, "run_s")
                                    / _median(timed_plain, "run_s") - 1.0)
        metrics = {k: {"value": v, "unit": layers.unit(k)}
                   for k, v in sorted(values.items())}
    else:
        metrics = {
            "run_s": {"value": _median(timed_plain, "run_s"), "unit": "s"},
            "setup_s": {"value": _median(timed_plain, "setup_s"),
                        "unit": "s"},
            "peak_rss_mb": {"value": _median(timed_plain, "peak_rss_mb"),
                            "unit": "MB"},
        }
    detail = {
        "workload": args.workload, "argv": WORKLOADS[args.workload]["argv"],
        "seed": args.seed, "trace": args.trace, "env": env_block(),
        "wall_s": _clock() - start, "metrics": metrics,
        "repeats": [{k: r.get(k) for k in REPEAT_FIELDS} for r in results],
        "spans": timed_traced[-1]["spans"] if timed_traced else None,
    }
    name = f"seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(runner.dir, name), "w") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    for res in results:
        for problem in res["problems"]:
            print(f"perfbench: failed repeat: {problem}", file=sys.stderr)
    if timed_traced and timed_traced[-1]["absent"]:
        print(f"perfbench: absent layers: {timed_traced[-1]['absent']}",
              file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": len(results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
