"""One benchmark repeat in a fresh interpreter.

Set-up is the interval from the parent's spawn (``--t0``, a CLOCK_MONOTONIC
reading, which is shared by all processes) through ``import dfindex`` and
the zoo entry build; the entry build lambdifies the sympy oracle, which
stays cached for the CLI run.  The run is ``dfindex.cli.main`` from after
set-up until the report is written.  The last stdout line is one JSON
object with the timings, the CLI exit code and the peak resident memory;
with ``--trace 1`` it also holds the per-layer metrics and a span summary.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback

from workloads import WORKLOADS, input_set


def _clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()
    spec = WORKLOADS[args.workload]

    import dfindex.cli as cli

    tracer = None
    if args.trace:
        import layers
        from tracer import Tracer
        tracer = Tracer()
        layers.install(tracer)
    cli.make_entry(cli.RunConfig.load(None, {"domain": spec["domain"]}))
    setup_s = _clock() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    argv = spec["argv"] + ["--seed", str(input_set(args.seed)),
                           "--out", args.out]
    run_first = len(tracer) if tracer else 0
    out = {"setup_s": setup_s, "exit": None, "error": None}
    cpu1 = time.process_time()
    t1 = _clock()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            out["exit"] = cli.main(argv)
    except Exception:  # noqa: BLE001 - a raising run is a failed repeat
        out["error"] = traceback.format_exc()
    out["run_s"] = _clock() - t1
    out["cpu_s"] = time.process_time() - cpu1
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = layers.metrics(tracer, run_first, out["run_s"])
        out["spans"] = layers.span_summary(tracer, run_first)
        out["absent"] = tracer.absent
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
