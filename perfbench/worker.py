"""Benchmark worker: one fresh interpreter that imports solgeo, builds the
workload's inputs from the seed and prints a READY line; unless
--setup-only, it then runs the warm closed loop (one client, one task at a
time) for --seconds and prints one JSON result line.

Started by run.py with the thread-pinning variables already in its
environment, so BLAS and OpenMP read them before numpy loads.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def thread_count():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    t0 = time.perf_counter()
    import solgeo.cli  # noqa: F401  (the full import a CLI process pays)
    import_s = time.perf_counter() - t0

    import numpy as np
    import scipy

    import workloads

    if args.workload in workloads.WARM:
        make_inputs, checks = workloads.WARM[args.workload]
        inputs = make_inputs(args.seed)
    else:
        checks = None
        workloads.cli_commands(args.seed, ".")
    print("READY " + json.dumps({
        "import_s": import_s, "threads": thread_count(),
        "solgeo_file": solgeo.__file__, "numpy": np.__version__,
        "scipy": scipy.__version__, "python": sys.version.split()[0],
    }), flush=True)
    if args.setup_only or checks is None:
        return 0

    from tracing import Tracer, layer_metrics

    tracer = Tracer() if args.trace else None
    ws = {}
    times, traced_times, failures = [], [], []
    attempted = 0
    start = time.perf_counter()
    min_tasks = 2 if tracer is not None else 1
    while (attempted < min_tasks
           or time.perf_counter() - start < args.seconds):
        # a traced run alternates untraced and traced tasks, so that the
        # tracing overhead is measured against neighbouring tasks
        traced = tracer is not None and attempted % 2 == 1
        if traced:
            tracer.task = attempted
            tracer.install()
        t = time.perf_counter()
        failed = workloads.run_pass(checks, inputs, ws)
        dt = time.perf_counter() - t
        if traced:
            tracer.uninstall()
            traced_times.append(dt)
        else:
            times.append(dt)
        attempted += 1
        if failed:
            failures.append(failed)

    result = {"times": times, "attempted": attempted,
              "failed": len(failures), "failures": failures[:3],
              "ws_bytes": ws, "threads_after": thread_count()}
    if tracer is not None and traced_times:
        untraced = sum(times) / len(times)
        traced_mean = sum(traced_times) / len(traced_times)
        result["layers"] = layer_metrics(
            tracer.layer_totals(), tracer.counts, len(traced_times),
            {"trace.task_s": traced_mean,
             "trace.overhead_frac": traced_mean / untraced - 1.0})
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
