#!/usr/bin/env python3
"""solgeo benchmark: time to a verified verdict, end to end and per layer.

    python3 perfbench/run.py --workload {cli,grids,transport} --seed N \
        --seconds S --trace {0,1}

Run from the root of a solgeo checkout; solgeo is imported from ./src.
All load comes from one closed loop with one client: the cli workload runs
one `python -m solgeo.cli` process at a time, the grids and transport
workloads run one full pass over their verified check list at a time in a
warm worker process.  BLAS and OpenMP are pinned to one thread in every
process, so this is also the plain single-threaded baseline.

With --trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-layer metrics (see tracing.py).  The line before it is
the provenance block.
"""

import os

# pinned before numpy loads, here and (by inheritance) in every child
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)
os.environ.pop("SOLGEO_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("cli", "grids", "transport")
SETUP_SAMPLES = 5        # fresh interpreters timed to READY per run
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed task)."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def spawn(argv, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S):
    proc = subprocess.Popen(argv, stdout=stdout, env=child_env(), cwd=ROOT,
                            text=True)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.daemon = True
    watchdog.start()
    proc.watchdog = watchdog
    return proc


def reap(proc):
    """Wait for the child; returns its peak resident memory in MB."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0


def kill_all(procs):
    for proc in procs:
        if proc.returncode is None:
            proc.kill()
            reap(proc)


def nearest_rank(samples, q):
    """Nearest-rank percentile: the smallest sample with at least a share q
    of the samples at or below it (no interpolation)."""
    s = sorted(samples)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def worker_argv(workload, seed, *extra):
    return [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), *extra]


def read_ready(proc, t0):
    line = proc.stdout.readline()
    if not line.startswith("READY "):
        raise BenchError(f"worker did not start: {line!r}")
    info = json.loads(line[len("READY "):])
    if not Path(info["solgeo_file"]).resolve().is_relative_to(SRC):
        raise BenchError(f"solgeo imported from outside {SRC}: "
                         f"{info['solgeo_file']}")
    return time.perf_counter() - t0, info


def setup_samples(workload, seed, procs, count):
    """Fresh interpreter to READY: import solgeo.cli plus the seeded
    inputs."""
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = spawn(worker_argv(workload, seed, "--setup-only"))
        procs.append(proc)
        samples.append(read_ready(proc, t0))
        proc.stdout.read()
        reap(proc)
        if proc.returncode != 0:
            raise BenchError(f"set-up worker exited {proc.returncode}")
    return samples


# --- warm workloads ----------------------------------------------------------

def run_warm(args, procs):
    # the measuring worker's own start is the last set-up sample
    setups = setup_samples(args.workload, args.seed, procs, SETUP_SAMPLES - 1)
    t0 = time.perf_counter()
    proc = spawn(worker_argv(args.workload, args.seed, "--seconds",
                             str(args.seconds), "--trace", str(args.trace)),
                 timeout=args.seconds + CHILD_TIMEOUT_S)
    procs.append(proc)
    setups.append(read_ready(proc, t0))
    lines = proc.stdout.read().splitlines()
    rss = reap(proc)
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}")
    res = json.loads(lines[-1])
    for failed in res["failures"]:
        print(f"failed task: {failed}", file=sys.stderr)
    out = {"setups": setups, "times": res["times"], "rss": rss,
           "attempted": res["attempted"], "failed": res["failed"],
           "prov": {"ws_bytes": res["ws_bytes"],
                    "threads_after_tasks": res["threads_after"]}}
    if args.trace:
        layers = res["layers"]
        layers["cli.import_s"]["value"] = statistics.median(
            info["import_s"] for _, info in setups)
        out["layers"] = layers
    return out


# --- cli workload ------------------------------------------------------------

def run_cli(args, procs):
    import workloads
    from tracing import layer_metrics, merge_dumps

    setups = setup_samples("cli", args.seed, procs, SETUP_SAMPLES)
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        cmds = workloads.cli_commands(args.seed, str(work))
        first_report = {}
        times, traced = [], []
        rss, failed, attempted, cycles = 0.0, 0, 0, 0
        min_cycles = 2 if args.trace else 1
        start = time.perf_counter()
        while True:
            # stop at the whole cycle that ends nearest --seconds, so every
            # run times the same mix of commands
            elapsed = time.perf_counter() - start
            if cycles >= min_cycles and elapsed + 0.5 * elapsed / cycles \
                    >= args.seconds:
                break
            # a traced run alternates plain and traced cycles
            tracing = args.trace and cycles % 2 == 1
            for i, cmd in enumerate(cmds):
                report_path = work / f"report-{i}.json"
                trace_path = work / f"trace-{i}.json"
                for p in (report_path, trace_path):
                    p.unlink(missing_ok=True)
                argv = cmd + ["--report", str(report_path)]
                if tracing:
                    argv = [sys.executable, str(HERE / "launch_cli.py"),
                            str(trace_path), "--"] + argv
                else:
                    argv = [sys.executable, "-m", "solgeo.cli"] + argv
                t0 = time.perf_counter()
                proc = spawn(argv, stdout=subprocess.DEVNULL)
                procs.append(proc)
                rss = max(rss, reap(proc))
                dt = time.perf_counter() - t0
                attempted += 1
                try:
                    report = json.loads(report_path.read_text())
                except (OSError, ValueError):
                    report = None
                ok = workloads.verify_cli(cmd, proc.returncode, report)
                if ok:
                    key = workloads.report_key(report)
                    ok = first_report.setdefault(i, key) == key
                if not ok:
                    failed += 1
                    print(f"failed task: solgeo {' '.join(cmd)} "
                          f"(exit {proc.returncode})", file=sys.stderr)
                if not tracing:
                    times.append(dt)
                elif report is not None and trace_path.is_file():
                    dump = json.loads(trace_path.read_text())
                    traced.append((dt, report["timing"]["wall_s"], dump))
            cycles += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    out = {"setups": setups, "times": times, "rss": rss,
           "attempted": attempted, "failed": failed,
           "prov": {"cycles": cycles, "commands": len(cmds)}}
    if args.trace:
        n = len(traced)
        if not n:
            raise BenchError("no traced solgeo process completed")
        totals, counts = merge_dumps(d for _, _, d in traced)
        traced_mean = sum(dt for dt, _, _ in traced) / n
        plain_mean = statistics.fmean(times[:n])
        import_s = sum(d["import_s"] for _, _, d in traced) / n
        command_s = sum(w for _, w, _ in traced) / n
        out["layers"] = layer_metrics(totals, counts, n, {
            "cli.import_s": import_s,
            "cli.command_s": command_s,
            "cli.other_s": traced_mean - import_s - command_s,
            "trace.task_s": traced_mean,
            "trace.overhead_frac": traced_mean / plain_mean - 1.0,
        })
    return out


# --- provenance and output ---------------------------------------------------

def git_commit():
    """HEAD of the checkout when it is a git repository (read from .git
    directly, without leaving the checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cache_sizes():
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")) if base.is_dir() else []:
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            out[f"L{level}{'d' if kind == 'Data' else ''}"] = \
                (idx / "size").read_text().strip()
        except OSError:
            continue
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "solgeo" / "__init__.py").is_file():
        print(f"perfbench: no solgeo sources under {SRC}", file=sys.stderr)
        return 2

    procs = []
    try:
        run = run_cli if args.workload == "cli" else run_warm
        res = run(args, procs)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        kill_all(procs)

    setup_s = [dt for dt, _ in res["setups"]]
    info = res["setups"][-1][1]
    times = res["times"]
    p90 = nearest_rank(times, 0.9)
    prov = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": info["python"], "numpy": info["numpy"],
        "scipy": info["scipy"], "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "pinned": PINNED,
        "threads_at_ready": info["threads"], "git_commit": git_commit(),
        "caches": cache_sizes(), "setup_samples": setup_s,
        "tasks_timed": len(times),
        "tasks_beyond_p90": sum(t > p90 for t in times),
        **res["prov"],
    }
    print("provenance " + json.dumps(prov, sort_keys=True))

    if args.trace:
        metrics = res["layers"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "task_s.p50": {"value": nearest_rank(times, 0.5), "unit": "s"},
            "task_s.p90": {"value": p90, "unit": "s"},
            "ok_frac": {"value": 1.0 - res["failed"] / res["attempted"],
                        "unit": "frac"},
            "peak_rss_mb": {"value": res["rss"], "unit": "MB"},
        }
    print(json.dumps({"correct": res["failed"] == 0 and res["attempted"] > 0,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
