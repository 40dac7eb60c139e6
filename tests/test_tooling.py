"""The repository's tools outside the package: the benchmark tracer's
targets must exist in solgeo, and the refinement-study script must run."""

import importlib.util
import os
import subprocess
import sys

import solgeo

SRC = os.path.dirname(os.path.dirname(os.path.abspath(solgeo.__file__)))
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_tracer_targets_resolve():
    # the traced benchmark run patches these names; one that an API change
    # removed would break it (read only: perfbench/ is not edited here)
    path = os.path.join(ROOT, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing._targets()
    assert targets
    for owner, attr, _, _ in targets:
        found = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        assert callable(found), (owner, attr)


def test_refinement_study_script_ratios():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "run_refinement_study.py"),
         "--levels", "2"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    tables = [[]]
    for line in proc.stdout.splitlines():
        if not line.strip():
            tables.append([])
            continue
        cells = line.split()
        if len(cells) == 3 and cells[2] not in ("-", "ratio"):
            tables[-1].append(float(cells[2]))
    flat, spectral, lax = [t for t in tables if t]
    # two levels give one ratio per study
    assert len(flat) == len(spectral) == len(lax) == 1
    assert all(3.5 <= r <= 4.5 for r in flat + spectral)
    assert lax[0] >= 8.0
