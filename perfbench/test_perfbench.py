"""Tests of the benchmark harness itself: its checks must be able to fail,
the tracer must see every binding of a traced function, and the command
must refuse to run without solgeo sources.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def fail_frac(inputs_per_task, checks):
    """Share of tasks with a failed check, as the worker counts it."""
    failed = [workloads.run_pass(checks, inp, {}) for inp in inputs_per_task]
    return sum(bool(f) for f in failed) / len(failed), failed


def test_grids_checks_fail_on_known_bad_inputs():
    good = workloads.grids_inputs(3)
    bad = dict(good, gauge_perturb=0.3, omega_scale=1.1)
    frac, failed = fail_frac([good, bad], workloads.GRIDS_CHECKS)
    assert failed[0] == []
    assert frac == 0.5
    names = {f.split(":")[0] for f in failed[1]}
    assert {"gauge_zc", "planewave_ds", "planewave_zi",
            "planewave_strachan"} <= names


def test_transport_checks_fail_on_known_bad_inputs():
    good = workloads.transport_inputs(3)
    # sigma != 0 breaks the beta = -1 invariant; a detuned zi wave is not
    # a solution, so the Lax defect stops converging
    rng = np.random.default_rng(0)
    coeffs, h = good["frenet"][-1]
    broken = workloads._frenet_coeffs(rng, len(coeffs), h, 1.0)
    bad = dict(good, omega_scale=1.1,
               frenet={1: good["frenet"][1], -1: (broken, h)})
    frac, failed = fail_frac([good, bad], workloads.TRANSPORT_CHECKS)
    assert failed[0] == []
    assert frac == 0.5
    names = {f.split(":")[0] for f in failed[1]}
    assert {"frenet_scipy", "lax_zi_refinement"} <= names


def test_cli_verification_rejects_bad_reports():
    argv = ["check", "--system", "mlxii", "--case", "pure-gauge",
            "--refine", "3"]
    good = {"passed": True, "checks": [
        {"name": "mlxii-pure-gauge-refinement", "passed": True,
         "defects": [1.6e-3, 4.0e-4, 1.0e-4]}]}
    assert workloads.verify_cli(argv, 0, good)
    assert not workloads.verify_cli(argv, 1, good)
    # the report's own flag is not trusted: a 2.0 ratio fails
    lying = json.loads(json.dumps(good))
    lying["checks"][0]["defects"] = [4e-4, 2e-4, 1e-4]
    assert not workloads.verify_cli(argv, 0, lying)
    # a vacuous one-level study fails
    vacuous = json.loads(json.dumps(good))
    vacuous["checks"][0]["defects"] = [1e-4]
    assert not workloads.verify_cli(argv[:-1] + ["1"], 0, vacuous)


def test_report_key_ignores_timing_only():
    a = {"checks": [], "passed": True, "timing": {"wall_s": 1.0}}
    b = dict(a, timing={"wall_s": 2.0})
    assert workloads.report_key(a) == workloads.report_key(b)
    assert workloads.report_key(a) != workloads.report_key(
        dict(a, passed=False))


def test_tracer_rebinds_direct_imports_and_restores():
    from solgeo import cases, liealg, zerocurv

    orig = liealg.commutator
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert zerocurv.commutator is liealg.commutator is not orig
        conn = cases.pure_gauge_connection(cases.default_grid_gauge(9))
        zerocurv.zc_residual("mlxii", conn)
        liealg.expm(np.diag([0.1, 0.2, 0.3]))      # non-skew: scipy
        liealg.expm(np.zeros((3, 3)))              # skew: Rodrigues
    finally:
        tracer.uninstall()
    assert zerocurv.commutator is orig and liealg.commutator is orig
    totals = tracer.layer_totals()
    assert totals["liealg.commutator"][0] == 3
    assert totals["grid.diff_axis"][0] == 6
    assert totals["liealg.expm"][0] == 2
    assert tracer.counts["liealg.expm.nonskew_calls"] == 1
    # self time excludes children: the residual's own share is smaller
    # than its span
    zc = [s for s in tracer.spans if s[0] == "zerocurv.zc_residual"][0]
    assert 0 <= totals["zerocurv.zc_residual"][1] < zc[2] - zc[1]
    metrics = tracing.layer_metrics(totals, tracer.counts, 1, {})
    assert metrics["liealg.expm.nonskew_frac"]["value"] == 0.5
    assert list(metrics) == [n for n, _ in tracing.LAYER_METRICS]


def test_benchmark_json_lists_the_emitted_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        list(tracing.LAYER_METRICS)
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)


def test_nearest_rank():
    xs = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert run.nearest_rank(xs, 0.5) == 3.0
    assert run.nearest_rank(xs, 0.9) == 5.0
    assert run.nearest_rank(list(range(1, 21)), 0.9) == 18


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grids",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cli_commands_are_seeded(seed):
    a = workloads.cli_commands(seed, "w")
    assert a == workloads.cli_commands(seed, "w")
    assert {c[0] for c in a} == {"check", "surface", "case", "frame"}
