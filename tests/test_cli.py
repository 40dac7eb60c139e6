import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import solgeo
from solgeo import cli, frames
from solgeo import grid as sg

SRC = os.path.dirname(os.path.dirname(os.path.abspath(solgeo.__file__)))


def run(argv):
    return cli.main(argv)


def fresh_python(args, env=None):
    """Run a new interpreter with solgeo importable; the in-process tests
    cannot show import-time behaviour once numpy and scipy are loaded."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=300)


def load_report(path):
    with open(path) as fh:
        return json.load(fh)


def test_no_command_usage_error(capsys):
    assert run([]) == 2


def test_check_planewave_passes(tmp_path):
    rp = tmp_path / "r.json"
    assert run(["check", "--eq", "zi", "--case", "planewave-zi",
                "--report", str(rp)]) == 0
    rep = load_report(rp)
    assert rep["passed"] is True
    assert len(rep["checks"]) == 3
    for c in rep["checks"]:
        assert c["max"] <= c["tol"]
    assert "wall_s" in rep["timing"]


def test_check_planewave_detuned_fails(tmp_path):
    rp = tmp_path / "r.json"
    assert run(["check", "--eq", "zi", "--case", "planewave-zi",
                "--omega-scale", "1.1", "--report", str(rp)]) == 1
    assert load_report(rp)["passed"] is False


def test_check_case_equation_mismatch_is_usage_error():
    assert run(["check", "--eq", "ds", "--case", "planewave-zi"]) == 2


def test_check_unknown_combination():
    assert run(["check", "--eq", "ishimori", "--case", "planewave-zi"]) == 2


def test_check_pure_gauge(tmp_path):
    rp = tmp_path / "r.json"
    assert run(["check", "--system", "mlxii", "--case", "pure-gauge",
                "--n", "8", "--refine", "3", "--report", str(rp)]) == 0
    rep = load_report(rp)
    c = rep["checks"][0]
    assert all(3.5 <= r <= 4.5 for r in c["ratios"])


def test_check_lambda(tmp_path):
    rp = tmp_path / "r.json"
    assert run(["check", "--kind", "lambda", "--n", "8", "--refine", "3",
                "--report", str(rp)]) == 0
    rep = load_report(rp)
    assert len(rep["checks"]) == 3


def test_check_reductions(tmp_path):
    for case in ("strachan-reduction", "zi-reduction"):
        rp = tmp_path / f"{case}.json"
        assert run(["check", "--eq", "m3q", "--case", case,
                    "--report", str(rp)]) == 0
        assert load_report(rp)["passed"] is True


def test_check_lax(tmp_path):
    rp = tmp_path / "r.json"
    assert run(["check", "--kind", "lax", "--refine", "2", "--perturb",
                "--report", str(rp)]) == 0
    rep = load_report(rp)
    names = [c["name"] for c in rep["checks"]]
    assert "lax-zi-refinement" in names and "lax-zi-discrimination" in names


@pytest.mark.parametrize("refine", ["0", "1"])
@pytest.mark.parametrize("argv", [
    ["check", "--system", "mlxii", "--case", "pure-gauge", "--n", "8"],
    ["check", "--kind", "lambda", "--n", "8"],
    ["check", "--kind", "lax"],
])
def test_refinement_needs_two_levels(argv, refine, capsys):
    # one level gives no ratio, so the check could only pass vacuously
    assert run(argv + ["--refine", refine]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert "--refine must be at least 2" in captured.err
    assert captured.out == ""


def test_report_determinism_excluding_timing(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        assert run(["check", "--eq", "m3q", "--case", "zi-reduction",
                    "--seed", "3", "--report", str(p)]) == 0
    reps = [load_report(p) for p in paths]
    for r in reps:
        del r["timing"]
    assert json.dumps(reps[0], sort_keys=True) == json.dumps(reps[1],
                                                             sort_keys=True)


def test_surface_command(tmp_path):
    obj = tmp_path / "sphere.obj"
    rp = tmp_path / "r.json"
    assert run(["surface", "--case", "sphere-patch", "--n", "17",
                "--out", str(obj), "--report", str(rp)]) == 0
    assert obj.exists()
    rep = load_report(rp)
    mixed = next(c for c in rep["checks"] if "mixed-partial" in c["name"])
    assert mixed["max"] <= mixed["tol"]


def test_surface_unknown_case():
    assert run(["surface", "--case", "torus"]) == 2


def test_case_export_roundtrip(tmp_path):
    rp = tmp_path / "r.json"
    assert run(["case", "planewave-ds", "--n", "8", "--out", str(tmp_path),
                "--report", str(rp)]) == 0
    f = sg.load_field(tmp_path / "planewave-ds-q.field")
    assert f.grid.shape == (8, 8, 8)
    with open(tmp_path / "planewave-ds-params.json") as fh:
        params = json.load(fh)
    assert params["omega"] == 4.0
    # exported samples match the closed form on the same grid
    x, y, t = f.grid.meshes()
    expect = 0.8 * np.exp(1j * (x + 2 * y - 4.0 * t))
    assert np.abs(f.data - expect).max() < 1e-12


def test_case_surface_export(tmp_path):
    assert run(["case", "cylinder", "--n", "9", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "cylinder.obj").exists()


def test_case_unknown_name():
    assert run(["case", "bogus"]) == 2


def test_frame_command(tmp_path):
    out = tmp_path / "e1.csv"
    rp = tmp_path / "r.json"
    assert run(["frame", "--k", "1.0", "--tau", "0.2", "--n", "50",
                "--h", "0.05", "--out", str(out), "--report", str(rp)]) == 0
    data = np.loadtxt(out, delimiter=",")
    assert data.shape == (50, 4)
    rep = load_report(rp)
    assert rep["checks"][0]["max"] <= 1e-12


def test_frame_pseudo_orthogonal_gate_is_finite(tmp_path):
    # beta = -1 with sigma = 0 keeps E eta E^T = eta, so the drift is gated
    rp = tmp_path / "r.json"
    assert run(["frame", "--beta", "-1", "--sigma", "0", "--n", "400",
                "--report", str(rp)]) == 0
    rep = load_report(rp)
    c = rep["checks"][0]
    assert rep["passed"] is True and c["passed"] is True
    assert np.isfinite(c["tol"]) and c["max"] <= c["tol"]
    assert "informational" not in c


def test_frame_pseudo_orthogonal_gate_can_fail(tmp_path, monkeypatch):
    propagate = frames.propagate_frenet

    def perturbed(*args, **kwargs):
        field = propagate(*args, **kwargs)
        data = field.data.copy()
        data[-1, 0, 0] += 1e-6
        return frames.FrameField(field.grid, data, field.beta)

    monkeypatch.setattr(frames, "propagate_frenet", perturbed)
    rp = tmp_path / "r.json"
    assert run(["frame", "--beta", "-1", "--sigma", "0", "--n", "50",
                "--report", str(rp)]) == 1
    rep = load_report(rp)
    assert rep["passed"] is False and rep["checks"][0]["passed"] is False


def test_frame_sigma_drift_is_informational(tmp_path):
    # sigma != 0 breaks the invariant at beta = -1: the drift is reported
    # but neither passes nor fails the run
    rp = tmp_path / "r.json"
    assert run(["frame", "--beta", "-1", "--sigma", "0.3",
                "--report", str(rp)]) == 0
    rep = load_report(rp)
    c = rep["checks"][0]
    assert c["informational"] is True and c["max"] > 1.0
    assert "passed" not in c and "tol" not in c
    assert rep["passed"] is True


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_frame_sigma_run_gates_finite_frames(tmp_path, monkeypatch):
    rp = tmp_path / "r.json"
    assert run(["frame", "--beta", "-1", "--sigma", "0.3", "--n", "50",
                "--report", str(rp)]) == 0
    finite = load_report(rp)["checks"][1]
    assert finite["name"] == "frame-finite" and finite["passed"] is True
    assert "informational" not in finite
    propagate = frames.propagate_frenet

    def blown_up(*args, **kwargs):
        field = propagate(*args, **kwargs)
        data = field.data.copy()
        data[-1, 1, 2] = np.inf
        return frames.FrameField(field.grid, data, field.beta)

    monkeypatch.setattr(frames, "propagate_frenet", blown_up)
    assert run(["frame", "--beta", "-1", "--sigma", "0.3", "--n", "50",
                "--report", str(rp)]) == 1
    rep = load_report(rp)
    assert rep["passed"] is False and rep["checks"][1]["passed"] is False


@pytest.mark.parametrize("checks", [
    [],
    [{"name": "drift", "max": 2.0, "informational": True}],
])
def test_report_without_gated_check_fails(tmp_path, checks):
    # no gated check means nothing was shown, never a vacuous pass
    rp = tmp_path / "r.json"
    rep = cli._write_report(str(rp), {}, checks, 0, {})
    assert rep["passed"] is False and load_report(rp)["passed"] is False


@pytest.mark.parametrize("argv", [
    ["check", "--system", "mlxii", "--case", "pure-gauge", "--n", "0"],
    ["check", "--kind", "lambda", "--n", "1"],
    ["case", "pure-gauge", "--n", "1"],
    ["surface", "--case", "cylinder", "--n", "1"],
    ["check", "--eq", "zi", "--case", "planewave-zi", "--n", "0"],
    ["check", "--eq", "m3q", "--case", "zi-reduction", "--seed", "-1"],
])
def test_degenerate_size_or_seed_is_usage_error(argv, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert captured.err.startswith("solgeo:") and captured.out == ""


SIZES = st.sampled_from(["-1", "0", "1", "2", "3", "4", "5", "8"])


@st.composite
def argv_grammar(draw):
    """Command lines over every subcommand, with degenerate sizes, refine
    levels and seeds among the valid ones; `out` and `report` are
    placeholders for paths."""
    cmd = draw(st.sampled_from(["check", "surface", "case", "frame"]))
    if cmd == "check":
        argv = ["check", *draw(st.sampled_from([
            ["--eq", "zi", "--case", "planewave-zi"],
            ["--eq", "ds", "--case", "planewave-ds"],
            ["--eq", "strachan", "--case", "planewave-zi"],
            ["--eq", "m3q", "--case", "zi-reduction"],
            ["--eq", "m3q", "--case", "strachan-reduction"],
            ["--system", "mlxii", "--case", "pure-gauge"],
            ["--system", "gmce", "--case", "pure-gauge"],
            ["--kind", "lambda"],
            ["--kind", "lax"],
        ]))]
        argv += ["--n", draw(SIZES),
                 "--refine", draw(st.sampled_from(["0", "1", "2", "3"])),
                 "--seed", draw(st.sampled_from(["-1", "0", "7"]))]
        if draw(st.booleans()):
            argv.append("--perturb")
    elif cmd == "surface":
        argv = ["surface", "--case", draw(st.sampled_from(
            ["sphere-patch", "cylinder", "plane", "torus"])),
            "--n", draw(SIZES)]
        if draw(st.booleans()):
            argv += ["--out", "out"]
    elif cmd == "case":
        # without --out the case files would land in the working directory
        argv = ["case", draw(st.sampled_from(
            ["planewave-zi", "uniform-spin", "pure-gauge", "rational-lambda",
             "cylinder", "bogus"])), "--n", draw(SIZES), "--out", "out"]
    else:
        argv = ["frame", "--beta", draw(st.sampled_from(["1", "-1"])),
                "--sigma", draw(st.sampled_from(["0", "0.3"])),
                "--n", draw(SIZES)]
        if draw(st.booleans()):
            argv += ["--out", "out"]
    if draw(st.booleans()):
        argv += ["--report", "report"]
    return argv


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(argv=argv_grammar())
@settings(max_examples=40, deadline=None)
def test_any_command_line_keeps_exit_code_contract(tmp_path_factory, argv):
    # 0 pass, 1 check failed, 2 usage or domain error; never a traceback
    work = tmp_path_factory.mktemp("argv")
    argv = [str(work / a) if a in ("out", "report") else a for a in argv]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv


def test_config_file_merge_and_flag_priority(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"eq": "m3q", "case": "zi-reduction",
                                "seed": 7}))
    rp = tmp_path / "r.json"
    assert run(["--config", str(conf), "check", "--report", str(rp)]) == 0
    rep = load_report(rp)
    assert rep["seed"] == 7
    # explicit flags win over config values
    rp2 = tmp_path / "r2.json"
    assert run(["--config", str(conf), "check", "--seed", "9",
                "--report", str(rp2)]) == 0
    assert load_report(rp2)["seed"] == 9


def test_config_file_missing():
    assert run(["--config", "/nonexistent.json", "check"]) == 2


def test_config_string_values_get_flag_types(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"n": "8", "omega_scale": 1}))
    rp = tmp_path / "r.json"
    assert run(["--config", str(conf), "check", "--eq", "zi",
                "--case", "planewave-zi", "--report", str(rp)]) == 0
    config = load_report(rp)["config"]
    assert config["n"] == 8 and config["omega_scale"] == 1.0


@pytest.mark.parametrize("text", ['{"n": "eight"}', '{"n": 8.5}',
                                  '{"n": true}'])
def test_config_bad_flag_value_is_usage_error(tmp_path, capsys, text):
    conf = tmp_path / "conf.json"
    conf.write_text(text)
    with pytest.raises(SystemExit) as exc:
        run(["--config", str(conf), "check", "--eq", "zi",
             "--case", "planewave-zi"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "invalid int value" in err


@pytest.mark.parametrize("text", ['{"n": 8', '[1, 2]',
                                  '{"perturb": "false"}'])
def test_config_unusable_file_is_usage_error(tmp_path, capsys, text):
    conf = tmp_path / "conf.json"
    conf.write_text(text)
    assert run(["--config", str(conf), "check", "--kind", "lax",
                "--refine", "2"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "cannot read config" in err


@pytest.mark.parametrize("text, argv, message", [
    ('{"kind": "bogus"}', ["check", "--eq", "zi", "--case", "planewave-zi"],
     "kind: invalid choice 'bogus'"),
    ('{"beta": 2}', ["frame", "--n", "20"], "beta: invalid choice 2"),
])
def test_config_value_outside_choices_is_usage_error(tmp_path, capsys,
                                                     text, argv, message):
    conf = tmp_path / "conf.json"
    conf.write_text(text)
    assert run(["--config", str(conf), *argv]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert captured.err.startswith("solgeo:") and message in captured.err
    assert captured.out == ""


def test_config_value_inside_choices_runs(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"kind": "lambda"}))
    rp = tmp_path / "r.json"
    assert run(["--config", str(conf), "check", "--eq", "zi",
                "--case", "planewave-zi", "--n", "8", "--refine", "2",
                "--report", str(rp)]) == 0
    rep = load_report(rp)
    assert rep["config"]["kind"] == "lambda"
    assert [c["name"] for c in rep["checks"]] == [
        f"lambda-set{i}-refinement" for i in range(3)]


@pytest.mark.parametrize("argv", [
    ["check", "--eq", "zi", "--case", "planewave-zi",
     "--report", "/nonexistent/x.json"],
    ["surface", "--case", "cylinder", "--n", "9",
     "--out", "/nonexistent/x.obj"],
])
def test_unwritable_output_is_usage_error(argv, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.startswith("solgeo:")


def test_thread_cap_env(monkeypatch):
    monkeypatch.setenv("SOLGEO_THREADS", "2")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    cli._apply_thread_cap()
    assert os.environ["OMP_NUM_THREADS"] == "2"


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs /proc/self/status")
def test_thread_cap_applies_before_numpy_loads():
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS")}
    env["SOLGEO_THREADS"] = "1"
    code = ("import solgeo.cli\n"
            "for line in open('/proc/self/status'):\n"
            "    if line.startswith('Threads:'):\n"
            "        print(line.split()[1])\n")
    proc = fresh_python(["-c", code], env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1"]


def test_import_loads_no_scipy():
    code = ("import sys, solgeo.cli\n"
            "print([m for m in sys.modules\n"
            "       if m == 'scipy' or m.startswith('scipy.')])\n")
    proc = fresh_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [
    ["frame", "--beta", "-1", "--n", "50"],
    ["surface", "--case", "sphere-patch", "--n", "17"],
])
def test_non_skew_commands_load_scipy_lazily(argv):
    # these commands meet non-skew generators, the only scipy path
    proc = fresh_python(["-m", "solgeo.cli", *argv])
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv", [
    ["frame", "--beta", "-1", "--n", "50"],
    ["surface", "--case", "sphere-patch", "--n", "17"],
])
def test_non_skew_commands_run_without_scipy(argv):
    # the non-skew exponential is numpy's own: no scipy module may load
    code = ("import contextlib, io, sys\n"
            "from solgeo import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = cli.main({argv!r})\n"
            "print(code, [m for m in sys.modules\n"
            "             if m == 'scipy' or m.startswith('scipy.')])\n")
    proc = fresh_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"
