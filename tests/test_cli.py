import contextlib
import dataclasses
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
from solgeo import cases, cli, frames, liealg, solitons
from solgeo import grid as sg

SRC = os.path.dirname(os.path.dirname(os.path.abspath(solgeo.__file__)))
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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
    assert isinstance(rep["timing"]["minor_faults"], int)
    assert rep["timing"]["minor_faults"] >= 0
    assert rep["timing"]["peak_rss_mb"] > 0
    assert set(rep) == {"version", "config", "seed", "checks", "passed",
                        "timing"}


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


def test_check_pure_gauge_fails_on_a_nan_in_a_later_line(tmp_path,
                                                         monkeypatch):
    # every third bracket is a yt line's; its NaN must reach the gate
    from solgeo import zerocurv

    calls = []

    def nan_yt(a, b):
        out = liealg.cross(a, b)
        calls.append(1)
        if len(calls) % 3 == 0:
            out[0, 0, 0, 0] = np.nan
        return out
    monkeypatch.setattr(zerocurv, "cross", nan_yt)
    rp = tmp_path / "r.json"
    assert run(["check", "--system", "mlxii", "--case", "pure-gauge",
                "--n", "8", "--refine", "3", "--report", str(rp)]) == 1
    rep = load_report(rp)
    assert rep["passed"] is False and len(calls) == 9


def test_check_lambda(tmp_path):
    rp = tmp_path / "r.json"
    assert run(["check", "--kind", "lambda", "--n", "8", "--refine", "3",
                "--report", str(rp)]) == 0
    rep = load_report(rp)
    assert len(rep["checks"]) == 3


def test_check_lambda_fails_on_a_perturbed_spectral_parameter(
        tmp_path, monkeypatch, capsys):
    # lam (1 + 0.3 xi2) solves no line: the defect stays O(0.1) (0.16-0.36
    # at n = 8) where the oracle reads ~1e-3, so no ratio is near 4
    from solgeo import zerocurv

    exact = zerocurv.lambda_field

    def perturbed(kind, params, g):
        f = exact(kind, params, g)
        xi2 = g.meshes(sparse=True)[g.index("xi2")]
        return dataclasses.replace(f, lam=f.lam * (1 + 0.3 * xi2))
    monkeypatch.setattr(zerocurv, "lambda_field", perturbed)
    rp = tmp_path / "r.json"
    assert run(["check", "--kind", "lambda", "--n", "8", "--refine", "3",
                "--report", str(rp)]) == 1
    rep = load_report(rp)
    assert rep["passed"] is False and len(rep["checks"]) == 3
    assert not any(c["passed"] for c in rep["checks"])
    assert all(c["max"] > 0.1 for c in rep["checks"])
    assert capsys.readouterr().err == ""


def test_check_reductions(tmp_path):
    for case in ("strachan-reduction", "zi-reduction"):
        rp = tmp_path / f"{case}.json"
        assert run(["check", "--eq", "m3q", "--case", case,
                    "--report", str(rp)]) == 0
        rep = load_report(rp)
        assert rep["passed"] is True
        assert all(c["m3q_max"] > 0 for c in rep["checks"])


@pytest.mark.parametrize("case", ["strachan-reduction", "zi-reduction"])
def test_check_reduction_fails_on_vanishing_residuals(case, tmp_path,
                                                      monkeypatch):
    # on zero fields both sides of the identity vanish, so a gate on their
    # difference alone would pass
    monkeypatch.setattr(cases, "random_smooth",
                        lambda grid, rng, scale=1.0: np.zeros(grid.shape,
                                                              dtype=complex))
    rp = tmp_path / "r.json"
    assert run(["check", "--eq", "m3q", "--case", case,
                "--report", str(rp)]) == 1
    rep = load_report(rp)
    assert rep["passed"] is False
    assert len(rep["checks"]) == 3
    assert all(c["max"] == 0.0 and c["m3q_max"] == 0.0
               and c["passed"] is False for c in rep["checks"])


@pytest.mark.parametrize("case", ["strachan-reduction", "zi-reduction"])
def test_check_reduction_uses_grid_size(case, tmp_path, monkeypatch):
    # the report records n, so the fields must be drawn on the n^3 grid;
    # the reductions are identities, exact at any size
    sizes = []
    real_grid = cases.default_grid_xyt
    monkeypatch.setattr(cases, "default_grid_xyt",
                        lambda n: sizes.append(n) or real_grid(n))
    for n in (12, 16):
        rp = tmp_path / f"{n}.json"
        assert run(["check", "--eq", "m3q", "--case", case, "--n", str(n),
                    "--report", str(rp)]) == 0
        rep = load_report(rp)
        assert rep["config"]["n"] == n
        assert all(c["max"] == 0.0 for c in rep["checks"])
    assert sizes == [12, 16]


def test_check_lax(tmp_path):
    rp = tmp_path / "r.json"
    assert run(["check", "--kind", "lax", "--refine", "2", "--perturb",
                "--report", str(rp)]) == 0
    rep = load_report(rp)
    names = [c["name"] for c in rep["checks"]]
    assert "lax-zi-refinement" in names and "lax-zi-discrimination" in names


def test_check_lax_uses_line_size(tmp_path):
    rp = tmp_path / "r.json"
    assert run(["check", "--kind", "lax", "--n", "32", "--refine", "2",
                "--report", str(rp)]) == 0
    ref = solitons.lax_refinement_report(
        "zi", cases.planewave("zi")["callables"], {"lam": 0.3}, levels=2,
        n_line=32)
    check, = [c for c in load_report(rp)["checks"]
              if c["name"] == "lax-zi-refinement"]
    assert check["defects"] == ref["defects"]


def test_check_lax_control_runs_at_the_finest_level(tmp_path, monkeypatch):
    # the detuned control must be compared with the defect at its own size
    calls = []

    def defect(eq, fields, params, n_line, substeps):
        calls.append((n_line, substeps))
        return 1.0 / n_line**3
    monkeypatch.setattr(solitons, "lax_commutation_defect", defect)
    rp = tmp_path / "r.json"
    assert run(["check", "--kind", "lax", "--refine", "2", "--perturb",
                "--report", str(rp)]) == 1
    assert calls == [(16, 4), (32, 8), (32, 8)]
    control = load_report(rp)["checks"][1]
    assert control["name"] == "lax-zi-discrimination"
    assert control["max"] == 1.0


@pytest.mark.parametrize("perturb", [[], ["--perturb"]])
@pytest.mark.parametrize("finest", [0.0, float("nan")])
def test_check_lax_fails_on_a_vanishing_finest_defect(finest, perturb,
                                                      tmp_path, monkeypatch,
                                                      capsys):
    # the ratio to a zero or nan defect used to read inf, which passed the
    # r >= 8 floor, and the control divided by a zero defect (a traceback)
    by_size = {16: 1.0, 32: 0.1, 64: finest}
    monkeypatch.setattr(solitons, "lax_commutation_defect",
                        lambda eq, fields, params, n_line, substeps:
                        by_size[n_line])
    rp = tmp_path / "r.json"
    assert run(["check", "--kind", "lax", "--refine", "3", *perturb,
                "--report", str(rp)]) == 1
    assert capsys.readouterr().err == ""
    rep = load_report(rp)
    assert rep["passed"] is False
    assert len(rep["checks"]) == 1 + len(perturb)
    assert not any(c["passed"] for c in rep["checks"])
    ratios = rep["checks"][0]["ratios"]
    assert ratios[0] == pytest.approx(10.0) and np.isnan(ratios[1])


def test_check_lax_fails_on_an_infinite_coarse_defect(tmp_path, monkeypatch,
                                                      capsys):
    # inf / 0.1 read inf, which passed the r >= 8 floor
    by_size = {16: float("inf"), 32: 0.1, 64: 0.01}
    monkeypatch.setattr(solitons, "lax_commutation_defect",
                        lambda eq, fields, params, n_line, substeps:
                        by_size[n_line])
    rp = tmp_path / "r.json"
    assert run(["check", "--kind", "lax", "--refine", "3",
                "--report", str(rp)]) == 1
    assert capsys.readouterr().err == ""
    check = load_report(rp)["checks"][0]
    assert check["passed"] is False
    assert np.isnan(check["ratios"][0])
    assert check["ratios"][1] == pytest.approx(10.0)


def test_check_lax_control_ratio_follows_the_refinement_rule(tmp_path,
                                                              monkeypatch):
    # a detuned defect that blew up shows no discrimination: its ratio to
    # the finest defect is nan, as in refinement_study, not inf
    defects = iter([1.0, 0.1, float("inf")])
    monkeypatch.setattr(solitons, "lax_commutation_defect",
                        lambda eq, fields, params, n_line, substeps:
                        next(defects))
    rp = tmp_path / "r.json"
    assert run(["check", "--kind", "lax", "--refine", "2", "--perturb",
                "--report", str(rp)]) == 1
    study, control = load_report(rp)["checks"]
    assert study["passed"] is True
    assert control["passed"] is False and np.isnan(control["max"])


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("argv", [
    ["check", "--eq", "zi", "--case", "planewave-zi"],
    ["check", "--eq", "m3q", "--case", "zi-reduction"],
    ["check", "--system", "mlxii", "--case", "pure-gauge", "--n", "8",
     "--refine", "2"],
    ["check", "--kind", "lambda", "--n", "8", "--refine", "2"],
])
def test_perturb_outside_lax_is_usage_error(argv, via, tmp_path, capsys):
    # only the lax check runs a perturbed negative control; elsewhere the
    # flag was recorded in the config and never applied
    if via == "flag":
        code = run(argv + ["--perturb"])
    else:
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"perturb": True}))
        code = run(["--config", str(conf)] + argv)
    assert code == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert captured.err.startswith("solgeo:") and "--perturb" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["check", "--eq", "m3q", "--case", "zi-reduction"],
    ["check", "--system", "mlxii", "--case", "pure-gauge", "--n", "8",
     "--refine", "2"],
    ["check", "--kind", "lambda", "--n", "8", "--refine", "2"],
    ["check", "--kind", "lax", "--refine", "2"],
])
def test_omega_scale_outside_planewave_is_usage_error(argv, capsys):
    # only the plane-wave check has a frequency to scale; elsewhere the
    # flag was recorded in the config and never applied
    assert run(argv + ["--omega-scale", "1.1"]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert captured.err.startswith("solgeo:")
    assert "--omega-scale" in captured.err
    assert captured.out == ""


# a check per entry of cli.CHECKS, and a value off the parser default for
# every check flag, as command-line text and as a config value
CHECK_ARGV = {
    "planewave": ["check", "--eq", "zi", "--case", "planewave-zi",
                  "--n", "8"],
    "reduction": ["check", "--eq", "m3q", "--case", "zi-reduction",
                  "--n", "8"],
    "pure-gauge": ["check", "--system", "mlxii", "--case", "pure-gauge",
                   "--n", "8", "--refine", "2"],
    "lambda": ["check", "--kind", "lambda", "--n", "8", "--refine", "2"],
    "lax": ["check", "--kind", "lax", "--refine", "2"],
}
OFF_DEFAULT = {"eq": "zi", "system": "gmce", "kind": "lax",
               "case": "planewave-zi", "n": 8, "refine": 2,
               "omega_scale": 1.1, "perturb": True, "seed": 5}


def _check_flags():
    _, commands = cli._build_parser()
    return [a.dest for a in commands["check"]._actions
            if a.dest not in ("help", "report")]


def test_refusal_table_covers_every_check_and_flag():
    assert set(CHECK_ARGV) == set(cli.CHECKS)
    assert set(OFF_DEFAULT) == set(_check_flags())


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("check, dest", [
    (check, dest) for check, (_, reads) in cli.CHECKS.items()
    for dest in _check_flags() if dest not in reads])
def test_flag_the_check_does_not_read_is_usage_error(check, dest, via,
                                                     tmp_path, capsys):
    # a value the check never reads would only be recorded in the report's
    # config; a selector that takes precedence names itself as the selector
    flag, rp = "--" + dest.replace("_", "-"), tmp_path / "r.json"
    argv = CHECK_ARGV[check] + ["--report", str(rp)]
    value = OFF_DEFAULT[dest]
    if via == "flag":
        code = run(argv + ([flag] if value is True else [flag, str(value)]))
    else:
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({dest: value}))
        code = run(["--config", str(conf)] + argv)
    assert code == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and captured.out == ""
    assert captured.err.startswith("solgeo:") and flag in captured.err
    assert captured.err.count("\n") == 1
    assert not rp.exists()


@pytest.mark.parametrize("argv, flag", [
    (["--eq", "zi", "--case", "planewave-zi", "--seed", "5"], "--seed"),
    (["--eq", "m3q", "--case", "zi-reduction", "--n", "8", "--refine", "9"],
     "--refine"),
    (["--kind", "lax", "--n", "8", "--refine", "2", "--eq", "ds",
      "--case", "planewave-ds"], "--eq"),
    (["--kind", "lambda", "--n", "6", "--refine", "2", "--system", "gmce",
      "--case", "pure-gauge"], "--system"),
    (["--system", "gmce", "--case", "pure-gauge", "--n", "8", "--refine", "2",
      "--eq", "zi", "--seed", "3"], "--eq"),
])
def test_ignored_flags_that_used_to_run_are_usage_errors(argv, flag,
                                                          tmp_path, capsys):
    # each ran the selected check and recorded the ignored values
    rp = tmp_path / "r.json"
    assert run(["check", *argv, "--report", str(rp)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"solgeo: {flag} does not apply")
    assert err.count("\n") == 1 and not rp.exists()


def test_readme_check_command_lines_run(tmp_path, monkeypatch):
    # beside the tests, not beside the imported package, which may be a copy
    with open(os.path.join(ROOT, "README.md")) as fh:
        lines = [ln.split()[1:] for ln in fh
                 if ln.startswith("solgeo check ")]
    assert len(lines) == 8
    monkeypatch.chdir(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        assert [run(argv) for argv in lines] == [0] * 8


@pytest.mark.parametrize("scale", ["nan", "inf", "-inf"])
def test_nonfinite_omega_scale_is_usage_error(scale, tmp_path, capsys):
    # a nan frequency made every residual nan: exit 1 and a report with
    # NaN in it, which is not strict JSON
    rp = tmp_path / "r.json"
    assert run(["check", "--eq", "zi", "--case", "planewave-zi",
                f"--omega-scale={scale}", "--report", str(rp)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("solgeo:")
    assert "--omega-scale" in captured.err
    assert not rp.exists()


def test_out_of_memory_is_usage_error(monkeypatch, capsys):
    # a grid too large for the host: numpy raises a MemoryError naming the
    # size (simulated here; a real attempt can get the process killed on an
    # overcommitting host instead)
    def too_big(params, n):
        raise MemoryError("Unable to allocate 74.5 GiB for an array with "
                          f"shape ({n}, {n}, {n}, {n}) and data type float64")
    monkeypatch.setattr(cases, "lambda_defect", too_big)
    assert run(["check", "--kind", "lambda", "--n", "100000",
                "--refine", "2"]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert captured.err.startswith("solgeo: out of memory:")
    assert "74.5 GiB" in captured.err
    assert captured.out == ""


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


def _assert_tol_refused(argv, tol, via, tmp_path, capsys):
    # the gates' bounds are constants: argparse refuses the flag, and the
    # config reader the key, before any check runs
    if via == "flag":
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--tol", str(tol)])
        code, says = exc.value.code, f"unrecognized arguments: --tol {tol}"
    else:
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"tol": tol}))
        code = run(["--config", str(conf)] + argv)
        says = "solgeo: cannot read config: tol: not an option"
    assert code == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert says in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("argv", [
    ["check", "--system", "mlxii", "--case", "pure-gauge", "--n", "8"],
    ["check", "--kind", "lambda", "--n", "8"],
    ["check", "--kind", "lax"],
])
def test_refinement_checks_refuse_tol(argv, via, tmp_path, capsys):
    # these checks gate on ratio windows
    _assert_tol_refused(argv + ["--refine", "2"], 1e-30, via, tmp_path,
                        capsys)


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("tol", [float("inf"), float("nan"), -1.0])
def test_non_finite_or_negative_tol_is_usage_error(tol, via, tmp_path,
                                                   capsys):
    # inf passes every value and nan none, and a finite one is no option
    # either: the plane-wave gate's bound is TOL_ANALYTIC
    _assert_tol_refused(["check", "--eq", "zi", "--case", "planewave-zi",
                         "--n", "8"], tol, via, tmp_path, capsys)


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


@pytest.mark.parametrize("n", [9, 17, 32])
@pytest.mark.parametrize("name", ["sphere-patch", "cylinder", "plane"])
def test_surface_shape_entry(name, n, tmp_path):
    obj = tmp_path / f"{name}.obj"
    rp = tmp_path / "r.json"
    assert run(["surface", "--case", name, "--n", str(n), "--out", str(obj),
                "--report", str(rp)]) == 0
    assert obj.is_file()
    rep = load_report(rp)
    assert [c["name"] for c in rep["checks"]] == [
        f"surface-{name}-{k}" for k in ("mixed-partial", "compatibility",
                                        "shape")]
    compat, shape = rep["checks"][1:]
    axes = cases.SURFACE_CASES[name](n).grid.axes
    hmax = max(a.h for a in axes)
    assert compat["tol"] == 10 * min(a.h for a in axes)**2
    assert set(compat) == {"name", "max", "tol", "passed"}
    assert compat["max"] <= compat["tol"] and compat["passed"] is True
    assert shape["tol"] == hmax**2
    assert shape["max"] <= shape["tol"] and shape["passed"] is True
    if n == 17:
        if name == "plane":
            assert shape["max"] == 0.0
        else:
            assert shape["max"] < 1e-3


@pytest.mark.parametrize("key", ["L", "p11"])
def test_surface_shape_gate_fails_on_a_compatible_sign_slip(
        key, tmp_path, monkeypatch, capsys):
    # a negated L or p11 keeps the cylinder's forms compatible, so only the
    # shape entry sees the mirrored surface
    def slipped(n):
        s = cases.cylinder(n)
        return dataclasses.replace(s, **{key: -getattr(s, key)})
    monkeypatch.setitem(cases.SURFACE_CASES, "cylinder", slipped)
    rp = tmp_path / "r.json"
    assert run(["surface", "--case", "cylinder", "--n", "32",
                "--report", str(rp)]) == 1
    rep = load_report(rp)
    assert rep["passed"] is False
    passed = {c["name"]: c["passed"] for c in rep["checks"]}
    assert passed == {"surface-cylinder-mixed-partial": True,
                      "surface-cylinder-compatibility": True,
                      "surface-cylinder-shape": False}
    assert rep["checks"][2]["max"] > 0.5
    assert "Traceback" not in capsys.readouterr().err


def test_surface_compatibility_gate_can_fail(tmp_path, monkeypatch, capsys):
    # a compatibility residual above the 10 h_min^2 tol fails the named
    # check in a written report instead of aborting the run without one
    real = frames.reconstruct_surface
    monkeypatch.setattr(frames, "reconstruct_surface", lambda s:
                        dataclasses.replace(real(s), gmce_residual_max=2.0))
    rp = tmp_path / "r.json"
    assert run(["surface", "--case", "cylinder", "--n", "9",
                "--report", str(rp)]) == 1
    rep = load_report(rp)
    assert rep["passed"] is False
    compat = next(c for c in rep["checks"] if "compatibility" in c["name"])
    assert compat["name"] == "surface-cylinder-compatibility"
    assert compat["max"] == 2.0 and compat["passed"] is False
    assert "Traceback" not in capsys.readouterr().err


def test_surface_compatibility_gate_fails_on_incompatible_forms(
        tmp_path, monkeypatch):
    # L + 0.5 breaks the Gauss-Codazzi equations: the residual reads 0.51
    # at n = 17, 13 times 10 h_min^2 = 0.039
    def shifted(n):
        s = cases.sphere_patch(n)
        return dataclasses.replace(s, L=s.L + 0.5)
    monkeypatch.setitem(cases.SURFACE_CASES, "sphere-patch", shifted)
    rp = tmp_path / "r.json"
    assert run(["surface", "--case", "sphere-patch", "--n", "17",
                "--report", str(rp)]) == 1
    compat = load_report(rp)["checks"][1]
    assert compat["name"] == "surface-sphere-patch-compatibility"
    assert compat["tol"] == 10 * (1 / 16) ** 2
    assert compat["max"] > 0.5 and compat["passed"] is False


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


@pytest.mark.parametrize("name, ndim", [("uniform-spin", 3),
                                        ("rational-lambda", 4)])
def test_case_fields_are_built_at_the_requested_n(tmp_path, name, ndim):
    # both cases once built fixed 12^3 and 12^4 grids whatever --n said
    rp = tmp_path / "r.json"
    assert run(["case", name, "--n", "6", "--out", str(tmp_path),
                "--report", str(rp)]) == 0
    written = json.loads(rp.read_text())["checks"][0]["written"]
    assert written
    for path in written:
        grid = sg.load_field(path).grid
        assert [a.n for a in grid.axes] == [6] * ndim, path


def test_case_pure_gauge_writes_matrix_fields(tmp_path):
    # the builder's axial fields are written in matrix form, kind "matrix"
    assert run(["case", "pure-gauge", "--n", "6", "--out", str(tmp_path)]) == 0
    conn = cases.pure_gauge_connection(cases.default_grid_gauge(6))
    assert sorted(conn) == ["A", "B", "C"]
    for key, f in conn.items():
        m = sg.load_field(tmp_path / f"pure-gauge-{key}.field")
        assert isinstance(m, sg.MatrixField) and m.grid == f.grid
        assert m.data.shape == (6, 6, 6, 3, 3)
        assert np.array_equal(m.data, -np.swapaxes(m.data, -1, -2))
        assert np.array_equal(m.data, liealg.hat(f.data))


@pytest.mark.parametrize("name", cases.CASE_NAMES)
def test_case_entry_is_the_read_back_difference(name, tmp_path):
    rp = tmp_path / "r.json"
    assert run(["case", name, "--n", "6", "--out", str(tmp_path / "out"),
                "--report", str(rp)]) == 0
    (entry,) = load_report(rp)["checks"]
    assert entry["name"] == f"case-{name}"
    assert entry["max"] == 0.0 and entry["tol"] == 0.0
    assert entry["grid_match"] is True and entry["passed"] is True


def test_case_fails_on_a_payload_that_does_not_read_back(tmp_path,
                                                        monkeypatch):
    # one ulp off in every written value is a failed check, not a pass
    real = sg.save_field
    monkeypatch.setattr(sg, "save_field", lambda path, f: real(
        path, dataclasses.replace(f, data=f.data * (1 + 2**-52))))
    rp = tmp_path / "r.json"
    assert run(["case", "planewave-ds", "--n", "8", "--out", str(tmp_path),
                "--report", str(rp)]) == 1
    (entry,) = load_report(rp)["checks"]
    assert 0.0 < entry["max"] < 1e-15 and entry["passed"] is False


def test_case_fails_on_a_grid_that_does_not_read_back(tmp_path, monkeypatch):
    # a header with the sizes but not the spacing of the grid reads back
    # every value on another grid: a failed check, not a pass
    real = sg.save_field

    def stretched(path, f):
        axes = tuple(dataclasses.replace(a, h=1.5 * a.h) for a in f.grid.axes)
        real(path, dataclasses.replace(f, grid=sg.GridSpec(axes)))
    monkeypatch.setattr(sg, "save_field", stretched)
    rp = tmp_path / "r.json"
    assert run(["case", "planewave-ds", "--n", "8", "--out", str(tmp_path),
                "--report", str(rp)]) == 1
    (entry,) = load_report(rp)["checks"]
    assert entry["max"] == 0.0 and entry["grid_match"] is False
    assert entry["passed"] is False


@pytest.mark.parametrize("name", ["sphere-patch", "cylinder", "plane"])
def test_case_refuses_surfaces(name, tmp_path, capsys):
    # `surface --case NAME --out` writes the same OBJ and gates it
    out = tmp_path / "out"
    assert run(["case", name, "--n", "9", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"solgeo: unknown case {name!r}")
    assert "surface --case" in err and not out.exists()


def test_case_unknown_name():
    assert run(["case", "bogus"]) == 2


@pytest.mark.parametrize("argv", [
    ["case", "planewave-ds", "--n", "2"],
    ["case", "pure-gauge", "--n", "3"],
    ["case", "bogus"],
])
def test_refused_case_leaves_no_directory(argv, tmp_path, capsys):
    out = tmp_path / "newdir"
    assert run([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("solgeo:") and "Traceback" not in err
    assert not out.exists()


def test_case_unreadable_field_is_usage_error(tmp_path, monkeypatch,
                                              capsys):
    # a field file that does not load back is a domain error naming it
    real = sg.save_field

    def short(path, f):
        real(path, f)
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) - 8)
    monkeypatch.setattr(sg, "save_field", short)
    assert run(["case", "uniform-spin", "--n", "6",
                "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("solgeo: ") and "uniform-spin-s1.field" in err
    assert "Traceback" not in err


def test_frame_command(tmp_path):
    out = tmp_path / "e1.csv"
    rp = tmp_path / "r.json"
    assert run(["frame", "--k", "1.0", "--tau", "0.2", "--n", "50",
                "--h", "0.05", "--out", str(out), "--report", str(rp)]) == 0
    data = np.loadtxt(out, delimiter=",")
    assert data.shape == (50, 4)
    rep = load_report(rp)
    assert rep["checks"][0]["max"] <= 1e-12


@pytest.mark.parametrize("n", ["1", "2", "3"])
def test_frame_too_few_samples_is_usage_error(n, tmp_path, capsys):
    out = tmp_path / "e1.csv"
    assert run(["frame", "--n", n, "--out", str(out)]) == 2
    # the sample count is the frame axis's size, checked by grid.Axis
    assert capsys.readouterr().err == f"solgeo: axis x: need n >= 4, got {n}\n"
    assert not out.exists()


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
    ["check", "--eq", "m3q", "--case", "zi-reduction", "--n", "3"],
    ["check", "--kind", "lax", "--n", "0", "--refine", "2"],
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
        if draw(st.booleans()):
            argv += ["--omega-scale", draw(st.sampled_from(
                ["1", "1.1", "nan", "inf"]))]
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
    if "--omega-scale" in argv:
        scale = argv[argv.index("--omega-scale") + 1]
        planewave = "--eq" in argv and argv[argv.index("--eq") + 1] != "m3q"
        if scale in ("nan", "inf") or (scale != "1" and not planewave):
            # a scale that is never applied, or that is not finite
            assert code == 2, argv
    if argv[0] == "check":
        reduction = "m3q" in argv
        planewave = argv[1] == "--eq" and not reduction
        seed = argv[argv.index("--seed") + 1]
        refine = argv[argv.index("--refine") + 1]
        if ((seed != "0" and not reduction)
                or (refine != "3" and (planewave or reduction))):
            # a flag the check does not read is refused, never recorded
            assert code == 2, argv


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


@pytest.mark.parametrize("text, argv", [
    ('{"nn": 8}', ["check", "--eq", "zi", "--case", "planewave-zi"]),
    ('{"nn": null}', ["check", "--eq", "zi", "--case", "planewave-zi"]),
    ('{"n": 8, "refine-levels": 2}', ["check", "--kind", "lambda"]),
    ('{"name": "plane"}', ["case", "uniform-spin", "--out", "fields"]),
    ('{"config": "other.json"}', ["frame", "--n", "20"]),
    ('{"out": "x.obj"}', ["check", "--eq", "zi", "--case", "planewave-zi"]),
    ('{"tol": 1e-8}', ["check", "--eq", "zi", "--case", "planewave-zi"]),
])
def test_config_key_that_names_no_option_is_usage_error(
        text, argv, tmp_path, monkeypatch, capsys):
    # such a key used to be dropped and the run went ahead without it
    monkeypatch.chdir(tmp_path)
    conf = tmp_path / "conf.json"
    conf.write_text(text)
    assert run(["--config", str(conf), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    key = next(iter(json.loads(text).keys() - {"n"}))
    assert captured.err.startswith(f"solgeo: cannot read config: {key}: "
                                   f"not an option of solgeo {argv[0]}")
    assert not (tmp_path / "fields").exists()


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
    assert run(["--config", str(conf), "check", "--n", "8", "--refine", "2",
                "--report", str(rp)]) == 0
    rep = load_report(rp)
    assert rep["config"]["kind"] == "lambda"
    assert [c["name"] for c in rep["checks"]] == [
        f"lambda-set{i}-refinement" for i in range(3)]


def _outcome(argv, capsys):
    """Exit code and stdout report minus timing of one in-process run."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    out = capsys.readouterr().out
    report = json.loads(out) if out else None
    if report:
        report.pop("timing")
    return code, report


@pytest.mark.parametrize("argv", [
    ["check", "--eq", "zi", "--case", "planewave-zi", "--n", "8"],
    ["check", "--kind", "lambda", "--n", "4", "--refine", "2"],
    ["check", "--eq", "m3q", "--case", "zi-reduction"],
    ["surface", "--case", "plane", "--n", "8"],
    ["case", "uniform-spin", "--out", "fields"],
    ["frame", "--n", "20"],
], ids=lambda argv: "-".join(a.lstrip("-") for a in argv[:3]))
def test_config_null_keeps_each_flag_default(tmp_path, monkeypatch, capsys,
                                             argv):
    # a config key set to null runs as if the key were absent, for every
    # option of every subcommand
    monkeypatch.chdir(tmp_path)
    _, commands = cli._build_parser()
    for action in commands[argv[0]]._actions:
        if action.dest == "help":
            continue
        base = list(argv)
        if action.option_strings and action.option_strings[0] in base:
            i = base.index(action.option_strings[0])
            del base[i:i + 1 + (action.nargs != 0)]
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({action.dest: None}))
        assert (_outcome(["--config", str(conf), *base], capsys)
                == _outcome(base, capsys)), (action.dest, base)


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


def test_import_loads_no_scipy():
    code = ("import sys, solgeo.cli\n"
            "print([m for m in sys.modules\n"
            "       if m == 'scipy' or m.startswith('scipy.')])\n")
    proc = fresh_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# (command line, solgeo modules it must not load); [] is the bare
# `import solgeo.cli`
COLD_IMPORTS = [
    ([], {"cases", "frames", "solitons", "zerocurv", "liealg", "waves"}),
    (["check", "--eq", "zi", "--case", "planewave-zi", "--n", "4"],
     {"frames", "zerocurv", "liealg"}),
    (["check", "--eq", "m3q", "--case", "zi-reduction"],
     {"frames", "zerocurv", "liealg"}),
    (["check", "--system", "mlxii", "--case", "pure-gauge", "--n", "4",
      "--refine", "2"], {"frames", "solitons"}),
    (["check", "--kind", "lambda", "--n", "8", "--refine", "2"],
     {"frames", "solitons"}),
    (["check", "--kind", "lax", "--n", "8", "--refine", "2"],
     {"frames", "zerocurv"}),
    (["surface", "--case", "plane", "--n", "4"], {"solitons"}),
    (["case", "planewave-ds", "--n", "4", "--out", "out"],
     {"frames", "solitons", "zerocurv", "liealg"}),
    (["frame", "--n", "4"], {"cases", "solitons", "zerocurv", "waves"}),
]


@pytest.mark.parametrize("argv, absent", COLD_IMPORTS,
                         ids=[" ".join(a[:3]) or "import"
                              for a, _ in COLD_IMPORTS])
def test_cold_command_imports_only_what_it_runs(argv, absent, tmp_path):
    # a cold process pays for every module it loads, so each subcommand
    # imports only its own
    argv = [str(tmp_path / a) if a == "out" else a for a in argv]
    code = ("import contextlib, io, json, sys\n"
            "from solgeo import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = cli.main({argv!r}) if {argv!r} else 0\n"
            "print(json.dumps([code, [m for m in sys.modules\n"
            "                         if m.startswith('solgeo.')]]))\n")
    proc = fresh_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    rc, loaded = json.loads(proc.stdout)
    assert rc == 0
    assert not {f"solgeo.{m}" for m in absent} & set(loaded)


@pytest.mark.parametrize("argv", [
    ["frame", "--beta", "-1", "--n", "50"],
    ["surface", "--case", "sphere-patch", "--n", "17"],
])
def test_non_skew_commands_exit_zero_in_a_fresh_process(argv):
    # these commands meet non-skew generators, which take the Pade
    # exponential; run as `python -m solgeo.cli`, each exits 0
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


def _glibc():
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not _glibc(), reason="allocator policy is glibc-only")
def test_import_keeps_freed_arrays_in_the_heap():
    # after import solgeo, freed multi-MB arrays are reused from the heap:
    # 50 allocate/free rounds of 8 MiB fault in (almost) no fresh pages
    code = ("import resource, solgeo\n"
            "import numpy as np\n"
            "np.ones(1 << 20)\n"
            "f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "for _ in range(50):\n"
            "    a = np.ones(1 << 20)\n"
            "    del a\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)\n")
    proc = fresh_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= 100


@pytest.mark.parametrize("stub", [
    "class Lib:\n    def __init__(self, name):\n        pass\n",
    "class Lib:\n    def __init__(self, name):\n        pass\n"
    "    mallopt = staticmethod(lambda *a: 0)\n",
    "def Lib(name):\n    raise OSError(name)\n",
], ids=["no-mallopt", "mallopt-refuses", "no-libc"])
def test_import_survives_a_libc_without_mallopt(stub):
    # a C library without mallopt, or one that refuses it, leaves the
    # import working and the package usable
    code = ("import ctypes\n" + stub +
            "ctypes.CDLL = Lib\n"
            "import solgeo, solgeo.cli\n"
            "print(solgeo.__version__)\n")
    proc = fresh_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == solgeo.__version__
