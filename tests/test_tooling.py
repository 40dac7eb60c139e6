"""The repository's tools outside the package: the benchmark tracer's
targets and the benchmark's calls must fit solgeo, and the scripts must
run."""

import ast
import importlib
import importlib.util
import inspect
import json
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


def test_benchmark_calls_bind_to_solgeo_signatures():
    # every solgeo call the benchmark workloads make, bound to the current
    # signature: an API change that drops a parameter they pass fails here
    # rather than in a benchmark run (read only, like the test above)
    with open(os.path.join(ROOT, "perfbench", "workloads.py")) as fh:
        tree = ast.parse(fh.read())
    modules = {alias.asname or alias.name:
               importlib.import_module(f"solgeo.{alias.name}")
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "solgeo"
               for alias in node.names}
    bound = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain, owner = [], node.func
        while isinstance(owner, ast.Attribute):
            chain.insert(0, owner.attr)
            owner = owner.value
        if not (chain and isinstance(owner, ast.Name)
                and owner.id in modules):
            continue
        name = ".".join([owner.id, *chain])
        target = modules[owner.id]
        for attr in chain:
            target = getattr(target, attr)
        kwargs = {k.arg: None for k in node.keywords if k.arg}
        # a *args or **kwargs call fixes only part of the binding
        partial = (len(kwargs) < len(node.keywords)
                   or any(isinstance(a, ast.Starred) for a in node.args))
        sig = inspect.signature(target)
        try:
            (sig.bind_partial if partial else sig.bind)(
                *[None] * len(node.args), **kwargs)
        except TypeError as exc:
            raise AssertionError(f"workloads.py:{node.lineno} {name}: {exc}")
        bound.add(name)
    assert {"solitons.lax_commutation_defect",
            "solitons.lax_refinement_report"} <= bound


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        env=env, capture_output=True, text=True, timeout=300)


def load_fingerprint():
    path = os.path.join(ROOT, "scripts", "fingerprint.py")
    spec = importlib.util.spec_from_file_location("fingerprint", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fingerprint_is_repeatable_and_covers_every_check(tmp_path):
    # the fingerprint behind bit-identity claims: identical across two runs
    # in one process, one line per returned value of every warm check
    fp = load_fingerprint()
    wl = fp.load_workloads()

    def run_once():
        return (fp.warm_lines(wl, 5) + fp.array_lines(wl, 5)
                + fp.cli_lines(wl, 5, str(tmp_path), only={1, 7}))

    lines = run_once()
    assert lines == run_once()
    names = {ln.split()[0] for ln in lines}
    assert len(names) == len(lines)
    checks = {n.split("/")[2].rsplit(".", 1)[0] for n in names
              if n.startswith(("grids/", "transport/"))}
    assert checks == {
        "gauge_zc", "lambda_set0", "lambda_set1", "lambda_set2",
        "planewave_ds", "planewave_zi", "planewave_strachan",
        "reduction_strachan", "reduction_zi", "embedding", "antider_x",
        "frenet_rodrigues", "frenet_scipy", "surface_sphere-patch",
        "surface_cylinder", "commutation_2d", "lax_zi_refinement",
        "lax_zi_discrimination"}
    assert all(ln.endswith(" True") for ln in lines if
               ln.split()[0].endswith(".ok"))
    assert {n for n in names if n.startswith("cli/")} == {
        "cli/5/1-check.exit", "cli/5/1-check.report", "cli/5/1-check.files",
        "cli/5/7-frame.exit", "cli/5/7-frame.report", "cli/5/7-frame.files"}
    files = {ln.split()[0]: ln.split(" ", 2)[2] for ln in lines
             if ln.startswith("cli/")}
    assert files["cli/5/1-check.files"] == "[]"
    assert files["cli/5/7-frame.files"].startswith("[('frame.csv', '")
    assert any(n.startswith("arrays/5/embedding.") for n in names)
    assert {n for n in names if n.startswith("inputs/")} == {
        "inputs/5/embedding.A", "inputs/5/embedding.B", "inputs/5/embedding.C",
        "inputs/5/reduction.q", "inputs/5/reduction.p", "inputs/5/reduction.v",
        "inputs/5/frenet.beta+1", "inputs/5/frenet.beta-1"}


def test_mutation_score_flips_each_sign_in_the_named_functions(tmp_path,
                                                             monkeypatch):
    # a toy module: f's sign is pinned by its test, g's `-` is not (g(2, 2)
    # >= 1 holds either way) and its `+=` is; h is not named
    src = tmp_path / "src"
    src.mkdir()
    (src / "toy.py").write_text(
        "def f(a, b):\n"
        "    return a + b\n\n\n"
        "def g(a, b):\n"
        "    out = a - b\n"
        "    out += 1\n"
        "    return out\n\n\n"
        "def h(a):\n"
        "    return a - 1\n")
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_toy.py").write_text(
        "import toy\n\n\n"
        "def test_f():\n"
        "    assert toy.f(2, 1) == 3\n\n\n"
        "def test_g():\n"
        "    assert toy.g(2, 2) >= 1\n")
    # the toy tests need no plugin, and each of the five runs then starts
    # in about half the time
    monkeypatch.setenv("PYTEST_DISABLE_PLUGIN_AUTOLOAD", "1")
    out = tmp_path / "survivors.json"
    proc = run_script("mutation_score.py", "toy.py", "f", "g", "--src",
                      str(src), "--tests", str(tests), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert (result["sites"], result["killed"]) == (3, 2)
    assert result["survivors"] == [{
        "function": "g", "line": 6, "col": 12, "op": "-", "to": "+",
        "code": "out = a - b"}]
    # the source tree itself is never edited
    assert "a - b" in (src / "toy.py").read_text()
    # a subset that fails on the unmutated copy scores nothing
    (tests / "test_toy.py").write_text("def test_fails():\n    assert False\n")
    proc = run_script("mutation_score.py", "toy.py", "f", "--src", str(src),
                      "--tests", str(tests))
    assert proc.returncode != 0 and "unmutated copy fails" in proc.stderr
