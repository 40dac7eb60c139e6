#!/usr/bin/env python3
"""Output fingerprint for bit-identity claims.

Prints one line per value: its name, a sha256 prefix of its repr and the
repr itself.  It covers every value the benchmark's grids and transport
checks return (perfbench/workloads.py, used read only), and, for each
command of the benchmark's CLI cycle, run in process, the report minus
`timing` and a sha256 prefix of every file the command writes.  A float's
repr round-trips exactly, so equal lines mean equal values.  The arrays
behind the checks get one line each, with a sha256 of their raw bytes and
their shape, dtype and max |entry|, and so do the seeded input arrays
(`inputs/...`: the reduction fields, the embedding connection and the
Frenet coefficients).  The surface lines cover every case's reconstructed
positions and, for the sphere, the output of each map that reads
`SurfaceData`: frame coefficients, U and V, the GWE matrices and the mI
velocities.  The builder lines cover the Lax, spin, `hat` and
`skew_matrix` matrices on seeded inputs (`builder_arrays`).

    PYTHONPATH=src python scripts/fingerprint.py --seeds 4242 17
    PYTHONPATH=src python scripts/fingerprint.py --seeds 4242 --against OTHER

--against runs the same script with OTHER/src first on the path in a
subprocess, prints the lines that differ and exits 1 if any do.  Nothing
here is a golden value: a numerics change that keeps every oracle bound
is allowed, and then shows up as differing lines.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_workloads():
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def line(name, value):
    text = value if isinstance(value, str) else repr(value)
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    return f"{name} {digest} {text}"


def warm_lines(wl, seed):
    """The verdict and every detail value of each check of the warm
    workloads, in check order."""
    out = []
    for workload, (make_inputs, checks) in wl.WARM.items():
        inputs = make_inputs(seed)
        for check in checks:
            res = check(inputs, {})
            for name, ok, detail in (res if isinstance(res, list) else [res]):
                prefix = f"{workload}/{seed}/{name}"
                out.append(line(f"{prefix}.ok", bool(ok)))
                out.extend(line(f"{prefix}.{k}", v)
                           for k, v in sorted(detail.items()))
    return out


def array_line(name, arr):
    digest = hashlib.sha256(arr.tobytes()).hexdigest()[:16]
    peak = float(np.abs(arr).max())
    return f"{name} {digest} {(arr.shape, str(arr.dtype), peak)!r}"


def array_lines(wl, seed):
    """Raw-byte digests of the seeded input arrays of the warm checks and of
    the arrays behind those checks: a check returns maxima, which miss a
    change in other entries, and an input line shows a generator change
    apart from the values derived from it."""
    from solgeo import cases, frames, solitons, zerocurv

    inp = wl.grids_inputs(seed)
    arrays = {}
    conn = inp["embedding_conn"]
    inputs = {f"embedding.{k}": f.data for k, f in conn.items()}
    pot = zerocurv.embed_sdym(conn["A"], conn["B"], conn["C"])
    for k, r in zerocurv.sdym_complex_residuals(pot).items():
        arrays[f"embedding.sdym.{k}"] = r
    for k, r in zerocurv.zc_residual("mlxii", conn).items():
        arrays[f"embedding.mlxii.{k}"] = r
    fields = dict(inp["reduction_fields"])
    grid = fields.pop("grid")
    inputs.update({f"reduction.{k}": v for k, v in fields.items()})
    c = inp["reduction_c"]
    for tag, eq, params in (("m3q-strachan", "m3q", {"c": c, "d": 0.0}),
                            ("strachan", "strachan", {"c": c}),
                            ("m3q-zi", "m3q", {"c": 0.0, "d": 1.0}),
                            ("zi", "zi", {})):
        res = solitons.pde_residual(eq, fields, params, grid=grid)
        for k, r in res.items():
            arrays[f"reduction.{tag}.{k}"] = r
    n = inp["lambda_levels"][1]
    for ip, params in enumerate(wl.LAMBDA_SETS):
        grid = cases.default_grid_xi(n)
        f = zerocurv.lambda_field("sdym_xi", params, grid)
        arrays[f"lambda_set{ip}.lam"] = f.lam
        for k, r in zerocurv.lambda_residual(f).items():
            arrays[f"lambda_set{ip}.{k}"] = r
    n = inp["gauge_levels"][1]
    gauge = cases.pure_gauge_connection(
        wl._gauge_grid(n, inp["gauge_origin"], "xyt"))
    for k, r in zerocurv.zc_residual("mlxii", gauge).items():
        arrays[f"gauge_zc.{k}"] = r

    inp = wl.transport_inputs(seed)
    for beta, (coeffs, h) in inp["frenet"].items():
        inputs[f"frenet.beta{beta:+d}"] = np.array(
            [(c.c1, c.c2, c.c3) for c in coeffs])
        arrays[f"frenet.beta{beta:+d}"] = frames.propagate_frenet(
            frames.FrameTriad.standard(beta), coeffs, beta, h).data
    for name, make in cases.SURFACE_CASES.items():
        arrays[f"surface_{name}.position"] = \
            frames.reconstruct_surface(make(inp["surface_n"])).position.data
    s = cases.sphere_patch(inp["surface_n"])
    for k, v in frames.coeffs_from_surface(s).items():
        arrays[f"surface_sphere-patch.coeffs.{k}"] = v
    U, V, _ = frames.build_uvw(s)
    A, B = frames.gwe_matrices(s)
    for k, m in {"uvw.U": U, "uvw.V": V, "gwe.A": A, "gwe.B": B}.items():
        arrays[f"surface_sphere-patch.{k}"] = m.data
    for i, y in enumerate(frames.mI_velocities(s), 1):
        arrays[f"surface_sphere-patch.mI.y{i}"] = y
    arrays.update(builder_arrays(wl, seed))
    return ([array_line(f"inputs/{seed}/{k}", v) for k, v in inputs.items()]
            + [array_line(f"arrays/{seed}/{k}", v) for k, v in arrays.items()])


def builder_arrays(wl, seed):
    """The small-matrix builders on seeded inputs: the zi, zii and mi Lax
    matrices (mi at r2 = +1 on a unit spin and at r2 = -1 on a hyperboloid
    spin) on `random_smooth` fields of a doubly periodic 16 x 16 grid, the
    spin matrices of both spins, `hat` of 129 axial vectors and
    `skew_matrix` of 129 triples in the X role at beta = +1 and in the Y
    and T roles at beta = -1."""
    from solgeo import cases, liealg, solitons
    from solgeo import grid as sg

    rng = wl.seeded_rng(seed)
    grid = sg.GridSpec.make(*(sg.Axis(a, 16, np.pi / 8, periodic=True)
                              for a in "xy"))
    field = lambda: cases.random_smooth(grid, rng)
    out = {}
    zi = solitons.build_lax("zi", {"q": field(), "p": field(),
                                   "v": field().real}, grid=grid)
    # a, b off the default -1/2 keep the C0 diagonal solve non-resonant
    zii = solitons.build_lax("zii", {"q": field(), "p": field()},
                             {"a": 0.3, "b": 0.2}, grid=grid)
    out.update({f"lax.zi.{k}": m for k, m in zi.items()})
    out.update({f"lax.zii.{k}": m for k, m in zii.items()})
    rho, phi, u = field().real, field().imag, field().real
    spins = {1: np.stack([np.sin(rho) * np.cos(phi),
                          np.sin(rho) * np.sin(phi), np.cos(rho)], axis=-1),
             -1: np.stack([np.sinh(rho) * np.cos(phi),
                           np.sinh(rho) * np.sin(phi), np.cosh(rho)],
                          axis=-1)}
    for r2, S in spins.items():
        mi = solitons.build_lax("mi", {"S": S, "u": u}, {"r2": r2},
                                grid=grid)
        out.update({f"lax.mi{r2:+d}.{k}": m for k, m in mi.items()})
        out[f"spin_matrix{r2:+d}"] = liealg.spin_matrix(S, r2)
    out["hat"] = liealg.hat(rng.normal(size=(129, 3)))
    for role, beta in (("x", 1), ("y", -1), ("t", -1)):
        make = getattr(liealg.CoeffTriple, role)
        triples = [make(*c) for c in rng.normal(size=(129, 3))]
        out[f"skew_matrix.{role}{beta:+d}"] = liealg.skew_matrix(triples,
                                                                 beta)
    return out


def file_digests(directory):
    """(path relative to directory, sha256 prefix) of every file under it,
    sorted by path."""
    out = []
    for base, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()[:16]
            out.append((os.path.relpath(path, directory), digest))
    return sorted(out)


def cli_lines(wl, seed, workdir, only=None):
    """Exit code, report minus `timing` and digests of the written files
    of each command of the CLI cycle (or of the commands whose indices are
    in only), run in process, each in a fresh directory under workdir,
    which the lines do not name."""
    from solgeo import cli

    out = []
    for i in range(len(wl.cli_commands(seed, workdir))):
        if only is not None and i not in only:
            continue
        cmd_dir = tempfile.mkdtemp(prefix=f"{seed}-{i}-", dir=workdir)
        argv = wl.cli_commands(seed, cmd_dir)[i]
        path = os.path.join(cmd_dir, "report.json")
        code = cli.main(argv + ["--report", path])
        with open(path) as fh:
            report = json.load(fh)
        os.remove(path)
        name = f"cli/{seed}/{i}-{argv[0]}"
        out.append(line(f"{name}.exit", code))
        out.append(line(f"{name}.report",
                        wl.report_key(report).replace(cmd_dir, "WORKDIR")))
        out.append(line(f"{name}.files", file_digests(cmd_dir)))
    return out


def fingerprint(seeds):
    wl = load_workloads()
    out = []
    with tempfile.TemporaryDirectory(prefix="solgeo-fp-") as workdir:
        for seed in seeds:
            out += warm_lines(wl, seed)
            out += array_lines(wl, seed)
            out += cli_lines(wl, seed, workdir)
    return out


def run_against(other, seeds):
    """This script's lines with other/src first on the path."""
    src = os.path.join(os.path.abspath(other), "src")
    if not os.path.isdir(os.path.join(src, "solgeo")):
        raise SystemExit(f"fingerprint: no solgeo package under {src}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__),
         "--seeds", *map(str, seeds)],
        env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"fingerprint: run on {other} failed "
                         f"(exit {proc.returncode}):\n{proc.stderr}")
    return proc.stdout.splitlines()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[4242])
    ap.add_argument("--against", metavar="DIR",
                    help="a checkout whose src/ to compare with")
    args = ap.parse_args(argv)
    lines = fingerprint(args.seeds)
    if args.against is None:
        print("\n".join(lines))
        return 0
    theirs = run_against(args.against, args.seeds)
    diff = list(difflib.unified_diff(theirs, lines, args.against, "this tree",
                                     n=0, lineterm=""))
    print("\n".join(diff) if diff else
          f"{len(lines)} lines identical, sha256 "
          f"{hashlib.sha256(chr(10).join(lines).encode()).hexdigest()[:16]}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
