"""Workload definitions: seeded inputs, the verified check list of each warm
workload, and the CLI command sequence with its independent verification.

Every check recomputes its verdict from the values solgeo returns (ratios,
bounds, closed forms); a report's own ``passed`` flag is never trusted alone.
A check returns ``(name, ok, detail)``.

Why these workloads:
- grids: array kernels (diff_axis, commutator, dense meshes, Wave.sample,
  the case builders) on grids from below to well above the L2 cache, with
  almost no matrix exponentials.  It bypasses the frame-transport layer.
- transport: per-step liealg.expm calls inside Python loops, through both
  the skew (Rodrigues) and the non-skew (scipy) branch.  It bypasses the
  grid kernels at large sizes.
- cli: cold `python -m solgeo.cli` processes on small problems, where import
  cost and the write paths (save_field, export_obj, CSV) show.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

RATIO_WINDOW = (3.5, 4.5)
TOL_ANALYTIC = 1e-10
TOL_REDUCTION = 1e-15
TOL_EMBEDDING = 1e-13
TOL_GRAM = 1e-12
# beta = -1 frames grow like cosh of the integrated curvature, so their
# pseudo-Gram rounding drift is bounded relative to the squared frame size
TOL_GRAM_REL = 1e-12
LAX_RATIO_MIN = 8.0
LAX_DISCRIMINATION_MIN = 100.0

LAMBDA_SETS = (
    {"n1": 1.0, "n3": 0.0, "m1": 0.0, "n4": 1.0},
    {"n1": 0.8, "n3": 0.4, "m1": 0.5, "n4": 1.3},
    {"n1": -0.6, "n3": 1.0, "m1": 0.9, "n4": 1.1},
)


def _ratios(defects):
    return [defects[i] / defects[i + 1] for i in range(len(defects) - 1)]


def refinement_ok(defects, levels):
    """Second-order refinement: one finite positive defect per level and
    every successive ratio inside RATIO_WINDOW."""
    if len(defects) != levels or levels < 2:
        return False
    if not all(math.isfinite(d) and d > 0 for d in defects):
        return False
    return all(RATIO_WINDOW[0] <= r <= RATIO_WINDOW[1]
               for r in _ratios(defects))


def seeded_rng(seed):
    """Generator for any integer --seed (numpy rejects negative seeds)."""
    return np.random.default_rng(seed % 2**64)


def _nbytes(*arrays):
    return int(sum(np.asarray(a).nbytes for a in arrays))


# --- grids -------------------------------------------------------------------

def grids_inputs(seed):
    from solgeo import cases

    rng = seeded_rng(seed)
    gauge32 = cases.default_grid_gauge(32)
    xyt = cases.default_grid_xyt(32)
    return {
        "gauge_origin": tuple(rng.uniform(-0.5, 0.5, 3)),
        "gauge_levels": (17, 33, 65),
        "gauge_perturb": 0.0,
        "lambda_levels": (8, 16, 32),
        # integral wavenumbers keep the waves periodic on the 2*pi box;
        # l >= 2 keeps the zi frequency 1 - k*l nonzero
        "planewave": {"k": float(rng.integers(1, 3)),
                      "l": float(rng.integers(2, 4)),
                      "amp": float(rng.uniform(0.5, 1.0))},
        "omega_scale": 1.0,
        "planewave_n": 64,
        "reduction_fields": {"grid": xyt,
                             **{k: cases.random_smooth(xyt, rng)
                                for k in ("q", "p", "v")}},
        "reduction_c": float(rng.uniform(0.3, 1.0)),
        "embedding_conn": cases.random_connection(gauge32, rng),
        "antider_phase": float(rng.uniform(0.0, 2 * np.pi)),
        "antider_levels": (17, 33, 65),
    }


def _gauge_grid(n, origin, names):
    from solgeo import grid as sg

    h = 1.0 / (n - 1)
    return sg.GridSpec.make(*(sg.Axis(a, n, h, origin=o)
                              for a, o in zip(names, origin)))


def check_gauge_zc(inp, ws):
    from solgeo import cases, zerocurv

    defects = []
    for n in inp["gauge_levels"]:
        grid = _gauge_grid(n, inp["gauge_origin"], "xyt")
        conn = cases.pure_gauge_connection(grid, perturb=inp["gauge_perturb"])
        res = zerocurv.zc_residual("mlxii", conn)
        defects.append(max(float(np.abs(r).max()) for r in res.values()))
    ws["gauge_zc"] = _nbytes(*(f.data for f in conn.values()),
                             *res.values())
    ok = refinement_ok(defects, len(inp["gauge_levels"]))
    return "gauge_zc", ok, {"defects": defects}


def check_lambda(inp, ws):
    from solgeo import grid as sg
    from solgeo import zerocurv

    out = []
    for ip, params in enumerate(LAMBDA_SETS):
        defects = []
        for n in inp["lambda_levels"]:
            h = 0.35 / (n - 1)
            grid = sg.GridSpec.make(
                *(sg.Axis(f"xi{i}", n, h) for i in (1, 2, 3, 4)))
            f = zerocurv.lambda_field("sdym_xi", params, grid)
            res = zerocurv.lambda_residual(f)
            mask = res.pop("mask")
            defects.append(max(zerocurv.masked_norms(r, mask)["max"]
                               for r in res.values()))
        ws[f"lambda_set{ip}"] = _nbytes(f.lam, f.mask, mask, *res.values())
        ok = refinement_ok(defects, len(inp["lambda_levels"]))
        out.append((f"lambda_set{ip}", ok, {"defects": defects}))
    return out


def check_planewaves(inp, ws):
    from solgeo import cases, solitons

    grid = cases.default_grid_xyt(inp["planewave_n"])
    out = []
    for eq in ("ds", "zi", "strachan"):
        pw = cases.planewave(eq, **inp["planewave"])
        if inp["omega_scale"] != 1.0:
            pw = cases.planewave(eq, **inp["planewave"],
                                 omega=pw["params"]["omega"]
                                 * inp["omega_scale"])
        res = solitons.pde_residual(eq, {k: pw[k] for k in ("q", "p", "v")},
                                    pw["params"], mode="analytic", grid=grid)
        worst = max(float(np.abs(r).max()) for r in res.values())
        ws[f"planewave_{eq}"] = _nbytes(*res.values())
        out.append((f"planewave_{eq}", len(res) == 3 and worst <= TOL_ANALYTIC,
                    {"max": worst}))
    return out


def check_reductions(inp, ws):
    from solgeo import solitons

    fields = dict(inp["reduction_fields"])
    grid = fields.pop("grid")
    c = inp["reduction_c"]
    pairs = {
        "strachan": (("m3q", {"c": c, "d": 0.0}), ("strachan", {"c": c})),
        "zi": (("m3q", {"c": 0.0, "d": 1.0}), ("zi", {})),
    }
    out = []
    for name, ((eqa, pa), (eqb, pb)) in pairs.items():
        ra = solitons.pde_residual(eqa, fields, pa, grid=grid)
        rb = solitons.pde_residual(eqb, fields, pb, grid=grid)
        worst = max(float(np.abs(ra[k] - rb[k]).max()) for k in ra)
        # the residual itself must be nonzero, or the identity is vacuous
        live = min(float(np.abs(ra[k]).max()) for k in ra)
        ws[f"reduction_{name}"] = _nbytes(*fields.values(), *ra.values(),
                                          *rb.values())
        out.append((f"reduction_{name}",
                    set(ra) == set(rb) and worst <= TOL_REDUCTION and live > 0,
                    {"max": worst}))
    return out


def check_embedding(inp, ws):
    from solgeo import zerocurv

    conn = inp["embedding_conn"]
    defect = zerocurv.embedding_identity_defect(conn["A"], conn["B"],
                                                conn["C"])
    ws["embedding"] = _nbytes(*(f.data for f in conn.values()))
    return "embedding", defect <= TOL_EMBEDDING, {"max": defect}


def check_antider(inp, ws):
    from solgeo import grid as sg

    phi = inp["antider_phase"]
    defects = []
    for n in inp["antider_levels"]:
        grid = _gauge_grid(n, (0.0, 0.0, 0.0), "xyt")
        x, y, t = grid.meshes()
        weight = 1.0 + 0.5 * y - 0.3 * t
        f = sg.ScalarField(grid, np.cos(3 * x + phi) * weight)
        exact = (np.sin(3 * x + phi) - np.sin(phi)) / 3 * weight
        got = sg.antider_x(f).data
        defects.append(float(np.abs(got - exact).max()))
    ws["antider_x"] = _nbytes(f.data, got, exact)
    ok = refinement_ok(defects, len(inp["antider_levels"]))
    return "antider_x", ok, {"defects": defects}


GRIDS_CHECKS = (check_gauge_zc, check_lambda, check_planewaves,
                check_reductions, check_embedding, check_antider)


# --- transport ---------------------------------------------------------------

def _frenet_coeffs(rng, n, h, sigma_on):
    from solgeo import liealg

    s = np.arange(n) * h
    amp = rng.uniform(0.5, 1.5, 3)
    freq = rng.uniform(1.0, 3.0, 3)
    phase = rng.uniform(0.0, 2 * np.pi, 3)
    k = amp[0] * (1.0 + 0.3 * np.sin(freq[0] * s + phase[0]))
    tau = 0.5 * amp[1] * np.cos(freq[1] * s + phase[1])
    sigma = sigma_on * amp[2] * np.sin(freq[2] * s + phase[2])
    return [liealg.CoeffTriple.x(*c) for c in zip(k, tau, sigma)]


def transport_inputs(seed):
    rng = seeded_rng(seed)
    steps, h = 3000, 0.002
    return {
        "frenet": {
            # beta = +1 generators are skew (Rodrigues branch); beta = -1
            # with sigma = 0 is pseudo-orthogonal (scipy branch)
            1: (_frenet_coeffs(rng, steps, h, 1.0), h),
            -1: (_frenet_coeffs(rng, steps, h, 0.0), h),
        },
        "surface_n": 129,
        "gauge2d_origin": tuple(rng.uniform(-0.5, 0.5, 2)),
        "gauge2d_levels": (33, 65, 129),
        "lax_lam": float(rng.uniform(0.2, 0.4)),
        "lax_levels": 4,
        "omega_scale": 1.0,
    }


def pseudo_gram_defect(frames_data, beta):
    """Max of |E eta E^T - eta| over a stack of frames (rows e1, e2, e3)."""
    eta = np.diag([float(beta), 1.0, 1.0])
    g = frames_data @ eta @ np.swapaxes(frames_data, -1, -2)
    return float(np.abs(g - eta).max())


def check_frenet(inp, ws):
    from solgeo import frames

    out = []
    for beta, branch in ((1, "rodrigues"), (-1, "scipy")):
        coeffs, h = inp["frenet"][beta]
        field = frames.propagate_frenet(frames.FrameTriad.standard(beta),
                                        coeffs, beta, h)
        data = field.data
        drift = pseudo_gram_defect(data, beta)
        size = float(np.abs(data).max())
        tol = TOL_GRAM if beta == 1 else TOL_GRAM_REL * max(1.0, size) ** 2
        ok = data.shape == (len(coeffs), 3, 3) and np.isfinite(data).all() \
            and drift <= tol
        out.append((f"frenet_{branch}", bool(ok), {"drift": drift,
                                                   "tol": tol}))
    return out


def _surface_checks(name, s, result):
    """Mixed-partial bound plus a geometric oracle on the positions: the
    unit sphere's centres r + n coincide, and the unit cylinder's axis
    points r - n lie on one line."""
    hmax = max(a.h for a in s.grid.axes)
    tol = 10.0 * hmax ** 2
    r = result.position.data.reshape(-1, 3)
    nrm = result.normal.reshape(-1, 3)
    if name == "sphere-patch":
        centres = r + nrm
        geo = float(np.abs(centres - centres.mean(axis=0)).max())
    else:
        axis_pts = r - nrm
        axis_pts = axis_pts - axis_pts.mean(axis=0)
        sv = np.linalg.svd(axis_pts, compute_uv=False)
        geo = float(sv[1] / math.sqrt(len(axis_pts)))
    ok = (result.mixed_partial_defect <= tol and geo <= hmax ** 2
          and result.gmce_residual_max <= 1.0
          and np.isfinite(result.position.data).all())
    return bool(ok), {"mixed": result.mixed_partial_defect, "tol": tol,
                      "geo": geo}


def check_surfaces(inp, ws):
    from solgeo import cases, frames

    out = []
    for name in ("sphere-patch", "cylinder"):
        s = cases.SURFACE_CASES[name](inp["surface_n"])
        result = frames.reconstruct_surface(s)
        ok, detail = _surface_checks(name, s, result)
        out.append((f"surface_{name}", ok, detail))
    return out


def check_commutation(inp, ws):
    from solgeo import cases, frames

    defects = []
    for n in inp["gauge2d_levels"]:
        grid = _gauge_grid(n, inp["gauge2d_origin"], "xy")
        conn = cases.pure_gauge_connection(grid, axes=("x", "y"))
        defects.append(frames.commutation_defect_2d(
            frames.FrameTriad.standard(), conn["A"], conn["B"]))
    ok = refinement_ok(defects, len(inp["gauge2d_levels"]))
    return "commutation_2d", ok, {"defects": defects}


def check_lax(inp, ws):
    from solgeo import cases, solitons

    levels = inp["lax_levels"]
    params = {"lam": inp["lax_lam"]}
    pw = cases.planewave("zi")
    if inp["omega_scale"] != 1.0:
        pw = cases.planewave("zi", omega=pw["params"]["omega"]
                             * inp["omega_scale"])
    rep = solitons.lax_refinement_report("zi", pw["callables"], params,
                                         levels=levels)
    defects = rep["defects"]
    ok = (len(defects) == levels
          and all(math.isfinite(d) and d > 0 for d in defects)
          and all(r >= LAX_RATIO_MIN for r in _ratios(defects)))
    # negative control: a detuned frequency must be visibly worse
    bad_pw = cases.planewave("zi", omega=1.1 * pw["params"]["omega"])
    lv = levels - 1
    bad = solitons.lax_commutation_defect(
        "zi", bad_pw["callables"], params, n_line=16 * 2**lv,
        substeps=4 * 2**lv)
    discrimination = bad / defects[-1] if defects[-1] > 0 else 0.0
    return [("lax_zi_refinement", ok, {"defects": defects}),
            ("lax_zi_discrimination",
             discrimination >= LAX_DISCRIMINATION_MIN,
             {"ratio": discrimination})]


TRANSPORT_CHECKS = (check_frenet, check_surfaces, check_commutation,
                    check_lax)

WARM = {"grids": (grids_inputs, GRIDS_CHECKS),
        "transport": (transport_inputs, TRANSPORT_CHECKS)}


def run_pass(checks, inp, ws):
    """One task: every check of the list.  Returns the failed check names;
    a check that raises counts as failed."""
    failed = []
    for check in checks:
        try:
            res = check(inp, ws)
        except Exception as exc:  # a raising check is a failed output
            failed.append(f"{check.__name__}: {type(exc).__name__}: {exc}")
            continue
        for name, ok, detail in (res if isinstance(res, list) else [res]):
            if not ok:
                failed.append(f"{name}: {detail}")
    return failed


# --- cli ---------------------------------------------------------------------

SURFACE_N = 32   # cli default for `surface`
CASE_N = 16      # cli default for `case`
FRAME_N = 5000


def cli_commands(seed, workdir):
    """The fixed command sequence; the seed picks the reduction fields and
    the frame coefficients.  Output paths are fixed per command so that the
    report minus timing can be compared byte for byte across repeats."""
    rng = seeded_rng(seed)
    k = float(rng.uniform(0.5, 1.5))
    tau = float(rng.uniform(0.0, 1.0))
    sigma = float(rng.uniform(0.0, 0.5))
    return [
        ["check", "--eq", "zi", "--case", "planewave-zi"],
        ["check", "--eq", "m3q", "--case", "strachan-reduction",
         "--seed", str(int(rng.integers(0, 2**31)))],
        ["check", "--system", "mlxii", "--case", "pure-gauge",
         "--refine", "3"],
        ["check", "--kind", "lambda", "--n", "8", "--refine", "3"],
        ["check", "--kind", "lax", "--refine", "3", "--perturb"],
        ["surface", "--case", "sphere-patch",
         "--out", os.path.join(workdir, "sphere.obj")],
        ["case", "planewave-ds", "--out", os.path.join(workdir, "case")],
        ["frame", "--n", str(FRAME_N), "--k", repr(k), "--tau", repr(tau),
         "--sigma", repr(sigma),
         "--out", os.path.join(workdir, "frame.csv")],
    ]


def _checks_by_name(report):
    return {c["name"]: c for c in report.get("checks", [])}


def _verify_check_report(argv, checks):
    if "--eq" in argv:
        tol = TOL_ANALYTIC if "zi" == argv[argv.index("--eq") + 1] \
            else TOL_REDUCTION
        return len(checks) == 3 and all(
            math.isfinite(c["max"]) and c["max"] <= tol
            for c in checks.values())
    if "--system" in argv or "lambda" in argv:
        levels = int(argv[argv.index("--refine") + 1])
        expect = 1 if "--system" in argv else len(LAMBDA_SETS)
        return len(checks) == expect and all(
            refinement_ok(c["defects"], levels) for c in checks.values())
    # lax
    ref = checks.get("lax-zi-refinement")
    disc = checks.get("lax-zi-discrimination")
    if ref is None or disc is None:
        return False
    d = ref["defects"]
    return (len(d) == int(argv[argv.index("--refine") + 1])
            and all(r >= LAX_RATIO_MIN for r in _ratios(d))
            and disc["max"] >= LAX_DISCRIMINATION_MIN)


def _verify_obj(path, n):
    """Vertex/face counts, and the vertices must lie on a unit sphere whose
    centre is fitted by least squares (|p|^2 = 2 p.c + d)."""
    verts, faces = [], 0
    with open(path) as fh:
        for line in fh:
            if line.startswith("v "):
                verts.append([float(v) for v in line.split()[1:4]])
            elif line.startswith("f "):
                faces += 1
    p = np.array(verts)
    if p.shape != (n * n, 3) or faces != (n - 1) ** 2:
        return False
    a = np.hstack([2 * p, np.ones((len(p), 1))])
    sol = np.linalg.lstsq(a, (p * p).sum(axis=1), rcond=None)[0]
    centre = sol[:3]
    hmax = 1.2 / (n - 1)
    dist = np.linalg.norm(p - centre, axis=1)
    return float(np.abs(dist - 1.0).max()) <= 10 * hmax ** 2


def _read_field(path):
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode())
        raw = np.frombuffer(fh.read(), dtype="<f8")
    shape = tuple(a["n"] for a in header["axes"])
    if header["value"] == "complex":
        raw = raw.reshape(shape + (2,))
        return header, raw[..., 0] + 1j * raw[..., 1]
    return header, raw.reshape(shape)


def _verify_case_dir(outdir, n):
    """The plane-wave case files: p = conj(q), constant v = v0, and q's
    phase advances as k x + l y - omega t on the written axes."""
    with open(os.path.join(outdir, "planewave-ds-params.json")) as fh:
        params = json.load(fh)
    hq, q = _read_field(os.path.join(outdir, "planewave-ds-q.field"))
    _, p = _read_field(os.path.join(outdir, "planewave-ds-p.field"))
    _, v = _read_field(os.path.join(outdir, "planewave-ds-v.field"))
    if q.shape != (n, n, n):
        return False
    x, y, t = np.meshgrid(*[a["origin"] + a["h"] * np.arange(a["n"])
                            for a in hq["axes"]], indexing="ij")
    phase = params["k"] * x + params["l"] * y - params["omega"] * t
    expect = q.flat[0] * np.exp(1j * phase)
    return (np.abs(q - expect).max() <= 1e-12
            and np.array_equal(p, np.conj(q))
            and np.abs(v - params["v0"]).max() == 0.0)


def _rodrigues(m):
    w = np.array([m[2, 1], m[0, 2], m[1, 0]])
    theta = np.linalg.norm(w)
    k = m / theta
    return np.eye(3) + np.sin(theta) * k + (1 - np.cos(theta)) * (k @ k)


def _verify_csv(path, argv):
    """Constant coefficients make the midpoint scheme exact, so e1 at the
    last step is row 0 of exp((n-1) h M) with M the beta = +1 generator."""
    data = np.loadtxt(path, delimiter=",", ndmin=2)
    k, tau, sigma = (float(argv[argv.index(f) + 1])
                     for f in ("--k", "--tau", "--sigma"))
    n = int(argv[argv.index("--n") + 1])
    if data.shape != (n, 4) or np.any(data[:, 3] != 0.0):
        return False
    e1 = data[:, :3]
    m = np.array([[0.0, k, -sigma], [-k, 0.0, tau], [sigma, -tau, 0.0]])
    final = _rodrigues((n - 1) * 0.01 * m)[0]
    return (np.array_equal(e1[0], [1.0, 0.0, 0.0])
            and np.abs(np.linalg.norm(e1, axis=1) - 1.0).max() <= TOL_GRAM
            and np.abs(e1[-1] - final).max() <= 1e-10)


def verify_cli(argv, returncode, report):
    """Independent verdict on one `solgeo` process: exit code 0, a report
    whose values meet the oracle bounds, and the written files."""
    if returncode != 0 or report is None or not report.get("passed"):
        return False
    checks = _checks_by_name(report)
    cmd = argv[0]
    if cmd == "check":
        return _verify_check_report(argv, checks)
    out = argv[argv.index("--out") + 1]
    if cmd == "surface":
        c = checks.get("surface-sphere-patch-mixed-partial")
        hmax = 1.2 / (SURFACE_N - 1)
        return (c is not None and c["max"] <= 10 * hmax ** 2
                and _verify_obj(out, SURFACE_N))
    if cmd == "case":
        return _verify_case_dir(out, CASE_N)
    c = checks.get("frame-gram-drift")
    return (c is not None and c["max"] <= TOL_GRAM
            and _verify_csv(out, argv))


def report_key(report):
    """The report minus `timing`, as canonical text (acceptance criterion
    12: byte-identical across repeated runs)."""
    return json.dumps({k: v for k, v in report.items() if k != "timing"},
                      sort_keys=True)
