"""Acceptance gate: twelve criteria, one printed pass/fail line each.

Each test computes its verdict first and prints a single line in the form
[PASS]/[FAIL] before asserting, so the full list is readable in one screen
of output (run with -s to see the lines for passing tests too).
"""

import json

import numpy as np

from solgeo import cases, cli, frames, liealg, solitons, zerocurv
from solgeo import grid as sg


def _report(num, name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}: {detail}")
    assert ok, f"criterion {num} {name}: {detail}"


def _in_window(r):
    return cli.RATIO_WINDOW[0] <= r <= cli.RATIO_WINDOW[1]


# 1 -----------------------------------------------------------------------------

def test_criterion_01_frame_fidelity():
    errs = []
    for h in (1e-2, 5e-3):
        n = int(round(2.0 / h)) + 1
        coeffs = [liealg.CoeffTriple.x(1.0, 0.0, 0.0)] * n
        out = frames.propagate_frenet(frames.FrameTriad.standard(), coeffs,
                                      1, h)
        xs = h * np.arange(n)
        expect = np.stack([np.cos(xs), np.sin(xs), np.zeros_like(xs)], axis=-1)
        errs.append(float(np.abs(out.data[:, 0, :] - expect).max()))
    # the per-step exponential is exact for constant coefficients, so the
    # error sits at rounding level and the h-halving ratio is vacuous;
    # accept either the exact regime or a clean second-order ratio
    ratio_ok = errs[0] < 1e-12 or _in_window(errs[0] / errs[1])
    coeffs = [liealg.CoeffTriple.x(1.0, 0.0, 0.0)] * 1001
    out = frames.propagate_frenet(frames.FrameTriad.standard(), coeffs, 1,
                                  1e-2)
    drift = max(out.triad(i).gram_defect() for i in range(0, 1001, 25))
    ok = errs[0] <= 1e-4 and ratio_ok and drift <= 1e-12
    _report(1, "frame-fidelity", ok,
            f"err(h=1e-2)={errs[0]:.2e} drift={drift:.2e}")


# 2 -----------------------------------------------------------------------------

def test_criterion_02_zero_curvature_flatness():
    # n = 9, 17, 33: the levels of `check --system mlxii --n 8`
    r_res = sg.refinement_study(
        lambda lv: cases.pure_gauge_defect("mlxii", 8 * 2**lv + 1),
        3)["ratios"]
    start = frames.FrameTriad.standard()

    def defect_2d(n, perturb):
        h = 1.0 / (n - 1)
        g2 = sg.GridSpec.make(sg.Axis("x", n, h), sg.Axis("y", n, h))
        conn2 = cases.pure_gauge_connection(g2, axes=("x", "y"),
                                            perturb=perturb)
        return frames.commutation_defect_2d(start, conn2["A"], conn2["B"])
    r_def = sg.refinement_study(lambda lv: defect_2d(8 * 2**lv + 1, 0.0),
                                3)["ratios"]
    bad_defects = [defect_2d(n, 0.2) for n in (9, 17, 33)]
    stall = all(abs(bad_defects[i] - bad_defects[i + 1]) < 0.10 * bad_defects[i]
                for i in range(2))
    ok = (all(_in_window(r) for r in r_res)
          and all(_in_window(r) for r in r_def) and stall)
    _report(2, "flatness-refinement", ok,
            f"residual ratios {[f'{r:.2f}' for r in r_res]} "
            f"defect ratios {[f'{r:.2f}' for r in r_def]} "
            f"perturbed {[f'{d:.3f}' for d in bad_defects]}")


# 3 -----------------------------------------------------------------------------

def test_criterion_03_bogomolny_identity():
    g3 = sg.GridSpec.make(sg.Axis("x", 8, 0.1), sg.Axis("y", 8, 0.1),
                          sg.Axis("t", 8, 0.1))
    worst = 0.0
    for seed in range(3):
        rng = np.random.default_rng(seed)
        conn = cases.random_connection(g3, rng)
        conn4 = dict(conn)
        conn4["Phi"] = sg.MatrixField(
            g3, np.zeros(g3.shape + (3, 3), dtype=complex))
        rb = zerocurv.zc_residual("bogomolny", conn4)
        r3 = zerocurv.zc_residual("mlxii", conn)
        worst = max(worst,
                    float(np.abs(rb["t"] - r3["xy"]).max()),
                    float(np.abs(rb["y"] + r3["xt"]).max()),
                    float(np.abs(rb["x"] - r3["yt"]).max()))
    ok = worst <= 1e-15
    _report(3, "zero-higgs-identity", ok, f"worst defect {worst:.2e}")


# 4 -----------------------------------------------------------------------------

def test_criterion_04_sdym_embedding():
    g3 = sg.GridSpec.make(sg.Axis("x", 8, 0.1), sg.Axis("y", 8, 0.1),
                          sg.Axis("t", 8, 0.1))
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        conn = cases.random_connection(g3, rng)
        worst = max(worst, zerocurv.embedding_identity_defect(
            conn["A"], conn["B"], conn["C"]))
    ok = worst <= 1e-13
    _report(4, "sdym-embedding", ok, f"worst defect {worst:.2e} on 5 sets")


# 5 -----------------------------------------------------------------------------

def test_criterion_05_lambda_fields():
    ok = True
    details = []
    hs = [0.35 / (n - 1) for n in (6, 12, 24)]
    for params in cases.LAMBDA_PARAMS:
        study = sg.refinement_study(
            lambda lv: cases.lambda_defect(params, 6 * 2**lv), 3)
        maxima, ratios = study["defects"], study["ratios"]
        C = maxima[0] / hs[0] ** 2
        bound = all(m <= 2.0 * C * h * h for m, h in zip(maxima, hs))
        ok = ok and bound and all(_in_window(r) for r in ratios)
        details.append(f"{[f'{r:.2f}' for r in ratios]}")
    _report(5, "lambda-refinement", ok, f"ratios {details}")


# 6 -----------------------------------------------------------------------------

def test_criterion_06_dispersion():
    grid = cases.default_grid_xyt(8)
    ok = True
    details = []
    for eq in ("ds", "zi", "strachan"):
        pw = cases.planewave(eq)
        res = solitons.pde_residual(eq, {k: pw[k] for k in ("q", "p", "v")},
                                    pw["params"], mode="analytic", grid=grid)
        good = max(float(np.abs(a).max()) for a in res.values())
        bad_pw = cases.planewave(eq, omega=1.1 * pw["params"]["omega"])
        bres = solitons.pde_residual(
            eq, {k: bad_pw[k] for k in ("q", "p", "v")},
            bad_pw["params"], mode="analytic", grid=grid)
        bad = max(float(np.abs(a).max()) for a in bres.values())
        ok = ok and good <= 1e-10 and bad > 1e-3
        details.append(f"{eq}:{good:.1e}/{bad:.1e}")
    _report(6, "dispersion", ok, " ".join(details))


# 7 -----------------------------------------------------------------------------

def test_criterion_07_reduction_identities():
    grid = cases.default_grid_xyt(12)
    rng = np.random.default_rng(7)
    q = cases.random_smooth(grid, rng)
    p = cases.random_smooth(grid, rng)
    v = cases.random_smooth(grid, rng)
    f = {"q": q, "p": p, "v": v}
    worst = {}

    ra = solitons.pde_residual("m3q", f, {"c": 0.7, "d": 0.0}, grid=grid)
    rb = solitons.pde_residual("strachan", f, {"c": 0.7}, grid=grid)
    worst["strachan"] = max(float(np.abs(ra[k] - rb[k]).max()) for k in ra)

    # the quadratic coupling coefficient multiplies the potential terms, so
    # matching the two-potential system needs its unit value alongside c=0
    ra = solitons.pde_residual("m3q", f, {"c": 0.0, "d": 1.0}, grid=grid)
    rb = solitons.pde_residual("zi", f, {}, grid=grid)
    worst["zi"] = max(float(np.abs(ra[k] - rb[k]).max()) for k in ra)

    k = 1.5 + 0.3 * cases.random_smooth(grid, rng).real
    tau = cases.random_smooth(grid, rng).real
    u = cases.random_smooth(grid, rng).real
    mi = solitons.map_spin_coeffs("mix", k, tau, u, {"a": -0.5, "b": -0.5},
                                  grid, with_omega=True)
    ish = solitons.map_spin_coeffs("ishimori", k, tau, u, {}, grid,
                                   with_omega=True)
    worst["map"] = max(float(np.abs(mi[key] - ish[key]).max())
                       for key in ("m1", "m2", "m3", "w1", "w2", "w3"))

    qr = cases.random_smooth(grid, rng).real.astype(complex)
    v1 = cases.random_smooth(grid, rng).real.astype(complex)
    zero = np.zeros(grid.shape, dtype=complex)
    rc = solitons.pde_residual("mkdv_c", {"q": qr, "p": qr, "v1": v1,
                                          "v2": zero}, grid=grid)
    rr = solitons.pde_residual("mkdv_r", {"q": qr, "v1": v1}, {"beta": 1},
                               grid=grid)
    worst["mkdv"] = max(float(np.abs(rc["q"] - rr["q"]).max()),
                        float(np.abs(rc["v1"] - rr["v1"]).max()))

    ok = all(w <= 1e-15 for w in worst.values())
    _report(7, "reduction-identities", ok,
            " ".join(f"{k}:{w:.1e}" for k, w in worst.items()))


# 8 -----------------------------------------------------------------------------

def test_criterion_08_lax_discrimination():
    pw = cases.planewave("zi")
    rep = solitons.lax_refinement_report("zi", pw["callables"], {"lam": 0.3},
                                         levels=3)
    # scaling the amplitude alone keeps the constant-potential plane wave an
    # exact solution (the linear problem sees an unchanged potential), so
    # the 1.1 perturbation is applied to the frequency
    bad_pw = cases.planewave("zi", omega=1.1 * pw["params"]["omega"])
    bad = solitons.lax_commutation_defect("zi", bad_pw["callables"],
                                          {"lam": 0.3}, n_line=64,
                                          substeps=16)
    discr = bad / rep["defects"][-1]
    ok = all(r >= 8.0 for r in rep["ratios"]) and discr >= 100.0
    _report(8, "lax-discrimination", ok,
            f"ratios {[f'{r:.1f}' for r in rep['ratios']]} "
            f"discrimination {discr:.1e}")


# 9 -----------------------------------------------------------------------------

def test_criterion_09_hodge():
    g = sg.GridSpec.make(*(sg.Axis(f"xi{i}", 6, 0.1) for i in (1, 2, 3, 4)))
    rng = np.random.default_rng(9)
    pot = cases.random_connection(g, rng, names=("A1", "A2", "A3", "A4"))
    F = zerocurv.curvature(pot)
    FF = zerocurv.hodge_dual(zerocurv.hodge_dual(F))
    invol = all(np.array_equal(FF.comps[k], F.comps[k]) for k in F.comps)

    M = rng.normal(size=g.shape + (2, 2))
    M /= np.abs(M).max()
    zero = np.zeros_like(M)
    sd = zerocurv.Curvature2Form(g, {"12": M, "34": M, "13": zero,
                                     "14": zero, "23": zero, "24": zero})
    asd = zerocurv.Curvature2Form(g, {"12": M, "34": -M, "13": zero,
                                      "14": zero, "23": zero, "24": zero})
    d_sd = zerocurv.selfdual_defect(sd)
    d_asd = zerocurv.selfdual_defect(asd)
    norm = float(np.abs(M).max())
    ok = invol and d_sd == 0.0 and abs(d_asd - 2.0 * norm) <= 1e-15
    _report(9, "hodge", ok,
            f"involution={invol} defects {d_sd:.1f}/{d_asd:.1f}")


# 10 ----------------------------------------------------------------------------

def test_criterion_10_surface_reconstruction():
    sphere_errs, cyl_errs = [], []
    mixed_ok = True
    for n in (9, 17, 33):
        for name, errs in (("sphere-patch", sphere_errs),
                           ("cylinder", cyl_errs)):
            s = cases.SURFACE_CASES[name](n)
            res = frames.reconstruct_surface(s)
            errs.append(cases.surface_shape_error(name, res))
            hmax = max(a.h for a in s.grid.axes)
            mixed_ok = mixed_ok and res.mixed_partial_defect <= 10.0 * hmax**2

    rs = [sphere_errs[i] / sphere_errs[i + 1] for i in range(2)]
    rcyl = [cyl_errs[i] / cyl_errs[i + 1] for i in range(2)]
    ok = (all(_in_window(r) for r in rs) and all(_in_window(r) for r in rcyl)
          and mixed_ok)
    _report(10, "surface-reconstruction", ok,
            f"sphere ratios {[f'{r:.2f}' for r in rs]} "
            f"cylinder ratios {[f'{r:.2f}' for r in rcyl]}")


# 11 ----------------------------------------------------------------------------

def test_criterion_11_amplitude_identity():
    grid = cases.default_grid_xyt(12)
    worst = 0.0
    for seed in range(3):
        rng = np.random.default_rng(200 + seed)
        k = 2.0 + 0.5 * cases.random_smooth(grid, rng).real
        tau = cases.random_smooth(grid, rng).real
        m1 = cases.random_smooth(grid, rng).real
        m2 = cases.random_smooth(grid, rng).real
        m3 = cases.random_smooth(grid, rng).real
        aR = 1.0 + 0.2 * seed
        out = solitons.amplitude_phase("ishimori", k, tau, m1, m2, m3,
                                       {"alpha_re": aR, "alpha_im": 0.3},
                                       grid)
        worst = max(worst, float(np.abs(out["a1sq"] - out["a2sq"]
                                        + aR * k * m3).max()))
    ok = worst <= 1e-13
    _report(11, "amplitude-identity", ok, f"worst defect {worst:.2e}")


# 12 ----------------------------------------------------------------------------

def test_criterion_12_determinism(tmp_path):
    def run_all(tag):
        d = tmp_path / tag
        d.mkdir()
        assert cli.main(["check", "--eq", "zi", "--case", "planewave-zi",
                         "--report", str(d / "check.json")]) == 0
        assert cli.main(["case", "planewave-zi", "--n", "8",
                         "--out", str(d), "--report",
                         str(d / "case.json")]) == 0
        assert cli.main(["surface", "--case", "sphere-patch", "--n", "17",
                         "--out", str(d / "sphere.obj"),
                         "--report", str(d / "surface.json")]) == 0
        # the blocked-bracket and sparse-lambda paths
        assert cli.main(["check", "--kind", "lambda", "--n", "8",
                         "--refine", "2",
                         "--report", str(d / "lambda.json")]) == 0
        assert cli.main(["check", "--system", "mlxii", "--case",
                         "pure-gauge", "--refine", "2",
                         "--report", str(d / "gauge.json")]) == 0
        return d

    d1, d2 = run_all("one"), run_all("two")
    ok = True
    for name in sorted(p.name for p in d1.iterdir()):
        a, b = d1 / name, d2 / name
        if name in ("check.json", "case.json", "surface.json",
                    "lambda.json", "gauge.json"):
            ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
            ra.pop("timing"), rb.pop("timing")
            # output paths inside the reports differ only by the run dir
            for r, base in ((ra, d1), (rb, d2)):
                if "out" in r["config"]:
                    r["config"]["out"] = r["config"]["out"].replace(
                        str(base), "")
                for c in r["checks"]:
                    if "written" in c:
                        c["written"] = [w.replace(str(base), "") for w in
                                        c["written"]]
            same = (json.dumps(ra, sort_keys=True)
                    == json.dumps(rb, sort_keys=True))
        else:
            same = a.read_bytes() == b.read_bytes()
        ok = ok and same
    _report(12, "determinism", ok, "reports/fields/meshes byte-stable")
