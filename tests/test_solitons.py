import numpy as np
import pytest

from solgeo import cases, solitons
from solgeo import grid as sg
from solgeo.errors import DomainError, NumericalError

ANALYTIC_TOL = 1e-14


def _grid(n=16):
    return cases.default_grid_xyt(n)


def _sample_pw(pw, grid):
    return {k: pw[k].sample(grid) for k in ("q", "p", "v")}


# --- plane-wave solutions -----------------------------------------------------

@pytest.mark.parametrize("eq", ["ds", "zi", "strachan"])
def test_planewave_analytic_residual(eq):
    pw = cases.planewave(eq)
    grid = _grid(8)
    res = solitons.pde_residual(eq, {k: pw[k] for k in ("q", "p", "v")},
                                pw["params"], mode="analytic", grid=grid)
    for key, arr in res.items():
        assert np.abs(arr).max() <= ANALYTIC_TOL, (eq, key)


def test_planewave_dispersion_values():
    assert cases.planewave("ds")["params"]["omega"] == 4.0
    assert cases.planewave("zi")["params"]["omega"] == -1.0
    st = cases.planewave("strachan")["params"]
    assert st["omega"] == -2.0
    # a constant potential couples the two scalar lines of this system, so
    # the case forces it to zero regardless of the requested value
    assert st["v0"] == 0.0


@pytest.mark.parametrize("eq", ["ds", "zi", "strachan"])
def test_planewave_detuned_frequency_fails(eq):
    pw = cases.planewave(eq)
    bad = cases.planewave(eq, omega=1.1 * pw["params"]["omega"])
    res = solitons.pde_residual(eq, {k: bad[k] for k in ("q", "p", "v")},
                                bad["params"], mode="analytic", grid=_grid(8))
    assert max(np.abs(a).max() for a in res.values()) > 1e-2


@pytest.mark.parametrize("eq", ["ds", "zi", "strachan"])
def test_planewave_fd_residual_converges(eq):
    pw = cases.planewave(eq)
    maxima = []
    for n in (16, 32, 64):
        grid = _grid(n)
        res = solitons.pde_residual(eq, _sample_pw(pw, grid), pw["params"],
                                    mode="fd", grid=grid)
        maxima.append(max(np.abs(a).max() for a in res.values()))
    assert maxima[0] / maxima[1] == pytest.approx(4.0, rel=0.3)
    assert maxima[1] / maxima[2] == pytest.approx(4.0, rel=0.3)


def test_pde_residual_error_paths():
    grid = _grid(6)
    zero = np.zeros(grid.shape, dtype=complex)
    with pytest.raises(DomainError):
        solitons.pde_residual("nope", {"q": zero, "p": zero, "v": zero},
                              grid=grid)
    with pytest.raises(DomainError):
        solitons.pde_residual("ds", {"q": zero, "p": zero, "v": zero})
    sp = cases.uniform_spin(grid)
    with pytest.raises(DomainError):
        solitons.pde_residual("ishimori", {"spin": sp}, mode="analytic")


def test_pair_container_unpacks():
    grid = _grid(8)
    pw = cases.planewave("zi")
    f = _sample_pw(pw, grid)
    pair = solitons.ComplexPair(grid, f["q"], f["p"], v=f["v"])
    ra = solitons.pde_residual("zi", {"pair": pair}, pw["params"])
    rb = solitons.pde_residual("zi", f, pw["params"], grid=grid)
    for k in ra:
        assert np.array_equal(ra[k], rb[k])


# --- reductions ---------------------------------------------------------------

def _random_fields(seed, grid):
    rng = np.random.default_rng(seed)
    return {"q": cases.random_smooth(grid, rng),
            "p": cases.random_smooth(grid, rng),
            "v": cases.random_smooth(grid, rng)}


def test_m3q_reduces_to_strachan_bitwise():
    grid = _grid(12)
    f = _random_fields(1, grid)
    ra = solitons.pde_residual("m3q", f, {"c": 0.7, "d": 0.0}, grid=grid)
    rb = solitons.pde_residual("strachan", f, {"c": 0.7}, grid=grid)
    for k in ra:
        assert np.array_equal(ra[k], rb[k])


def test_m3q_reduces_to_zi_bitwise():
    grid = _grid(12)
    f = _random_fields(2, grid)
    ra = solitons.pde_residual("m3q", f, {"c": 0.0, "d": 1.0}, grid=grid)
    rb = solitons.pde_residual("zi", f, {}, grid=grid)
    for k in ra:
        assert np.array_equal(ra[k], rb[k])


def test_m3q_with_both_terms_differs_from_either_limit():
    grid = _grid(12)
    f = _random_fields(3, grid)
    r = solitons.pde_residual("m3q", f, {"c": 0.7, "d": 1.0}, grid=grid)
    rs = solitons.pde_residual("strachan", f, {"c": 0.7}, grid=grid)
    assert np.abs(r["q"] - rs["q"]).max() > 1e-3


def test_mkdv_complex_reduces_to_real_form():
    grid = _grid(12)
    rng = np.random.default_rng(4)
    q = cases.random_smooth(grid, rng).real.astype(complex)
    v1 = cases.random_smooth(grid, rng).real.astype(complex)
    beta = 1
    zero = np.zeros(grid.shape, dtype=complex)
    rc = solitons.pde_residual(
        "mkdv_c", {"q": q, "p": beta * q, "v1": v1, "v2": zero}, grid=grid)
    rr = solitons.pde_residual("mkdv_r", {"q": q, "v1": v1}, {"beta": beta},
                               grid=grid)
    assert np.array_equal(rc["q"], rr["q"])
    assert np.array_equal(rc["v1"], rr["v1"])
    # the auxiliary potential equation closes on its own for real p = beta q
    assert np.abs(rc["v2"]).max() < 1e-12


def test_zii_sign_variant_flips_one_line():
    grid = _grid(10)
    f = _random_fields(5, grid)
    ra = solitons.pde_residual("zii", f, {"zii_sign_variant": "printed"},
                               grid=grid)
    rb = solitons.pde_residual("zii", f, {"zii_sign_variant": "limit"},
                               grid=grid)
    assert np.array_equal(ra["q"], rb["q"])
    assert np.array_equal(ra["v"], rb["v"])
    assert np.array_equal(ra["p"], -rb["p"])


# --- spin systems -------------------------------------------------------------

@pytest.mark.parametrize("eq", ["ishimori", "mix", "mviii", "mxxxiv", "mi"])
def test_uniform_spin_is_steady_state(eq):
    sp = cases.uniform_spin(_grid(8))
    fields = {"spin": sp}
    res = solitons.pde_residual(eq, fields, {})
    for key, arr in res.items():
        assert np.abs(arr).max() == 0, (eq, key)


def test_mix_at_isotropic_point_matches_ishimori():
    # the anisotropic drift coefficients reduce to i*u_x, i*u_y at
    # a = b = -1/2, which is exactly i times the isotropic drift; only the
    # potential line is shared bitwise
    grid = _grid(10)
    rng = np.random.default_rng(6)
    th = cases.random_smooth(grid, rng, scale=0.4).real
    ph = cases.random_smooth(grid, rng, scale=0.4).real
    S = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph),
                  np.cos(th)], axis=-1)
    u = cases.random_smooth(grid, rng).real
    fields = {"spin": solitons.Spin(grid, S, u=u, w=None)}
    rm = solitons.pde_residual("mix", fields, {"a": -0.5, "b": -0.5})
    ri = solitons.pde_residual("ishimori", fields, {})
    assert np.abs(rm["u"] + ri["u"]).max() < 1e-12


def test_mix_coefficient_ops_isotropic_point():
    grid = _grid(10)
    rng = np.random.default_rng(7)
    u = cases.random_smooth(grid, rng).real
    ops = solitons.mix_coefficient_ops(u, {"a": -0.5, "b": -0.5}, grid)
    ux = sg.partial_data(u, grid, "x")
    uy = sg.partial_data(u, grid, "y")
    assert np.abs(ops["A1"] - 1j * ux).max() < 1e-14
    assert np.abs(ops["A2"] - 1j * uy).max() < 1e-14


# --- Lax matrices -------------------------------------------------------------

def test_zi_lax_lambda1_identity():
    # the first-order-in-parameter compatibility line says the y-derivative
    # of the field matrix equals the bracket of the temporal matrix with the
    # constant matrix; the construction satisfies it exactly at the discrete
    # level because the temporal off-diagonal entries are those derivatives
    pw = cases.planewave("zi")
    grid = _grid(16)
    f = _sample_pw(pw, grid)
    lax = solitons.build_lax("zi", f, grid=grid)
    lhs = sg.partial_data(lax["A1"], grid, "y")
    rhs = lax["A2"] @ lax["A3"] - lax["A3"] @ lax["A2"]
    assert np.abs(lhs - rhs).max() < 1e-13


def test_zi_lax_lambda0_identity():
    pw = cases.planewave("zi")
    maxima = []
    for n in (16, 32):
        grid = _grid(n)
        f = _sample_pw(pw, grid)
        lax = solitons.build_lax("zi", f, grid=grid)
        lhs = (sg.partial_data(lax["A1"], grid, "t")
               - sg.partial_data(lax["A2"], grid, "x")
               + lax["A1"] @ lax["A2"] - lax["A2"] @ lax["A1"])
        maxima.append(np.abs(lhs).max())
    assert maxima[0] / maxima[1] == pytest.approx(4.0, rel=0.35)


def test_mi_lax_uniform_spin():
    sp = cases.uniform_spin(_grid(8))
    lax = solitons.build_lax("mi", {"spin": sp})
    A3 = lax["A3"]
    assert np.abs(A3[..., 1, 2] - 1.0).max() == 0
    assert np.abs(A3[..., 2, 1] + 1.0).max() == 0
    assert np.abs(A3[..., 0, 1]).max() == 0
    assert np.abs(lax["A4"]).max() == 0


def test_zii_lax_temporal_entries_satisfy_their_equations():
    # verify the Fourier-solved diagonal entries against their defining
    # first-order equations with spectral derivatives (machine precision)
    n = 32
    grid = sg.GridSpec.make(sg.Axis("x", n, 2 * np.pi / n, periodic=True),
                            sg.Axis("y", n, 2 * np.pi / n, periodic=True))
    rng = np.random.default_rng(8)
    q = cases.random_smooth(grid, rng)
    p = cases.random_smooth(grid, rng)
    params = {"a": 0.3, "b": 0.2}
    lax = solitons.build_lax("zii", {"q": q, "p": p}, params, grid=grid)
    pq = p * q

    k1 = 2 * np.pi * np.fft.fftfreq(n, d=grid.axes[0].h)

    def dx(f):
        return np.fft.ifft(1j * k1[:, None] * np.fft.fft(f, axis=0), axis=0)

    def dy(f):
        return np.fft.ifft(1j * k1[None, :] * np.fft.fft(f, axis=1), axis=1)

    a, b = params["a"], params["b"]
    alpha = 1.0
    c11 = lax["C0"][..., 0, 0]
    c22 = lax["C0"][..., 1, 1]
    r11 = ((a + 1) * dx(c11) - alpha * dy(c11)
           - 1j * ((2 * b - a + 1) * dx(pq) + alpha * dy(pq)))
    r22 = (a * dx(c22) - alpha * dy(c22)
           - 1j * ((a - 2 * b) * dx(pq) - alpha * dy(pq)))
    # zero-mean gauge drops the constant mode of the right-hand side
    r11 -= r11.mean()
    r22 -= r22.mean()
    assert np.abs(r11).max() < 1e-12
    assert np.abs(r22).max() < 1e-12
    assert abs(c11.mean()) < 1e-12 and abs(c22.mean()) < 1e-12


def test_zii_lax_resonant_mode_rejected():
    # at a = -1/2 the symbol vanishes on the line where half the x-frequency
    # equals the y-frequency; data exciting such a mode must be refused
    n = 16
    grid = sg.GridSpec.make(sg.Axis("x", n, 2 * np.pi / n, periodic=True),
                            sg.Axis("y", n, 2 * np.pi / n, periodic=True))
    x, y = grid.meshes()
    q = np.exp(1j * (2 * x + 1 * y))
    p = np.ones_like(q)
    with pytest.raises(DomainError, match="resonant"):
        solitons.build_lax("zii", {"q": q, "p": p}, {"a": -0.5, "b": 0.3},
                           grid=grid)


def test_zii_lax_requires_periodic_grid():
    grid = sg.GridSpec.make(sg.Axis("x", 8, 0.1), sg.Axis("y", 8, 0.1))
    z = np.zeros(grid.shape, dtype=complex)
    q = z + 0.1
    with pytest.raises(DomainError):
        solitons.build_lax("zii", {"q": q, "p": q}, {}, grid=grid)


def test_build_lax_unknown_equation():
    with pytest.raises(DomainError):
        solitons.build_lax("ds", {}, {})


# --- commutation defects ------------------------------------------------------

def test_zi_commutation_defect_refines():
    pw = cases.planewave("zi")
    rep = solitons.lax_refinement_report("zi", pw["callables"], {"lam": 0.3},
                                         levels=2)
    assert all(r >= 8.0 for r in rep["ratios"])


def test_zi_commutation_defect_discriminates():
    pw = cases.planewave("zi")
    good = solitons.lax_commutation_defect("zi", pw["callables"],
                                           {"lam": 0.3}, n_line=32, substeps=8)
    bad_pw = cases.planewave("zi", omega=1.1 * pw["params"]["omega"])
    bad = solitons.lax_commutation_defect("zi", bad_pw["callables"],
                                          {"lam": 0.3}, n_line=32, substeps=8)
    assert bad / good >= 100.0


def test_zii_commutation_defect_zero_field():
    zero = lambda x, y, t: np.zeros_like(np.asarray(x, dtype=float),
                                         dtype=complex)
    d = solitons.lax_commutation_defect("zii", {"q": zero, "p": zero},
                                        {}, n_line=8, substeps=2)
    assert d == 0.0


def test_rk4_blow_up_names_step_and_norm():
    # an RK4 step of y' = 10 y with ds = 1 multiplies y by
    # g = 1 + 10 + 50 + 500/3 + 1250/3 = 644.33, so from y = 1 the norm
    # first exceeds 1e6 at step index 2, where it is g^3 = 2.675e8
    with pytest.raises(NumericalError) as exc:
        solitons._rk4(lambda s, y: 10.0 * y, np.ones(2), 0.0, 1.0, 5)
    msg = str(exc.value)
    assert "at step 2 of 5" in msg
    assert f"max |g| = {(1 + 10 + 50 + 500 / 3 + 1250 / 3) ** 3:.3e}" in msg


def test_commutation_defect_unknown_equation():
    with pytest.raises(DomainError):
        solitons.lax_commutation_defect("mi", {}, {})


# --- second-order operators ---------------------------------------------------

def test_m_operators_polynomial_oracle():
    # on f = x^2 + x y + y^2 every second derivative is constant, so both
    # operators reduce to exact linear combinations
    n = 17
    g = sg.GridSpec.make(sg.Axis("x", n, 1.0 / (n - 1)),
                         sg.Axis("y", n, 1.0 / (n - 1)))
    x, y = g.meshes()
    f = x**2 + x * y + y**2
    ops = solitons.FDOps(g)
    alpha, a, b = 2.0, 0.3, -0.7
    m1 = solitons._m1_op(ops, f, alpha, a, b)
    want1 = alpha**2 * 2 + 4 * alpha * (b - a) * 1 + 4 * (a * a - 2 * a * b - b) * 2
    assert np.abs(m1 - want1).max() < 1e-10
    m2 = solitons._m2_op(ops, f, alpha, a, b)
    want2 = alpha**2 * 2 - 2 * alpha * (2 * a + 1) * 1 + 4 * a * (a + 1) * 2
    assert np.abs(m2 - want2).max() < 1e-10


def test_m2_isotropic_special_point():
    # the isotropic (Ishimori) map is the general one frozen at the
    # parameter point a = b = -1/2
    n = 16
    g = sg.GridSpec.make(sg.Axis("x", n, 2 * np.pi / n, periodic=True),
                         sg.Axis("y", n, 2 * np.pi / n, periodic=True))
    x, y = g.meshes()
    f = np.sin(x) * np.cos(y)
    k, tau = np.ones(g.shape), np.zeros(g.shape)
    ish = solitons.map_spin_coeffs("ishimori", k, tau, f, {"alpha_re": 1.5}, g)
    gen = solitons.map_spin_coeffs(
        "mix", k, tau, f, {"alpha_re": 1.5, "a": -0.5, "b": -0.5}, g)
    assert np.array_equal(ish["m2"], gen["m2"])
    # at a = b = -1/2 the cross and xx terms vanish: M2 = a^2 d_yy - d_xx
    m2 = solitons._m2_op(solitons.FDOps(g), f, 1.5, -0.5, -0.5)
    direct = (1.5**2 * sg.partial_data(sg.partial_data(f, g, "y"), g, "y")
              - sg.partial_data(sg.partial_data(f, g, "x"), g, "x"))
    assert np.abs(m2 - direct).max() < 1e-12


# --- spin <-> soliton coefficient maps ----------------------------------------

def _smooth_real(grid, rng, scale=1.0):
    return cases.random_smooth(grid, rng, scale).real


def test_map_spin_coeffs_mix_reduces_to_ishimori():
    grid = _grid(12)
    rng = np.random.default_rng(9)
    k = 1.5 + 0.3 * _smooth_real(grid, rng)
    tau = _smooth_real(grid, rng)
    u = _smooth_real(grid, rng)
    mi = solitons.map_spin_coeffs("mix", k, tau, u, {"a": -0.5, "b": -0.5},
                                  grid, with_omega=True)
    ish = solitons.map_spin_coeffs("ishimori", k, tau, u, {}, grid,
                                   with_omega=True)
    for key in ("m1", "m2", "m3"):
        assert np.array_equal(mi[key], ish[key]), key


def test_map_spin_coeffs_m2_consistency():
    grid = _grid(12)
    rng = np.random.default_rng(10)
    k = 2.0 + 0.5 * _smooth_real(grid, rng)
    tau = _smooth_real(grid, rng)
    u = _smooth_real(grid, rng)
    params = {"alpha_re": 1.3}
    out = solitons.map_spin_coeffs("ishimori", k, tau, u, params, grid)
    ops = solitons.FDOps(grid)
    m2u = solitons._m2_op(ops, u, 1.3, -0.5, -0.5)
    assert np.abs(out["m2"] + m2u / (2 * 1.3**2 * k)).max() < 1e-12
    assert not out["k_mask"].any()


def test_map_spin_coeffs_mask_budget():
    grid = _grid(8)
    zero = np.zeros(grid.shape)
    with pytest.raises(DomainError, match="mask budget"):
        solitons.map_spin_coeffs("ishimori", zero, zero, zero, {}, grid)
    with pytest.raises(DomainError):
        solitons.map_spin_coeffs("ds", zero + 1, zero, zero, {}, grid)


def test_amplitude_difference_identity():
    # the two squared amplitudes differ by exactly -Re(alpha) * k * m3
    # (the imaginary-part terms coincide line by line)
    grid = _grid(10)
    rng = np.random.default_rng(11)
    k = 2.0 + 0.5 * _smooth_real(grid, rng)
    tau = _smooth_real(grid, rng)
    m1 = _smooth_real(grid, rng)
    m2 = _smooth_real(grid, rng)
    m3 = _smooth_real(grid, rng)
    params = {"alpha_re": 1.2, "alpha_im": 0.4}
    out = solitons.amplitude_phase("ishimori", k, tau, m1, m2, m3, params,
                                   grid)
    assert np.abs(out["a1sq"] - out["a2sq"] + 1.2 * k * m3).max() < 1e-12


def test_amplitude_phase_assembles_fields():
    grid = _grid(10)
    rng = np.random.default_rng(12)
    k = 3.0 + 0.5 * _smooth_real(grid, rng)
    tau = 0.2 * _smooth_real(grid, rng)
    m1 = 0.2 * _smooth_real(grid, rng)
    m2 = 0.2 * _smooth_real(grid, rng)
    m3 = 0.2 * _smooth_real(grid, rng)
    out = solitons.amplitude_phase("ishimori", k, tau, m1, m2, m3,
                                   {"alpha_re": 1.0}, grid, with_phase=True)
    assert np.abs(np.abs(out["q"]) ** 2 - out["a1sq"]).max() < 1e-12
    assert np.abs(np.abs(out["p"]) ** 2 - out["a2sq"]).max() < 1e-12
    # phases are gauged to zero on the x-minimum plane
    assert np.abs(out["b1"][0]).max() == 0


def test_amplitude_phase_nonpositive_rejected():
    grid = _grid(8)
    zero = np.zeros(grid.shape)
    # alpha = 2, k = 1, m3 = 1/2 makes the first squared amplitude
    # (k/2 - m3)^2 = 0, which the phase assembly must refuse
    k = np.ones(grid.shape)
    m3 = 0.5 * np.ones(grid.shape)
    with pytest.raises(DomainError, match="grid index"):
        solitons.amplitude_phase("ishimori", k, zero, zero, zero, m3,
                                 {"alpha_re": 2.0}, grid, with_phase=True)


def test_amplitude_phase_unknown_equation():
    grid = _grid(8)
    zero = np.zeros(grid.shape)
    with pytest.raises(DomainError):
        solitons.amplitude_phase("zi", zero, zero, zero, zero, zero, {}, grid)


def test_mix_amplitude_prefactors():
    grid = _grid(8)
    rng = np.random.default_rng(13)
    k = 2.0 + 0.3 * _smooth_real(grid, rng)
    z = np.zeros(grid.shape)
    params = {"a": -0.5 + 0.0j, "b": -0.25, "l": 1.0, "alpha_re": 1.0}
    out = solitons.amplitude_phase("mix", k, z, z, z, z, params, grid)
    # with m2 = m3 = 0 the squared amplitudes collapse to the k^2 terms
    # scaled by |a|^2/|b|^2 and its inverse
    ab = 0.25 / 0.0625
    assert np.abs(out["a1sq"] - ab * 4.0 * k**2).max() < 1e-12
    assert np.abs(out["a2sq"] - (1.0 / ab) * k**2).max() < 1e-12
