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


@pytest.mark.parametrize("eq", ["ds", "zi", "strachan"])
def test_planewave_conjugate_samples_bit_exact(eq):
    # sin is odd and a conjugate of products is the product of conjugates
    pw = cases.planewave(eq)
    grid = _grid(8)
    assert np.array_equal(pw["p"].sample(grid), np.conj(pw["q"].sample(grid)))


@pytest.mark.parametrize("eq", ["ds", "zi", "strachan"])
def test_planewave_callables_are_the_waves(eq):
    # the Lax oracle and the analytic oracle evaluate one object
    pw = cases.planewave(eq)
    for k in ("q", "p", "v"):
        assert pw["callables"][k] is pw[k]


def test_wave_call_on_sparse_meshes_is_sample():
    from solgeo.waves import Wave

    wave = (Wave.exp(0.7 - 0.2j, x=1.3, y=-0.4, t=2.7)
            + Wave.exp(-1.1j, y=2.25) + Wave.const(0.3 + 0.5j))
    grid = _grid(10)
    x, y, t = grid.meshes(sparse=True)
    got = wave(x, y, t)
    assert got.shape == grid.shape
    assert got.tobytes() == wave.sample(grid).tobytes()


def test_wave_sample_matches_direct_phase():
    from solgeo.waves import Wave

    wave = (Wave.exp(0.7 - 0.2j, x=1.3, y=-0.4, t=2.7)
            + Wave.exp(-1.1j, y=2.25) + Wave.exp(0.4, x=-3.5, t=0.6)
            + Wave.const(0.3 + 0.5j))
    grid = _grid(12)
    x, y, t = grid.meshes()
    coords = {"x": x, "y": y, "t": t}
    direct = sum(a * np.exp(1j * sum(c * coords[ax] for ax, c in k))
                 for k, a in wave.terms.items())
    scale = sum(abs(a) for a in wave.terms.values())
    assert np.abs(wave.sample(grid) - direct).max() <= 1e-13 * scale


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
    # both modes name an unknown equation as such
    for mode in ("fd", "analytic"):
        with pytest.raises(DomainError, match="unknown equation id 'nope'"):
            solitons.pde_residual("nope", {"q": zero, "p": zero, "v": zero},
                                  mode=mode, grid=grid)
    with pytest.raises(DomainError, match="grid required"):
        solitons.pde_residual("ds", {"q": zero, "p": zero, "v": zero})
    with pytest.raises(DomainError, match="analytic mode not supported"):
        solitons.pde_residual("ishimori", cases.uniform_spin(grid),
                              mode="analytic", grid=grid)


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
    grid = _grid(8)
    res = solitons.pde_residual(eq, cases.uniform_spin(grid), {}, grid=grid)
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
    fields = {"S": S, "u": u}
    rm = solitons.pde_residual("mix", fields, {"a": -0.5, "b": -0.5},
                               grid=grid)
    ri = solitons.pde_residual("ishimori", fields, {}, grid=grid)
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
    grid = _grid(8)
    lax = solitons.build_lax("mi", cases.uniform_spin(grid), grid=grid)
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


def _zii_oracle_q(x, y, t):
    # y-dependent, non-resonant at a = b = -1/2 and band-limited on a
    # 16-point line, so spectral derivatives and interpolation are exact
    return 0.3 * np.exp(1j * (x + 2 * y)) + 0.2 * np.exp(1j * (2 * x - y))


def _zii_oracle_p(x, y, t):
    return np.conj(_zii_oracle_q(x, y, t))


def _periodic_xy(n, y_origin=0.0):
    h = 2 * np.pi / n
    return (sg.Axis("x", n, h, periodic=True),
            sg.Axis("y", n, h, periodic=True, origin=y_origin))


def test_zii_lax_axis_order_is_free():
    # the Fourier solve of the C0 diagonal must follow the grid's axis
    # order: a (y, x) grid gives the transpose of the (x, y) result
    ax_x, ax_y = _periodic_xy(16)
    params = {"a": 0.3, "b": 0.2}
    lax = {}
    for grid in (sg.GridSpec.make(ax_x, ax_y), sg.GridSpec.make(ax_y, ax_x)):
        m = dict(zip(grid.names, grid.meshes()))
        q = _zii_oracle_q(m["x"], m["y"], 0.0)
        lax[grid.names] = solitons.build_lax(
            "zii", {"q": q, "p": np.conj(q)}, params, grid=grid)
    for key, xy in lax[("x", "y")].items():
        yx = np.swapaxes(lax[("y", "x")][key], 0, 1)
        assert np.abs(yx - xy).max() <= 1e-13, key


def test_spectral_ops_exact_on_matrix_stack():
    # derivatives along a non-leading periodic axis of a matrix stack, with
    # a batch axis in front; trigonometric polynomials are differentiated
    # and interpolated to rounding
    grid = sg.GridSpec.make(sg.Axis("t", 5, 0.1),
                            sg.Axis("x", 12, 2 * np.pi / 12, periodic=True),
                            sg.Axis("y", 10, 2 * np.pi / 10, periodic=True,
                                    origin=0.3))
    t, x, y = grid.meshes()
    coef = np.array([[1.0, 2j], [-0.5, 3.0]])
    stack = lambda s: s[..., None, None] * coef
    f = np.exp(1j * (2 * x - 3 * y)) + t * np.cos(x + 4 * y)
    fx = 2j * np.exp(1j * (2 * x - 3 * y)) - t * np.sin(x + 4 * y)
    fy = -3j * np.exp(1j * (2 * x - 3 * y)) - 4 * t * np.sin(x + 4 * y)
    d = solitons._spectral(grid)
    assert np.abs(d(stack(f), "x") - stack(fx)).max() <= 1e-12
    assert np.abs(d(stack(f), "y") - stack(fy)).max() <= 1e-12
    with pytest.raises(DomainError, match="periodic"):
        d(f, "t")
    with pytest.raises(DomainError, match="periodic"):
        solitons._wavenumbers(grid, "t", 3)
    with pytest.raises(DomainError, match="periodic"):
        solitons._interp(f, grid, "t", [0.05])
    # the derivative gives the bits of the FFT formula written out with
    # the wavenumbers in FFT order
    k = 2 * np.pi * np.fft.fftfreq(12, d=2 * np.pi / 12)
    fresh = np.fft.ifft(1j * k.reshape(1, 12, 1, 1, 1)
                        * np.fft.fft(stack(f), axis=1), axis=1)
    assert np.array_equal(d(stack(f), "x"), fresh)
    # off-node values, the Nyquist cosine included
    g = lambda x, y: np.exp(1j * (2 * x - 3 * y)) + np.cos(5 * (y - 0.3))
    at = np.array([0.0, 0.41, 2.9])
    got = solitons._interp(stack(g(x, y)), grid, "y", at)
    assert got.shape == (3, 5, 12, 2, 2)
    for i, yv in enumerate(at):
        assert np.abs(got[i] - stack(g(x[..., 0], yv))).max() <= 1e-12


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
    grid = sg.GridSpec.make(sg.Axis("x", 8, 0.1), sg.Axis("y", 8, 0.1))
    with pytest.raises(DomainError, match="no Lax builder"):
        solitons.build_lax("ds", {}, {}, grid=grid)


def test_build_lax_bare_arrays_need_a_grid():
    z = np.zeros((6, 6, 6), dtype=complex)
    with pytest.raises(DomainError, match="grid required"):
        solitons.build_lax("zi", {"q": z, "p": z, "v": z})


@pytest.mark.parametrize("fields,params", [({"r2": 1}, {"r2": 0}),
                                           ({}, {"r2": 5}),
                                           ({}, {"r2": 1.5}),
                                           ({}, {"r2": -1.7})])
def test_mi_r2_outside_the_two_signs_is_domain_error(fields, params):
    # the Lax builder and the residual refuse the same signature sign, a
    # fractional one is not truncated to +1 or -1, and a valid r2 among
    # the fields does not stand in for it
    grid = _grid(6)
    f = {**cases.uniform_spin(grid), **fields}
    for build in (solitons.build_lax, solitons.pde_residual):
        with pytest.raises(DomainError,
                           match=rf"r2 must be \+1 or -1, got {params['r2']}"):
            build("mi", f, params, grid=grid)


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


def _zi_sequential_defect(fields, params, n_line, substeps,
                          characteristics=True):
    """The zi commutation defect as four sweeps run one after another: x
    from the identity then t, and t from the identity then x, each second
    sweep starting from the first one's end state.  The t-sweeps of
    g_t = lam g_y + A2 g run along the characteristics y + lam (T - t),
    where the x-then-t order starts on the feet y + lam T, or, with
    characteristics=False, by the method of lines on the fixed y-line with
    the spectral lam g_y."""
    lam = params.get("lam", 0.3)
    span = dict(zip(("x", "t"), solitons.LAX_CELL))
    line = solitons._periodic_line("y", n_line)
    d_line = solitons._spectral(sg.GridSpec.make(line))
    shift = lam if characteristics else 0.0

    def lax(axis, fixed):
        grid = sg.GridSpec.make(
            solitons._stage_axis(axis, span[axis], substeps), line)
        c = {**dict(zip(grid.names, grid.meshes(sparse=True))), **fixed}
        c["y"] = c["y"] + shift * (span["t"] - c["t"])
        sampled = {k: np.broadcast_to(fields[k](c["x"], c["y"], c["t"]),
                                      grid.shape) for k in ("q", "p", "v")}
        return solitons.build_lax("zi", sampled, grid=grid,
                                  d=solitons._spectral(grid))

    def sweep_x(g, t):
        m = lax("x", {"t": t})
        gen = m["A1"] - lam * m["A3"]
        return solitons._sweep(lambda j, gg: gen[j] @ gg, g, span["x"],
                               substeps)

    def sweep_t(g, x):
        a2 = lax("t", {"x": x})["A2"]
        if characteristics:
            return solitons._sweep(lambda j, gg: a2[j] @ gg, g, span["t"],
                                   substeps)
        return solitons._sweep(
            lambda j, gg: lam * d_line(gg, "y") + a2[j] @ gg, g, span["t"],
            substeps)

    g0 = np.broadcast_to(np.eye(3, dtype=complex), (n_line, 3, 3))
    ga = sweep_t(sweep_x(g0, 0.0), span["x"])
    gb = sweep_x(sweep_t(g0, 0.0), span["t"])
    return float(np.abs(ga - gb).max())


def _two_waves():
    """Two crossing waves with a y-dependent potential: not a zi
    solution, so the two sweep orders disagree at O(1)."""
    def q(x, y, t):
        return (0.6 * np.exp(1j * (x + 2 * y - t))
                + 0.3 * np.exp(1j * (2 * x - y + 3 * t)))

    def p(x, y, t):
        return np.conj(q(x, y, t))

    def v(x, y, t):
        return 0.5 * np.cos(y - t)
    return {"q": q, "p": p, "v": v}


@pytest.mark.parametrize("fields,n_line,substeps", [
    ("planewave", 16, 4), ("planewave", 32, 8), ("two-waves", 16, 4),
    ("two-waves", 32, 8)])
def test_zi_batched_sweeps_match_sequential_reference(fields, n_line,
                                                      substeps):
    # RK4 maps a pointwise linear start linearly, so the products of the
    # four sides swept from the identity are the sequential sweeps up to
    # rounding (a method-of-lines t-sweep differs by 1.3e-7 at 16, 4)
    f = (cases.planewave("zi")["callables"] if fields == "planewave"
         else _two_waves())
    got = solitons.lax_commutation_defect("zi", f, {"lam": 0.3},
                                          n_line=n_line, substeps=substeps)
    ref = _zi_sequential_defect(f, {"lam": 0.3}, n_line, substeps)
    if fields == "two-waves":
        assert 0.1 < ref < 1.0
    assert abs(got - ref) <= 1e-13


@pytest.mark.parametrize("n_line,substeps,gap", [
    (16, 4, 3e-6), (32, 8, 5e-8), (64, 16, 3e-9)])
def test_zi_characteristics_converge_to_method_of_lines(n_line, substeps,
                                                        gap):
    # two methods for the same non-solution defect (0.25146...): their gap
    # is RK4 and method-of-lines error, 2.4e-6, 2.7e-8, 1.7e-9
    f = _two_waves()
    got = solitons.lax_commutation_defect("zi", f, {"lam": 0.3},
                                          n_line=n_line, substeps=substeps)
    ref = _zi_sequential_defect(f, {"lam": 0.3}, n_line, substeps,
                                characteristics=False)
    assert 0.1 < ref < 1.0
    assert abs(got - ref) <= gap


def test_zi_nan_in_one_batched_member_is_numerical_error():
    # NaN only at t > 0.15: the x-problem at t = 0.2 goes bad at the first
    # step of the four sides run together, and the guard names it
    def q(x, y, t):
        return np.where(np.asarray(t) > 0.15, np.nan,
                        0.3 * np.exp(1j * (x + 2 * y)))
    f = {"q": q, "p": lambda x, y, t: np.conj(q(x, y, t)),
         "v": lambda x, y, t: 0.0 * x}
    with pytest.raises(NumericalError,
                       match=r"at step 0 of 2: max \|g\| = nan"):
        solitons.lax_commutation_defect("zi", f, {"lam": 0.3}, n_line=8,
                                        substeps=2)


def test_zii_commutation_defect_zero_field():
    zero = lambda x, y, t: np.zeros_like(np.asarray(x, dtype=float),
                                         dtype=complex)
    d = solitons.lax_commutation_defect("zii", {"q": zero, "p": zero},
                                        {}, n_line=8, substeps=2)
    assert d == 0.0


@pytest.mark.parametrize("eq", ["zi", "zii"])
@pytest.mark.parametrize("size, match", [({"n_line": 0}, "n >= 4"),
                                         ({"substeps": 1}, "substeps >= 2")])
def test_commutation_defect_degenerate_sizes(eq, size, match):
    # checked before the 2 pi line is divided by n_line and before a stage
    # grid of fewer than four coordinates is built
    with pytest.raises(DomainError, match=match):
        solitons.lax_commutation_defect(eq, {}, {}, **size)


def _zii_stagewise_defect(params, n, substeps, cell=(0.2, 0.2)):
    """The zii commutation defect with every RK4 stage's generators built
    afresh: build_lax on an (x, y) grid whose y-origin is the stage's y
    (row 0 holds that y), spectral derivatives of the band-limited oracle
    fields, and FFT derivatives of the state along the x-line."""
    k = 2 * np.pi * np.fft.fftfreq(n, d=2 * np.pi / n)

    def dx(g, order=1):
        return np.fft.ifft((1j * k[:, None, None]) ** order
                           * np.fft.fft(g, axis=0), axis=0)

    def lax_at(y, t):
        grid = sg.GridSpec.make(*_periodic_xy(n, y_origin=y))
        xm, ym = grid.meshes()
        lax = solitons.build_lax(
            "zii", {"q": _zii_oracle_q(xm, ym, t),
                    "p": _zii_oracle_p(xm, ym, t)},
            params, grid=grid, d=solitons._spectral(grid))
        return {key: m[:, 0] for key, m in lax.items()}

    def rk4(rhs, g, span):
        ds = span / substeps
        for i in range(substeps):
            s = i * ds
            k1 = rhs(s, g)
            k2 = rhs(s + ds / 2, g + ds / 2 * k1)
            k3 = rhs(s + ds / 2, g + ds / 2 * k2)
            k4 = rhs(s + ds, g + ds * k3)
            g = g + ds / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        return g

    def y_rhs(t):
        def rhs(y, g):
            m = lax_at(y, t)
            return m["B1"] @ dx(g) + m["B0"] @ g  # alpha = 1
        return rhs

    def t_rhs(y):
        def rhs(t, g):
            m = lax_at(y, t)
            return 2 * m["C2"] @ dx(g, 2) + m["C1"] @ dx(g) + m["C0"] @ g
        return rhs

    dy, dt = cell
    g0 = np.broadcast_to(np.eye(2, dtype=complex), (n, 2, 2))
    ga = rk4(t_rhs(dy), rk4(y_rhs(0.0), g0, dy), dt)
    gb = rk4(y_rhs(dt), rk4(t_rhs(0.0), g0, dt), dy)
    return float(np.abs(ga - gb).max())


def test_zii_commutation_defect_matches_stagewise_reference():
    # C0 read at the exact y of the sweep (not the nearest cell-grid node)
    # and q_y, p_y differentiated spectrally (not by a 1e-5 difference)
    params = {"a": -0.5, "b": -0.5}
    got = solitons.lax_commutation_defect(
        "zii", {"q": _zii_oracle_q, "p": _zii_oracle_p}, params,
        n_line=16, substeps=4)
    ref = _zii_stagewise_defect(params, 16, 4)
    assert ref > 0.1
    assert abs(got - ref) <= 1e-10 * ref


def test_nan_evolution_is_numerical_error():
    # NaN compares false with the blow-up bound, so a NaN state ran on and
    # the defect came back as nan
    with pytest.raises(NumericalError,
                       match=r"at step 0 of 2: max \|g\| = nan"):
        solitons._sweep(lambda j, y: np.nan * y, np.ones(2), 2.0, 2)
    nan_q = {"q": lambda x, y, t: np.nan * (x + y + t),
             "p": lambda x, y, t: 0.0 * x, "v": lambda x, y, t: 0.0 * x}
    with pytest.raises(NumericalError, match=r"max \|g\| = nan"):
        solitons.lax_commutation_defect("zi", nan_q, {"lam": 0.3},
                                        n_line=8, substeps=2)


def test_sweep_reads_integer_stage_indices():
    # step i reads stages 2i, 2i + 1 (twice) and 2i + 2, the indices of
    # the 2 substeps + 1 coordinates of _stage_axis; y' = y integrates to
    # the RK4 growth factor per step
    seen = []
    got = solitons._sweep(lambda j, y: seen.append(j) or y, np.ones(1),
                          0.3, 3)
    assert seen == [0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6]
    assert all(type(j) is int for j in seen)
    h = 0.1
    assert np.isclose(got[0], (1 + h + h**2 / 2 + h**3 / 6 + h**4 / 24) ** 3,
                      rtol=1e-15)


def test_rk4_blow_up_names_step_and_norm():
    # an RK4 step of y' = 10 y with ds = 1 multiplies y by
    # g = 1 + 10 + 50 + 500/3 + 1250/3 = 644.33, so from y = 1 the norm
    # first exceeds 1e6 at step index 2, where it is g^3 = 2.675e8
    with pytest.raises(NumericalError) as exc:
        solitons._sweep(lambda j, y: 10.0 * y, np.ones(2), 5.0, 5)
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
    d = solitons._fd(g)
    alpha, a, b = 2.0, 0.3, -0.7
    m1 = solitons._m1_op(d, f, alpha, a, b)
    want1 = alpha**2 * 2 + 4 * alpha * (b - a) * 1 + 4 * (a * a - 2 * a * b - b) * 2
    assert np.abs(m1 - want1).max() < 1e-10
    m2 = solitons._m2_op(d, f, alpha, a, b)
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
    m2 = solitons._m2_op(solitons._fd(g), f, 1.5, -0.5, -0.5)
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
    m2u = solitons._m2_op(solitons._fd(grid), u, 1.3, -0.5, -0.5)
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


@pytest.mark.parametrize("name,call", [
    ("alpha", lambda g, z: solitons.mix_coefficient_ops(
        z, {"alpha_re": 0.0}, g)),
    ("alpha", lambda g, z: solitons.pde_residual(
        "mix", cases.uniform_spin(g), {"alpha_re": 0.0}, grid=g)),
    ("alpha", lambda g, z: solitons.map_spin_coeffs(
        "ishimori", z + 1, z, z, {"alpha_re": 0.0}, g)),
    ("b", lambda g, z: solitons.amplitude_phase(
        "mix", z + 1, z, z, z, z, {"b": 0.0}, g)),
    ("a", lambda g, z: solitons.amplitude_phase(
        "mix", z + 1, z, z, z, z, {"a": 0.0}, g)),
    ("alpha", lambda g, z: solitons.lax_commutation_defect(
        "zii", {"q": lambda x, y, t: 0 * x, "p": lambda x, y, t: 0 * x},
        {"alpha_re": 0.0}, n_line=8, substeps=2)),
], ids=["mix_coefficient_ops", "pde_residual", "map_spin_coeffs",
        "amplitude_phase-b", "amplitude_phase-a", "lax_commutation_defect"])
def test_zero_divisor_parameter_is_domain_error(name, call):
    grid = _grid(6)
    with pytest.raises(DomainError, match=f"^{name} .*must be nonzero"):
        call(grid, np.zeros(grid.shape))


@pytest.mark.parametrize("params", [{"a": 1e-200}, {"a": 1e200},
                                    {"b": 1e-200}, {"b": 1e200}])
def test_amplitude_ratio_out_of_range_is_domain_error(params):
    # |a|^2/|b|^2 underflowing to 0 or overflowing to inf was a bare
    # ZeroDivisionError or OverflowError
    grid = _grid(6)
    z = np.zeros(grid.shape)
    with pytest.raises(DomainError,
                       match=r"\|a\|\^2/\|b\|\^2 = .* for a = .*, b = "):
        solitons.amplitude_phase("mix", z + 1, z, z, z, z, params, grid)


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
