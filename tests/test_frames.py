import dataclasses
import re

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from solgeo import cases, frames, liealg, solitons, zerocurv
from solgeo import grid as sg
from solgeo.errors import DomainError

SIG1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIG2 = np.array([[0, -1j], [1j, 0]])
SIG3 = np.array([[1, 0], [0, -1]], dtype=complex)


def test_frame_triad_standard_gram():
    assert frames.FrameTriad.standard().gram_defect() == 0.0
    assert frames.FrameTriad.standard(beta=-1).gram_defect() == 0.0
    tilted = frames.FrameTriad(np.array([1.0, 0.1, 0]), np.array([0, 1.0, 0]),
                               np.array([0, 0, 1.0]))
    assert tilted.gram_defect() > 0.09


def test_propagate_constant_curvature_exact():
    # constant (k, tau, sigma) makes the midpoint scheme exact: compare to
    # the closed-form one-shot exponential at the far end
    k, tau, sigma = 1.3, 0.4, -0.2
    beta = 1
    n, h = 65, 0.05
    coeffs = [liealg.CoeffTriple.x(k, tau, sigma)] * n
    out = frames.propagate_frenet(frames.FrameTriad.standard(), coeffs, beta, h)
    K = liealg.skew_matrix(coeffs[0], beta)
    exact = liealg.expm((n - 1) * h * K)
    assert np.abs(out.data[-1] - exact).max() < 1e-12


@pytest.mark.parametrize("beta", [1, -1])
def test_propagate_gram_drift(beta):
    # the curvature-role matrix preserves the Gram form only at beta=+1
    # (its (3,1) sign convention is fixed); the m-triple role respects the
    # generalized antisymmetry in both signatures, so use it for beta=-1
    n, h = 200, 0.02
    s = h * np.arange(n)
    maker = liealg.CoeffTriple.x if beta == 1 else liealg.CoeffTriple.y
    coeffs = [maker(1 + 0.5 * np.sin(si), 0.3 * np.cos(si), 0.1 * si)
              for si in s]
    out = frames.propagate_frenet(frames.FrameTriad.standard(beta), coeffs,
                                  beta, h)
    worst = max(out.triad(i).gram_defect() for i in range(0, n, 20))
    # beta=+1 steps are Rodrigues rotations (orthogonal to rounding); the
    # pseudo-orthogonal case goes through the generic exponential
    assert worst < (1e-12 if beta == 1 else 1e-9)
    # the batched field defect is the per-triad maximum over every frame
    loop = max(out.triad(i).gram_defect() for i in range(n))
    assert abs(out.gram_defect() - loop) <= 1e-15


def test_propagate_varying_curvature_vs_ode_oracle():
    # independent oracle: integrate e' = K(s) e with an adaptive RK solver
    # at tight tolerance, then check the midpoint scheme converges at
    # second order towards it
    beta = 1

    def ktau(s):
        return 1.0 + 0.5 * np.sin(s), 0.3, 0.1 * np.cos(s)

    length = 2.0

    def rhs(s, y):
        k, tau, sig = ktau(s)
        K = liealg.skew_matrix(liealg.CoeffTriple.x(k, tau, sig), beta)
        return (K @ y.reshape(3, 3)).ravel()

    sol = solve_ivp(rhs, (0, length), np.eye(3).ravel(), rtol=1e-12,
                    atol=1e-12, dense_output=True)
    exact_end = sol.y[:, -1].reshape(3, 3)

    errs = []
    for n in (41, 81, 161):
        h = length / (n - 1)
        coeffs = [liealg.CoeffTriple.x(*ktau(i * h)) for i in range(n)]
        out = frames.propagate_frenet(frames.FrameTriad.standard(), coeffs,
                                      beta, h)
        errs.append(np.abs(out.data[-1] - exact_end).max())
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.3)


def test_propagate_rejects_short_input(monkeypatch):
    # the count is checked before any step is transported
    def no_transport(*args):
        raise AssertionError("transported a short input")

    monkeypatch.setattr(liealg, "transport", no_transport)
    for n in range(4):
        with pytest.raises(DomainError, match=f"need at least 4 coefficient "
                                              f"samples, got {n}"):
            frames.propagate_frenet(frames.FrameTriad.standard(),
                                    [liealg.CoeffTriple.x(1, 0, 0)] * n,
                                    1, 0.1)


@pytest.mark.parametrize("start_beta, beta", [(-1, 1), (1, -1)])
def test_propagate_rejects_a_start_frame_of_the_other_beta(start_beta, beta):
    # the field would carry the argument's beta and drop the frame's
    with pytest.raises(DomainError, match=f"start frame has beta = "
                                          f"{start_beta}, propagation beta "
                                          f"= {beta}"):
        frames.propagate_frenet(frames.FrameTriad.standard(start_beta),
                                [liealg.CoeffTriple.y(1, 0, 0)] * 8, beta,
                                0.1)


def _gauge_grid_2d(n):
    h = 1.0 / (n - 1)
    return sg.GridSpec.make(sg.Axis("x", n, h), sg.Axis("y", n, h))


def test_commutation_defect_flat_connection_converges():
    start = frames.FrameTriad.standard()
    defects = []
    for n in (9, 17, 33):
        conn = cases.pure_gauge_connection(_gauge_grid_2d(n), axes=("x", "y"))
        defects.append(frames.commutation_defect_2d(start, conn["A"], conn["B"]))
    assert defects[0] / defects[1] == pytest.approx(4.0, rel=0.35)
    assert defects[1] / defects[2] == pytest.approx(4.0, rel=0.35)


def test_commutation_defect_curved_connection_stalls():
    start = frames.FrameTriad.standard()
    defects = []
    for n in (9, 17, 33):
        conn = cases.pure_gauge_connection(_gauge_grid_2d(n), axes=("x", "y"),
                                           perturb=0.2)
        defects.append(frames.commutation_defect_2d(start, conn["A"], conn["B"]))
    assert defects[-1] > 0.05
    assert abs(defects[-1] - defects[-2]) / defects[-1] < 0.01


@pytest.mark.parametrize("perturb", [0.0, 0.2])
def test_commutation_defect_axial_matches_matrix_fields(perturb):
    # only the four transported boundary lines are turned into matrices
    conn = cases.pure_gauge_connection(_gauge_grid_2d(17), axes=("x", "y"),
                                       perturb=perturb)
    mats = {k: sg.MatrixField(f.grid, liealg.hat(f.data))
            for k, f in conn.items()}
    start = frames.FrameTriad.standard()
    got = frames.commutation_defect_2d(start, conn["A"], conn["B"])
    assert got > 0
    assert got == frames.commutation_defect_2d(start, mats["A"], mats["B"])


def test_commutation_defect_grid_mismatch():
    a = cases.pure_gauge_connection(_gauge_grid_2d(8), axes=("x", "y"))
    b = cases.pure_gauge_connection(_gauge_grid_2d(9), axes=("x", "y"))
    with pytest.raises(DomainError):
        frames.commutation_defect_2d(frames.FrameTriad.standard(), a["A"], b["B"])


# --- fundamental-form coefficient maps ---------------------------------------

def test_coeffs_sphere_patch():
    s = cases.sphere_patch(16)
    x = s.grid.coords("x")[:, None]
    c = frames.coeffs_from_surface(s)
    # E=1 so sqrt(E)=1, g=cos^2 x
    assert np.abs(c["k"] - 1.0).max() < 1e-14
    assert np.abs(c["m3"]).max() == 0
    assert np.abs(c["tau"]).max() == 0
    assert np.abs(c["sigma"]).max() == 0
    assert np.abs(c["m1"] - np.cos(x) ** 2).max() < 1e-14
    assert np.abs(c["m2"] - (-np.sin(x) * np.cos(x))).max() < 1e-13


def test_coeffs_cylinder_and_plane():
    c = frames.coeffs_from_surface(cases.cylinder(12))
    assert np.abs(c["k"] + 1.0).max() == 0
    for key in ("tau", "sigma", "m1", "m2", "m3"):
        assert np.abs(c[key]).max() == 0
    p = frames.coeffs_from_surface(cases.plane(12))
    for key in ("k", "tau", "sigma", "m1", "m2", "m3"):
        assert np.abs(p[key]).max() == 0


def test_coeffs_rejects_degenerate_metric():
    s = cases.plane(8)
    with pytest.raises(DomainError):
        frames.SurfaceData(s.grid, -s.E, s.F, s.G, s.L, s.M, s.N, s.gamma,
                           s.p11, s.p12, s.p21, s.p22)


def _flat_forms(grid, **kw):
    """The plane's coefficients on grid, as constants, with kw replacing
    any of them."""
    forms = dict(E=1.0, F=0.0, G=1.0, L=0.0, M=0.0, N=0.0, gamma={},
                 p11=0.0, p12=0.0, p21=0.0, p22=0.0)
    return frames.SurfaceData(grid, **{**forms, **kw})


def _first_index_message(what, i, j):
    return f"{what} <= 0 first at grid index ({i}, {j})"


def test_surface_rejects_nonpositive_E_at_construction():
    g = cases.plane(8).grid
    x, y = g.meshes()
    E = 1.0 - ((x > 0.5) & (y > 0.3))  # zero for i >= 4, j >= 3
    with pytest.raises(DomainError) as exc:
        _flat_forms(g, E=E)
    assert str(exc.value) == _first_index_message("E", 4, 3)


def test_surface_rejects_nonpositive_g_from_F_alone():
    # E = G = 1 everywhere, so only F^2 > EG can make g <= 0
    g = cases.plane(8).grid
    x, y = g.meshes()
    F = np.where((x > 0.2) & (y > 0.6), 1.5, 0.0)  # i >= 2, j >= 5
    with pytest.raises(DomainError) as exc:
        _flat_forms(g, F=F)
    assert str(exc.value) == _first_index_message("EG - F^2", 2, 5)
    # F^2 = EG is degenerate too
    with pytest.raises(DomainError) as exc:
        _flat_forms(g, F=1.0)
    assert str(exc.value) == _first_index_message("EG - F^2", 0, 0)


def test_surface_rejects_unknown_gamma_key():
    g = cases.plane(8).grid
    with pytest.raises(DomainError, match="unknown gamma key '121'"):
        _flat_forms(g, gamma={"212": 0.0, "121": 1.0, "999": 1.0})


def test_surface_broadcasts_constants_and_sparse_gamma():
    g = cases.plane(6).grid
    x, _ = g.meshes(sparse=True)
    s = _flat_forms(g, G=2.0, F=x, gamma={"212": x, "301": 1.0})
    assert set(s.gamma) == {"111", "211", "112", "212", "122", "222", "301"}
    for v in (s.E, s.F, s.G, s.p22, *s.gamma.values()):
        assert v.shape == g.shape and not v.flags.writeable
    assert np.array_equal(s.gamma["212"], np.broadcast_to(x, g.shape))
    assert not s.gamma["111"].any() and (s.gamma["301"] == 1.0).all()
    assert np.array_equal(s.g, 2.0 - np.broadcast_to(x, g.shape) ** 2)


@pytest.mark.parametrize("kw, name", [
    ({"E": np.ones(3)}, "E"), ({"gamma": {"212": np.ones(3)}}, "gamma['212']"),
    ({"upsilon": {"1": np.zeros(3)}}, "upsilon['1']")])
def test_surface_entry_that_does_not_broadcast_is_named(kw, name):
    # numpy's broadcast ValueError named no field
    with pytest.raises(DomainError, match=re.escape(
            f"{name} of shape (3,) does not broadcast to the grid shape "
            f"(6, 6)")):
        dataclasses.replace(cases.plane(6), **kw)


def test_surface_rejects_unknown_upsilon_key():
    # "9" was stored, and time_christoffels never read it
    with pytest.raises(DomainError, match="unknown upsilon key '9'"):
        dataclasses.replace(cases.plane(6), upsilon={"1": 0.0, "9": 1.0})


def test_surface_upsilon_is_broadcast_and_read_only():
    # a bad entry written after construction reached time_christoffels as
    # a raw numpy ValueError
    g = cases.plane(6).grid
    x, _ = g.meshes(sparse=True)
    s = dataclasses.replace(cases.plane(6),
                            upsilon={"1": x, "2": 0.5, "3": 0.0})
    for v in s.upsilon.values():
        assert v.shape == g.shape and not v.flags.writeable
    assert np.array_equal(s.upsilon["1"], np.broadcast_to(x, g.shape))
    with pytest.raises(TypeError):
        s.upsilon["2"] = 1.0
    assert np.abs(frames.time_christoffels(s)["c01a"] - 1).max() < 1e-12


def test_surface_gamma_is_read_only_after_construction():
    # an entry written later would skip the key and broadcast checks
    s = _flat_forms(cases.plane(6).grid, gamma={"212": 0.5})
    with pytest.raises(TypeError):
        s.gamma["999"] = 1.0
    with pytest.raises(TypeError):
        s.gamma["212"] = np.zeros(3)
    assert set(s.gamma) == {"111", "211", "112", "212", "122", "222"}


def _nonpositive_E():
    g = cases.plane(8).grid
    x, _ = g.meshes()
    _flat_forms(g, E=np.where(x > 0.5, 0.0, 1.0))  # zero for i >= 4


def _nonpositive_amplitude():
    # alpha = 2, k = 1 and m3 = 1/2 zero the first squared amplitude
    g = sg.GridSpec.make(sg.Axis("x", 6, 0.1), sg.Axis("y", 5, 0.1))
    one, zero = np.ones(g.shape), np.zeros(g.shape)
    m3 = np.full(g.shape, 0.2)
    m3[3, 2] = 0.5
    solitons.amplitude_phase("ishimori", one, zero, zero, zero, m3,
                             {"alpha_re": 2.0}, g, with_phase=True)


def _resonant_mode():
    # at a = -1/2 the symbol vanishes where half the x-frequency equals
    # the y-frequency, and q excites the mode (2, 1)
    g = sg.GridSpec.make(*(sg.Axis(a, 16, np.pi / 8, periodic=True)
                           for a in "xy"))
    x, y = g.meshes()
    q = np.exp(1j * (2 * x + y))
    solitons.build_lax("zii", {"q": q, "p": np.ones_like(q)},
                       {"a": -0.5, "b": 0.3}, grid=g)


@pytest.mark.parametrize("fails, message", [
    (_nonpositive_E, "E <= 0 first at grid index (4, 0)"),
    (_nonpositive_amplitude, "nonpositive amplitude at grid index (3, 2)"),
    (_resonant_mode, "resonant Fourier mode (2, 1) in temporal-entry solve"),
])
def test_grid_indices_print_as_plain_ints(fails, message):
    # numpy 2 prints the np.unravel_index entries as np.int64(4)
    with pytest.raises(DomainError) as exc:
        fails()
    assert str(exc.value) == message


def _unimodular_surface(seed=5, n=8):
    rng = np.random.default_rng(seed)
    g2 = sg.GridSpec.make(sg.Axis("x", n, 0.1), sg.Axis("y", n, 0.1))
    r = lambda: cases.random_smooth(g2, rng).real
    E = 1.2 + 0.2 * r()
    F = 0.2 * r()
    G = (1.0 + F**2) / E  # det of the first form pinned to 1
    gam = {k: r() for k in ("111", "211", "112", "212", "122", "222")}
    return frames.SurfaceData(g2, E, F, G, r(), r(), r(), gam,
                              r(), r(), r(), r())


def test_uvw_traceless_antihermitian():
    s = _unimodular_surface()
    U, V, W = frames.build_uvw(s)
    assert W is None
    for m in (U, V):
        tr = m.data[..., 0, 0] + m.data[..., 1, 1]
        assert np.abs(tr).max() < 1e-14
        assert np.abs(m.data + np.swapaxes(m.data, -1, -2).conj()).max() < 1e-14


def test_uvw_time_matrix_present_with_time_christoffels():
    s = _unimodular_surface()
    rng = np.random.default_rng(9)
    s = dataclasses.replace(s, gamma={
        **s.gamma, **{key: cases.random_smooth(s.grid, rng).real
                      for key in ("201", "203", "301")}})
    _, _, W = frames.build_uvw(s)
    assert W is not None
    assert np.abs(W.data[..., 0, 0] + W.data[..., 1, 1]).max() < 1e-14


def _adjoint(mat2):
    """3x3 adjoint action of a traceless 2x2 on the (sig3, sig2, sig1) basis."""
    basis = (SIG3, SIG2, SIG1)
    K = np.zeros(mat2.shape[:-2] + (3, 3), dtype=complex)
    for j in range(3):
        comm = basis[j] @ mat2 - mat2 @ basis[j]
        for k in range(3):
            K[..., j, k] = 0.5 * np.trace(comm @ basis[k], axis1=-2, axis2=-1)
    return K


def _frame_matrix_3x3(s, diag, gamma_term, wein):
    """3x3 frame-system matrix in the (e1, e2, e3) basis built from one
    column (diag, Christoffel, Weingarten) of the surface data."""
    sq = np.sqrt(s.E)
    m = np.zeros(s.grid.shape + (3, 3))
    m[..., 0, 1] = diag
    m[..., 0, 2] = -(s.g / sq) * gamma_term
    m[..., 1, 0] = -diag
    m[..., 1, 2] = -s.g * wein
    m[..., 2, 0] = (s.g / sq) * gamma_term
    m[..., 2, 1] = s.g * wein
    return m / sq[..., None, None]


def test_uvw_adjoint_is_frame_matrix():
    # the adjoint action of the 2x2 y-matrix reproduces the 3x3 frame matrix
    # on unit-determinant metrics (the two-to-one covering of rotations);
    # for the x-matrix the printed Christoffel off-diagonal carries the
    # opposite sign, so that term is flipped before comparing
    s = _unimodular_surface()
    assert np.abs(s.g - 1.0).max() < 1e-12
    U, V, _ = frames.build_uvw(s)
    B3 = _frame_matrix_3x3(s, s.M, s.gamma["212"], s.p22)
    assert np.abs(_adjoint(V.data) - B3).max() < 1e-12
    A3 = _frame_matrix_3x3(s, s.L, s.gamma["211"], s.p12)
    A3[..., 0, 2] *= -1
    A3[..., 2, 0] *= -1
    assert np.abs(_adjoint(U.data) - A3).max() < 1e-12


# --- reconstruction -----------------------------------------------------------

def test_reconstruct_plane_is_exact_linear():
    res = frames.reconstruct_surface(cases.plane(12))
    r = res.position.data
    x, y = res.position.grid.meshes()
    # flat data integrates to an exact affine patch
    expect = np.stack([x, np.zeros_like(x), -y], axis=-1)
    assert np.abs(r - expect).max() < 1e-12
    assert res.mixed_partial_defect < 1e-12
    hmin = min(a.h for a in res.position.grid.axes)
    assert res.gmce_residual_max <= 10 * hmin**2


def _assert_shape_converges(name):
    errs = [cases.surface_shape_error(
        name, frames.reconstruct_surface(cases.SURFACE_CASES[name](n)))
        for n in (9, 17, 33)]
    assert errs[-1] < 2e-3
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.3)


def test_reconstruct_sphere_radius_converges():
    _assert_shape_converges("sphere-patch")


def test_reconstruct_cylinder_radius_converges():
    _assert_shape_converges("cylinder")


def _result(r, normal):
    g = sg.GridSpec.make(sg.Axis("x", r.shape[0], 0.1),
                         sg.Axis("y", r.shape[1], 0.1))
    return frames.ReconstructionResult(frames.PositionField(g, r), normal,
                                       0.0, 0.0)


@pytest.mark.parametrize("delta", [0.0, 1e-3, -0.02, 0.5])
def test_shape_error_reads_the_offset_of_exact_points(delta):
    # every point off the first row lies at radius 1 + delta; the anchor
    # r[0, 0] and its unit normal fix the centre or, with r[0, 1], the axis
    a, b = np.meshgrid(np.linspace(-0.5, 0.5, 6), np.linspace(0.1, 1.0, 5),
                       indexing="ij")
    rho = np.full(a.shape, 1.0 + delta)
    rho[0] = 1.0
    centre = np.array([0.3, -1.2, 2.0])
    u = np.stack([np.cos(a) * np.cos(b), np.cos(a) * np.sin(b), np.sin(a)],
                 axis=-1)
    sphere = centre + rho[..., None] * u
    # inward normal: r0 + n0 is the centre
    got = cases.surface_shape_error("sphere-patch",
                                    _result(sphere, -np.broadcast_to(
                                        u, sphere.shape)))
    assert got == pytest.approx(abs(delta), abs=1e-14)
    # unit cylinder around the axis (0, 0, 1) through centre: x is the
    # angle and y the height, so r[0, 1] - r[0, 0] runs along the axis
    w = np.stack([np.cos(a), np.sin(a), np.zeros_like(a)], axis=-1)
    cyl = centre + rho[..., None] * w
    cyl[..., 2] += b
    got = cases.surface_shape_error(
        "cylinder", _result(cyl, np.broadcast_to(w, cyl.shape)))
    assert got == pytest.approx(abs(delta), abs=1e-14)


def test_shape_error_reads_a_tilted_plane_offset():
    # the plane through r0 with unit normal n0, tilted off every axis; one
    # point sits off it by `off` along n0
    n0 = np.array([1.0, 2.0, 2.0]) / 3.0
    t1 = np.array([2.0, -1.0, 0.0]) / np.sqrt(5.0)
    t2 = np.cross(n0, t1)
    a, b = np.meshgrid(np.arange(5.0), np.arange(4.0), indexing="ij")
    r = np.array([0.5, 0.5, -1.0]) + a[..., None] * t1 + b[..., None] * t2
    normal = np.broadcast_to(n0, r.shape)
    assert cases.surface_shape_error("plane", _result(r, normal)) \
        <= 1e-14
    off = -0.037
    r[3, 2] += off * n0
    assert cases.surface_shape_error("plane", _result(r, normal)) \
        == pytest.approx(abs(off), abs=1e-14)


def test_shape_error_rejects_an_unknown_case():
    res = frames.reconstruct_surface(cases.plane(8))
    with pytest.raises(DomainError, match="no known shape .*'torus'"):
        cases.surface_shape_error("torus", res)


def test_reconstruct_matches_row_by_row_sweep():
    # reference: one expm per step, the x-sweep along y_min and then each
    # x-row's y-sweep on its own
    s = cases.sphere_patch(33)
    res = frames.reconstruct_surface(s)
    A, B = frames.gwe_matrices(s)
    hx, hy = s.grid.axis("x").h, s.grid.axis("y").h
    nx, ny = s.grid.shape
    e1, e2, e3 = np.eye(3)
    E0, F0, g0 = s.E[0, 0], s.F[0, 0], s.g[0, 0]
    Z = np.empty((nx, ny, 3, 3))
    Z[0, 0] = [np.sqrt(E0) * e1,
               (F0 / np.sqrt(E0)) * e1 - np.sqrt(g0 / E0) * e3, e2]
    for i in range(nx - 1):
        step = liealg.expm(hx * 0.5 * (A.data[i, 0] + A.data[i + 1, 0]))
        Z[i + 1, 0] = step @ Z[i, 0]
    for i in range(nx):
        for j in range(ny - 1):
            step = liealg.expm(hy * 0.5 * (B.data[i, j] + B.data[i, j + 1]))
            Z[i, j + 1] = step @ Z[i, j]
    assert np.abs(res.normal - Z[..., 2, :]).max() <= 1e-14
    rx, ry = Z[..., 0, :], Z[..., 1, :]
    r = np.zeros((nx, ny, 3))
    r[1:, 0] = np.cumsum(0.5 * hx * (rx[:-1, 0] + rx[1:, 0]), axis=0)
    r[:, 1:] = r[:, :1] + np.cumsum(0.5 * hy * (ry[:, :-1] + ry[:, 1:]),
                                    axis=1)
    assert np.abs(res.position.data - r).max() <= 1e-14


def test_reconstruct_mixed_partial_defect_budget():
    s = cases.sphere_patch(17)
    res = frames.reconstruct_surface(s)
    h = max(s.grid.axis("x").h, s.grid.axis("y").h)
    assert res.mixed_partial_defect <= 10 * h * h


def test_reconstruct_flags_incompatible_forms():
    # above 10 h_min^2, the tol that `solgeo surface` gates it at
    s = cases.sphere_patch(17)
    bad = frames.SurfaceData(s.grid, s.E, s.F, s.G, s.L + 0.5, s.M, s.N,
                             s.gamma, s.p11, s.p12, s.p21, s.p22)
    res = frames.reconstruct_surface(bad)
    hmin = min(a.h for a in s.grid.axes)
    assert res.gmce_residual_max > 10 * hmin**2


def test_gmce_residual_sphere_small():
    A, B = frames.gwe_matrices(cases.sphere_patch(33))
    res = zerocurv.zc_residual("gmce", {"A": A, "B": B})["xy"]
    # analytic forms: the residual is pure finite-difference error
    assert np.abs(res).max() < 5e-3


# --- velocities and time Christoffels -----------------------------------------

def test_mI_velocities_sphere():
    s = cases.sphere_patch(16)
    x = s.grid.coords("x")[:, None]
    y1, y2, y3 = frames.mI_velocities(s)
    assert np.abs(y3 - (-np.sin(x))).max() < 1e-13
    assert np.abs(y2).max() == 0
    # u integrates -sin x from the x-minimum, so y1 = cos x - cos x0
    expect = np.cos(x) - np.cos(x[0])
    assert np.abs(y1 - expect).max() < 2e-3


def test_mI_velocities_explicit_u_passthrough():
    s = cases.cylinder(8)
    u = np.full(s.grid.shape, 0.7)
    y1, y2, y3 = frames.mI_velocities(s, u=u)
    assert np.array_equal(y1, u)
    assert np.abs(y2).max() == 0 and np.abs(y3).max() == 0


def test_time_christoffels_linear_fields_exact():
    s = cases.plane(9)
    x, y = s.grid.meshes()
    ups = {"1": 2 * x + y, "2": x - y, "3": 3 * x}
    s2 = frames.SurfaceData(s.grid, s.E, s.F, s.G, s.L, s.M, s.N, s.gamma,
                            s.p11, s.p12, s.p21, s.p22, upsilon=ups)
    out = frames.time_christoffels(s2)
    # plane: all Christoffels and form coefficients vanish, leaving d/dx
    assert np.abs(out["c01a"] - 2).max() < 1e-12
    assert np.abs(out["c01b"] - 1).max() < 1e-12
    assert np.abs(out["c01c"] - 3).max() < 1e-12
    assert "p01" not in out


def test_time_christoffels_requires_upsilon():
    with pytest.raises(DomainError):
        frames.time_christoffels(cases.plane(8))


def test_export_obj(tmp_path):
    res = frames.reconstruct_surface(cases.plane(5))
    p = tmp_path / "plane.obj"
    frames.export_obj(p, res.position)
    lines = p.read_text().splitlines()
    assert sum(1 for ln in lines if ln.startswith("v ")) == 25
    assert sum(1 for ln in lines if ln.startswith("f ")) == 16
