import tracemalloc

import numpy as np
import pytest

from solgeo import cases, frames, liealg, zerocurv
from solgeo import grid as sg
from solgeo.cli import RATIO_WINDOW
from solgeo.errors import DomainError


def _grid3(n=10, h=0.1):
    return sg.GridSpec.make(sg.Axis("x", n, h), sg.Axis("y", n, h),
                            sg.Axis("t", n, h))


def _grid4(n=8, h=0.1):
    return sg.GridSpec.make(*(sg.Axis(f"xi{i}", n, h) for i in (1, 2, 3, 4)))


def _zero_conn(g, names, m=3):
    data = np.zeros(g.shape + (m, m))
    return {n: sg.MatrixField(g, data.copy()) for n in names}


def test_zero_connection_gives_zero_residual_everywhere():
    g3 = _grid3(6)
    g4 = _grid4(6)
    for system, names, gg, params in [
        ("gmce", ("A", "B"), g3, None),
        ("mlxii", ("A", "B", "C"), g3, None),
        ("bogomolny", ("Phi", "A", "B", "C"), g3, None),
        ("mlxx3d", ("B", "D"), g4, {"b": 0.7}),
        ("sdym3d", ("A1", "A2", "A3", "A4"), g4, None),
        ("mlxii4d", ("A", "B", "C", "D"), g4, None),
        ("mlxx4d", ("A", "B", "C", "D"), g4, None),
        ("mlxx4d_scalar", ("B", "D"), g4, {"a": 0.3, "b": 0.7}),
        ("sdym4d", ("A1", "A2", "A3", "A4"), g4, None),
    ]:
        res = zerocurv.zc_residual(system, _zero_conn(gg, names), params)
        for key, arr in res.items():
            assert np.abs(arr).max() == 0, (system, key)
        if system == "mlxx4d":
            continue
        axial = {n: sg.AxialField(gg, np.zeros(gg.shape + (3,)))
                 for n in names}
        for key, arr in zerocurv.zc_residual(system, axial, params).items():
            assert arr.shape == gg.shape + (3,) and not arr.any(), (system, key)


@pytest.mark.parametrize("system, params, name", [
    ("mlxx3d", None, "b"), ("mlxx3d", {"b": np.nan}, "b"),
    ("mlxx4d_scalar", {"b": 0.7}, "a"), ("mlxx4d_scalar", {"a": 0.3}, "b"),
    ("mlxx4d_scalar", {"a": 0.3, "b": np.inf}, "b"),
])
def test_missing_or_nonfinite_system_parameter_is_named(system, params, name):
    # a missing one raised a bare KeyError
    conn = _zero_conn(_grid4(6), ("B", "D"))
    with pytest.raises(DomainError, match=f"parameter '{name}'"):
        zerocurv.zc_residual(system, conn, params)


def test_unknown_system_and_missing_fields():
    g = _grid3(6)
    with pytest.raises(DomainError):
        zerocurv.zc_residual("nope", _zero_conn(g, ("A", "B")))
    # the U, V, W spelling of mlxii is gone
    with pytest.raises(DomainError, match="unknown system"):
        zerocurv.zc_residual("uvw", _zero_conn(g, ("U", "V", "W")))
    with pytest.raises(DomainError):
        zerocurv.zc_residual("mlxii", _zero_conn(g, ("A", "B")))
    mixed = _zero_conn(g, ("A", "B"))
    mixed["C"] = sg.MatrixField(_grid3(7), np.zeros((7, 7, 7, 3, 3)))
    with pytest.raises(DomainError):
        zerocurv.zc_residual("mlxii", mixed)


def test_flat_connection_residual_converges():
    # the manufactured rotation-field connection is exactly flat, so the
    # residual of each line is pure second-order discretization error
    maxima = []
    for n in (9, 17, 33):
        conn = cases.pure_gauge_connection(cases.default_grid_gauge(n))
        res = zerocurv.zc_residual("mlxii", conn)
        maxima.append(max(np.abs(a).max() for a in res.values()))
    assert maxima[0] / maxima[1] == pytest.approx(4.0, rel=0.35)
    assert maxima[1] / maxima[2] == pytest.approx(4.0, rel=0.35)


def _pure_gauge_reference(grid, axes, perturb):
    """The rotation-product form of the pure-gauge builder:
    A_mu = phi_mu Jz + psi_mu Rz(phi) Jx Rz(phi)^T on dense meshes."""
    jz = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    jx = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    m = dict(zip(grid.names, grid.meshes()))
    x, y, t = (m.get(a, 0.0) for a in ("x", "y", "t"))
    full = lambda v: np.broadcast_to(v, grid.shape)[..., None, None]
    phi = np.broadcast_to(0.5 * np.sin(x) * np.cos(y) + 0.3 * np.sin(t),
                          grid.shape)
    dphi = {"x": 0.5 * np.cos(x) * np.cos(y),
            "y": -0.5 * np.sin(x) * np.sin(y), "t": 0.3 * np.cos(t)}
    dpsi = {"x": -0.4 * np.sin(x) * np.sin(y),
            "y": 0.4 * np.cos(x) * np.cos(y), "t": -0.2 * np.sin(t)}
    rz = np.zeros(grid.shape + (3, 3))
    rz[..., 0, 0] = rz[..., 1, 1] = np.cos(phi)
    rz[..., 1, 0] = np.sin(phi)
    rz[..., 0, 1] = -np.sin(phi)
    rz[..., 2, 2] = 1.0
    conj_jx = rz @ jx @ np.swapaxes(rz, -1, -2)
    out = {key: full(dphi[ax]) * jz + full(dpsi[ax]) * conj_jx
           for ax, key in zip(("x", "y", "t"), ("A", "B", "C")) if ax in axes}
    if perturb:
        out["B"] = out["B"] + perturb * full(np.sin(x) * np.cos(y)) * jz
    return out


@pytest.mark.parametrize("perturb", [0.0, 0.2])
@pytest.mark.parametrize("names", ["xyt", "xy"])
def test_pure_gauge_matches_rotation_product(names, perturb):
    h = 1.0 / 8
    grid = sg.GridSpec.make(*(sg.Axis(a, 9, h, origin=-0.3 * i)
                              for i, a in enumerate(names)))
    axes = tuple(names)
    conn = cases.pure_gauge_connection(grid, axes=axes, perturb=perturb)
    ref = _pure_gauge_reference(grid, axes, perturb)
    assert set(conn) == set(ref)
    for key, f in conn.items():
        assert isinstance(f, sg.AxialField)
        assert f.grid == grid and f.data.shape == grid.shape + (3,)
        assert np.array_equal(liealg.hat(f.data), ref[key]), key


@pytest.mark.parametrize("perturb", [0.0, 0.2])
@pytest.mark.parametrize("system", ["gmce", "mlxii"])
def test_axial_residual_hats_to_the_matrix_residual(system, perturb):
    # the cross product and 3-component differences give the matrix
    # residual of the hatted connection entry for entry
    axes = ("x", "y") if system == "gmce" else ("x", "y", "t")
    conn = cases.pure_gauge_connection(cases.default_grid_gauge(9),
                                       axes=axes, perturb=perturb)
    mats = {k: sg.MatrixField(f.grid, liealg.hat(f.data))
            for k, f in conn.items()}
    got = zerocurv.zc_residual(system, conn)
    ref = zerocurv.zc_residual(system, mats)
    assert set(got) == set(ref)
    for key, r in got.items():
        assert r.shape == conn["A"].grid.shape + (3,)
        assert np.abs(r).max() > 0
        assert np.array_equal(liealg.hat(r), ref[key]), key


def test_axial_connections_reject_mixing_and_matrix_products():
    g = _grid3(6)
    conn = cases.pure_gauge_connection(g)
    mixed = dict(conn, C=sg.MatrixField(g, liealg.hat(conn["C"].data)))
    with pytest.raises(DomainError, match="all matrix or all axial"):
        zerocurv.zc_residual("mlxii", mixed)
    g4 = _grid4(6)
    axial = {n: sg.AxialField(g4, np.ones(g4.shape + (3,))) for n in "ABCD"}
    with pytest.raises(DomainError, match="mlxx4d multiplies matrices"):
        zerocurv.zc_residual("mlxx4d", axial)


def test_pure_gauge_paths_never_call_the_matrix_commutator(monkeypatch):
    def refuse(*args):
        raise AssertionError("matrix commutator on a pure-gauge path")

    monkeypatch.setattr(zerocurv, "commutator", refuse)
    monkeypatch.setattr(liealg, "commutator", refuse)
    for system in ("mlxii", "gmce"):
        assert 0 < cases.pure_gauge_defect(system, 17) < 2e-3
    g2 = sg.GridSpec.make(sg.Axis("x", 9, 0.125), sg.Axis("y", 9, 0.125))
    conn = cases.pure_gauge_connection(g2, axes=("x", "y"))
    assert frames.commutation_defect_2d(frames.FrameTriad.standard(),
                                        conn["A"], conn["B"]) > 0


@pytest.mark.parametrize("axes, perturb, match", [
    (("x", "t"), 0.1, "must include y"),
    (("x", "z"), 0.0, "choose from x, y, t"),
])
def test_pure_gauge_bad_axes_are_domain_errors(axes, perturb, match):
    # the perturbation lives in B, the y-potential, and only x, y, t have
    # a potential; either mistake was a bare KeyError
    with pytest.raises(DomainError, match=match):
        cases.pure_gauge_connection(cases.default_grid_gauge(6), axes=axes,
                                    perturb=perturb)


def test_hot_builders_build_no_dense_meshes(monkeypatch):
    # the grid-kernel builders broadcast sparse coordinates; a dense mesh
    # here costs a full-grid copy per axis
    meshes = sg.GridSpec.meshes

    def sparse_only(self, sparse=False):
        if not sparse:
            raise AssertionError("dense meshes built")
        return meshes(self, sparse=True)

    monkeypatch.setattr(sg.GridSpec, "meshes", sparse_only)
    cases.pure_gauge_connection(cases.default_grid_gauge(6), perturb=0.1)
    f = zerocurv.lambda_field("sdym_xi", cases.LAMBDA_PARAMS[1],
                              cases.default_grid_xi(6))
    assert f.lam.shape == (6, 6, 6, 6)
    wave = cases.planewave("zi")["q"] + 0.5
    assert wave.sample(cases.default_grid_xyt(6)).shape == (6, 6, 6)


@pytest.mark.parametrize("system, bound", [("gmce", 2.5), ("mlxii", 4.5)])
def test_zc_residual_live_set_is_bounded(system, bound):
    # each line is one expression, so numpy reuses the derivative's buffer
    # for the difference and the sum: 2.05 and 4.05 stacks here, where a
    # temporary bound to a name costs one more stack (3.0 and 5.0)
    axes = ("x", "y") if system == "gmce" else ("x", "y", "t")
    conn = cases.pure_gauge_connection(cases.default_grid_gauge(33),
                                       axes=axes)
    stack = conn["A"].data.nbytes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = zerocurv.zc_residual(system, conn)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(res) == len(axes) * (len(axes) - 1) // 2
    assert peak <= bound * stack, peak / stack


_SYSTEM_PARAMS = {"mlxx3d": {"b": 0.7}, "mlxx4d_scalar": {"a": 0.3, "b": 0.7}}


@pytest.mark.parametrize("system", sorted(zerocurv._SYSTEMS))
def test_zc_residual_is_the_dict_of_its_lines(system):
    # one path per residual set: the generator's lines, taken one at a
    # time, are zc_residual's entries bit for bit and in row order
    names = tuple(zerocurv._SYSTEMS[system][0])
    g = _grid3(6) if system in ("gmce", "mlxii", "bogomolny") else _grid4(6)
    conn = cases.random_connection(g, np.random.default_rng(7), names=names)
    params = _SYSTEM_PARAMS.get(system)
    res = zerocurv.zc_residual(system, conn, params)
    lines = [(k, r.copy()) for k, r in
             zerocurv.residual_lines(system, conn, params)]
    assert [k for k, _ in lines] == list(zerocurv._SYSTEMS[system][1])
    assert [k for k, _ in lines] == list(res)
    for key, r in lines:
        assert np.abs(r).max() > 0, key
        assert np.array_equal(r, res[key]), key


@pytest.mark.parametrize("kind, params, grid", [
    ("sdym_xi", cases.LAMBDA_PARAMS[1], _grid4(8)),
    ("mlxii_complex", {"a1": 0.5, "a2": 0.2, "a3": 0.1, "a4": 1.0},
     sg.GridSpec.make(*(sg.Axis(a, 8, 0.04) for a in ("x", "y", "t", "xi1")))),
])
def test_lambda_residual_is_the_dict_of_its_lines(kind, params, grid):
    f = zerocurv.lambda_field(kind, params, grid)
    res = zerocurv.lambda_residual(f)
    mask = res.pop("mask")
    assert np.array_equal(mask, f.mask) and mask is not f.mask
    lines = [(k, r.copy()) for k, r in zerocurv.lambda_lines(f)]
    assert [k for k, _ in lines] == list(res)
    for key, r in lines:
        assert np.abs(r).max() > 0, key
        assert np.array_equal(r, res[key]), key


def _tracemalloc_peak(fn):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        value = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return value, peak


def test_pure_gauge_defect_holds_one_line_at_a_time():
    # the connection (3 stacks) and one line in flight: 5.10 stacks here,
    # where all three lines and an |r| temporary held 7.10
    n = 33
    stack = n**3 * 3 * 8
    defect, peak = _tracemalloc_peak(
        lambda: cases.pure_gauge_defect("mlxii", n))
    assert 0 < defect < 1e-3
    assert peak <= 5.2 * stack, peak / stack


def test_lambda_defect_holds_one_line_at_a_time():
    # lam and one line in flight: 3.33 real stacks here, where both lines
    # and an |r| temporary held 4.32
    n = 16
    stack = n**4 * 8
    defect, peak = _tracemalloc_peak(
        lambda: cases.lambda_defect(cases.LAMBDA_PARAMS[1], n))
    assert 0 < defect < 1e-2
    assert peak <= 3.4 * stack, peak / stack


def test_pure_gauge_defect_keeps_a_nan_in_a_later_line(monkeypatch):
    # the third bracket is the yt line's: a worst-of fold by Python's max
    # kept the first line's max against it
    calls = []

    def nan_yt(a, b):
        out = liealg.cross(a, b)
        calls.append(1)
        if len(calls) == 3:
            out[0, 0, 0, 0] = np.nan
        return out
    monkeypatch.setattr(zerocurv, "cross", nan_yt)
    assert np.isnan(cases.pure_gauge_defect("mlxii", 9))


def test_lambda_defect_keeps_a_nan_in_a_later_line(monkeypatch):
    # d/dxi4 enters the xi24 line alone
    partial = sg.partial_data

    def nan_xi4(f, g, axis):
        out = partial(f, g, axis)
        if axis == "xi4":
            out[0, 0, 0, 0] = np.nan
        return out
    monkeypatch.setattr(sg, "partial_data", nan_xi4)
    assert np.isnan(cases.lambda_defect(cases.LAMBDA_PARAMS[1], 8))


def test_selfdual_defect_keeps_a_nan_in_a_later_component():
    # "14" pairs with "23": neither is the first component compared
    g = _grid4(4)
    comps = {k: np.zeros(g.shape + (2, 2)) for k in zerocurv._PAIRS}
    comps["14"][0, 0, 0, 0, 0, 0] = np.nan
    F = zerocurv.Curvature2Form(g, comps)
    assert np.isnan(zerocurv.selfdual_defect(F))


def test_abs_max_is_the_max_of_abs_to_the_bit():
    rng = np.random.default_rng(11)
    for r in (rng.normal(size=(5, 7)), -np.abs(rng.normal(size=9)),
              rng.normal(size=6) + 1j * rng.normal(size=6)):
        assert zerocurv.abs_max(r) == np.abs(r).max()
    zero = zerocurv.abs_max(np.array([-0.0, -0.0]))
    assert zero == 0 and not np.signbit(zero)
    assert np.isnan(zerocurv.abs_max(np.array([1.0, np.nan, -2.0])))


def test_perturbed_connection_residual_stalls():
    maxima = []
    for n in (9, 17, 33):
        conn = cases.pure_gauge_connection(cases.default_grid_gauge(n),
                                           perturb=0.2)
        res = zerocurv.zc_residual("mlxii", conn)
        maxima.append(max(np.abs(a).max() for a in res.values()))
    assert maxima[-1] > 0.05
    assert abs(maxima[-1] - maxima[-2]) / maxima[-1] < 0.05


def test_bogomolny_zero_higgs_reduces_to_three_matrix_system():
    g = _grid3(8)
    rng = np.random.default_rng(3)
    conn = cases.random_connection(g, rng)
    conn4 = dict(conn)
    conn4["Phi"] = sg.MatrixField(g, np.zeros(g.shape + (3, 3), dtype=complex))
    rb = zerocurv.zc_residual("bogomolny", conn4)
    r3 = zerocurv.zc_residual("mlxii", conn)
    assert np.abs(rb["t"] - r3["xy"]).max() < 1e-13
    assert np.abs(rb["y"] + r3["xt"]).max() < 1e-13
    assert np.abs(rb["x"] - r3["yt"]).max() < 1e-13


def test_scalar_pencil_matches_four_potential_residuals():
    # for 1x1 potentials the two-potential pencil residual at parameter
    # values (a, b) = (lam, lam) is quadratic in lam; its coefficients are
    # exactly minus the three four-potential self-duality residual lines
    g = _grid4(8)
    rng = np.random.default_rng(4)
    pots = cases.random_connection(g, rng, names=("A1", "A2", "A3", "A4"), m=1)
    sd = zerocurv.zc_residual("sdym4d", pots)

    def pencil(lam):
        B = sg.MatrixField(g, pots["A1"].data - lam * pots["A3"].data)
        D = sg.MatrixField(g, pots["A2"].data - lam * pots["A4"].data)
        res = zerocurv.zc_residual("mlxx4d_scalar", {"B": B, "D": D},
                                   {"a": lam, "b": lam})
        return res["r"]

    r0, rp, rm = pencil(0.0), pencil(1.0), pencil(-1.0)
    c0 = r0
    c2 = 0.5 * (rp + rm) - c0
    c1 = 0.5 * (rp - rm)
    assert np.abs(c0 + sd["a"]).max() < 1e-13
    assert np.abs(c1 + sd["c"]).max() < 1e-13
    assert np.abs(c2 + sd["b"]).max() < 1e-13


# --- flat connections for the 4D and Bogomolny systems -----------------------

# wave vectors of phi = 0.5 sin(k.xi) + 0.3 cos(k'.xi) and
# psi = 0.4 cos(m.xi) + 0.2 sin(m'.xi); a 3D grid takes the first three
# components
_WAVES = ((1.0, -0.7, 0.5, 0.8), (0.4, 0.9, -0.6, 0.3),
          (-0.6, 0.5, 0.9, -0.4), (0.8, 0.3, 0.4, 0.7))
_PHI0 = np.array([0.3, -0.5, 0.8])
_PENCIL = {"a": 0.6, "b": -0.8}
_FLAT_LEVELS = (7, 13, 25)


def _rotation_field(grid):
    """Axial potentials A_mu = d_mu R R^-1 = (psi_mu cos phi, psi_mu sin phi,
    phi_mu), one per axis of grid, of R = Rz(phi) Rx(psi) with the
    gradients in closed form, and the matrices R."""
    xs = grid.meshes(sparse=True)
    k, k2, m, m2 = _WAVES
    pk, pk2, pm, pm2 = (sum(c * x for c, x in zip(w, xs)) for w in _WAVES)
    phi = 0.5 * np.sin(pk) + 0.3 * np.cos(pk2)
    psi = 0.4 * np.cos(pm) + 0.2 * np.sin(pm2)
    cos_phi, sin_phi = np.cos(phi), np.sin(phi)
    cos_k, sin_k2 = np.cos(pk), np.sin(pk2)
    sin_m, cos_m2 = np.sin(pm), np.cos(pm2)
    pots = []
    for i in range(len(xs)):
        dpsi = -0.4 * m[i] * sin_m + 0.2 * m2[i] * cos_m2
        a = np.empty(grid.shape + (3,))
        a[..., 0] = dpsi * cos_phi
        a[..., 1] = dpsi * sin_phi
        a[..., 2] = 0.5 * k[i] * cos_k - 0.3 * k2[i] * sin_k2
        pots.append(a)
    cos_psi, sin_psi = np.cos(psi), np.sin(psi)
    R = liealg.matrices([[cos_phi, -sin_phi * cos_psi, sin_phi * sin_psi],
                         [sin_phi, cos_phi * cos_psi, -cos_phi * sin_psi],
                         [0, sin_psi, cos_psi]], grid.shape)
    return pots, R


def _flat_fixtures(n, control=None):
    """{system: (connection, params)} of flat connections at n points per
    axis.  The 4D systems take A_mu, along commuting directions for the
    pencils; bogomolny takes the 3D A_mu with the covariantly constant
    Higgs field Phi = R phi0, and sdym3d, which never differentiates along
    xi3, the same fields with A3 = R phi0 on the (xi1, xi2, xi4) grid.
    control "negated" flips every field's sign, "constant" leaves Phi and
    A3 at the untransported phi0."""
    h = 1.0 / (n - 1)
    sign = -1.0 if control == "negated" else 1.0
    g4 = sg.GridSpec.make(*(sg.Axis(f"xi{i}", n, h) for i in (1, 2, 3, 4)))
    (a1, a2, a3, a4), _ = _rotation_field(g4)
    a, b = _PENCIL["a"], _PENCIL["b"]
    f4 = lambda d: sg.AxialField(g4, sign * d)
    (ax, ay, at), R = _rotation_field(sg.GridSpec.make(
        *(sg.Axis(c, n, h) for c in "xyt")))
    rphi0 = R @ _PHI0
    if control == "constant":
        rphi0 = np.broadcast_to(_PHI0, rphi0.shape)
    out = {
        "sdym4d": ({"A1": f4(a1), "A2": f4(a2), "A3": f4(a3), "A4": f4(a4)},
                   None),
        "mlxii4d": ({"A": f4(a1), "B": f4(a2), "C": f4(a3), "D": f4(a4)},
                    None),
        "mlxx3d": ({"B": f4(a1), "D": f4(a2 - b * a4)}, {"b": b}),
        "mlxx4d_scalar": ({"B": f4(a1 - a * a3), "D": f4(a2 - b * a4)},
                          _PENCIL),
    }
    for system, axes, names in (
            ("bogomolny", "xyt", ("A", "B", "C", "Phi")),
            ("sdym3d", ("xi1", "xi2", "xi4"), ("A1", "A2", "A4", "A3"))):
        g = sg.GridSpec.make(*(sg.Axis(c, n, h) for c in axes))
        fields = (ax, ay, at, rphi0)
        out[system] = ({k: sg.AxialField(g, sign * d)
                        for k, d in zip(names, fields)}, None)
    return out


# the commuting constant coefficients of the mlxx4d pencil, and a C0 that
# does not commute with A0
_A0, _C0 = np.diag([0.6, -0.3, 0.9]), np.diag([-0.8, 0.5, 0.2])
_C0_SKEWED = np.array([[-0.8, 0.4, 0.0], [0.4, 0.5, 0.0], [0.0, 0.0, 0.2]])


def _mlxx4d_fixture(n, control=None):
    """The flat mlxx4d connection with matrix coefficients at n points per
    axis: the operators R (d1 - A0 d3) R^-1 and R (d2 - C0 d4) R^-1 commute,
    so A = R A0 R^T, B = hat(a1) - A hat(a3), C = R C0 R^T and
    D = hat(a2) - C hat(a4) solve every line.  control "flipped" flips the
    sign of A hat(a3) in B, "constant" leaves A at A0, and "noncommuting"
    takes a C0 that does not commute with A0."""
    h = 1.0 / (n - 1)
    g4 = sg.GridSpec.make(*(sg.Axis(f"xi{i}", n, h) for i in (1, 2, 3, 4)))
    (a1, a2, a3, a4), R = _rotation_field(g4)
    Rt = np.swapaxes(R, -1, -2)
    A = np.broadcast_to(_A0, R.shape) if control == "constant" else R @ _A0 @ Rt
    C = R @ (_C0_SKEWED if control == "noncommuting" else _C0) @ Rt
    sign = -1.0 if control == "flipped" else 1.0
    B = liealg.hat(a1) - sign * A @ liealg.hat(a3)
    D = liealg.hat(a2) - C @ liealg.hat(a4)
    return {k: sg.MatrixField(g4, np.ascontiguousarray(v))
            for k, v in zip("ABCD", (A, B, C, D))}


def _worst(system, fixture):
    conn, params = fixture
    res = zerocurv.zc_residual(system, conn, params)
    return max(float(np.abs(r).max()) for r in res.values())


@pytest.fixture(scope="module")
def flat_maxima():
    # one field set per level, shared by every system
    maxima = {}
    for n in _FLAT_LEVELS:
        for system, fixture in _flat_fixtures(n).items():
            maxima.setdefault(system, []).append(_worst(system, fixture))
    return maxima


@pytest.mark.parametrize("system", ["sdym4d", "mlxii4d", "mlxx3d",
                                    "mlxx4d_scalar", "bogomolny", "sdym3d"])
def test_flat_connection_refines_for_4d_and_bogomolny_systems(flat_maxima,
                                                              system):
    # every line is pure second-order discretization error: 7.4e-3,
    # 1.9e-3, 4.6e-4 for sdym4d (each system reads 3.6e-3 to 8.3e-3 at
    # n = 7, and its ratios lie in 3.75-4.10)
    maxima = flat_maxima[system]
    for coarse, fine in zip(maxima, maxima[1:]):
        assert RATIO_WINDOW[0] <= coarse / fine <= RATIO_WINDOW[1], maxima


@pytest.mark.parametrize("control", ["negated", "constant"])
def test_flat_connection_controls_stay_order_one(control):
    # the negated potential has the wrong bracket sign (0.24 to 0.97 at
    # n = 13), and an untransported constant Phi or A3 has nonzero
    # brackets with A_mu (0.38, 0.32): both stay order one
    systems = (("bogomolny", "sdym3d") if control == "constant"
               else ("sdym4d", "mlxii4d", "mlxx3d", "mlxx4d_scalar",
                     "bogomolny", "sdym3d"))
    fixtures = _flat_fixtures(_FLAT_LEVELS[1], control)
    for system in systems:
        assert _worst(system, fixtures[system]) > 0.1, system


def test_flat_mlxx4d_with_matrix_coefficients_refines():
    # lines a, b and d are second-order discretization error (1.4e-2,
    # 3.7e-3, 9.5e-4 for a; ratios 3.75-3.92); line c is [A, C] =
    # R [A0, C0] R^T, zero up to round-off
    maxima = {}
    for n in _FLAT_LEVELS:
        for key, r in zerocurv.residual_lines("mlxx4d", _mlxx4d_fixture(n)):
            maxima.setdefault(key, []).append(float(np.abs(r).max()))
            del r
    assert set(maxima) == {"a", "b", "c", "d"}
    assert max(maxima["c"]) <= 1e-14, maxima
    for key in ("a", "b", "d"):
        m = maxima[key]
        for coarse, fine in zip(m, m[1:]):
            assert RATIO_WINDOW[0] <= coarse / fine <= RATIO_WINDOW[1], maxima


@pytest.mark.parametrize("control", ["flipped", "constant", "noncommuting"])
def test_flat_mlxx4d_controls_stay_order_one(control):
    # the oracle reads 4.0e-3 at n = 13; a wrong B sign, an unrotated A or a
    # C0 off A0's eigenbasis leave an order-one bracket
    conn = _mlxx4d_fixture(_FLAT_LEVELS[1], control)
    assert _worst("mlxx4d", (conn, None)) > 0.1


# --- embedding ----------------------------------------------------------------

def test_embed_sdym_slots():
    g = _grid3(6)
    rng = np.random.default_rng(5)
    conn = cases.random_connection(g, rng)
    pot = zerocurv.embed_sdym(conn["A"], conn["B"], conn["C"])
    assert np.array_equal(pot["a"].data, -1j * conn["C"].data)
    assert np.array_equal(pot["abar"].data, -pot["a"].data)
    assert np.abs(pot["b"].data + pot["bbar"].data
                  - 2 * conn["A"].data).max() < 1e-14
    assert np.abs(pot["bbar"].data - pot["b"].data
                  - 2j * conn["B"].data).max() < 1e-14


@pytest.mark.parametrize("seed", range(5))
def test_embedding_identity_random_connections(seed):
    # algebraic identity between the complex-coordinate self-duality
    # residuals of the embedded potential and the three-matrix residuals;
    # exact at the discrete level, so machine precision on any smooth data
    g = _grid3(8)
    rng = np.random.default_rng(seed)
    conn = cases.random_connection(g, rng)
    defect = zerocurv.embedding_identity_defect(conn["A"], conn["B"], conn["C"])
    assert defect <= 1e-13


def test_embedding_identity_live_set_is_bounded():
    # the check streams its three identity lines through one scratch array
    # and lets the potentials and the negated connection die inside the
    # calls that use them; unstreamed, the peak was 17.0 input stacks here
    conn = cases.random_connection(_grid3(16), np.random.default_rng(4242))
    stack = conn["A"].data.nbytes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        defect = zerocurv.embedding_identity_defect(conn["A"], conn["B"],
                                                    conn["C"])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert defect <= 1e-13
    assert peak <= 13 * stack, peak / stack


def test_embedding_identity_defect_keeps_a_nan_in_a_later_line(monkeypatch):
    # a NaN in the second identity line was dropped by Python's max
    residuals = zerocurv.sdym_complex_residuals

    def nan_abar_bbar(pot):
        sd = residuals(pot)
        sd["abar_bbar"][0, 0, 0, 0, 0] = np.nan
        return sd
    monkeypatch.setattr(zerocurv, "sdym_complex_residuals", nan_abar_bbar)
    conn = cases.random_connection(_grid3(6), np.random.default_rng(5))
    assert np.isnan(zerocurv.embedding_identity_defect(conn["A"], conn["B"],
                                                       conn["C"]))


def _swapped_slots(embed, a, b):
    def swapped(A, B, C):
        pot = dict(embed(A, B, C))
        pot[a], pot[b] = pot[b], pot[a]
        return pot
    return swapped


def _unnegated(zc):
    def residual(system, conn, params=None):
        return zc(system, {k: sg.MatrixField(f.grid, -f.data)
                           for k, f in conn.items()}, params)
    return residual


@pytest.mark.parametrize("attr,wrap", [
    ("embed_sdym", lambda f: _swapped_slots(f, "b", "bbar")),
    ("embed_sdym", lambda f: _swapped_slots(f, "a", "abar")),
    ("zc_residual", _unnegated),
])
def test_embedding_identity_detects_wrong_embedding(monkeypatch, attr, wrap):
    # negative controls: swapped potential slots, or the three-matrix
    # residuals of the connection itself rather than of its negation, put
    # the defect at order one (4.25, 3.69 and 5.28 here), far above 1e-13
    conn = cases.random_connection(_grid3(8), np.random.default_rng(0))
    monkeypatch.setattr(zerocurv, attr, wrap(getattr(zerocurv, attr)))
    defect = zerocurv.embedding_identity_defect(conn["A"], conn["B"], conn["C"])
    assert defect > 1.0


# --- curvature and duality ----------------------------------------------------

def test_curvature_abelian_gradient_is_flat():
    # A_mu = d_mu f for scalar (1x1) potentials has curl zero up to the
    # commuting of the two FD stencils, which is exact on this product form
    g = _grid4(9)
    m = g.meshes()
    f = m[0] * m[1] + 0.5 * m[2] ** 2 + m[3] * m[0]
    pot = {}
    for i in range(4):
        d = sg.partial_data(f, g, f"xi{i+1}")
        pot[f"A{i+1}"] = sg.MatrixField(g, d[..., None, None])
    F = zerocurv.curvature(pot)
    # quadratic f: stencils are exact and derivatives commute
    worst = max(np.abs(F.comps[k]).max() for k in F.comps)
    assert worst < 1e-12


def test_hodge_is_involution():
    g = _grid4(6)
    rng = np.random.default_rng(7)
    pot = cases.random_connection(g, rng, names=("A1", "A2", "A3", "A4"))
    F = zerocurv.curvature(pot)
    FF = zerocurv.hodge_dual(zerocurv.hodge_dual(F))
    for k in F.comps:
        assert np.array_equal(FF.comps[k], F.comps[k])


def test_selfdual_defect_hand_cases():
    g = _grid4(5)
    rng = np.random.default_rng(8)
    M = rng.normal(size=g.shape + (2, 2))
    M /= np.abs(M).max()
    zero = np.zeros_like(M)
    sd = zerocurv.Curvature2Form(g, {
        "12": M, "34": M, "13": zero, "14": zero, "23": zero, "24": zero})
    assert zerocurv.selfdual_defect(sd) == 0.0
    asd = zerocurv.Curvature2Form(g, {
        "12": M, "34": -M, "13": zero, "14": zero, "23": zero, "24": zero})
    assert zerocurv.selfdual_defect(asd) == pytest.approx(2.0)


# --- spectral-parameter fields ------------------------------------------------

def test_lambda_constant_case_exact():
    f = cases.rational_lambda({"n1": 0.0, "n3": 2.0, "m1": 0.0, "n4": 4.0})
    assert np.abs(f.lam - 0.5).max() == 0
    res = zerocurv.lambda_residual(f)
    for key in ("xi13", "xi24"):
        assert zerocurv.masked_norms(res[key], res["mask"])["max"] < 1e-14


@pytest.mark.parametrize("params", [
    {"n1": 1.0, "n3": 0.0, "m1": 0.0, "n4": 1.0},
    {"n1": 0.6, "n3": 0.3, "m1": 0.4, "n4": 1.2},
])
def test_lambda_rational_residual_converges(params):
    maxima = []
    for n in (12, 24, 48):
        h = 0.35 / (n - 1)
        g = sg.GridSpec.make(*(sg.Axis(f"xi{i}", n, h) for i in (1, 2, 3, 4)))
        f = zerocurv.lambda_field("sdym_xi", params, g)
        res = zerocurv.lambda_residual(f)
        worst = max(zerocurv.masked_norms(res[k], res["mask"])["max"]
                    for k in ("xi13", "xi24"))
        assert not res["mask"].any()
        maxima.append(worst)
    # second-order stencils on pole-free sets: no mask boundary moves
    for coarse, fine in zip(maxima, maxima[1:]):
        assert RATIO_WINDOW[0] <= coarse / fine <= RATIO_WINDOW[1]


def _xyt_xi1_grid(n=12):
    h = 0.3 / (n - 1)
    return sg.GridSpec.make(sg.Axis("x", n, h), sg.Axis("y", n, h),
                            sg.Axis("t", n, h), sg.Axis("xi1", n, h))


def test_lambda_complex_coordinate_kind():
    f = zerocurv.lambda_field(
        "mlxii_complex", {"a1": 0.5, "a2": 0.2, "a3": 0.1, "a4": 1.0},
        _xyt_xi1_grid(10))
    res = zerocurv.lambda_residual(f)
    for key in ("alpha", "beta"):
        assert zerocurv.masked_norms(res[key], res["mask"])["max"] < 5e-3


def test_lambda_pole_mask_and_errors():
    with pytest.raises(DomainError):
        zerocurv.lambda_field("bogus", {}, _grid4(6))
    # denominator identically zero: every point masked
    with pytest.raises(DomainError):
        cases.rational_lambda({"n1": 0.0, "n3": 1.0, "m1": 0.0, "n4": 0.0})
    # pole crossing the box: masked but usable
    f = cases.rational_lambda({"n1": 1.0, "n3": 0.5, "m1": 0.0, "n4": 0.2})
    assert f.mask.any() and not f.mask.all()
    assert np.all(np.isfinite(f.lam))


def _dense_den(kind, params, grid):
    """Numerator, denominator and |grad den| bound of a lambda field on
    grid-sized broadcasts."""
    c = {k: zerocurv._coord(grid, k) for k in grid.names}
    if kind == "sdym_xi":
        n1, n3, m1, n4 = (params[k] for k in ("n1", "n3", "m1", "n4"))
        num = n1 * c["xi3"] + n3 + m1 * c["xi4"]
        den = n4 - n1 * c["xi1"] - m1 * c["xi2"]
        bound = abs(n1) + abs(m1)
    else:
        a1, a2, a3, a4 = (params[k] for k in ("a1", "a2", "a3", "a4"))
        num = (a1 * (0.5 * (c["xi1"] - 1j * c["t"]))
               + a2 * (0.5 * (c["x"] - 1j * c["y"])) + a3)
        den = (a2 * (0.5 * (c["xi1"] + 1j * c["t"]))
               - a1 * (0.5 * (c["x"] + 1j * c["y"])) + a4)
        bound = abs(a1) + abs(a2)
    return (np.broadcast_to(num, grid.shape), np.broadcast_to(den, grid.shape),
            bound)


def _gather_norms(res, mask):
    return {"max": float(np.abs(res[~mask]).max()),
            "mask_coverage": float(mask.mean())}


@pytest.mark.parametrize("kind,params,grid,partial", [
    # pole planes and an oblique pole locus crossing the xi box
    ("sdym_xi", {"n1": 1.0, "n3": 0.5, "m1": 0.0, "n4": 0.2},
     cases.default_grid_xi(16), True),
    ("sdym_xi", {"n1": 1.0, "n3": 0.5, "m1": 0.4, "n4": 0.3},
     cases.default_grid_xi(16), True),
    ("mlxii_complex", {"a1": 0.5, "a2": 0.2, "a3": 0.1, "a4": 0.05},
     _xyt_xi1_grid(), True),
    # no pole in the box
    ("sdym_xi", cases.LAMBDA_PARAMS[1], cases.default_grid_xi(8), False),
])
def test_lambda_partial_mask_matches_dense_reference(kind, params, grid,
                                                     partial):
    # the dense form: pole band, mask and quotient on grid-sized
    # broadcasts, and the norms by boolean gather
    hmax = max(a.h for a in grid.axes)
    num, den, bound = _dense_den(kind, params, grid)
    pole = np.abs(den) <= 2.0 * hmax * bound
    mask = np.abs(den) <= 4.0 * hmax * bound
    lam = np.where(pole, 0.0, num / np.where(pole, 1.0, den))

    f = zerocurv.lambda_field(kind, params, grid)
    assert f.lam.dtype == lam.dtype and f.lam.flags.c_contiguous
    assert np.array_equal(f.lam, lam) and np.array_equal(f.mask, mask)
    res = zerocurv.lambda_residual(f)
    got = res.pop("mask")
    assert np.array_equal(got, f.mask) and got is not f.mask
    assert not got.all()
    if partial:
        assert 0 < pole.sum() < mask.sum() < mask.size
    else:
        assert not mask.any()
    for r in res.values():
        assert zerocurv.masked_norms(r, got) == _gather_norms(r, got)


def test_lambda_top_face_pole_leaves_bottom_slab_unmasked():
    # the pole band sits on the top xi1 slabs 9-11 and the stencil reach
    # adds slabs 7-8; no stencil near the pole reads across the open face
    # into the bottom slabs
    f = cases.rational_lambda({"n1": 1.0, "n3": 0.2, "m1": 0.0, "n4": 0.34},
                              cases.default_grid_xi(12))
    mask = zerocurv.lambda_residual(f)["mask"]
    slabs = lambda m: np.nonzero(m.any(axis=(1, 2, 3)))[0].tolist()
    assert slabs(f.lam == 0) == [9, 10, 11]
    assert slabs(mask) == [7, 8, 9, 10, 11]
    assert not mask[0].any()


def _reach(mask):
    """mask or-ed with its shifts by +-1 and +-2 cells along each axis,
    without wrapping around the faces."""
    out = mask.copy()
    for ax in range(mask.ndim):
        for s in (1, 2):
            lo = [slice(None)] * mask.ndim
            hi = [slice(None)] * mask.ndim
            lo[ax], hi[ax] = slice(None, -s), slice(s, None)
            out[tuple(lo)] |= mask[tuple(hi)]
            out[tuple(hi)] |= mask[tuple(lo)]
    return out


@pytest.mark.parametrize("kind,params,grid", [
    # pole-crossing sets of the fixed-width exclusion probe
    ("sdym_xi", {"n1": 1.0, "n3": 0.2, "m1": 0.5, "n4": 0.30},
     cases.default_grid_xi(12)),
    ("sdym_xi", {"n1": 1.0, "n3": 0.2, "m1": 0.0, "n4": 0.30},
     cases.default_grid_xi(12)),
    ("sdym_xi", {"n1": -0.8, "n3": 0.3, "m1": 0.6, "n4": -0.1},
     cases.default_grid_xi(12)),
    ("mlxii_complex", {"a1": 0.5, "a2": 0.2, "a3": 0.1, "a4": 0.05},
     _xyt_xi1_grid()),
])
def test_lambda_mask_covers_stencil_reach(kind, params, grid):
    # every point whose 2-cell stencil reads the pole band is masked
    hmax = max(a.h for a in grid.axes)
    _, den, bound = _dense_den(kind, params, grid)
    pole = np.abs(den) <= 2.0 * hmax * bound
    assert pole.any()
    mask = zerocurv.lambda_field(kind, params, grid).mask
    reach = _reach(pole)
    assert not np.array_equal(reach, pole)
    assert np.array_equal(reach & mask, reach)


@pytest.mark.parametrize("kind,periodic", [("sdym_xi", "xi2"),
                                           ("mlxii_complex", "t")])
def test_lambda_field_refuses_periodic_axes(kind, periodic):
    names = (("xi1", "xi2", "xi3", "xi4") if kind == "sdym_xi"
             else ("x", "y", "t", "xi1"))
    grid = sg.GridSpec.make(*(sg.Axis(k, 6, 0.1, periodic=k == periodic)
                              for k in names))
    params = (cases.LAMBDA_PARAMS[1] if kind == "sdym_xi"
              else {"a1": 0.5, "a2": 0.2, "a3": 0.1, "a4": 1.0})
    with pytest.raises(DomainError, match=rf"open axes.*'{periodic}'"):
        zerocurv.lambda_field(kind, params, grid)


def test_lambda_params_masks_stay_empty():
    # the gated sets never reach the pole mask, so a change to the mask
    # cannot move their values
    for params in cases.LAMBDA_PARAMS:
        for n in range(4, 49):
            f = cases.rational_lambda(params, cases.default_grid_xi(n))
            assert not f.mask.any(), (params, n)


@pytest.mark.parametrize("kind,params,name", [
    ("sdym_xi", {"n1": 1.0, "n3": 0.0, "n4": np.nan}, "n4"),
    ("sdym_xi", {"n1": 1.0, "n3": 0.0}, "n4"),
    ("sdym_xi", {"n1": 1.0, "n3": 0.0, "n4": 1.0, "m1": np.inf}, "m1"),
    ("sdym_xi", {"n1": None, "n3": 0.0, "n4": 1.0}, "n1"),
    ("mlxii_complex", {"a1": 0.5, "a2": np.inf, "a3": 0.1, "a4": 1.0}, "a2"),
    ("mlxii_complex", {"a1": 0.5, "a2": 0.2, "a3": 0.1}, "a4"),
])
def test_lambda_rejects_missing_or_nonfinite_parameters(kind, params, name):
    grid = _xyt_xi1_grid(6) if kind == "mlxii_complex" else _grid4(6)
    with pytest.raises(DomainError, match=repr(name)):
        zerocurv.lambda_field(kind, params, grid)


def test_masked_norms_requires_points():
    with pytest.raises(DomainError):
        zerocurv.masked_norms(np.zeros((3, 3)), np.ones((3, 3), dtype=bool))


def _corner(dtype):
    mask = np.zeros((4, 4), dtype=dtype)
    mask[3, 3] = 1
    return mask


@pytest.mark.parametrize("mask", [
    # an integer mask would index rows: ~1 == -2, so rows were gathered
    # and the max read 15 where the unmasked max is 14
    _corner(int),
    # wrong shape without a True cell: coverage of the wrong grid
    np.zeros((4, 5), dtype=bool),
    # wrong shape with a True cell: a raw IndexError before
    np.ones((2, 2), dtype=bool),
    [[False] * 4] * 4,
])
def test_masked_norms_rejects_non_bool_or_misshaped_masks(mask):
    res = np.arange(16.0).reshape(4, 4)
    with pytest.raises(DomainError, match="mask must be a bool array"):
        zerocurv.masked_norms(res, mask)
    assert zerocurv.masked_norms(res, _corner(bool)) == {
        "max": 14.0, "mask_coverage": 1 / 16}
