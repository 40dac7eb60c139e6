import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solgeo import grid as sg
from solgeo.errors import DomainError


def grid1d(n=33, periodic=False, length=1.0):
    h = length / n if periodic else length / (n - 1)
    return sg.GridSpec.make(sg.Axis("x", n, h, periodic=periodic))


def grid2d(n=33, periodic=False, length=1.0):
    h = length / n if periodic else length / (n - 1)
    return sg.GridSpec.make(sg.Axis("x", n, h, periodic=periodic),
                            sg.Axis("y", n, h, periodic=periodic))


def test_axis_validation():
    with pytest.raises(DomainError):
        sg.Axis("bogus", 8, 0.1)
    with pytest.raises(DomainError):
        sg.Axis("x", 3, 0.1)
    with pytest.raises(DomainError):
        sg.Axis("x", 8, -0.1)
    with pytest.raises(DomainError):
        sg.GridSpec.make(sg.Axis("x", 8, 0.1), sg.Axis("x", 8, 0.1))


def test_field_shape_validation():
    g = grid2d(8)
    with pytest.raises(DomainError):
        sg.ScalarField(g, np.zeros((8, 9)))
    with pytest.raises(DomainError):
        sg.MatrixField(g, np.zeros((8, 8, 3, 2)))


def test_partial_exact_on_cubic():
    # the 2nd-order interior stencil and edge stencils are exact on
    # quadratics; the 4th-order ones on quartics
    g = grid1d(17)
    x = g.coords("x")
    f2 = sg.ScalarField(g, x**2)
    assert np.abs(sg.partial(f2, "x").data - 2 * x).max() < 1e-12
    f4 = sg.ScalarField(g, x**4)
    assert np.abs(sg.partial(f4, "x", accuracy=4).data - 4 * x**3).max() < 1e-11


@pytest.mark.parametrize("accuracy,expect", [(2, 4.0), (4, 16.0)])
def test_partial_convergence_order(accuracy, expect):
    errs = []
    for n in (17, 33, 65):
        g = grid1d(n)
        x = g.coords("x")
        d = sg.partial(sg.ScalarField(g, np.sin(3 * x)), "x", accuracy).data
        errs.append(np.abs(d - 3 * np.cos(3 * x)).max())
    for e0, e1 in zip(errs, errs[1:]):
        assert e0 / e1 == pytest.approx(expect, rel=0.25)


@pytest.mark.parametrize("accuracy", [2, 4])
def test_partial_periodic_wraps(accuracy):
    g = grid1d(32, periodic=True, length=2 * np.pi)
    x = g.coords("x")
    d = sg.partial(sg.ScalarField(g, np.sin(x)), "x", accuracy).data
    tol = 7e-3 if accuracy == 2 else 1e-4
    assert np.abs(d - np.cos(x)).max() < tol


def test_partial_matrix_field_and_axis_choice():
    g = grid2d(17)
    x, y = g.meshes()
    data = np.zeros(g.shape + (2, 2))
    data[..., 0, 1] = x * y**2
    dy = sg.partial(sg.MatrixField(g, data), "y").data
    assert np.abs(dy[..., 0, 1] - 2 * x * y).max() < 1e-12
    assert np.abs(dy[..., 1, 0]).max() == 0


@given(st.floats(-5, 5, allow_nan=False), st.floats(-5, 5, allow_nan=False))
@settings(max_examples=25, deadline=None)
def test_partial_linearity(a, b):
    g = grid1d(17)
    x = g.coords("x")
    f = np.sin(2 * x)
    h = np.cos(3 * x)
    lhs = sg.partial(sg.ScalarField(g, a * f + b * h), "x").data
    rhs = (a * sg.partial(sg.ScalarField(g, f), "x").data
           + b * sg.partial(sg.ScalarField(g, h), "x").data)
    assert np.abs(lhs - rhs).max() < 1e-9 * (1 + abs(a) + abs(b))


def test_partial_data_matches_partial():
    g = grid2d(12)
    x, y = g.meshes()
    f = np.sin(x + 2 * y)
    assert np.array_equal(sg.partial_data(f, g, "y"),
                          sg.partial(sg.ScalarField(g, f), "y").data)


def test_antider_x_inverts_derivative():
    g = grid1d(201)
    x = g.coords("x")
    f = sg.ScalarField(g, np.sin(4 * x))
    back = sg.antider_x(sg.partial(f, "x", accuracy=4))
    # antiderivative is gauged to zero at the x minimum
    expect = np.sin(4 * x) - np.sin(4 * x[0])
    assert np.abs(back.data - expect).max() < 5e-4


def test_antider_x_zero_at_origin_plane():
    g = grid2d(9)
    x, y = g.meshes()
    out = sg.antider_x_data(np.cos(x) * y, g)
    assert np.abs(out[0, :]).max() == 0


@pytest.mark.parametrize("complex_data", [False, True])
@pytest.mark.parametrize("names", [("x", "y", "t"), ("y", "x", "t")])
def test_antider_x_bit_identical_to_scipy(names, complex_data):
    from scipy.integrate import cumulative_trapezoid

    g = sg.GridSpec.make(*(sg.Axis(nm, 17, 0.13) for nm in names))
    rng = np.random.default_rng(5)
    d = rng.standard_normal(g.shape)
    if complex_data:
        d = d + 1j * rng.standard_normal(g.shape)
    ix = g.index("x")
    expect = cumulative_trapezoid(d, dx=0.13, axis=ix, initial=0.0)
    assert np.array_equal(sg.antider_x_data(d, g), expect)
    assert np.array_equal(sg.antider_x(sg.ScalarField(g, d)).data, expect)


def test_apply_M_polynomial_oracle():
    # on f = x^2 + x y + y^2 every second derivative is constant, so both
    # operators reduce to exact linear combinations
    g = grid2d(17, length=1.0)
    x, y = g.meshes()
    f = sg.ScalarField(g, x**2 + x * y + y**2)
    alpha, a, b = 2.0, 0.3, -0.7
    m1 = sg.apply_M(f, "M1", alpha, a, b).data
    want1 = alpha**2 * 2 + 4 * alpha * (b - a) * 1 + 4 * (a * a - 2 * a * b - b) * 2
    assert np.abs(m1 - want1).max() < 1e-10
    m2 = sg.apply_M(f, "M2", alpha, a, b).data
    want2 = alpha**2 * 2 - 2 * alpha * (2 * a + 1) * 1 + 4 * a * (a + 1) * 2
    assert np.abs(m2 - want2).max() < 1e-10


def test_apply_M_isotropic_special_point():
    # the dedicated variant is the general second operator frozen at the
    # isotropic parameter point a = b = -1/2
    g = grid2d(16, periodic=True, length=2 * np.pi)
    x, y = g.meshes()
    f = sg.ScalarField(g, np.sin(x) * np.cos(y))
    lhs = sg.apply_M(f, "M2Ish", 1.5).data
    rhs = sg.apply_M(f, "M2", 1.5, a=-0.5, b=-0.5).data
    assert np.array_equal(lhs, rhs)
    # at a = b = -1/2 the cross and xx terms vanish: M2 = a^2 d_yy - d_xx
    direct = (1.5**2 * sg.partial_data(sg.partial_data(f.data, g, "y"), g, "y")
              - sg.partial_data(sg.partial_data(f.data, g, "x"), g, "x"))
    assert np.abs(lhs - direct).max() < 1e-12


def test_apply_M_unknown_kind():
    g = grid2d(8)
    with pytest.raises(DomainError):
        sg.apply_M(sg.ScalarField(g, np.zeros(g.shape)), "M3", 1.0)


def test_save_load_roundtrip_scalar(tmp_path):
    g = sg.GridSpec.make(sg.Axis("x", 8, 0.1, periodic=True),
                         sg.Axis("t", 5, 0.2, origin=-1.0))
    rng = np.random.default_rng(7)
    f = sg.ScalarField(g, rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape))
    p = tmp_path / "f.field"
    sg.save_field(p, f)
    back = sg.load_field(p)
    assert isinstance(back, sg.ScalarField)
    assert back.grid == g
    assert np.array_equal(back.data, f.data)


def test_save_load_roundtrip_matrix(tmp_path):
    g = sg.GridSpec.make(sg.Axis("x", 6, 0.3))
    rng = np.random.default_rng(8)
    f = sg.MatrixField(g, rng.normal(size=(6, 3, 3)))
    p = tmp_path / "m.field"
    sg.save_field(p, f)
    back = sg.load_field(p)
    assert isinstance(back, sg.MatrixField)
    assert back.grid == g
    assert np.array_equal(back.data, f.data)


def test_save_field_deterministic_bytes(tmp_path):
    g = grid2d(8)
    x, y = g.meshes()
    f = sg.ScalarField(g, np.sin(x) + 1j * y)
    p1, p2 = tmp_path / "a.field", tmp_path / "b.field"
    sg.save_field(p1, f)
    sg.save_field(p2, f)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_foreign_file(tmp_path):
    p = tmp_path / "junk.field"
    p.write_bytes(b'{"format": "something-else"}\n')
    with pytest.raises(DomainError):
        sg.load_field(p)


def test_save_field_csv(tmp_path):
    g = grid2d(5)
    x, y = g.meshes()
    p = tmp_path / "f.csv"
    sg.save_field_csv(p, sg.ScalarField(g, x + 10 * y))
    back = np.loadtxt(p, delimiter=",")
    assert np.abs(back - (x + 10 * y)).max() < 1e-15
    with pytest.raises(DomainError):
        sg.save_field_csv(p, sg.ScalarField(g, (x + 0j)))


def test_field_norms():
    data = np.zeros((4, 5))
    data[2, 3] = -3.0
    out = sg.field_norms(data)
    assert out["max"] == 3.0
    assert out["argmax"] == [2, 3]
    assert out["l2"] == pytest.approx(np.sqrt(9.0 / 20.0))
