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
    assert np.abs(sg.partial_data(x**2, g, "x") - 2 * x).max() < 1e-12
    assert np.abs(sg.partial_data(x**4, g, "x", accuracy=4)
                  - 4 * x**3).max() < 1e-11


@pytest.mark.parametrize("accuracy,expect", [(2, 4.0), (4, 16.0)])
def test_partial_convergence_order(accuracy, expect):
    errs = []
    for n in (17, 33, 65):
        g = grid1d(n)
        x = g.coords("x")
        d = sg.partial_data(np.sin(3 * x), g, "x", accuracy)
        errs.append(np.abs(d - 3 * np.cos(3 * x)).max())
    for e0, e1 in zip(errs, errs[1:]):
        assert e0 / e1 == pytest.approx(expect, rel=0.25)


@pytest.mark.parametrize("accuracy", [2, 4])
def test_partial_periodic_wraps(accuracy):
    g = grid1d(32, periodic=True, length=2 * np.pi)
    x = g.coords("x")
    d = sg.partial_data(np.sin(x), g, "x", accuracy)
    tol = 7e-3 if accuracy == 2 else 1e-4
    assert np.abs(d - np.cos(x)).max() < tol


def test_partial_matrix_field_and_axis_choice():
    g = grid2d(17)
    x, y = g.meshes()
    data = np.zeros(g.shape + (2, 2))
    data[..., 0, 1] = x * y**2
    dy = sg.partial_data(data, g, "y")
    assert np.abs(dy[..., 0, 1] - 2 * x * y).max() < 1e-12
    assert np.abs(dy[..., 1, 0]).max() == 0


@given(st.floats(-5, 5, allow_nan=False), st.floats(-5, 5, allow_nan=False))
@settings(max_examples=25, deadline=None)
def test_partial_linearity(a, b):
    g = grid1d(17)
    x = g.coords("x")
    f = np.sin(2 * x)
    h = np.cos(3 * x)
    lhs = sg.partial_data(a * f + b * h, g, "x")
    rhs = a * sg.partial_data(f, g, "x") + b * sg.partial_data(h, g, "x")
    assert np.abs(lhs - rhs).max() < 1e-9 * (1 + abs(a) + abs(b))


def test_antider_x_inverts_derivative():
    g = grid1d(201)
    x = g.coords("x")
    f = sg.ScalarField(g, sg.partial_data(np.sin(4 * x), g, "x", accuracy=4))
    back = sg.antider_x(f)
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
