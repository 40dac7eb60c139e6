import json
import re
import warnings

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
    assert sg.AxialField(g, np.zeros((8, 8, 3))).data.shape == (8, 8, 3)
    # an axial field is one so(3) triple per point, not a matrix or a
    # vector of another length
    for bad in ((8, 8), (8, 8, 2), (8, 8, 4), (8, 8, 3, 3), (8, 9, 3)):
        with pytest.raises(DomainError):
            sg.AxialField(g, np.zeros(bad))


def test_partial_exact_on_cubic():
    # the interior stencil and edge stencils are exact on quadratics
    g = grid1d(17)
    x = g.coords("x")
    assert np.abs(sg.partial_data(x**2, g, "x") - 2 * x).max() < 1e-12


def test_partial_convergence_order():
    errs = []
    for n in (17, 33, 65):
        g = grid1d(n)
        x = g.coords("x")
        d = sg.partial_data(np.sin(3 * x), g, "x")
        errs.append(np.abs(d - 3 * np.cos(3 * x)).max())
    for e0, e1 in zip(errs, errs[1:]):
        assert e0 / e1 == pytest.approx(4.0, rel=0.25)


def test_partial_periodic_wraps():
    g = grid1d(32, periodic=True, length=2 * np.pi)
    x = g.coords("x")
    d = sg.partial_data(np.sin(x), g, "x")
    assert np.abs(d - np.cos(x)).max() < 7e-3


@pytest.mark.parametrize("dtype", [float, complex])
def test_periodic_diff_axis_matches_roll_form(dtype):
    # bit for bit on every axis of a matrix-valued stack, its transpose, a
    # strided slice (3 points on one axis) and 1-D lines of n = 9 and 3:
    # the wrap-around stencil against the np.roll form, and on open axes
    # the central interior and one-sided edges against their expressions
    rng = np.random.default_rng(4)
    data = rng.normal(size=(9, 8, 7, 5, 5))
    if dtype is complex:
        data = data + 1j * rng.normal(size=data.shape)
    h = 0.37
    for f in (data, data.T, data[::2, 1:, ::3], data[:, 0, 0, 0, 0],
              data[:3, 0, 0, 0, 0]):
        for axis in range(f.ndim):
            r = lambda s: np.roll(f, s, axis=axis)
            ref = (r(-1) - r(1)) / (2 * h)
            got = sg.diff_axis(f, axis, h, True)
            assert got.dtype == ref.dtype
            assert np.array_equal(got, ref), (f.shape, axis)
            g = np.moveaxis(f, axis, 0)
            ref = np.empty_like(g)
            ref[1:-1] = (g[2:] - g[:-2]) / (2 * h)
            ref[0] = (-1.5 * g[0] + 2.0 * g[1] - 0.5 * g[2]) / h
            ref[-1] = -(-1.5 * g[-1] + 2.0 * g[-2] - 0.5 * g[-3]) / h
            got = np.moveaxis(sg.diff_axis(f, axis, h, False), axis, 0)
            assert got.dtype == ref.dtype
            assert np.array_equal(got, ref), (f.shape, axis)


def test_sparse_meshes_broadcast_to_dense():
    g = sg.GridSpec.make(sg.Axis("x", 5, 0.1), sg.Axis("y", 6, 0.2),
                         sg.Axis("t", 7, 0.3, origin=-1.0))
    dense = g.meshes()
    sparse = g.meshes(sparse=True)
    assert len(sparse) == len(dense) == 3
    for i, (s, d) in enumerate(zip(sparse, dense)):
        assert s.shape == tuple(n if j == i else 1
                                for j, n in enumerate(g.shape))
        assert np.array_equal(np.broadcast_to(s, g.shape), d)


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
    f = sg.ScalarField(g, sg.partial_data(np.sin(4 * x), g, "x"))
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


def test_save_load_roundtrip_complex_specials_bit_exact(tmp_path):
    # +-0.0, +-inf and nan in both parts: rebuilding re + 1j * im turned
    # 1 + inf j into nan + inf j and -0.0 + 0j into 0j, with a warning
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.5]
    data = np.array([complex(re, im) for re in specials for im in specials])
    g = sg.GridSpec.make(sg.Axis("x", data.size, 0.1))
    p = tmp_path / "c.field"
    sg.save_field(p, sg.ScalarField(g, data))
    inter = np.stack([data.real, data.imag], axis=-1).astype("<f8")
    assert p.read_bytes().split(b"\n", 1)[1] == inter.tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = sg.load_field(p)
    assert back.data.dtype == np.complex128 and back.data.flags.writeable
    assert back.data.tobytes() == data.tobytes()
    q = tmp_path / "again.field"
    sg.save_field(q, back)
    assert q.read_bytes() == p.read_bytes()


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


def test_axial_fields_are_saved_in_matrix_form_only(tmp_path):
    # the binary format knows scalar and matrix fields; an axial field
    # written as one would not load back
    g = grid2d(5)
    f = sg.AxialField(g, np.ones(g.shape + (3,)))
    with pytest.raises(DomainError, match="MatrixField"):
        sg.save_field(tmp_path / "a.field", f)
    with pytest.raises(DomainError, match="scalar fields only"):
        sg.save_field_csv(tmp_path / "a.csv", f)
    assert not any(tmp_path.iterdir())


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


def _field_file_parts(tmp_path):
    # a 6^3 real field file, split into its header and its payload
    g = sg.GridSpec.make(*(sg.Axis(a, 6, 0.1) for a in ("x", "y", "t")))
    p = tmp_path / "f.field"
    sg.save_field(p, sg.ScalarField(g, np.ones(g.shape)))
    header, payload = p.read_bytes().split(b"\n", 1)
    return p, json.loads(header), payload


@pytest.mark.parametrize("cut, extra", [(8, b""), (3, b""), (0, b"\0")])
def test_load_rejects_payload_of_another_size(tmp_path, cut, extra):
    # a short payload failed in reshape, and a byte over loaded silently
    p, header, payload = _field_file_parts(tmp_path)
    p.write_bytes(json.dumps(header).encode() + b"\n"
                  + payload[:len(payload) - cut] + extra)
    with pytest.raises(DomainError, match=f"{re.escape(str(p))}: payload is not the 1728"):
        sg.load_field(p)


def test_load_rejects_header_without_axes(tmp_path):
    p, header, payload = _field_file_parts(tmp_path)
    del header["axes"]
    p.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    with pytest.raises(DomainError, match=f"{re.escape(str(p))}: malformed header.*'axes'"):
        sg.load_field(p)


def test_load_rejects_header_that_is_not_json(tmp_path):
    p, _, payload = _field_file_parts(tmp_path)
    p.write_bytes(b"solgeo-field-v1\n" + payload)
    with pytest.raises(DomainError, match=f"{re.escape(str(p))}: first line is not JSON"):
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


def test_csv_writers_match_savetxt_bytes(tmp_path):
    # the whole-array %-format writes what np.savetxt writes, special
    # values included; a 1-D field is one row
    special = np.array([-0.0, np.inf, -np.inf, np.nan, 5e-324, 0.1, -1e300,
                        1 / 3])
    g1 = sg.GridSpec.make(sg.Axis("x", 8, 0.1))
    g2 = grid2d(8)
    data2 = np.stack([np.roll(special, k) for k in range(8)])
    ref = tmp_path / "ref.csv"
    for i, (g, data) in enumerate([(g1, special), (g2, data2)]):
        np.savetxt(ref, np.atleast_2d(data), delimiter=",", fmt="%.17g")
        field_path, bare_path = tmp_path / f"f{i}.csv", tmp_path / f"b{i}.csv"
        sg.save_field_csv(field_path, sg.ScalarField(g, data))
        sg.write_csv(bare_path, data)
        assert field_path.read_bytes() == ref.read_bytes()
        assert bare_path.read_bytes() == ref.read_bytes()


def test_field_norms():
    data = np.zeros((4, 5))
    data[2, 3] = -3.0
    out = sg.field_norms(data)
    assert out["max"] == 3.0
    assert out["argmax"] == [2, 3]
    assert out["l2"] == pytest.approx(np.sqrt(9.0 / 20.0))


def test_refinement_study_defects_and_ratios():
    levels = []

    def defect(lv):
        levels.append(lv)
        return 2.0 ** -(2 * lv)

    out = sg.refinement_study(defect, 3)
    assert levels == [0, 1, 2]
    assert out == {"defects": [1.0, 0.25, 0.0625], "ratios": [4.0, 4.0]}


@pytest.mark.parametrize("finest", [0.0, float("nan"), -1.0])
def test_refinement_study_ratio_is_nan_on_a_nonpositive_defect(finest):
    # a vanishing finest defect shows no rate: the ratio must fail every
    # gate, the lower-bound ones (r >= 8) included
    out = sg.refinement_study(lambda lv: [1.0, 0.1, finest][lv], 3)
    assert out["ratios"][0] == pytest.approx(10.0)
    assert np.isnan(out["ratios"][1])
    assert not out["ratios"][1] >= 8.0


@pytest.mark.parametrize("coarse", [float("inf"), float("nan")])
def test_refinement_study_ratio_is_nan_from_a_nonfinite_coarse_defect(coarse):
    # a coarse level that blew up shows no rate either: inf / 0.1 would
    # pass the lax floor r >= 8
    out = sg.refinement_study(lambda lv: [coarse, 0.1, 0.01][lv], 3)
    assert np.isnan(out["ratios"][0])
    assert out["ratios"][1] == pytest.approx(10.0)
