import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solgeo import liealg
from solgeo.errors import ConstraintError, DomainError

finite = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


def test_skew_x_example():
    t = liealg.CoeffTriple.x(1.0, 0.0, 0.0)
    m = liealg.skew_matrix(t, 1)
    assert np.array_equal(m, [[0, 1, 0], [-1, 0, 0], [0, 0, 0]])


def test_skew_x_full_pattern():
    m = liealg.skew_matrix(liealg.CoeffTriple.x(2.0, 3.0, 5.0), -1)
    expect = np.array([[0, 2, -5], [2, 0, 3], [5, -3, 0]], dtype=float)
    assert np.array_equal(m, expect)


def test_skew_y_example():
    m = liealg.skew_matrix(liealg.CoeffTriple.y(1.0, 2.0, 3.0), -1)
    assert m[0, 1] == 3 and m[1, 0] == 3 and m[2, 0] == -2
    assert m[0, 2] == -2 and m[1, 2] == 1 and m[2, 1] == -1


def test_skew_zero():
    assert np.array_equal(
        liealg.skew_matrix(liealg.CoeffTriple.x(0, 0, 0), 1), np.zeros((3, 3)))


@pytest.mark.parametrize("beta", [1, -1])
def test_skew_matrix_stack_matches_per_triple(beta):
    # one fill for a sequence of mixed roles keeps each role's (3,1) sign
    rng = np.random.default_rng(14)
    makers = (liealg.CoeffTriple.x, liealg.CoeffTriple.y, liealg.CoeffTriple.t)
    triples = [makers[i % 3](*rng.normal(size=3)) for i in range(12)]
    triples.append(liealg.CoeffTriple.x(0.0, -0.0, 0.0))
    got = liealg.skew_matrix(triples, beta)
    ref = np.stack([liealg.skew_matrix(t, beta) for t in triples])
    assert got.shape == (13, 3, 3)
    assert got.tobytes() == ref.tobytes()
    for t, m in zip(triples, got):
        s = 1.0 if t.role == liealg.ROLE_X else beta
        assert np.array_equal(m, [[0.0, t.c1, -t.c3], [-beta * t.c1, 0.0, t.c2],
                                  [s * t.c3, -t.c2, 0.0]])
    assert liealg.skew_matrix([], beta).shape == (0, 3, 3)


@pytest.mark.parametrize("beta", [0, 2, 1.5])
def test_skew_matrix_stack_rejects_bad_beta(beta):
    with pytest.raises(DomainError):
        liealg.skew_matrix([liealg.CoeffTriple.x(1.0, 0.0, 0.0)] * 3, beta)


def test_skew_nonfinite_rejected():
    with pytest.raises(DomainError):
        liealg.skew_matrix(liealg.CoeffTriple.x(np.inf, 0, 0), 1)


@given(finite, finite, finite, st.sampled_from([1, -1]),
       st.sampled_from(["y", "t"]))
@settings(max_examples=50, deadline=None)
def test_generalized_antisymmetry_yt(c1, c2, c3, beta, role):
    maker = liealg.CoeffTriple.y if role == "y" else liealg.CoeffTriple.t
    m = liealg.skew_matrix(maker(c1, c2, c3), beta)
    d = np.diag([beta, 1.0, 1.0])
    assert np.abs(m + d @ m.T @ d).max() < 1e-12


@given(finite, finite, finite)
@settings(max_examples=50, deadline=None)
def test_generalized_antisymmetry_x_focusing(c1, c2, c3):
    # the curvature-role matrix is transcribed as printed and satisfies the
    # relation only in the focusing signature
    m = liealg.skew_matrix(liealg.CoeffTriple.x(c1, c2, c3), 1)
    assert np.abs(m + m.T).max() < 1e-12


@given(st.lists(finite, min_size=9, max_size=9),
       st.lists(finite, min_size=9, max_size=9))
@settings(max_examples=50, deadline=None)
def test_commutator_antisymmetry(a, b):
    x = np.array(a).reshape(3, 3)
    y = np.array(b).reshape(3, 3)
    assert np.array_equal(liealg.commutator(x, y), -liealg.commutator(y, x))


def test_commutator_self_and_identity():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 3))
    assert np.abs(liealg.commutator(x, x)).max() == 0
    assert np.abs(liealg.commutator(np.eye(3), x)).max() == 0


def test_commutator_hand_example():
    d = np.diag([1.0, -1.0])
    e = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(liealg.commutator(d, e), 2 * e)


def _cstack(rng, lead, m=3, real=False):
    x = rng.normal(size=lead + (m, m))
    return x if real else x + 1j * rng.normal(size=x.shape)


@pytest.mark.parametrize("lead_x,lead_y,real", [
    ((), (), None),
    ((5,), (5,), None),
    ((2, 3, 4), (2, 3, 4), None),
    ((1, 4), (3, 1), None),
    ((2, 3), (2, 3), "x"),
    ((2, 3), (2, 3), "y"),
])
def test_complex_commutator_matches_matmul(lead_x, lead_y, real):
    # the components-first complex path sums in another order than `@`,
    # so it agrees to rounding of the products, and stays antisymmetric
    rng = np.random.default_rng(11)
    x = _cstack(rng, lead_x, real=real == "x")
    y = _cstack(rng, lead_y, real=real == "y")
    got = liealg.commutator(x, y)
    ref = x @ y - y @ x
    assert got.shape == ref.shape and got.dtype == ref.dtype
    bound = 1e-15 * np.abs(x).max() * np.abs(y).max()
    assert np.abs(got - ref).max() <= bound
    assert np.array_equal(got, -liealg.commutator(y, x))


@pytest.mark.parametrize("lead_x,lead_y,real", [
    ((4, 5, 6), (4, 5, 6), None),
    ((1, 4), (3, 1), None),
    ((2, 3), (2, 3), "y"),
])
def test_complex_commutator_matches_entrywise_sum(lead_x, lead_y, real):
    # the complex 3x3 path keeps this sum order, so its bits are these
    rng = np.random.default_rng(13)
    x = _cstack(rng, lead_x, real=real == "x")
    y = _cstack(rng, lead_y, real=real == "y")
    ref = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=complex)
    for i in range(3):
        for j in range(3):
            ref[..., i, j] = (
                (x[..., i, 0] * y[..., 0, j] + x[..., i, 1] * y[..., 1, j]
                 + x[..., i, 2] * y[..., 2, j])
                - (y[..., i, 0] * x[..., 0, j] + y[..., i, 1] * x[..., 1, j]
                   + y[..., i, 2] * x[..., 2, j]))
    got = liealg.commutator(x, y)
    assert got.flags.c_contiguous
    assert np.array_equal(got, ref)


def test_commutator_keeps_matmul_off_the_complex_3x3_path():
    rng = np.random.default_rng(12)
    for x, y in ((_cstack(rng, (4,), m=2), _cstack(rng, (4,), m=2)),
                 (_cstack(rng, (4, 5), real=True),
                  _cstack(rng, (4, 5), real=True))):
        assert np.array_equal(liealg.commutator(x, y), x @ y - y @ x)


@pytest.mark.parametrize("dtype", [float, complex])
def test_matrices_writes_the_rows_it_is_given(dtype):
    col = np.arange(1.0, 5.0)[:, None]   # broadcasts to (4, 3)
    rows = [[0, 2.5, col],
            [-col, 0, np.full((4, 3), -0.0)],
            [1, 0.0, 0]]
    m = liealg.matrices(rows, (4, 3), dtype)
    assert m.shape == (4, 3, 3, 3) and m.dtype == np.dtype(dtype)
    want = np.zeros((4, 3, 3, 3), dtype=dtype)
    want[..., 0, 1] = 2.5
    want[..., 0, 2] = col
    want[..., 1, 0] = -col
    want[..., 1, 2] = -0.0
    want[..., 2, 0] = 1
    assert np.array_equal(m, want)
    # literal zeros stay the +0 fill; a signed zero entry is written
    for i, j in ((0, 0), (1, 1), (2, 1), (2, 2)):
        assert not m[..., i, j].any()
        assert not np.signbit(m[..., i, j].real).any()
    assert np.signbit(m[..., 1, 2].real).all()
    # a 2x2 with no leading axes, from rows of generators read in order
    seen = []

    def row(i):
        for j in range(2):
            seen.append((i, j))
            yield 2.0 * i + j + 1

    assert np.array_equal(liealg.matrices([row(0), row(1)], (), dtype),
                          [[1.0, 2.0], [3.0, 4.0]])
    assert seen == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_hat_pattern():
    m = liealg.hat(np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(m, [[0.0, -3.0, 2.0], [3.0, 0.0, -1.0],
                              [-2.0, 1.0, 0.0]])
    # the axial convention expm's Rodrigues branch reads back
    assert np.array_equal([m[2, 1], m[0, 2], m[1, 0]], [1.0, 2.0, 3.0])
    with pytest.raises(DomainError):
        liealg.hat(np.zeros((4, 2)))


@pytest.mark.parametrize("lead", [(), (5,), (2, 3)])
def test_hat_of_cross_is_commutator(lead):
    # [hat(a), hat(b)] = hat(a x b) entry for entry: the axial bracket of
    # so(3) connections rounds exactly like the matrix commutator
    rng = np.random.default_rng(len(lead))
    a = rng.normal(size=lead + (3,))
    b = rng.normal(size=lead + (3,))
    assert liealg.hat(a).shape == lead + (3, 3)
    assert np.array_equal(liealg.hat(np.cross(a, b)),
                          liealg.commutator(liealg.hat(a), liealg.hat(b)))


@pytest.mark.parametrize("lead_a,lead_b,cplx", [
    ((), (), False),
    ((7,), (7,), False),
    ((4, 5, 6), (4, 5, 6), False),
    ((1, 4), (3, 1), False),
    ((2, 3), (2, 3), True),
])
def test_cross_matches_np_cross(lead_a, lead_b, cplx):
    # the component-by-component bracket gives np.cross's bits
    rng = np.random.default_rng(len(lead_a) + len(lead_b))
    a = rng.normal(size=lead_a + (3,))
    b = rng.normal(size=lead_b + (3,))
    if cplx:
        b = b + 1j * rng.normal(size=b.shape)
    got = liealg.cross(a, b)
    ref = np.cross(a, b)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert np.array_equal(got, ref)


def test_commutator_shape_mismatch():
    with pytest.raises(DomainError):
        liealg.commutator(np.eye(3), np.eye(2))


# unblocked forms of the bracket kernels, whose bits the blocked ones keep

def _cross_unblocked(a, b):
    out = np.empty(np.broadcast_shapes(a.shape, b.shape),
                   dtype=np.result_type(a, b))
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        np.subtract(a[..., j] * b[..., k], a[..., k] * b[..., j],
                    out=out[..., i])
    return out


def _commutator_unblocked(x, y):
    dtype = np.result_type(x, y)
    if dtype.kind != "c":
        return x @ y - y @ x
    a = np.ascontiguousarray(np.moveaxis(x, (-2, -1), (0, 1)), dtype=dtype)
    b = np.ascontiguousarray(np.moveaxis(y, (-2, -1), (0, 1)), dtype=dtype)
    out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=dtype)
    for i in range(3):
        for j in range(3):
            xy = a[i, 0] * b[0, j]
            xy += a[i, 1] * b[1, j]
            xy += a[i, 2] * b[2, j]
            yx = b[i, 0] * a[0, j]
            yx += b[i, 1] * a[1, j]
            yx += b[i, 2] * a[2, j]
            np.subtract(xy, yx, out=out[..., i, j])
    return out


_B = liealg._BLOCK
# (leading shape of x, of y, blocks of the broadcast stack); rows of 64
# points put _B // 64 rows in a block
_BLOCK_CASES = [
    ((), (), 1),                      # one point, no leading axis
    ((1,), (1,), 1),                  # one point
    ((_B,), (_B,), 1),                # exactly one block
    ((_B + 1,), (_B + 1,), 2),        # one block + 1
    ((3 * _B + 17,), (3 * _B + 17,), 4),  # several blocks, ragged tail
    ((2 * _B // 64 + 5, 64), (2 * _B // 64 + 5, 64), 3),  # rows, ragged
    ((3, _B + 5), (3, _B + 5), 3),    # rows longer than a block
    ((_B // 32, 1), (1, 64), 2),      # broadcast leading shapes
    ((64,), (_B // 64 + 3, 64), 2),   # broadcast over a missing axis
    ((0,), (0,), 0),                  # empty stacks
    ((0, 5), (1, 5), 0),
    ((5, 0), (5, 0), 1),
]


@pytest.mark.parametrize("lead_x,lead_y,nblocks", _BLOCK_CASES)
@pytest.mark.parametrize("cplx", [False, True])
def test_blocked_commutator_matches_unblocked(lead_x, lead_y, nblocks, cplx):
    rng = np.random.default_rng(31)
    x = _cstack(rng, lead_x, real=not cplx)
    y = _cstack(rng, lead_y, real=not cplx)
    lead = np.broadcast_shapes(lead_x, lead_y)
    assert len(liealg._blocks(lead)) == nblocks
    got = liealg.commutator(x, y)
    ref = _commutator_unblocked(x, y)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert np.array_equal(got, ref)
    if cplx:
        assert got.flags.c_contiguous


@pytest.mark.parametrize("lead_a,lead_b,nblocks", _BLOCK_CASES)
@pytest.mark.parametrize("cplx", [False, True])
def test_blocked_cross_matches_unblocked(lead_a, lead_b, nblocks, cplx):
    rng = np.random.default_rng(32)
    a = rng.normal(size=lead_a + (3,))
    b = rng.normal(size=lead_b + (3,))
    if cplx:
        a = a + 1j * rng.normal(size=a.shape)
    assert len(liealg._blocks(np.broadcast_shapes(lead_a, lead_b))) \
        == nblocks
    got = liealg.cross(a, b)
    ref = _cross_unblocked(a, b)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert np.array_equal(got, ref)
    # the so(3) bracket of the strided rows _solve3 passes
    p = rng.normal(size=lead_a + (3, 3))
    assert np.array_equal(liealg.cross(p[..., 1, :], p[..., 2, :]),
                          _cross_unblocked(p[..., 1, :], p[..., 2, :]))


@pytest.mark.parametrize("a,b", [
    (np.ones((2, 4)), 2 * np.ones((2, 4))),   # last axes of 4
    (np.ones((2, 2)), np.ones((2, 2))),
    (np.ones((2, 3)), np.ones((2, 4))),
    (np.ones(3), np.float64(1.0)),            # a scalar
    (np.ones((2, 3)), np.ones((4, 3))),       # leading shapes that clash
])
def test_cross_rejects_non_axial_input(a, b):
    with pytest.raises(DomainError):
        liealg.cross(a, b)


@pytest.mark.parametrize("x,y", [
    (np.ones(3), np.ones(3)),                 # vectors, not matrices
    (np.ones((2, 3)), np.ones((2, 3))),       # non-square
    (np.ones((2, 3, 3)), np.ones((4, 3, 3))),  # leading shapes that clash
    (np.ones((2, 3, 3)) * 1j, np.ones((4, 3, 3))),
    (np.float64(1.0), np.float64(1.0)),
])
def test_commutator_rejects_non_square_or_clashing_stacks(x, y):
    with pytest.raises(DomainError):
        liealg.commutator(x, y)


def test_expm_zero_and_rotation():
    assert np.array_equal(liealg.expm(np.zeros((3, 3))), np.eye(3))
    th = 0.7
    m = liealg.expm(liealg.skew_matrix(liealg.CoeffTriple.x(th, 0, 0), 1))
    expect = np.array([[np.cos(th), np.sin(th), 0],
                       [-np.sin(th), np.cos(th), 0], [0, 0, 1]])
    assert np.abs(m - expect).max() < 1e-13


def test_expm_orthogonal_inverse():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = rng.normal(size=(3, 3))
        s = a - a.T
        r = liealg.expm(s)
        assert np.abs(r @ r.T - np.eye(3)).max() < 1e-13
        assert abs(np.linalg.det(r) - 1) < 1e-13
        assert np.abs(liealg.expm(s) @ liealg.expm(-s) - np.eye(3)).max() < 1e-13


def test_expm_generic_matches_series():
    rng = np.random.default_rng(2)
    m = 0.3 * rng.normal(size=(3, 3))
    out = liealg.expm(m)
    acc = np.eye(3)
    term = np.eye(3)
    for k in range(1, 20):
        term = term @ m / k
        acc = acc + term
    assert np.abs(out - acc).max() < 1e-12


def _with_norm(a, norm):
    """a rescaled to 1-norm (max column sum) norm."""
    return a * (norm / np.abs(a).sum(axis=0).max())


def _series(m, terms=20):
    acc = np.eye(3)
    term = np.eye(3)
    for k in range(1, terms):
        term = term @ m / k
        acc = acc + term
    return acc


@pytest.mark.parametrize("norm", [1e-6, 1e-4, 1e-2, 0.1, 0.5, 1.0])
def test_expm_unscaled_matches_scipy_and_series(norm):
    from scipy.linalg import expm as scipy_expm

    rng = np.random.default_rng(6)
    for _ in range(5):
        m = _with_norm(rng.normal(size=(3, 3)), norm)
        out = liealg.expm(m)
        for ref in (scipy_expm(m), _series(m)):
            assert np.abs(out - ref).max() <= 1e-14 * np.abs(ref).max()


def _mp_expm(a):
    """exp(a) to 40 digits, rounded to float."""
    import mpmath

    with mpmath.workdps(40):
        return np.array(mpmath.expm(mpmath.matrix(a.tolist())).tolist(),
                        dtype=float)


@pytest.mark.parametrize("m", [3, 5, 7, 9, 13])
@pytest.mark.parametrize("side", [1.0 - 1e-9, 1.0 + 1e-9])
def test_expm_pade_degree_band_edges(m, side):
    # just below theta_m the kernel takes degree m; just above, the next
    # degree (13 with one squaring above theta_13).  The 40-digit reference
    # checks every matrix; scipy's expm is also the reference below
    # theta_13, but near it scipy is off by up to 5e-13 relative on a third
    # of random matrices, where this kernel stays within 1.2e-15 of mpmath
    from scipy.linalg import expm as scipy_expm

    degrees = list(liealg._PADE)
    theta = liealg._PADE[m][0]
    deg = m if side < 1.0 or m == 13 else degrees[degrees.index(m) + 1]
    rng = np.random.default_rng(16)
    for _ in range(3):
        a = _with_norm(rng.normal(size=(3, 3)), side * theta)
        out = liealg.expm(a)
        norm = np.abs(a).sum(axis=0).max()
        assert np.array_equal(out, liealg._pade(a[None], norm[None], deg)[0])
        refs = [_mp_expm(a)] + ([scipy_expm(a)] if m < 13 else [])
        for ref in refs:
            assert np.abs(out - ref).max() <= 1e-14 * np.abs(ref).max()


def test_solve3_matches_linalg_solve():
    rng = np.random.default_rng(17)
    p = rng.normal(size=(200, 3, 3)) + 4.0 * np.eye(3)
    q = rng.normal(size=(200, 3, 3))
    assert np.linalg.cond(p).max() < 50.0
    ref = np.linalg.solve(p, q)
    err = np.abs(liealg._solve3(p, q) - ref).max(axis=(-2, -1))
    assert np.all(err <= 1e-14 * np.abs(ref).max(axis=(-2, -1)))


@pytest.mark.parametrize("gens", [
    [[0, 1j, 0], [0, 0, 0], [0, 0, 0]],
    np.zeros((3, 2)),
    np.zeros(3),
])
def test_expm_rejects_complex_and_non_3x3(gens):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            liealg.expm(gens)


@pytest.mark.parametrize("gens, start", [
    (np.zeros((4, 3, 3)), np.eye(3)[:, :2]),
    (np.zeros((2, 4, 3, 3)), np.zeros((3, 3, 3))),
    (np.zeros((4, 3, 3)), 1j * np.eye(3)),
    (np.zeros((4, 3, 3), dtype=complex), np.eye(3)),
    (np.zeros((3, 3)), np.eye(3)),
])
def test_transport_rejects_bad_start_and_generators(gens, start):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            liealg.transport(gens, start)


@pytest.mark.parametrize("norm", [5.0, 10.0, 20.0, 50.0])
def test_expm_scaling_and_squaring(norm):
    rng = np.random.default_rng(7)
    for _ in range(5):
        m = _with_norm(rng.normal(size=(3, 3)), norm)
        e, einv = liealg.expm(m), liealg.expm(-m)
        size = np.abs(e).max() * np.abs(einv).max()
        assert np.abs(e @ einv - np.eye(3)).max() <= 1e-12 * size
        e2 = liealg.expm(2.0 * m)
        assert np.abs(e2 - e @ e).max() <= 1e-12 * np.abs(e2).max()


def test_expm_diagonal_is_exp_of_diagonal():
    rng = np.random.default_rng(8)
    for _ in range(10):
        d = rng.uniform(-10.0, 10.0, 3)
        out = liealg.expm(np.diag(d))
        assert np.abs(np.diag(out) / np.exp(d) - 1.0).max() <= 1e-13
        assert np.all(out[~np.eye(3, dtype=bool)] == 0.0)


def test_expm_batch_matches_single_matrix_calls():
    # a result depends on its own matrix and on whether its stack is all
    # skew: a mixed stack goes whole through Pade, so its two skew
    # generators (the first two) come out within rounding of their
    # Rodrigues exponentials, and every other result is the single call's
    rng = np.random.default_rng(9)
    a = rng.normal(size=(3, 3))
    stack = np.array([
        0.3 * (a - a.T),
        np.zeros((3, 3)),
        1e-12 * rng.normal(size=(3, 3)),
        _with_norm(rng.normal(size=(3, 3)), 40.0),
        0.02 * liealg.skew_matrix(liealg.CoeffTriple.x(0.8, 0.3, 0.0), -1),
        _with_norm(rng.normal(size=(3, 3)), 7.0),
        np.diag([3.0, -2.0, 0.5]),
        # one matrix in each Pade degree band, 3 to 13
        *[_with_norm(rng.normal(size=(3, 3)), x)
          for x in (0.01, 0.2, 0.9, 2.0, 5.0)],
    ])
    got = liealg.expm(stack)
    single = np.array([liealg.expm(m) for m in stack])
    assert np.array_equal(got, [liealg._pade_expm(m[None])[0] for m in stack])
    assert np.array_equal(got[2:], single[2:])
    assert 0 < np.abs(got[:2] - single[:2]).max() <= 1e-15
    assert np.array_equal(liealg.expm(stack[:2]), single[:2])
    assert np.array_equal(liealg.expm(stack[::-1]), got[::-1])


@pytest.mark.parametrize("h", [0.001, 0.01, 0.05])
def test_expm_pseudo_orthogonal_step_keeps_eta(h):
    eta = np.diag([-1.0, 1.0, 1.0])
    rng = np.random.default_rng(10)
    for k, tau in rng.uniform(-2.0, 2.0, (5, 2)):
        m = liealg.skew_matrix(liealg.CoeffTriple.x(k, tau, 0.0), -1)
        e = liealg.expm(h * m)
        assert np.abs(e @ eta @ e.T - eta).max() <= 1e-15


def _mixed_generators(rng, n):
    """Step generators cycling through the three exponential cases: skew
    (Rodrigues), pseudo-orthogonal beta = -1 with sigma = 0 (scaling and
    squaring) and all-zero."""
    out = []
    for i in range(n):
        k, tau = rng.uniform(-1.0, 1.0, 2)
        if i % 3 == 0:
            a = rng.normal(size=(3, 3))
            out.append(0.05 * (a - a.T))
        elif i % 3 == 1:
            t = liealg.CoeffTriple.x(k, tau, 0.0)
            out.append(0.05 * liealg.skew_matrix(t, -1))
        else:
            out.append(np.zeros((3, 3)))
    return np.array(out)


@pytest.mark.parametrize("lead", [(), (4,), (2, 3)])
def test_transport_matches_stepwise_expm(lead):
    rng = np.random.default_rng(4)
    nsteps = 9
    gens = _mixed_generators(rng, int(np.prod(lead)) * nsteps)
    gens = gens.reshape(lead + (nsteps, 3, 3))
    start = rng.normal(size=lead + (3, 3))
    got = liealg.transport(gens, start)
    assert got.shape == lead + (nsteps + 1, 3, 3)
    for idx in np.ndindex(*lead):
        f = start[idx]
        assert np.array_equal(got[idx][0], f)
        for i in range(nsteps):
            f = liealg.expm(gens[idx][i]) @ f
            assert np.abs(got[idx][i + 1] - f).max() <= 1e-14


@pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 3000])
def test_blocked_transport_matches_stepwise_chain(n):
    # none of these step counts is a perfect square, so the last block is
    # padded with identities
    rng = np.random.default_rng(15)
    if n <= 10:
        gens = _mixed_generators(rng, n).reshape(n, 3, 3)
    else:
        a = rng.normal(size=(n, 3, 3))
        gens = 0.05 * (a - np.swapaxes(a, -1, -2))
    start = rng.normal(size=(3, 3))
    got = liealg.transport(gens, start)
    f = start
    ref = [f]
    for g in gens:
        f = liealg.expm(g) @ f
        ref.append(f)
    ref = np.array(ref)
    assert got.shape == ref.shape
    assert np.array_equal(got[0], start)
    # up to 10 mixed steps agree to 1e-14; over 3000 Rodrigues steps the
    # blocked and the stepwise association each round once per product,
    # measured 3e-15 * max|F| apart, and the bound leaves 30x of that
    bound = 1e-14 if n <= 10 else 1e-13 * np.abs(ref).max()
    assert np.abs(got - ref).max() <= bound


def test_transport_broadcasts_one_start_over_lines():
    gens = _mixed_generators(np.random.default_rng(5), 12).reshape(3, 4, 3, 3)
    got = liealg.transport(gens, np.eye(3))
    for j in range(3):
        assert np.array_equal(got[j], liealg.transport(gens[j], np.eye(3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_transport_rejects_nonfinite(bad):
    gens = np.zeros((2, 5, 3, 3))
    gens[1, 3, 0, 1] = bad
    with pytest.raises(DomainError):
        liealg.transport(gens, np.eye(3))
    with pytest.raises(DomainError):
        liealg.expm(gens[1, 3])


def test_spin_matrix_north_pole():
    assert np.array_equal(liealg.spin_matrix([0, 0, 1], 1),
                          np.diag([1.0, -1.0]))


def test_spin_matrix_equator():
    assert np.array_equal(liealg.spin_matrix([1, 0, 0], 1),
                          np.array([[0, 1], [1, 0]], dtype=complex))


def test_spin_matrix_constraint_violation():
    with pytest.raises(ConstraintError) as exc:
        liealg.spin_matrix([0, 0, 0.5], 1)
    assert exc.value.defect == pytest.approx(0.75)


@given(finite, finite, st.sampled_from([1, -1]))
@settings(max_examples=50, deadline=None)
def test_spin_matrix_det_and_trace(s1, s2, r2):
    # project onto the constraint surface, then check det = -1, tr = 0
    q = r2 * (s1**2 + s2**2)
    if q >= 1.0 - 1e-6:
        return
    s3 = np.sqrt(1.0 - q)
    m = liealg.spin_matrix([s1, s2, s3], r2)
    assert abs(np.trace(m)) < 1e-10
    assert abs(np.linalg.det(m) + 1) < 1e-9


def test_spin_matrix_hermitian_focusing():
    m = liealg.spin_matrix([0.3, 0.4, np.sqrt(0.75)], 1)
    assert np.abs(m - m.conj().T).max() < 1e-12


def test_spin_matrix_field_matches_pointwise():
    # every point of a field against the hand-written entries
    # [[S3, S-], [S+, -S3]] (r2 = +1, sphere) and [[S3, S-], [-S+, -S3]]
    # (r2 = -1, hyperboloid)
    rng = np.random.default_rng(3)
    th = rng.normal(size=(4, 5))
    ph = rng.normal(size=(4, 5))
    sphere = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph),
                       np.cos(th)], axis=-1)
    hyper = np.stack([np.sinh(th) * np.cos(ph), np.sinh(th) * np.sin(ph),
                      np.cosh(th)], axis=-1)
    for S, r2 in ((sphere, 1), (hyper, -1)):
        field = liealg.spin_matrix(S, r2)
        assert field.shape == (4, 5, 2, 2)
        for idx in np.ndindex(4, 5):
            s1, s2, s3 = S[idx]
            sp = r2 * (s1 + 1j * s2)
            expect = np.array([[s3, s1 - 1j * s2], [sp, -s3]])
            assert np.abs(field[idx] - expect).max() < 1e-14


def test_spin_matrix_rejects_bad_signature():
    with pytest.raises(DomainError):
        liealg.spin_matrix([0, 0, 1], 0)
