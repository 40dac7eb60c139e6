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


def test_commutator_shape_mismatch():
    with pytest.raises(DomainError):
        liealg.commutator(np.eye(3), np.eye(2))


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
    # each result depends on its own matrix only, whatever shares the stack
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
    ])
    got = liealg.expm(stack)
    assert np.array_equal(got, [liealg.expm(m) for m in stack])
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
