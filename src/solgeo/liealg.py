"""Fixed-size matrix algebra: stacks of small matrices written as their
rows, skew matrices from coefficient triples, commutators, matrix
exponentials, Lie-group frame transport and the 2x2 spin matrix.

Matrices are plain numpy arrays; the builders here guarantee the algebraic
shape (generalized antisymmetry, tracelessness) of their outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from solgeo.errors import ConstraintError, DomainError

ROLE_X = "X"  # (k, tau, sigma)
ROLE_Y = "Y"  # (m1, m2, m3)
ROLE_T = "T"  # (w1, w2, w3)

# worst pointwise defect of the spin constraint that spin_matrix accepts
_SPIN_TOL = 1e-8


def matrices(rows, shape, dtype=float) -> np.ndarray:
    """The zero-filled stack shape + (m, m) of the matrices written as
    their m rows: entry (i, j) is rows[i][j], an array that broadcasts to
    shape or a number.  An entry that is a literal (integer) zero is not
    written, so it stays the zero fill.  The entries are read row by row,
    left to right, and each is written before the next is read, so rows
    of generators build one entry at a time."""
    out = np.zeros(tuple(shape) + (len(rows),) * 2, dtype=dtype)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if not (isinstance(v, int) and v == 0):
                out[..., i, j] = v
    return out


@dataclass(frozen=True)
class CoeffTriple:
    """Scalar coefficient triple filling one skew connection matrix.

    Stored in matrix-slot order: c1 is the (1,2) entry, c2 the (2,3) entry,
    c3 the magnitude of the (1,3)/(3,1) pair.  The named constructors take
    the coefficients in the order they are usually written.
    """

    c1: float
    c2: float
    c3: float
    role: str = ROLE_X

    def __post_init__(self):
        if not all(map(math.isfinite, (self.c1, self.c2, self.c3))):
            raise DomainError("coefficient triple must be finite")
        if self.role not in (ROLE_X, ROLE_Y, ROLE_T):
            raise DomainError(f"unknown role {self.role!r}")

    @classmethod
    def x(cls, k, tau, sigma):
        """Curvature / torsion / sigma triple (x-direction matrix)."""
        return cls(k, tau, sigma, ROLE_X)

    @classmethod
    def y(cls, m1, m2, m3):
        """m-triple (y-direction matrix): slots are (m3, m1, m2)."""
        return cls(m3, m1, m2, ROLE_Y)

    @classmethod
    def t(cls, w1, w2, w3):
        """omega-triple (t-direction matrix): slots are (w3, w1, w2)."""
        return cls(w3, w1, w2, ROLE_T)


def skew_matrix(t, beta: int) -> np.ndarray:
    """3x3 connection matrix of a coefficient triple, or the (n, 3, 3)
    stack of a sequence of triples, filled in one pass.

    Rows are (0, c1, -c3), (-beta*c1, 0, c2), (s*c3, -c2, 0).  The (3,1)
    sign s is +1 for the X role and +beta for the Y/T roles; the two
    conventions are transcribed separately on purpose and only coincide
    at beta = +1.
    """
    if beta not in (1, -1):
        raise DomainError("beta must be +1 or -1")
    single = isinstance(t, CoeffTriple)
    triples = [t] if single else t
    c = np.array([(u.c1, u.c2, u.c3, 1.0 if u.role == ROLE_X else beta)
                  for u in triples], dtype=float).reshape(-1, 4)
    c1, c2, c3, s = c.T
    m = matrices([[0, c1, -c3],
                  [-beta * c1, 0, c2],
                  [s * c3, -c2, 0]], (len(c),))
    return m[0] if single else m


def hat(v: np.ndarray) -> np.ndarray:
    """Skew 3x3 matrices m of axial vectors v (..., 3), with
    v = (m[2,1], m[0,2], m[1,0]); hat(a x b) = [hat(a), hat(b)]."""
    v = np.asarray(v)
    if v.shape[-1:] != (3,):
        raise DomainError(f"axial vectors need a last axis of 3, got {v.shape}")
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    return matrices([[0, -z, y],
                     [z, 0, -x],
                     [-y, x, 0]], v.shape[:-1], v.dtype)


# points per block of the bracket kernels (`cross` and the complex 3x3
# `commutator`), so a block's components-first copies and per-entry
# temporaries stay in L2.  On a 32^3 complex commutator 4096 took 5.1 ms
# against 7.6 ms unblocked (1024: 9.0, 2048: 5.1, 8192: 6.2, 16384: 7.3 ms),
# and a 65^3 cross, one 4225-point row per block, 3.3 against 5.2 ms (one
# thread, 2-core x86 host with 2 MiB of L2 per core)
_BLOCK = 4096


def _blocks(lead):
    """Slices of axis 0 of a stack with leading shape lead, each of about
    _BLOCK points and at least one row; one slice over all of it when lead
    is empty."""
    if not lead:
        return [...]
    step = max(1, _BLOCK // max(1, math.prod(lead[1:])))
    return [slice(i, i + step) for i in range(0, lead[0], step)]


def _broadcast(x, y, core: int, what: str):
    """x and y with their leading axes (all but the last core) broadcast
    against each other, or a DomainError naming what."""
    if x.shape[:-core] == y.shape[:-core]:
        return x, y
    try:
        lead = np.broadcast_shapes(x.shape[:-core], y.shape[:-core])
    except ValueError:
        raise DomainError(f"{what} stacks {x.shape} and {y.shape} do not "
                          f"broadcast") from None
    return (np.broadcast_to(x, lead + x.shape[-core:]),
            np.broadcast_to(y, lead + y.shape[-core:]))


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product a x b of axial vectors (..., 3), the so(3) bracket:
    component by component (a1 b2 - a2 b1, ...) into one output, with the
    operations and so the bits of np.cross but without its copies, block
    by block (`_blocks`) over the broadcast stack."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape[-1:] != (3,) or b.shape[-1:] != (3,):
        raise DomainError(f"axial vectors need a last axis of 3, got "
                          f"{a.shape} and {b.shape}")
    a, b = _broadcast(a, b, 1, "axial vector")
    out = np.empty(a.shape, dtype=np.result_type(a, b))
    for s in _blocks(a.shape[:-1]):
        ab, bb, ob = a[s], b[s], out[s]
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            np.subtract(ab[..., j] * bb[..., k], ab[..., k] * bb[..., j],
                        out=ob[..., i])
    return out


def commutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Matrix commutator [x, y] = xy - yx of two (..., m, m) stacks whose
    leading axes broadcast.

    Complex 3x3 stacks, where numpy's batched complex `@` is slow, are
    summed entry by entry, with the matrix axes of the inputs moved in
    front block by block (`_blocks`), into the (..., 3, 3) output; the
    result differs from `x @ y - y @ x` by summation order only (within
    1e-15 * max|x| * max|y|) and stays exactly antisymmetric.  Real stacks
    and other sizes use `@`, which is the faster form there and gains
    nothing from blocks (5.1 against 4.7 ms unblocked on 32^3).  The
    real-view product of `cmatmul` is slower here, where every call would
    split both inputs: on a 32^3 stack the entrywise sum took 8.5 ms and
    the two `cmatmul` terms 15.3 ms, splits included (one thread, 2-core
    x86 host).
    """
    x = np.asarray(x)
    y = np.asarray(y)
    if (x.ndim < 2 or x.shape[-1] != x.shape[-2]
            or x.shape[-2:] != y.shape[-2:]):
        raise DomainError(f"commutator needs two (..., m, m) stacks, got "
                          f"{x.shape} and {y.shape}")
    x, y = _broadcast(x, y, 2, "matrix")
    dtype = np.result_type(x, y)
    if x.shape[-2:] != (3, 3) or dtype.kind != "c":
        return x @ y - y @ x
    out = np.empty(x.shape, dtype=dtype)
    for s in _blocks(x.shape[:-2]):
        a = np.ascontiguousarray(np.moveaxis(x[s], (-2, -1), (0, 1)),
                                 dtype=dtype)
        b = np.ascontiguousarray(np.moveaxis(y[s], (-2, -1), (0, 1)),
                                 dtype=dtype)
        o = out[s]
        for i in range(3):
            for j in range(3):
                xy = a[i, 0] * b[0, j]
                xy += a[i, 1] * b[1, j]
                xy += a[i, 2] * b[2, j]
                yx = b[i, 0] * a[0, j]
                yx += b[i, 1] * a[1, j]
                yx += b[i, 2] * a[2, j]
                np.subtract(xy, yx, out=o[..., i, j])
    return out


def cmatmul(mr: np.ndarray, mi: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Products (mr + i mi) @ g of a complex stack g (..., k, k) by a complex
    stack given as its real and imaginary parts, as two real products on
    the real view (..., k, 2k) of g: mr @ g_ri + mi @ (i g)_ri.

    Callers that multiply by the same matrices many times split them once.
    On 256 complex 3x3 matrices this took 49 us against 117 us for numpy's
    complex `@` (one thread, 2-core x86 host); the result differs from `@`
    by summation order.
    """
    g = np.ascontiguousarray(g, dtype=complex)
    out = mr @ g.view(float)
    out += mi @ (1j * g).view(float)
    return out.view(complex)


# theta_m, the largest 1-norm at which the [m/m] Pade approximant r_m of exp
# has a backward error below unit roundoff, and the numerator coefficients
# b_0 ... b_m of r_m (Higham, "The scaling and squaring method for the matrix
# exponential revisited", SIMAX 26 (2005) 1179, Table 2.3 and Algorithm 2.3)
_PADE = {
    3: (1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
    5: (2.539398330063230e-1, (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    7: (9.504178996162932e-1, (17297280.0, 8648640.0, 1995840.0, 277200.0,
                               25200.0, 1512.0, 56.0, 1.0)),
    9: (2.097847961257068e0, (17643225600.0, 8821612800.0, 2075673600.0,
                              302702400.0, 30270240.0, 2162160.0, 110880.0,
                              3960.0, 90.0, 1.0)),
    13: (5.371920351148152e0, (64764752532480000.0, 32382376266240000.0,
                               7771770303897600.0, 1187353796428800.0,
                               129060195264000.0, 10559470521600.0,
                               670442572800.0, 33522128640.0, 1323241920.0,
                               40840800.0, 960960.0, 16380.0, 182.0, 1.0)),
}


def _solve3(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Solutions x of p x = q for stacks (..., 3, 3) of p and q, as
    adj(p) q / det(p): column i of adj(p) is the cross product of rows
    i + 1 and i + 2 of p.  Meant for the well-conditioned denominators of
    the Pade approximants."""
    adj = np.empty_like(p)
    for i in range(3):
        adj[..., i] = cross(p[..., (i + 1) % 3, :], p[..., (i + 2) % 3, :])
    det = p[..., 0, 0] * adj[..., 0, 0]
    det += p[..., 0, 1] * adj[..., 1, 0]
    det += p[..., 0, 2] * adj[..., 2, 0]
    adj /= det[..., None, None]
    return adj @ q


def _pade_fraction(a: np.ndarray, m: int):
    """Denominator V - U and numerator V + U of the [m/m] Pade approximant
    r_m of exp at a stack (n, 3, 3), U odd and V even in a."""
    b = _PADE[m][1]
    a2 = a @ a
    if m == 13:
        a4 = a2 @ a2
        a6 = a4 @ a2
        u = (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2)
        v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
             + b[6] * a6 + b[4] * a4 + b[2] * a2)
    else:
        u = b[3] * a2
        v = b[2] * a2
        power = a2
        for j in range(4, m, 2):
            power = power @ a2
            u += b[j + 1] * power
            v += b[j] * power
    u.reshape(-1, 9)[:, ::4] += b[1]
    v.reshape(-1, 9)[:, ::4] += b[0]
    u = a @ u
    return v - u, np.add(v, u, out=v)


def _pade(a: np.ndarray, norm: np.ndarray, m: int) -> np.ndarray:
    """exp of a stack (n, 3, 3) of 1-norms norm by r_m.  For m = 13 each
    matrix is first scaled by its own 2^-s,
    s = max(0, ceil(log2(norm / theta_13))), and its r_13 squared s times."""
    if m != 13:
        return _solve3(*_pade_fraction(a, m))
    s = np.maximum(0, np.ceil(np.log2(norm / _PADE[13][0]))).astype(int)
    r = _solve3(*_pade_fraction(a * np.ldexp(1.0, -s)[:, None, None], 13))
    for k in range(int(s.max())):
        sq = s > k
        r[sq] = r[sq] @ r[sq]
    return r


def _norm1(a: np.ndarray) -> np.ndarray:
    """1-norms (largest column sums) of a stack (n, 3, 3), entry by entry:
    on 16,512 matrices numpy's sum and max over axes of length 3 took
    2-3 ms, this 0.6 ms."""
    x = np.abs(a)
    col = x[:, 0] + x[:, 1] + x[:, 2]
    return np.maximum(np.maximum(col[:, 0], col[:, 1]), col[:, 2])


def _pade_expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponentials of a finite stack (n, 3, 3) by the Pade
    approximant of the lowest degree m in (3, 5, 7, 9) whose theta_m bounds
    the matrix's 1-norm, unscaled, and above theta_9 by [13/13] scaling and
    squaring.  Each result depends on its own matrix only; a stack that
    needs one degree is not split."""
    norm = _norm1(a)
    deg = np.full(len(a), 13)
    for m in (9, 7, 5, 3):
        deg[norm <= _PADE[m][0]] = m
    degrees = [m for m in _PADE if np.any(deg == m)]
    if len(degrees) == 1:
        return _pade(a, norm, degrees[0])
    out = np.empty_like(a)
    for m in degrees:
        sel = deg == m
        out[sel] = _pade(a[sel], norm[sel], m)
    return out


def _rodrigues(m: np.ndarray) -> np.ndarray:
    """Exponentials of a stack (n, 3, 3) of skew matrices by the closed-form
    axis-angle formula."""
    w = np.stack([m[:, 2, 1], m[:, 0, 2], m[:, 1, 0]], axis=-1)
    theta = np.linalg.norm(w, axis=-1)
    zero = theta < 1e-30
    theta = np.where(zero, 1.0, theta)[:, None, None]
    k = m / theta
    r = np.eye(3) + np.sin(theta) * k + (1.0 - np.cos(theta)) * (k @ k)
    r[zero] = np.eye(3)
    return r


def _real_3x3(x, what: str) -> np.ndarray:
    """x as a float array of shape (..., 3, 3); complex input and other
    shapes are domain errors."""
    x = np.asarray(x)
    if np.iscomplexobj(x):
        raise DomainError(f"{what} must be real, got dtype {x.dtype}")
    if x.shape[-2:] != (3, 3):
        raise DomainError(f"{what} must have shape (..., 3, 3), got {x.shape}")
    return np.asarray(x, dtype=float)


def expm(gens: np.ndarray) -> np.ndarray:
    """Matrix exponentials of one real generator (3, 3) or of a stack
    (..., 3, 3).

    A stack whose every generator has |m + m^T| <= 1e-14 goes through the
    closed-form axis-angle (Rodrigues) formula, so each result is
    orthogonal to rounding; any other stack goes whole, skew generators
    included, through the batched Pade kernel (`_pade_expm`).  Each result
    depends on its own matrix and on whether its whole stack is skew.
    """
    gens = _real_3x3(gens, "generator")
    if not np.all(np.isfinite(gens)):
        raise DomainError("non-finite generator")
    a = gens.reshape(-1, 3, 3)
    skew = np.all(np.abs(a + np.swapaxes(a, -1, -2)) <= 1e-14)
    return (_rodrigues(a) if skew else _pade_expm(a)).reshape(gens.shape)


def transport(gens: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Lie-group transport of a frame through a sequence of step generators.

    gens[..., i, :, :] is the (step-scaled) generator of step i; leading
    axes are independent lines and broadcast against start[..., :, :].
    Returns F with F[..., 0, :, :] = start and
    F[..., i+1, :, :] = expm(gens[..., i, :, :]) @ F[..., i, :, :].

    All exponentials are taken in one batch.  The product chain runs in
    blocks of b = ceil(sqrt(n)) steps, the last one padded with identities:
    the prefix products inside every block at once, then one carry per
    block, then one batched product of prefixes and carries, so about
    2 sqrt(n) batched products replace n.  The products associate per
    block, so F differs from the stepwise chain by rounding only.
    """
    steps = expm(gens)
    start = _real_3x3(start, "start frame")
    if steps.ndim < 3:
        raise DomainError(f"step generators need shape (..., n, 3, 3), "
                          f"got {steps.shape}")
    try:
        lead = np.broadcast_shapes(steps.shape[:-3], start.shape[:-2])
    except ValueError:
        raise DomainError(f"start frames {start.shape} do not broadcast "
                          f"against the lines of {steps.shape}") from None
    n = steps.shape[-3]
    b = math.isqrt(n - 1) + 1 if n else 1
    nb = -(-n // b)
    pad = np.broadcast_to(np.eye(3), steps.shape[:-3] + (nb * b - n, 3, 3))
    pre = np.concatenate([steps, pad], axis=-3).reshape(
        steps.shape[:-3] + (nb, b, 3, 3))
    for j in range(1, b):
        pre[..., j, :, :] = pre[..., j, :, :] @ pre[..., j - 1, :, :]
    carry = np.empty(lead + (nb, 3, 3))
    carry[..., :1, :, :] = start[..., None, :, :]
    for j in range(1, nb):
        carry[..., j, :, :] = pre[..., j - 1, -1, :, :] @ carry[..., j - 1, :, :]
    out = np.empty(lead + (n + 1, 3, 3))
    out[..., 0, :, :] = start
    out[..., 1:, :, :] = (pre @ carry[..., None, :, :]).reshape(
        lead + (nb * b, 3, 3))[..., :n, :, :]
    return out


def spin_matrix(S: np.ndarray, r2: int = 1) -> np.ndarray:
    """2x2 spin matrices [[S3, S-], [S+, -S3]] of spin vectors S (..., 3),
    subject to the pseudo-unit constraint S3^2 + r2*(S1^2 + S2^2) = 1 at
    every point.

    r2 is the sign of the quadratic form, never an imaginary entry: for
    r2 = -1 the off-diagonal pair is (S-, -S+) so that the determinant is
    -(S3^2 + r2*(S1^2 + S2^2)) = -1 in both signatures.
    """
    if r2 not in (1, -1):
        raise DomainError("r2 must be +1 or -1")
    S = np.asarray(S)
    s1, s2, s3 = S[..., 0], S[..., 1], S[..., 2]
    defect = np.abs(s3 * s3 + r2 * (s1 * s1 + s2 * s2) - 1.0)
    worst = float(defect.max())
    if worst > _SPIN_TOL:
        raise ConstraintError(
            f"spin constraint violated, worst defect {worst:.3e}", defect=worst
        )
    sp = s1 + 1j * s2
    return matrices([[s3, s1 - 1j * s2],
                     [sp if r2 == 1 else -sp, -s3]], S.shape[:-1], complex)
