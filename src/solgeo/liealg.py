"""Fixed-size matrix algebra: skew matrices from coefficient triples,
commutators, matrix exponentials, Lie-group frame transport and the 2x2
spin matrix.

Matrices are plain numpy arrays; the builders here guarantee the algebraic
shape (generalized antisymmetry, tracelessness) of their outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from solgeo.errors import ConstraintError, DomainError

ROLE_X = "X"  # (k, tau, sigma)
ROLE_Y = "Y"  # (m1, m2, m3)
ROLE_T = "T"  # (w1, w2, w3)

# worst pointwise defect of the spin constraint that spin_matrix accepts
_SPIN_TOL = 1e-8


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
        if not all(np.isfinite([self.c1, self.c2, self.c3])):
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


def skew_matrix(t: CoeffTriple, beta: int) -> np.ndarray:
    """3x3 connection matrix for a coefficient triple.

    Rows are (0, c1, -c3), (-beta*c1, 0, c2), (s*c3, -c2, 0).  The (3,1)
    sign s is +1 for the X role and +beta for the Y/T roles; the two
    conventions are transcribed separately on purpose and only coincide
    at beta = +1.
    """
    if beta not in (1, -1):
        raise DomainError("beta must be +1 or -1")
    c1, c2, c3 = t.c1, t.c2, t.c3
    s = 1.0 if t.role == ROLE_X else float(beta)
    return np.array(
        [
            [0.0, c1, -c3],
            [-beta * c1, 0.0, c2],
            [s * c3, -c2, 0.0],
        ]
    )


def commutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Matrix commutator [x, y] = xy - yx (batched over leading axes)."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape[-2:] != y.shape[-2:]:
        raise DomainError(f"shape mismatch {x.shape} vs {y.shape}")
    return x @ y - y @ x


# [13/13] Pade approximant of exp: theta_13 and the numerator coefficients
# b_0 ... b_13 (Higham, "The scaling and squaring method for the matrix
# exponential revisited", SIMAX 2005, Algorithm 2.3)
_THETA_13 = 5.371920351148152
_PADE_13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
            1187353796428800.0, 129060195264000.0, 10559470521600.0,
            670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
            960960.0, 16380.0, 182.0, 1.0)


def _pade_expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponentials of a finite stack (n, k, k) by scaling and
    squaring with the [13/13] Pade approximant.

    Each matrix gets its own scaling s = max(0, ceil(log2(|A|_1 / theta_13)))
    and is squared s times, so its result does not depend on the rest of
    the stack.
    """
    b = _PADE_13
    norm = np.abs(a).sum(axis=-2).max(axis=-1)
    with np.errstate(divide="ignore"):
        s = np.maximum(0, np.ceil(np.log2(norm / _THETA_13))).astype(int)
    a = a * np.ldexp(1.0, -s)[:, None, None]
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    for k in range(int(s.max(initial=0))):
        sq = s > k
        r[sq] = r[sq] @ r[sq]
    return r


def expm(gens: np.ndarray) -> np.ndarray:
    """Matrix exponentials of one generator (k, k) or of a stack (..., k, k).

    Each 3x3 generator with |m + m^T| <= 1e-14 goes through the
    closed-form axis-angle (Rodrigues) formula, so the result is orthogonal
    to rounding; all others go through one batched Pade scaling and
    squaring (`_pade_expm`).  Each result depends on its own matrix only.
    """
    gens = np.asarray(gens, dtype=float)
    if not np.all(np.isfinite(gens)):
        raise DomainError("non-finite generator")
    out = np.empty_like(gens)
    if gens.shape[-2:] == (3, 3):
        skew = np.all(np.abs(gens + np.swapaxes(gens, -1, -2)) <= 1e-14,
                      axis=(-2, -1))
    else:
        skew = np.zeros(gens.shape[:-2], dtype=bool)
    if skew.any():
        m = gens[skew]
        w = np.stack([m[:, 2, 1], m[:, 0, 2], m[:, 1, 0]], axis=-1)
        theta = np.linalg.norm(w, axis=-1)
        zero = theta < 1e-30
        theta = np.where(zero, 1.0, theta)[:, None, None]
        k = m / theta
        r = np.eye(3) + np.sin(theta) * k + (1.0 - np.cos(theta)) * (k @ k)
        r[zero] = np.eye(3)
        out[skew] = r
    if not skew.all():
        out[~skew] = _pade_expm(gens[~skew])
    return out


def transport(gens: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Lie-group transport of a frame through a sequence of step generators.

    gens[..., i, :, :] is the (step-scaled) generator of step i; leading
    axes are independent lines and broadcast against start[..., :, :].
    Returns F with F[..., 0, :, :] = start and
    F[..., i+1, :, :] = expm(gens[..., i, :, :]) @ F[..., i, :, :].
    All exponentials are taken in one batch; only the product chain loops.
    """
    steps = expm(gens)
    start = np.asarray(start, dtype=float)
    lead = np.broadcast_shapes(steps.shape[:-3], start.shape[:-2])
    n = steps.shape[-3]
    out = np.empty(lead + (n + 1,) + start.shape[-2:])
    out[..., 0, :, :] = start
    for i in range(n):
        out[..., i + 1, :, :] = steps[..., i, :, :] @ out[..., i, :, :]
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
    out = np.empty(S.shape[:-1] + (2, 2), dtype=complex)
    out[..., 0, 0] = s3
    out[..., 0, 1] = s1 - 1j * s2
    out[..., 1, 0] = (s1 + 1j * s2) if r2 == 1 else -(s1 + 1j * s2)
    out[..., 1, 1] = -s3
    return out
