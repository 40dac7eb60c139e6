"""Frame propagation, fundamental-form coefficient maps, 2x2 gauge matrices
and surface reconstruction from first/second fundamental forms."""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from solgeo import grid as sg
from solgeo import liealg
from solgeo.errors import DomainError


def _gram_defect(e: np.ndarray, beta: int) -> float:
    """Max of |E eta E^T - eta| over a stack of frames (..., 3, 3)."""
    eta = np.diag([float(beta), 1.0, 1.0])
    return float(np.abs(e @ eta @ np.swapaxes(e, -1, -2) - eta).max())


@dataclass(frozen=True)
class FrameTriad:
    """Orthonormal (or pseudo-orthonormal for beta=-1) triad, rows e1,e2,e3."""

    e1: np.ndarray
    e2: np.ndarray
    e3: np.ndarray
    beta: int = 1

    @classmethod
    def standard(cls, beta: int = 1):
        return cls(np.array([1.0, 0, 0]), np.array([0, 1.0, 0]),
                   np.array([0, 0, 1.0]), beta)

    def as_matrix(self) -> np.ndarray:
        return np.stack([self.e1, self.e2, self.e3])

    def gram_defect(self) -> float:
        """Max deviation of the pseudo-Gram matrix E eta E^T from
        eta = diag(beta, 1, 1); for beta=1 this is plain orthonormality."""
        return _gram_defect(self.as_matrix(), self.beta)


@dataclass(frozen=True)
class FrameField:
    grid: sg.GridSpec
    data: np.ndarray  # grid.shape + (3, 3), rows e1,e2,e3
    beta: int = 1

    def triad(self, *idx) -> FrameTriad:
        m = self.data[idx]
        return FrameTriad(m[0], m[1], m[2], self.beta)

    def gram_defect(self) -> float:
        """Largest `FrameTriad.gram_defect` over every frame of the field."""
        return _gram_defect(self.data, self.beta)


@dataclass(frozen=True)
class PositionField:
    grid: sg.GridSpec
    data: np.ndarray  # grid.shape + (3,)


def _midpoint(mats: np.ndarray, h: float) -> np.ndarray:
    """Midpoint step generators h (M_i + M_{i+1}) / 2 of a line of
    connection matrices mats[..., i, :, :]; leading axes are other lines."""
    return h * 0.5 * (mats[..., :-1, :, :] + mats[..., 1:, :, :])


def propagate_frenet(start: FrameTriad, coeffs, beta: int, h: float) -> FrameField:
    """Advance a frame along one axis with per-step exponentials of the
    midpoint-averaged skew matrix (Lie-group midpoint, order 2; exact for
    constant coefficients)."""
    if start.beta != beta:
        # the field carries one signature, which the start frame must share
        raise DomainError(f"start frame has beta = {start.beta}, "
                          f"propagation beta = {beta}")
    coeffs = list(coeffs)
    # the frames live on a grid axis, built first so that a short input
    # fails before any step is transported
    gspec = sg.GridSpec.make(sg.Axis("x", len(coeffs), h))
    mats = liealg.skew_matrix(coeffs, beta)
    out = liealg.transport(_midpoint(mats, h), start.as_matrix())
    return FrameField(gspec, out, beta)


def commutation_defect_2d(start: FrameTriad, A, B) -> float:
    """Max-norm difference between propagating the frame x-then-y and
    y-then-x across the full grid; a computable zero-curvature proxy.
    A and B are MatrixFields or so(3) AxialFields, whose boundary lines
    are turned into matrices."""
    if A.grid != B.grid:
        raise DomainError("A and B must share a grid")
    g = A.grid
    hx = g.axis("x").h
    hy = g.axis("y").h
    f0 = start.as_matrix()

    def line(frame, field, idx, h):
        mats = field.data[idx]
        if isinstance(field, sg.AxialField):
            mats = liealg.hat(mats)
        return liealg.transport(_midpoint(mats, h), frame)[-1]

    # x along y=0, then y along x=end
    fxy = line(line(f0, A, np.s_[:, 0], hx), B, np.s_[-1, :], hy)
    # y along x=0, then x along y=end
    fyx = line(line(f0, B, np.s_[0, :], hy), A, np.s_[:, -1], hx)
    return float(np.abs(fxy - fyx).max())


# the spatial Christoffel symbols, an absent one is zero, and the
# time-direction entries the maps below read when present
_SPATIAL_GAMMA = ("111", "211", "112", "212", "122", "222")
_TIME_GAMMA = ("201", "203", "301", "302")
_FORMS = ("E", "F", "G", "L", "M", "N", "p11", "p12", "p21", "p22")


def _on_grid(name, v, shape):
    """v as a read-only float view of the given shape, else a DomainError."""
    v = np.asarray(v, float)
    try:
        return np.broadcast_to(v, shape)
    except ValueError:
        raise DomainError(f"{name} of shape {v.shape} does not broadcast to "
                          f"the grid shape {shape}") from None


@dataclass(frozen=True)
class SurfaceData:
    """First/second fundamental forms, Christoffel symbols and Weingarten
    coefficients sampled on an (x, y) grid.

    Each of E ... p22 and each gamma entry may be anything that broadcasts
    to grid.shape, a constant included; it is stored as a read-only array
    of that shape, and gamma as a read-only mapping, so no entry escapes
    these checks by a write after construction.  An entry that does not
    broadcast is a DomainError naming it.  gamma keys use upper-then-lower
    index strings, e.g. "211" for the symbol with upper index 2 and lower
    indices 1,1.  An absent spatial symbol is zero; the time-direction
    entries ("201", "203", "301", "302") are optional.  Any other gamma key
    is a DomainError.

    g = EG - F^2 is computed once, here, and E > 0, g > 0 are checked at
    every grid point: a degenerate metric is a DomainError at construction.
    """

    grid: sg.GridSpec
    E: np.ndarray
    F: np.ndarray
    G: np.ndarray
    L: np.ndarray
    M: np.ndarray
    N: np.ndarray
    gamma: dict
    p11: np.ndarray
    p12: np.ndarray
    p21: np.ndarray
    p22: np.ndarray
    g: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        shape = self.grid.shape
        unknown = sorted(set(self.gamma) - set(_SPATIAL_GAMMA + _TIME_GAMMA))
        if unknown:
            raise DomainError(f"unknown gamma key {unknown[0]!r}")
        put = lambda name, v: object.__setattr__(self, name, v)
        for name in _FORMS:
            put(name, _on_grid(name, getattr(self, name), shape))
        gamma = {**dict.fromkeys(_SPATIAL_GAMMA, 0.0), **self.gamma}
        put("gamma", MappingProxyType({
            k: _on_grid(f"gamma[{k!r}]", v, shape) for k, v in gamma.items()}))
        put("g", self.E * self.G - self.F**2)
        for name, v in (("E", self.E), ("EG - F^2", self.g)):
            if np.any(v <= 0):
                idx = tuple(map(int, np.unravel_index(np.argmax(v <= 0),
                                                      shape)))
                raise DomainError(f"{name} <= 0 first at grid index {idx}")


def coeffs_from_surface(s: SurfaceData) -> dict:
    """Pointwise frame coefficients from the fundamental forms:

    k = L/sqrt(E), sigma = (g/E) G^2_11, tau = -(g/sqrt(E)) p12,
    m1 = -(g/sqrt(E)) p22, m2 = (g/E) G^2_12, m3 = M/sqrt(E);
    with time data also w1 = -(g/sqrt(E)) G^2_03, w2 = (g/E) G^2_03,
    w3 = G^3_01 / sqrt(E).
    """
    g = s.g
    sqE = np.sqrt(s.E)
    out = {
        "k": s.L / sqE,
        "sigma": (g / s.E) * s.gamma["211"],
        "tau": -(g / sqE) * s.p12,
        "m1": -(g / sqE) * s.p22,
        "m2": (g / s.E) * s.gamma["212"],
        "m3": s.M / sqE,
    }
    if "203" in s.gamma and "301" in s.gamma:
        out["w1"] = -(g / sqE) * s.gamma["203"]
        out["w2"] = (g / s.E) * s.gamma["203"]
        out["w3"] = s.gamma["301"] / sqE
    return out


def build_uvw(s: SurfaceData):
    """Traceless anti-Hermitian 2x2 gauge matrices of the frame linear
    problem.  W is returned only when the time-direction Christoffels are
    present."""
    g = s.g
    sqE = np.sqrt(s.E)
    sq_gE = np.sqrt(g / s.E)
    sqg = np.sqrt(g)
    pref = 1.0 / (2j * sqE)

    def mat(diag, off_re, off_im_sign):
        return sg.MatrixField(s.grid, liealg.matrices(
            [[pref * (-sqg * diag), pref * (off_re + 1j * off_im_sign)],
             [pref * (off_re - 1j * off_im_sign), pref * (sqg * diag)]],
            s.grid.shape, complex))

    U = mat(s.p12, s.L, sq_gE * s.gamma["211"])
    V = mat(s.p22, s.M, -sq_gE * s.gamma["212"])
    W = None
    if "203" in s.gamma and "301" in s.gamma and "201" in s.gamma:
        W = mat(s.gamma["203"], s.gamma["301"], -sq_gE * s.gamma["201"])
    return U, V, W


def gwe_matrices(s: SurfaceData):
    """3x3 connection matrices of the position-vector linear problem
    Z = (r_x, r_y, n):  Z_x = A Z, Z_y = B Z."""
    gam = s.gamma
    A = liealg.matrices([[gam["111"], gam["211"], s.L],
                         [gam["112"], gam["212"], s.M],
                         [s.p11, s.p12, 0]], s.grid.shape)
    B = liealg.matrices([[gam["112"], gam["212"], s.M],
                         [gam["122"], gam["222"], s.N],
                         [s.p21, s.p22, 0]], s.grid.shape)
    return sg.MatrixField(s.grid, A), sg.MatrixField(s.grid, B)


@dataclass(frozen=True)
class ReconstructionResult:
    position: PositionField
    normal: np.ndarray           # grid.shape + (3,)
    mixed_partial_defect: float  # || d_y r_x - d_x r_y ||_inf from the Z rows
    gmce_residual_max: float     # ||GMCE residual||_inf of the A, B pair


def reconstruct_surface(s: SurfaceData) -> ReconstructionResult:
    """Integrate the position-vector linear problem along x at y_min, then
    along y for every x (fixed sweep order), and recover r by trapezoidal
    integration of the propagated tangents.

    The surface starts at the origin with the standard frame, n along
    r_x ^ r_y.
    """
    from solgeo import zerocurv

    g = s.grid
    hx = g.axis("x").h
    hy = g.axis("y").h
    nx, ny = g.shape
    A, B = gwe_matrices(s)

    e1, e2, e3 = np.eye(3)
    E0 = s.E[0, 0]
    F0 = s.F[0, 0]
    g0 = s.g[0, 0]
    Z0 = np.stack([
        np.sqrt(E0) * e1,
        (F0 / np.sqrt(E0)) * e1 - np.sqrt(g0 / E0) * e3,
        e2,
    ])

    # x-sweep along y_min, then every x-row's y-sweep in one batch
    Z_row0 = liealg.transport(_midpoint(A.data[:, 0], hx), Z0)
    Z = liealg.transport(_midpoint(B.data, hy), Z_row0)

    rx = Z[..., 0, :]
    ry = Z[..., 1, :]
    nrm = Z[..., 2, :]

    r = np.empty((nx, ny, 3))
    r[0, 0] = 0.0
    r[1:, 0] = np.cumsum(0.5 * hx * (rx[:-1, 0] + rx[1:, 0]), axis=0)
    incr = np.cumsum(0.5 * hy * (ry[:, :-1] + ry[:, 1:]), axis=1)
    r[:, 1:] = r[:, :1] + incr

    rx_y = sg.partial_data(rx, g, "y")
    ry_x = sg.partial_data(ry, g, "x")
    mixed = float(np.abs(rx_y - ry_x).max())

    res = zerocurv.zc_residual("gmce", {"A": A, "B": B})["xy"]

    return ReconstructionResult(
        position=PositionField(g, r),
        normal=nrm,
        mixed_partial_defect=mixed,
        gmce_residual_max=float(np.abs(res).max()),
    )


def time_christoffels(s: SurfaceData, y1, y2, y3) -> dict:
    """The three printed time-direction Christoffel formulas for velocities
    Y1, Y2, Y3 that broadcast to the grid, under neutral names because
    their upper-index labels look misprinted (the right-hand sides of the
    second and third suggest upper indices 2 and 3):

    c01a = Y1_x + Y1 G^1_11 + Y2 G^1_12 + Y3 p11
    c01b = Y2_x + Y1 G^2_11 + Y2 G^2_12 + Y3 p12
    c01c = Y3_x + Y1 L + Y2 M

    plus p01 = F c3/g and p02 = -E c3/g for a caller-supplied "302" entry.
    """
    y1, y2, y3 = (_on_grid(f"Y{i}", y, s.grid.shape)
                  for i, y in enumerate((y1, y2, y3), 1))
    dx = lambda f: sg.partial_data(f, s.grid, "x")
    out = {
        "c01a": dx(y1) + y1 * s.gamma["111"] + y2 * s.gamma["112"] + y3 * s.p11,
        "c01b": dx(y2) + y1 * s.gamma["211"] + y2 * s.gamma["212"] + y3 * s.p12,
        "c01c": dx(y3) + y1 * s.L + y2 * s.M,
    }
    if "302" in s.gamma:
        out["p01"] = s.F * s.gamma["302"] / s.g
        out["p02"] = -s.E * s.gamma["302"] / s.g
    return out


def mI_velocities(s: SurfaceData, u: np.ndarray | None = None):
    """Velocity coefficients of the position-flow form of the isotropic spin
    equation: Y1 = u + M F / sqrt(g), Y2 = -M / sqrt(g), Y3 = G^2_12 sqrt(g),
    with u integrated from sqrt(g) (L G^2_12 - M G^2_11) when omitted."""
    sqg = np.sqrt(s.g)
    if u is None:
        integrand = sqg * (s.L * s.gamma["212"] - s.M * s.gamma["211"])
        u = sg.antider_x_data(integrand, s.grid)
    y1 = u + s.M * s.F / sqg
    y2 = -s.M / sqg
    y3 = s.gamma["212"] * sqg
    return y1, y2, y3


def export_obj(path, pos: PositionField):
    """Wavefront OBJ export: grid vertices plus quad faces."""
    nx, ny = pos.grid.shape
    with open(path, "w") as fh:
        for i in range(nx):
            for j in range(ny):
                v = pos.data[i, j]
                fh.write(f"v {v[0]:.12g} {v[1]:.12g} {v[2]:.12g}\n")
        for i in range(nx - 1):
            for j in range(ny - 1):
                a = i * ny + j + 1
                b = (i + 1) * ny + j + 1
                fh.write(f"f {a} {b} {b + 1} {a + 1}\n")
