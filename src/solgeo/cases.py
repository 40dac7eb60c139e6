"""Built-in manufactured cases with known closed forms.

Each case carries enough exact structure to serve as an oracle: plane waves
with hand-derived dispersion relations, a pure-gauge connection with exact
derivatives, a rational spectral-parameter field, and classical surfaces
with textbook fundamental forms.
"""

from __future__ import annotations

import numpy as np

from solgeo import frames
from solgeo import grid as sg
from solgeo import solitons
from solgeo import zerocurv
from solgeo.errors import DomainError
from solgeo.waves import Wave

CASE_NAMES = ("planewave-ds", "planewave-zi", "planewave-strachan",
              "uniform-spin", "pure-gauge", "rational-lambda",
              "sphere-patch", "cylinder", "plane")


def _points(n: int) -> int:
    """n as the points per axis of a default grid, checked before any
    spacing is divided by it."""
    if n < 4:
        raise DomainError(f"need n >= 4 grid points, got {n}")
    return n


# --- plane waves --------------------------------------------------------------

def planewave(eq: str, k: float = 1.0, l: float = 2.0, v0: float = 1.0,
              amp: complex = 0.8, params: dict | None = None,
              omega: float | None = None) -> dict:
    """Exact plane-wave solution fields for the three equations that admit
    one with constant potential.

    The frequency solves the corresponding dispersion relation (rederived by
    substituting q = A e^{i(kx+ly-wt)}, p = conj-wave into the equation):
    ds: w = k^2 + alpha^2 l^2 - v0; zi: w = v0 - k l; strachan: w = -k l
    with v0 forced to 0 (a constant v couples q into the p line otherwise).

    Defaults keep k, l and w integral so the wave is exactly periodic on the
    2*pi boxes the finite-difference and spectral checks use.
    """
    params = dict(params or {})
    alpha = solitons.get_alpha(params)
    if eq == "ds":
        w = float((k**2 + alpha**2 * l**2).real) - v0
    elif eq == "zi":
        w = v0 - k * l
    elif eq == "strachan":
        v0 = 0.0
        w = -k * l
    else:
        raise DomainError(f"no plane-wave case for {eq!r}")
    if omega is not None:
        w = omega
    q = Wave.exp(amp, x=k, y=l, t=-w)
    p = q.conj()
    v = Wave.const(v0)
    fields = {"q": q, "p": p, "v": v}

    def fq(x, y, t):
        return amp * np.exp(1j * (k * x + l * y - w * t)) * np.ones_like(
            np.asarray(x, dtype=float))

    def fp(x, y, t):
        return np.conj(fq(x, y, t))

    def fv(x, y, t):
        return v0 * np.ones_like(np.asarray(x, dtype=float))

    fields["callables"] = {"q": fq, "p": fp, "v": fv}
    fields["params"] = {**params, "k": k, "l": l, "v0": v0, "omega": w}
    return fields


def default_grid_xyt(n: int = 24, length: float = 2 * np.pi,
                     periodic: bool = True) -> sg.GridSpec:
    n = _points(n)
    return sg.GridSpec.make(
        sg.Axis("x", n, length / n, periodic=periodic),
        sg.Axis("y", n, length / n, periodic=periodic),
        sg.Axis("t", n, length / n, periodic=periodic),
    )


# --- spin cases ---------------------------------------------------------------

def uniform_spin(grid: sg.GridSpec | None = None, r2: int = 1) -> solitons.Spin:
    """S = (0, 0, 1), u = w = 0 everywhere."""
    if grid is None:
        grid = default_grid_xyt(12)
    S = np.zeros(grid.shape + (3,))
    S[..., 2] = 1.0
    zero = np.zeros(grid.shape)
    return solitons.Spin(grid, S, u=zero, w=zero, r2=r2)


# --- pure-gauge connection ----------------------------------------------------

_JZ = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
_JX = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])


def _rot_z(phi):
    c, s = np.cos(phi), np.sin(phi)
    m = np.zeros(np.shape(phi) + (3, 3))
    m[..., 0, 0] = c
    m[..., 0, 1] = -s
    m[..., 1, 0] = s
    m[..., 1, 1] = c
    m[..., 2, 2] = 1.0
    return m


def default_grid_gauge(n: int = 16) -> sg.GridSpec:
    h = 1.0 / (_points(n) - 1)
    return sg.GridSpec.make(sg.Axis("x", n, h), sg.Axis("y", n, h),
                            sg.Axis("t", n, h))


def pure_gauge_connection(grid: sg.GridSpec | None = None,
                          axes=("x", "y", "t"), perturb: float = 0.0) -> dict:
    """Flat connection A_mu = R_mu R^{-1} from the rotation field
    R = Rz(phi) Rx(psi), with the derivatives taken in closed form so the
    zero-curvature residual of the returned fields is pure discretization
    error.  perturb > 0 adds a fixed non-gauge term to break flatness.
    """
    if grid is None:
        grid = default_grid_gauge()
    meshes = dict(zip(grid.names, grid.meshes()))
    x = meshes.get("x", 0.0)
    y = meshes.get("y", 0.0)
    t = meshes.get("t", 0.0)

    phi = 0.5 * np.sin(x) * np.cos(y) + 0.3 * np.sin(t)
    dphi = {
        "x": 0.5 * np.cos(x) * np.cos(y) + 0.0 * x,
        "y": -0.5 * np.sin(x) * np.sin(y) + 0.0 * x,
        "t": 0.3 * np.cos(t) + 0.0 * x,
    }
    psi = 0.4 * np.cos(x) * np.sin(y) + 0.2 * np.cos(t)
    dpsi = {
        "x": -0.4 * np.sin(x) * np.sin(y) + 0.0 * x,
        "y": 0.4 * np.cos(x) * np.cos(y) + 0.0 * x,
        "t": -0.2 * np.sin(t) + 0.0 * x,
    }

    rz = _rot_z(np.broadcast_to(phi, grid.shape))
    # Rz Jx Rz^T is the conjugated x-generator; A_mu = phi_mu Jz + psi_mu (Rz Jx Rz^T)
    conj_jx = rz @ _JX @ np.swapaxes(rz, -1, -2)

    out = {}
    key_by_axis = {"x": "A", "y": "B", "t": "C"}
    for ax in axes:
        data = (np.broadcast_to(dphi[ax], grid.shape)[..., None, None] * _JZ
                + np.broadcast_to(dpsi[ax], grid.shape)[..., None, None] * conj_jx)
        out[key_by_axis[ax]] = sg.MatrixField(grid, np.ascontiguousarray(data))
    if perturb:
        pert = np.broadcast_to(np.sin(x) * np.cos(y), grid.shape)
        bdata = out["B"].data + perturb * pert[..., None, None] * _JZ
        out["B"] = sg.MatrixField(grid, bdata)
    return out


def pure_gauge_defect(system: str, n: int) -> float:
    """Worst zero-curvature residual of the pure-gauge connection on the
    default n^3 gauge grid; gmce takes the (A, B) pair alone."""
    axes = ("x", "y") if system == "gmce" else ("x", "y", "t")
    conn = pure_gauge_connection(default_grid_gauge(n), axes=axes)
    res = zerocurv.zc_residual(system, conn)
    return max(float(np.abs(r).max()) for r in res.values())


# --- rational spectral parameter ----------------------------------------------

# sdym_xi parameter sets; the first is lam = xi3 / (1 - xi1)
LAMBDA_PARAMS = (
    {"n1": 1.0, "n3": 0.0, "m1": 0.0, "n4": 1.0},
    {"n1": 0.8, "n3": 0.4, "m1": 0.5, "n4": 1.3},
    {"n1": -0.6, "n3": 1.0, "m1": 0.9, "n4": 1.1},
)


def default_grid_xi(n: int = 12) -> sg.GridSpec:
    """n^4 open grid over (xi1, ..., xi4) in [0, 0.35]^4."""
    h = 0.35 / (_points(n) - 1)
    return sg.GridSpec.make(*(sg.Axis(f"xi{i}", n, h) for i in (1, 2, 3, 4)))


def rational_lambda(params: dict | None = None,
                    grid: sg.GridSpec | None = None) -> zerocurv.SpectralField:
    if params is None:
        params = LAMBDA_PARAMS[0]
    if grid is None:
        grid = default_grid_xi()
    return zerocurv.lambda_field("sdym_xi", params, grid)


def lambda_defect(params: dict, n: int) -> float:
    """Worst masked residual of the sdym_xi spectral parameter with the
    given parameters on the default n^4 xi-grid."""
    res = zerocurv.lambda_residual(
        zerocurv.lambda_field("sdym_xi", params, default_grid_xi(n)))
    mask = res.pop("mask")
    return max(zerocurv.masked_norms(r, mask)["max"] for r in res.values())


# --- classical surfaces -------------------------------------------------------

def _surface_grid(n: int, x0: float, x1: float, y0: float, y1: float):
    n = _points(n)
    return sg.GridSpec.make(
        sg.Axis("x", n, (x1 - x0) / (n - 1), origin=x0),
        sg.Axis("y", n, (y1 - y0) / (n - 1), origin=y0),
    )


def _zero_gamma(shape):
    z = np.zeros(shape)
    return {k: z.copy() for k in ("111", "211", "112", "212", "122", "222")}


def sphere_patch(n: int = 32) -> frames.SurfaceData:
    """Unit sphere, inward normal: E=1, F=0, G=cos^2 x, L=1, M=0, N=cos^2 x,
    p11=p22=-1, Gamma^2_12=-tan x, Gamma^1_22=sin x cos x."""
    g = _surface_grid(n, -0.6, 0.6, 0.0, 1.0)
    x, _ = g.meshes()
    one = np.ones(g.shape)
    zero = np.zeros(g.shape)
    gamma = _zero_gamma(g.shape)
    gamma["212"] = -np.tan(x)
    gamma["122"] = np.sin(x) * np.cos(x)
    return frames.SurfaceData(
        grid=g, E=one, F=zero, G=np.cos(x) ** 2,
        L=one.copy(), M=zero.copy(), N=np.cos(x) ** 2,
        gamma=gamma, p11=-one, p12=zero.copy(), p21=zero.copy(), p22=-one.copy(),
    )


def cylinder(n: int = 32) -> frames.SurfaceData:
    """Unit cylinder, outward normal: E=G=1, F=0, L=-1, M=N=0, p11=1."""
    g = _surface_grid(n, 0.0, 1.2, 0.0, 1.0)
    one = np.ones(g.shape)
    zero = np.zeros(g.shape)
    return frames.SurfaceData(
        grid=g, E=one, F=zero, G=one.copy(),
        L=-one, M=zero.copy(), N=zero.copy(),
        gamma=_zero_gamma(g.shape),
        p11=one.copy(), p12=zero.copy(), p21=zero.copy(), p22=zero.copy(),
    )


def plane(n: int = 16) -> frames.SurfaceData:
    g = _surface_grid(n, 0.0, 1.0, 0.0, 1.0)
    one = np.ones(g.shape)
    zero = np.zeros(g.shape)
    return frames.SurfaceData(
        grid=g, E=one, F=zero, G=one.copy(),
        L=zero.copy(), M=zero.copy(), N=zero.copy(),
        gamma=_zero_gamma(g.shape),
        p11=zero.copy(), p12=zero.copy(), p21=zero.copy(), p22=zero.copy(),
    )


SURFACE_CASES = {"sphere-patch": sphere_patch, "cylinder": cylinder,
                 "plane": plane}


def random_smooth(grid: sg.GridSpec, rng, scale: float = 1.0,
                  nmodes: int = 4, complex_valued: bool = True) -> np.ndarray:
    """Seeded band-limited random field: a short sum of low-wavenumber
    complex exponentials, smooth on any grid.

    On fully periodic grids the wavevectors are integers so the field is
    exactly periodic (otherwise wrap-around stencils see a jump)."""
    integer_modes = all(a.periodic for a in grid.axes)
    meshes = grid.meshes()
    data = np.zeros(grid.shape, dtype=complex)
    for _ in range(nmodes):
        if integer_modes:
            k = rng.integers(-2, 3, size=len(grid.axes)).astype(float)
        else:
            k = rng.uniform(-2.0, 2.0, size=len(grid.axes))
        amp = (rng.normal() + 1j * rng.normal()) * scale / nmodes
        phase = sum(ki * m for ki, m in zip(k, meshes))
        data += amp * np.exp(1j * phase)
    return data if complex_valued else data.real


def random_connection(grid: sg.GridSpec, rng, names=("A", "B", "C"),
                      m: int = 3, scale: float = 0.5) -> dict:
    """Seeded random smooth matrix fields sharing one grid."""
    out = {}
    for name in names:
        data = np.empty(grid.shape + (m, m), dtype=complex)
        for i in range(m):
            for j in range(m):
                data[..., i, j] = random_smooth(grid, rng, scale)
        out[name] = sg.MatrixField(grid, data)
    return out
