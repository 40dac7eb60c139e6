"""Built-in manufactured cases with known closed forms.

Each case carries enough exact structure to serve as an oracle: plane waves
with hand-derived dispersion relations, a pure-gauge connection with exact
derivatives, a rational spectral-parameter field, and classical surfaces
with textbook fundamental forms.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from solgeo import grid as sg
from solgeo.errors import DomainError

# each builder imports the modules it calls, so a command that needs one
# case does not load the solvers behind the others
if TYPE_CHECKING:
    from solgeo import frames, zerocurv

# the field cases that `solgeo case` writes; surfaces are SURFACE_CASES
CASE_NAMES = ("planewave-ds", "planewave-zi", "planewave-strachan",
              "uniform-spin", "pure-gauge", "rational-lambda")


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
    from solgeo import solitons
    from solgeo.waves import Wave

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
    fields = {"q": q, "p": q.conj(), "v": Wave.const(v0)}
    # a Wave is also the callable f(x, y, t) that the Lax sweeps sample
    return {**fields, "callables": fields,
            "params": {**params, "k": k, "l": l, "v0": v0, "omega": w}}


def default_grid_xyt(n: int = 24) -> sg.GridSpec:
    """n^3 periodic grid over (x, y, t) in [0, 2 pi)^3."""
    h = 2 * np.pi / _points(n)
    return sg.GridSpec.make(
        sg.Axis("x", n, h, periodic=True),
        sg.Axis("y", n, h, periodic=True),
        sg.Axis("t", n, h, periodic=True),
    )


# --- spin cases ---------------------------------------------------------------

def uniform_spin(grid: sg.GridSpec) -> dict:
    """S = (0, 0, 1), u = w = 0 everywhere: the fields {S, u, w}."""
    S = np.zeros(grid.shape + (3,))
    S[..., 2] = 1.0
    zero = np.zeros(grid.shape)
    return {"S": S, "u": zero, "w": zero}


# --- pure-gauge connection ----------------------------------------------------

def default_grid_gauge(n: int = 16) -> sg.GridSpec:
    h = 1.0 / (_points(n) - 1)
    return sg.GridSpec.make(sg.Axis("x", n, h), sg.Axis("y", n, h),
                            sg.Axis("t", n, h))


def pure_gauge_connection(grid: sg.GridSpec | None = None,
                          axes=("x", "y", "t"), perturb: float = 0.0) -> dict:
    """Flat connection A_mu = R_mu R^{-1} from the rotation field
    R = Rz(phi) Rx(psi), as so(3) AxialFields, with the derivatives taken
    in closed form so the zero-curvature residual of the returned fields is
    pure discretization error.  perturb > 0 adds a fixed non-gauge term to
    break flatness.
    """
    key_by_axis = {"x": "A", "y": "B", "t": "C"}
    if not set(axes) <= set(key_by_axis):
        raise DomainError(f"pure-gauge axes {axes}: choose from x, y, t")
    if perturb and "y" not in axes:
        raise DomainError("perturb adds to B, so the axes must include y")
    if grid is None:
        grid = default_grid_gauge()
    meshes = dict(zip(grid.names, grid.meshes(sparse=True)))
    x = meshes.get("x", 0.0)
    y = meshes.get("y", 0.0)
    t = meshes.get("t", 0.0)

    phi = 0.5 * np.sin(x) * np.cos(y) + 0.3 * np.sin(t)
    dphi = {
        "x": 0.5 * np.cos(x) * np.cos(y),
        "y": -0.5 * np.sin(x) * np.sin(y),
        "t": 0.3 * np.cos(t),
    }
    dpsi = {
        "x": -0.4 * np.sin(x) * np.sin(y),
        "y": 0.4 * np.cos(x) * np.cos(y),
        "t": -0.2 * np.sin(t),
    }

    # A_mu = phi_mu Jz + psi_mu (Rz Jx Rz^T) with Rz Jx Rz^T = cos(phi) Jx
    # + sin(phi) Jy: axial components (psi_mu cos phi, psi_mu sin phi,
    # phi_mu), written into an array that broadcasts the sparse-mesh
    # factors to the grid
    sin_phi, cos_phi = np.sin(phi), np.cos(phi)
    out = {}
    for ax in axes:
        data = np.empty(grid.shape + (3,))
        data[..., 0] = dpsi[ax] * cos_phi
        data[..., 1] = dpsi[ax] * sin_phi
        data[..., 2] = dphi[ax]
        out[key_by_axis[ax]] = sg.AxialField(grid, data)
    if perturb:
        # perturb * sin(x) cos(y) Jz added to B
        out["B"].data[..., 2] += perturb * (np.sin(x) * np.cos(y))
    return out


def pure_gauge_defect(system: str, n: int) -> float:
    """Worst zero-curvature residual of the pure-gauge connection on the
    default n^3 gauge grid; gmce takes the (A, B) pair alone."""
    from solgeo import zerocurv

    axes = ("x", "y") if system == "gmce" else ("x", "y", "t")
    conn = pure_gauge_connection(default_grid_gauge(n), axes=axes)
    worst = -np.inf
    for _, r in zerocurv.residual_lines(system, conn):
        worst = np.maximum(worst, zerocurv.abs_max(r))
        # a line still bound here would stay live while the next is built
        del r
    return float(worst)


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
    from solgeo import zerocurv

    if params is None:
        params = LAMBDA_PARAMS[0]
    if grid is None:
        grid = default_grid_xi()
    return zerocurv.lambda_field("sdym_xi", params, grid)


def lambda_defect(params: dict, n: int) -> float:
    """Worst masked residual of the sdym_xi spectral parameter with the
    given parameters on the default n^4 xi-grid."""
    from solgeo import zerocurv

    f = zerocurv.lambda_field("sdym_xi", params, default_grid_xi(n))
    worst = -np.inf
    for _, r in zerocurv.lambda_lines(f):
        worst = np.maximum(worst, zerocurv.masked_norms(r, f.mask)["max"])
        del r
    return float(worst)


# --- classical surfaces -------------------------------------------------------

def _surface_grid(n: int, x0: float, x1: float, y0: float, y1: float):
    n = _points(n)
    return sg.GridSpec.make(
        sg.Axis("x", n, (x1 - x0) / (n - 1), origin=x0),
        sg.Axis("y", n, (y1 - y0) / (n - 1), origin=y0),
    )


def sphere_patch(n: int = 32) -> frames.SurfaceData:
    """Unit sphere, inward normal: E=1, F=0, G=cos^2 x, L=1, M=0, N=cos^2 x,
    p11=p22=-1, Gamma^2_12=-tan x, Gamma^1_22=sin x cos x."""
    from solgeo import frames

    g = _surface_grid(n, -0.6, 0.6, 0.0, 1.0)
    x, _ = g.meshes(sparse=True)
    gamma = {"212": -np.tan(x), "122": np.sin(x) * np.cos(x)}
    return frames.SurfaceData(
        grid=g, E=1.0, F=0.0, G=np.cos(x) ** 2, L=1.0, M=0.0,
        N=np.cos(x) ** 2, gamma=gamma, p11=-1.0, p12=0.0, p21=0.0, p22=-1.0,
    )


def cylinder(n: int = 32) -> frames.SurfaceData:
    """Unit cylinder, outward normal: E=G=1, F=0, L=-1, M=N=0, p11=1."""
    from solgeo import frames

    return frames.SurfaceData(
        grid=_surface_grid(n, 0.0, 1.2, 0.0, 1.0), E=1.0, F=0.0, G=1.0,
        L=-1.0, M=0.0, N=0.0, gamma={},
        p11=1.0, p12=0.0, p21=0.0, p22=0.0,
    )


def plane(n: int = 16) -> frames.SurfaceData:
    """Unit-speed plane: E=G=1 and every other coefficient zero."""
    from solgeo import frames

    return frames.SurfaceData(
        grid=_surface_grid(n, 0.0, 1.0, 0.0, 1.0), E=1.0, F=0.0, G=1.0,
        L=0.0, M=0.0, N=0.0, gamma={},
        p11=0.0, p12=0.0, p21=0.0, p22=0.0,
    )


SURFACE_CASES = {"sphere-patch": sphere_patch, "cylinder": cylinder,
                 "plane": plane}


def surface_shape_error(name: str, result: frames.ReconstructionResult
                        ) -> float:
    """Worst distance of a reconstructed surface case from its known shape,
    anchored at the first point r0 and its unit normal n0: for the unit
    sphere, from radius 1 about r0 + n0; for the unit cylinder, from radius
    1 about the axis through r0 - n0 along r[0, 1] - r[0, 0]; for the
    plane, from the plane through r0 normal to n0."""
    r = result.position.data
    r0, n0 = r[0, 0], result.normal[0, 0]
    if name == "sphere-patch":
        dist = np.linalg.norm(r - (r0 + n0), axis=-1) - 1.0
    elif name == "cylinder":
        axis = r[0, 1] - r0
        axis = axis / np.linalg.norm(axis)
        rel = r - (r0 - n0)
        perp = rel - (rel @ axis)[..., None] * axis
        dist = np.linalg.norm(perp, axis=-1) - 1.0
    elif name == "plane":
        dist = (r - r0) @ n0
    else:
        raise DomainError(f"no known shape for surface case {name!r}")
    return float(np.abs(dist).max())


def random_smooth(grid: sg.GridSpec, rng, scale: float = 1.0) -> np.ndarray:
    """Seeded band-limited random field: a sum of four low-wavenumber
    complex exponentials amp * exp(i k.x), smooth on any grid.

    On a periodic axis k_a = m * 2 pi / (n_a h_a) with an integer |m| <= 2,
    so each mode fits whole periods into the axis and the field is exactly
    periodic along it (otherwise wrap-around stencils see a jump); on an
    open axis k_a is uniform in [-2, 2).  Each mode draws the periodic
    axes' m (one integers call), then the open axes' k (one uniform call),
    then amp (two normals), so a seed fixes the modes.
    A mode is a product of per-axis factors exp(i k_a x_a) on the sparse
    meshes, so it costs one full-grid product and no full-grid exp."""
    periodic = np.array([a.periodic for a in grid.axes])
    base = np.array([2 * np.pi / (a.n * a.h) for a in grid.axes])
    meshes = grid.meshes(sparse=True)
    data = np.zeros(grid.shape, dtype=complex)
    for _ in range(4):
        k = np.empty(len(grid.axes))
        k[periodic] = (rng.integers(-2, 3, size=periodic.sum())
                       * base[periodic])
        k[~periodic] = rng.uniform(-2.0, 2.0, size=(~periodic).sum())
        term = (rng.normal() + 1j * rng.normal()) * scale / 4
        for ka, x in zip(k, meshes):
            term = term * np.exp(1j * (ka * x))
        data += term
    return data


def random_connection(grid: sg.GridSpec, rng, names=("A", "B", "C"),
                      m: int = 3, scale: float = 0.5) -> dict:
    """Seeded random smooth matrix fields sharing one grid, each entry a
    `random_smooth` field drawn in row-major order, one at a time."""
    from solgeo import liealg

    rows = lambda: [(random_smooth(grid, rng, scale) for _ in range(m))
                    for _ in range(m)]
    return {name: sg.MatrixField(grid, liealg.matrices(rows(), grid.shape,
                                                       complex))
            for name in names}
