"""Residual evaluators for the soliton PDE family, Lax-matrix builders,
spin<->soliton coefficient maps, and commutation-defect tests for the 2x2
and 3x3 linear problems.

Equation ids (lowercase strings): ishimori, ds, mix, mviii, mxxxiv, zii, zi,
mkdv_c, mkdv_r, strachan, m3q, mi.  Parameters are keyed alpha_re, alpha_im,
a, b, c, d, beta, r2, l.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield

import numpy as np

from solgeo import grid as sg
from solgeo import liealg
from solgeo.errors import DomainError, NumericalError
from solgeo.waves import Wave

EQUATION_IDS = ("ishimori", "ds", "mix", "mviii", "mxxxiv", "zii", "zi",
                "mkdv_c", "mkdv_r", "strachan", "m3q", "mi")


def get_alpha(params: dict) -> complex:
    return complex(params.get("alpha_re", 1.0), params.get("alpha_im", 0.0))


@dataclass(frozen=True)
class ComplexPair:
    """Soliton fields (q, p) with the potentials the equation needs."""

    grid: sg.GridSpec
    q: np.ndarray
    p: np.ndarray
    v: np.ndarray | None = None
    v1: np.ndarray | None = None
    v2: np.ndarray | None = None


@dataclass(frozen=True)
class Spin:
    """Spin vector field S (shape grid + (3,)) with its scalar potential."""

    grid: sg.GridSpec
    S: np.ndarray
    u: np.ndarray | None = None
    w: np.ndarray | None = None
    r2: int = 1


# --- derivative backends -----------------------------------------------------

class FDOps:
    """Finite-difference derivatives on sampled arrays."""

    def __init__(self, grid: sg.GridSpec, accuracy: int = 2):
        self.grid = grid
        self.accuracy = accuracy

    def d(self, f, axis):
        return sg.partial_data(np.asarray(f), self.grid, axis, self.accuracy)

    def finalize(self, f):
        return np.asarray(f)


class WaveOps:
    """Exact derivatives on plane-wave fields; residuals sampled at the end."""

    def __init__(self, grid: sg.GridSpec):
        self.grid = grid

    def d(self, f, axis):
        return f.d(axis)

    def finalize(self, f):
        if isinstance(f, Wave):
            return f.sample(self.grid)
        return np.asarray(f)


def _ops(grid, mode, accuracy):
    if mode == "fd":
        return FDOps(grid, accuracy)
    if mode == "analytic":
        return WaveOps(grid)
    raise DomainError(f"unknown mode {mode!r}")


def _m1_op(ops, f, alpha, a, b):
    """M1 f = alpha^2 f_yy + 4 alpha (b - a) f_xy + 4 (a^2 - 2ab - b) f_xx,
    with the derivatives of the backend ops."""
    dx = lambda g: ops.d(g, "x")
    dy = lambda g: ops.d(g, "y")
    return (alpha**2 * dy(dy(f)) + 4 * alpha * (b - a) * dy(dx(f))
            + 4 * (a * a - 2 * a * b - b) * dx(dx(f)))


def _m2_op(ops, f, alpha, a, b):
    """M2 f = alpha^2 f_yy - 2 alpha (2a + 1) f_xy + 4 a (a + 1) f_xx; the
    isotropic (Ishimori) operator is M2 at a = b = -1/2."""
    dx = lambda g: ops.d(g, "x")
    dy = lambda g: ops.d(g, "y")
    return (alpha**2 * dy(dy(f)) - 2 * alpha * (2 * a + 1) * dy(dx(f))
            + 4 * a * (a + 1) * dx(dx(f)))


# --- spin helpers (FD only) --------------------------------------------------

def _cross(a, b):
    return np.cross(a, b, axis=-1)


def _dot(a, b):
    return np.sum(a * b, axis=-1)


# --- residuals ---------------------------------------------------------------

def _unpack(fields: dict, grid):
    """Fields with a ComplexPair under "pair" or a Spin under "spin" spread
    into named entries, and the grid they live on (the container's grid
    wins over `grid`)."""
    for key, names in (("pair", ("q", "p", "v", "v1", "v2")),
                       ("spin", ("S", "u", "w", "r2"))):
        if key in fields:
            grid = fields[key].grid
            fields = {**fields,
                      **{n: getattr(fields[key], n) for n in names}}
    return fields, grid


def pde_residual(eq: str, fields: dict, params: dict | None = None,
                 mode: str = "fd", accuracy: int = 2, grid=None) -> dict:
    """One residual array per printed equation line.

    In "fd" mode the fields are sampled arrays on `grid` (or on the grid of
    a ComplexPair/Spin passed via fields["pair"]/fields["spin"]); in
    "analytic" mode the scalar fields are Wave objects and derivatives are
    exact, so a residual reflects transcription alone.
    """
    params = params or {}
    fields, grid = _unpack(fields, grid)
    if grid is None:
        raise DomainError("grid required")
    ops = _ops(grid, mode, accuracy)
    d = ops.d
    alpha = get_alpha(params)

    if eq == "ds":
        q, p, v = fields["q"], fields["p"], fields["v"]
        r1 = 1j * d(q, "t") + d(d(q, "x"), "x") + alpha**2 * d(d(q, "y"), "y") + v * q
        r2 = -1j * d(p, "t") + d(d(p, "x"), "x") + alpha**2 * d(d(p, "y"), "y") + v * p
        pq = p * q
        r3 = (d(d(v, "x"), "x") - alpha**2 * d(d(v, "y"), "y")
              + 2 * (d(d(pq, "x"), "x") + alpha**2 * d(d(pq, "y"), "y")))
        return {k: ops.finalize(r) for k, r in
                zip(("q", "p", "v"), (r1, r2, r3))}

    if eq == "zi":
        q, p, v = fields["q"], fields["p"], fields["v"]
        r1 = 1j * d(q, "t") - d(d(q, "x"), "y") - v * q
        r2 = -1j * d(p, "t") - d(d(p, "x"), "y") - v * p
        r3 = d(v, "x") - 2 * d(p * q, "y")
        return {k: ops.finalize(r) for k, r in
                zip(("q", "p", "v"), (r1, r2, r3))}

    if eq in ("strachan", "m3q"):
        q, p, v = fields["q"], fields["p"], fields["v"]
        c = params.get("c", 1.0)
        dd = 0.0 if eq == "strachan" else params.get("d", 0.0)
        vq = v * q
        r1 = 1j * d(q, "t") - d(d(q, "x"), "y") + 2j * c * d(vq, "x") - dd**2 * vq
        r2 = (-1j * d(p, "t") - d(d(p, "x"), "y") - 2j * c * d(vq, "x")
              - dd**2 * v * p)
        r3 = d(v, "x") - 2 * d(p * q, "y")
        return {k: ops.finalize(r) for k, r in
                zip(("q", "p", "v"), (r1, r2, r3))}

    if eq == "mkdv_c":
        q, p, v1, v2 = fields["q"], fields["p"], fields["v1"], fields["v2"]
        r1 = d(q, "t") + d(d(d(q, "x"), "x"), "y") - d(q * v1, "x") - v2 * q
        r2 = d(p, "t") + d(d(d(p, "x"), "x"), "y") - d(p * v1, "x") - v2 * p
        r3 = d(v1, "x") - 2 * d(p * q, "y")
        r4 = d(v2, "x") - 2 * (p * d(d(q, "x"), "y") - d(d(p, "x"), "y") * q)
        return {k: ops.finalize(r) for k, r in
                zip(("q", "p", "v1", "v2"), (r1, r2, r3, r4))}

    if eq == "mkdv_r":
        q, v1 = fields["q"], fields["v1"]
        beta = params.get("beta", 1)
        r1 = d(q, "t") + d(d(d(q, "x"), "x"), "y") - d(q * v1, "x")
        r2 = d(v1, "x") - 2 * beta * d(q * q, "y")
        return {k: ops.finalize(r) for k, r in zip(("q", "v1"), (r1, r2))}

    if eq == "zii":
        q, p, v = fields["q"], fields["p"], fields["v"]
        a = params.get("a", -0.5)
        b = params.get("b", -0.5)
        variant = params.get("zii_sign_variant", "printed")
        m1q = _m1_op(ops, q, alpha, a, b)
        m1p = _m1_op(ops, p, alpha, a, b)
        r1 = 1j * d(q, "t") + m1q + v * q
        if variant == "printed":
            r2 = 1j * d(p, "t") - m1p - v * p
        else:  # the limit form with the opposite overall sign
            r2 = -1j * d(p, "t") + m1p + v * p
        r3 = _m2_op(ops, v, alpha, a, b) + 2 * _m1_op(ops, p * q, alpha, a, b)
        return {k: ops.finalize(r) for k, r in
                zip(("q", "p", "v"), (r1, r2, r3))}

    # spin systems: FD only
    if mode != "fd":
        raise DomainError(f"{eq}: analytic mode not supported")

    if eq == "ishimori":
        S, u = fields["S"], fields["u"]
        Sx, Sy, St = d(S, "x"), d(S, "y"), d(S, "t")
        ux, uy = d(u, "x"), d(u, "y")
        a2 = alpha**2
        r1 = (St - _cross(S, d(Sx, "x") + a2 * d(Sy, "y"))
              - ux[..., None] * Sy - uy[..., None] * Sx)
        r2 = d(ux, "x") - a2 * d(uy, "y") + 2 * a2 * _dot(S, _cross(Sx, Sy))
        return {"S": r1, "u": r2}

    if eq == "mix":
        S, u = fields["S"], fields["u"]
        a = params.get("a", -0.5)
        b = params.get("b", -0.5)
        coeffs = mix_coefficient_ops(u, params, grid, accuracy)
        A1, A2 = coeffs["A1"], coeffs["A2"]
        Sx, Sy, St = d(S, "x"), d(S, "y"), d(S, "t")
        m1S = np.stack([_m1_op(ops, S[..., i], alpha, a, b)
                        for i in range(3)], axis=-1)
        r1 = St - _cross(S, m1S) - A2[..., None] * Sx - A1[..., None] * Sy
        r2 = (_m2_op(ops, u, alpha, a, b)
              - 2 * alpha**2 * _dot(S, _cross(Sx, Sy)))
        return {"S": r1, "u": r2}

    if eq in ("mviii", "mxxxiv"):
        S, w = fields["S"], fields["w"]
        Sy = d(S, "y")
        r1 = d(S, "t") - _cross(S, d(Sy, "y")) - w[..., None] * Sy
        if eq == "mviii":
            r2 = d(w, "x") + d(w, "y") + _dot(S, _cross(d(S, "x"), Sy))
        else:
            r2 = d(w, "t") + d(w, "y") + 0.5 * d(_dot(Sy, Sy), "y")
        return {"S": r1, "w": r2}

    if eq == "mi":
        S, u = fields["S"], fields["u"]
        r2sign = int(fields.get("r2", params.get("r2", 1)))
        Sm = liealg.spin_matrix(S, r2sign)
        Sx, Sy = d(Sm, "x"), d(Sm, "y")
        inner = liealg.commutator(Sm, Sy) + 2j * u[..., None, None] * Sm
        r1 = 1j * d(Sm, "t") - d(inner, "x")
        tr = np.trace(Sm @ liealg.commutator(Sx, Sy), axis1=-2, axis2=-1)
        r2 = d(u, "x") - 0.5j * tr
        return {"S": r1, "u": r2}

    raise DomainError(f"unknown equation id {eq!r}")


# --- Lax matrix builders -----------------------------------------------------

ZI_A3 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])


def build_lax(eq: str, fields: dict, params: dict | None = None,
              grid=None, accuracy: int = 2) -> dict:
    """Lax matrices exactly as printed.

    zi -> {A1, A2, A3}; mi -> {A3, A4}; zii -> {B0, B1, C0, C1, C2} with the
    diagonal C0 entries obtained by Fourier-symbol inversion of the
    constant-coefficient first-order operators (zero-mean gauge).
    """
    params = params or {}
    fields, grid = _unpack(fields, grid)

    if eq == "zi":
        q, p, v = fields["q"], fields["p"], fields["v"]
        q = np.asarray(q, dtype=complex)
        p = np.asarray(p, dtype=complex)
        shape = q.shape
        A1 = np.zeros(shape + (3, 3), dtype=complex)
        A1[..., 0, 1] = 1j * (q - p)
        A1[..., 0, 2] = q + p
        A1[..., 1, 0] = -1j * (q - p)
        A1[..., 2, 0] = -(q + p)
        spy = sg.partial_data(q + p, grid, "y", accuracy)
        dmy = sg.partial_data(1j * (p - q), grid, "y", accuracy)
        A2 = np.zeros(shape + (3, 3), dtype=complex)
        A2[..., 0, 1] = spy
        A2[..., 0, 2] = dmy
        A2[..., 1, 0] = -spy
        A2[..., 1, 2] = v
        A2[..., 2, 0] = -dmy
        A2[..., 2, 1] = -v
        A3 = np.broadcast_to(ZI_A3.astype(complex), shape + (3, 3)).copy()
        return {"A1": A1, "A2": A2, "A3": A3}

    if eq == "mi":
        S, u = fields["S"], fields["u"]
        r2sign = int(fields.get("r2", params.get("r2", 1)))
        # r is lifted as 1 (r2=+1) or i (r2=-1) inside the complex Lax
        # matrices; the stored spin field itself never carries the i.
        r = 1.0 if r2sign == 1 else 1.0j
        s1, s2, s3 = S[..., 0], S[..., 1], S[..., 2]
        grid_ = grid
        s1y = sg.partial_data(s1, grid_, "y", accuracy)
        s2y = sg.partial_data(s2, grid_, "y", accuracy)
        s3y = sg.partial_data(s3, grid_, "y", accuracy)
        shape = s1.shape
        A3 = np.zeros(shape + (3, 3), dtype=complex)
        A3[..., 0, 1] = r * s1
        A3[..., 0, 2] = -1j * r * s2
        A3[..., 1, 0] = -r * s1
        A3[..., 1, 2] = s3
        A3[..., 2, 0] = 1j * r * s2
        A3[..., 2, 1] = -s3
        sp = s1 + 1j * s2
        sm = s1 - 1j * s2
        spy = s1y + 1j * s2y
        smy = s1y - 1j * s2y
        a12 = -1j * r * (2j * s3 * s2y - 2j * s2 * s3y + 1j * u * s1)
        a13 = -r * (2 * s3 * s1y - 2 * s1 * s3y - u * s2)
        a23 = -(1j * r2sign * (sp * smy - sm * spy) - u * s3)
        A4 = np.zeros(shape + (3, 3), dtype=complex)
        A4[..., 0, 1] = a12
        A4[..., 1, 0] = -a12
        A4[..., 0, 2] = a13
        A4[..., 2, 0] = -a13
        A4[..., 1, 2] = a23
        A4[..., 2, 1] = -a23
        return {"A3": A3, "A4": A4}

    if eq == "zii":
        q = np.asarray(fields["q"], dtype=complex)
        p = np.asarray(fields["p"], dtype=complex)
        a = params.get("a", -0.5)
        b = params.get("b", -0.5)
        alpha = get_alpha(params)
        shape = q.shape
        B0 = np.zeros(shape + (2, 2), dtype=complex)
        B0[..., 0, 1] = q
        B0[..., 1, 0] = p
        B1 = np.zeros(shape + (2, 2), dtype=complex)
        B1[..., 0, 0] = a + 1
        B1[..., 1, 1] = a
        C2 = np.zeros(shape + (2, 2), dtype=complex)
        C2[..., 0, 0] = (2 * b + 1) / 2 + 0.5
        C2[..., 1, 1] = (2 * b + 1) / 2 - 0.5
        C1 = 1j * B0
        qx = sg.partial_data(q, grid, "x", accuracy)
        qy = sg.partial_data(q, grid, "y", accuracy)
        py = sg.partial_data(p, grid, "y", accuracy)
        c12 = 1j * (2 * b - a + 1) * qx + 1j * alpha * qy
        c21 = 1j * (a - 2 * b) * qx - 1j * alpha * py
        pq = p * q
        c11 = _solve_first_order(pq, grid, a + 1, alpha, 2 * b - a + 1, alpha)
        c22 = _solve_first_order(pq, grid, a, alpha, a - 2 * b, -alpha)
        C0 = np.zeros(shape + (2, 2), dtype=complex)
        C0[..., 0, 0] = c11
        C0[..., 0, 1] = c12
        C0[..., 1, 0] = c21
        C0[..., 1, 1] = c22
        return {"B0": B0, "B1": B1, "C0": C0, "C1": C1, "C2": C2}

    raise DomainError(f"no Lax builder for equation {eq!r}")


def _solve_first_order(pq, grid, cx, cy, rx, ry):
    """Solve cx*f_x - cy*f_y = i*(rx*(pq)_x + ry*(pq)_y) on a doubly periodic
    (x, y) grid by Fourier-symbol division with zero-mean gauge."""
    ix = grid.index("x")
    iy = grid.index("y")
    ax_x, ax_y = grid.axes[ix], grid.axes[iy]
    if not (ax_x.periodic and ax_y.periodic):
        raise DomainError("diagonal temporal entries need doubly periodic x, y")
    kx = 2 * np.pi * np.fft.fftfreq(ax_x.n, d=ax_x.h)
    ky = 2 * np.pi * np.fft.fftfreq(ax_y.n, d=ax_y.h)
    KX, KY = np.meshgrid(kx, ky, indexing="ij")
    pq_hat = np.fft.fft2(pq, axes=(ix, iy))
    rhs_hat = 1j * (rx * (1j * KX) + ry * (1j * KY)) * pq_hat
    sym = 1j * (cx * KX - cy * KY)
    zero = np.abs(sym) < 1e-12
    bad = zero & (np.abs(rhs_hat) > 1e-10 * max(1.0, np.abs(pq_hat).max()))
    bad[0, 0] = False
    if bad.any():
        m = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise DomainError(f"resonant Fourier mode {m} in temporal-entry solve")
    f_hat = np.where(zero, 0.0, rhs_hat / np.where(zero, 1.0, sym))
    return np.fft.ifft2(f_hat, axes=(ix, iy))


# --- commutation defect for the linear problems ------------------------------

def _rk4(f, y, s, ds, nsteps):
    for step in range(nsteps):
        k1 = f(s, y)
        k2 = f(s + ds / 2, y + ds / 2 * k1)
        k3 = f(s + ds / 2, y + ds / 2 * k2)
        k4 = f(s + ds, y + ds * k3)
        y = y + ds / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        s = s + ds
        norm = np.abs(y).max()
        if norm > 1e6:
            raise NumericalError(
                f"linear-problem evolution blew up at step {step} of "
                f"{nsteps}: max |g| = {norm:.3e} > 1e6")
    return y


def _spectral_d(line_axis):
    k = 2 * np.pi * np.fft.fftfreq(line_axis.n, d=line_axis.h)

    def d(g):
        return np.fft.ifft(1j * k[:, None, None] * np.fft.fft(g, axis=0), axis=0)

    return d


def lax_commutation_defect(eq: str, fields: dict, params: dict,
                           g0: np.ndarray | None = None,
                           n_line: int = 32, cell=(0.2, 0.2),
                           substeps: int = 8, base=(0.0, 0.0, 0.0)) -> float:
    """Norm of the difference between evolving the wavefunction through one
    cell in the two possible orders.

    zi: evolutions along x and t, state on a periodic y-line; fields are
    callables q(x, y, t), p(...), v(...) vectorized over the y array.
    zii: evolutions along y and t, state on a periodic x-line.
    """
    if eq == "zi":
        return _zi_defect(fields, params, g0, n_line, cell, substeps, base)
    if eq == "zii":
        return _zii_defect(fields, params, g0, n_line, cell, substeps, base)
    raise DomainError(f"no commutation test for equation {eq!r}")


def _zi_defect(fields, params, g0, n_line, cell, substeps, base):
    lam = params.get("lam", 0.3)
    x0, y0, t0 = base
    dx_tot, dt_tot = cell
    Ly = params.get("Ly", 2 * np.pi)
    axis = sg.Axis("y", n_line, Ly / n_line, periodic=True)
    y = axis.coords()
    dspec = _spectral_d(axis)
    if g0 is None:
        g0 = np.broadcast_to(np.eye(3, dtype=complex), (n_line, 3, 3)).copy()

    qf, pf, vf = fields["q"], fields["p"], fields["v"]

    def a1(x, t):
        q = qf(x, y, t)
        p = pf(x, y, t)
        m = np.zeros((n_line, 3, 3), dtype=complex)
        m[:, 0, 1] = 1j * (q - p)
        m[:, 0, 2] = q + p
        m[:, 1, 0] = -1j * (q - p)
        m[:, 2, 0] = -(q + p)
        return m

    def a2(x, t):
        # y-derivatives of the field combinations, exact via spectral diff
        q = qf(x, y, t)
        p = pf(x, y, t)
        v = vf(x, y, t)
        k = 2 * np.pi * np.fft.fftfreq(n_line, d=axis.h)
        dy = lambda f: np.fft.ifft(1j * k * np.fft.fft(f))
        spy = dy(q + p)
        dmy = dy(1j * (p - q))
        m = np.zeros((n_line, 3, 3), dtype=complex)
        m[:, 0, 1] = spy
        m[:, 0, 2] = dmy
        m[:, 1, 0] = -spy
        m[:, 1, 2] = v
        m[:, 2, 0] = -dmy
        m[:, 2, 1] = -v
        return m

    def evolve_x(g, t, x_from, x_to, n):
        f = lambda x, gg: (a1(x, t) - lam * ZI_A3) @ gg
        return _rk4(f, g, x_from, (x_to - x_from) / n, n)

    def evolve_t(g, x, t_from, t_to, n):
        f = lambda t, gg: lam * dspec(gg) + a2(x, t) @ gg
        return _rk4(f, g, t_from, (t_to - t_from) / n, n)

    ga = evolve_t(evolve_x(g0, t0, x0, x0 + dx_tot, substeps),
                  x0 + dx_tot, t0, t0 + dt_tot, substeps)
    gb = evolve_x(evolve_t(g0, x0, t0, t0 + dt_tot, substeps),
                  t0 + dt_tot, x0, x0 + dx_tot, substeps)
    return float(np.abs(ga - gb).max())


def _zii_defect(fields, params, g0, n_line, cell, substeps, base):
    alpha = get_alpha(params)
    a = params.get("a", -0.5)
    b = params.get("b", 1.0)
    x0, y0, t0 = base
    dy_tot, dt_tot = cell
    Lx = params.get("Lx", 2 * np.pi)
    ax_x = sg.Axis("x", n_line, Lx / n_line, periodic=True)
    x = ax_x.coords()
    dspec = _spectral_d(ax_x)
    k = 2 * np.pi * np.fft.fftfreq(n_line, d=ax_x.h)

    def dspec2(g):
        return np.fft.ifft(-(k[:, None, None] ** 2) * np.fft.fft(g, axis=0), axis=0)

    if g0 is None:
        g0 = np.broadcast_to(np.eye(2, dtype=complex), (n_line, 2, 2)).copy()

    qf, pf = fields["q"], fields["p"]
    B1 = np.diag([a + 1.0, a]).astype(complex)
    C2 = np.diag([(2 * b + 1) / 2 + 0.5, (2 * b + 1) / 2 - 0.5]).astype(complex)

    # auxiliary doubly periodic (x, y) grid for the temporal diagonal entries
    n_aux = params.get("n_aux", n_line)
    Ly = params.get("Ly", 2 * np.pi)
    aux = sg.GridSpec.make(sg.Axis("x", n_line, Lx / n_line, periodic=True),
                           sg.Axis("y", n_aux, Ly / n_aux, periodic=True))
    xa, ya = aux.meshes()

    def b0(yv, t):
        q = qf(x, yv, t)
        p = pf(x, yv, t)
        m = np.zeros((n_line, 2, 2), dtype=complex)
        m[:, 0, 1] = q
        m[:, 1, 0] = p
        return m

    def c0(yv, t):
        q2 = qf(xa, ya, t)
        p2 = pf(xa, ya, t)
        pq = p2 * q2
        if np.abs(pq).max() < 1e-300:
            c11 = np.zeros(n_line, dtype=complex)
            c22 = np.zeros(n_line, dtype=complex)
        else:
            j = int(round((yv - aux.axes[1].origin) / aux.axes[1].h)) % n_aux
            c11 = _solve_first_order(pq, aux, a + 1, alpha, 2 * b - a + 1, alpha)[:, j]
            c22 = _solve_first_order(pq, aux, a, alpha, a - 2 * b, -alpha)[:, j]
        q = qf(x, yv, t)
        p = pf(x, yv, t)
        kk = 2 * np.pi * np.fft.fftfreq(n_line, d=ax_x.h)
        dx1 = lambda f: np.fft.ifft(1j * kk * np.fft.fft(f))
        qx = dx1(q)
        qy = (qf(x, yv + 1e-5, t) - qf(x, yv - 1e-5, t)) / 2e-5
        py = (pf(x, yv + 1e-5, t) - pf(x, yv - 1e-5, t)) / 2e-5
        m = np.zeros((n_line, 2, 2), dtype=complex)
        m[:, 0, 0] = c11
        m[:, 1, 1] = c22
        m[:, 0, 1] = 1j * (2 * b - a + 1) * qx + 1j * alpha * qy
        m[:, 1, 0] = 1j * (a - 2 * b) * qx - 1j * alpha * py
        return m

    def evolve_y(g, t, y_from, y_to, n):
        f = lambda yv, gg: (B1 @ dspec(gg) + b0(yv, t) @ gg) / alpha
        return _rk4(f, g, y_from, (y_to - y_from) / n, n)

    def evolve_t(g, yv, t_from, t_to, n):
        def f(t, gg):
            return (2 * C2 @ dspec2(gg) + 1j * b0(yv, t) @ dspec(gg)
                    + c0(yv, t) @ gg)
        return _rk4(f, g, t_from, (t_to - t_from) / n, n)

    ga = evolve_t(evolve_y(g0, t0, y0, y0 + dy_tot, substeps),
                  y0 + dy_tot, t0, t0 + dt_tot, substeps)
    gb = evolve_y(evolve_t(g0, y0, t0, t0 + dt_tot, substeps),
                  t0 + dt_tot, y0, y0 + dy_tot, substeps)
    return float(np.abs(ga - gb).max())


def lax_refinement_report(eq, fields, params, levels=3, n_line=16,
                          substeps=4, cell=(0.2, 0.2)) -> dict:
    """Defect across refinement levels (line resolution and step count both
    double per level; the cell stays fixed)."""
    return sg.refinement_study(
        lambda lv: lax_commutation_defect(
            eq, fields, params, n_line=n_line * 2**lv,
            substeps=substeps * 2**lv, cell=cell), levels)


# --- spin <-> soliton coefficient maps ---------------------------------------

def mix_coefficient_ops(u: np.ndarray, params: dict, grid: sg.GridSpec,
                        accuracy: int = 2) -> dict:
    """Scalar coefficient fields of the anisotropic spin system:

    A1 = i(alpha (2b+1) u_y - 2(2ab+a+b) u_x)
    A2 = i(4 alpha^-1 (2a^2 b + a^2 + 2ab + b) u_x - 2(2ab+a+b) u_y).
    """
    alpha = get_alpha(params)
    a = params.get("a", -0.5)
    b = params.get("b", -0.5)
    ux = sg.partial_data(u, grid, "x", accuracy)
    uy = sg.partial_data(u, grid, "y", accuracy)
    A1 = 1j * (alpha * (2 * b + 1) * uy - 2 * (2 * a * b + a + b) * ux)
    A2 = 1j * (4 * alpha**-1 * (2 * a * a * b + a * a + 2 * a * b + b) * ux
               - 2 * (2 * a * b + a + b) * uy)
    return {"A1": A1, "A2": A2}


def map_spin_coeffs(eq: str, k: np.ndarray, tau: np.ndarray, u: np.ndarray,
                    params: dict, grid: sg.GridSpec, with_omega: bool = False,
                    accuracy: int = 2, k_tol: float = 1e-12) -> dict:
    """Frame coefficients (m1, m2, m3[, w1..w3]) from curvature, torsion and
    the scalar potential.  eq "ishimori" fixes the operator at a = b = -1/2
    and uses the focusing/defocusing sign beta in the epsilon slot."""
    if eq not in ("ishimori", "mix"):
        raise DomainError(f"no spin-coefficient map for {eq!r}")
    alpha = get_alpha(params)
    beta = params.get("beta", 1)
    if eq == "ishimori":
        a = b = -0.5
    else:
        a = params.get("a", -0.5)
        b = params.get("b", -0.5)
    ops = FDOps(grid, accuracy)
    m2u = _m2_op(ops, u, alpha, a, b)
    kmask = np.abs(k) < k_tol
    if kmask.mean() > 0.10:
        raise DomainError("zero-curvature set exceeds the 10% mask budget")
    ksafe = np.where(kmask, 1.0, k)
    ky = sg.partial_data(k, grid, "y", accuracy)
    tauy = sg.partial_data(tau, grid, "y", accuracy)
    m2 = np.where(kmask, 0.0, -m2u / (2 * alpha**2 * ksafe))
    m1 = sg.antider_x_data(tauy - (beta / (2 * alpha**2)) * m2u, grid)
    m3 = sg.antider_x_data(
        ky + np.where(kmask, 0.0, (tau / (2 * alpha**2 * ksafe)) * m2u), grid)
    out = {"m1": m1, "m2": m2, "m3": m3, "k_mask": kmask}
    if not with_omega:
        return out

    m3y = sg.partial_data(m3, grid, "y", accuracy)
    m2y = sg.partial_data(m2, grid, "y", accuracy)
    kx = sg.partial_data(k, grid, "x", accuracy)
    ux = sg.partial_data(u, grid, "x", accuracy)
    uy = sg.partial_data(u, grid, "y", accuracy)
    if eq == "ishimori":
        w2 = -kx - alpha**2 * (m3y + m2 * m1) + 1j * m2 * ux
        w3 = (-k * tau + alpha**2 * (m2y - m3 * m1)
              + 1j * k * uy + 1j * m3 * ux)
    else:
        coeffs = mix_coefficient_ops(u, params, grid, accuracy)
        A1, A2 = coeffs["A1"], coeffs["A2"]
        c1 = 4 * (a * a - 2 * a * b - b)
        c2 = 4 * alpha * (b - a)
        w2 = -c1 * kx - c2 * ky - alpha**2 * (m3y + m2 * m1) + m2 * A1
        w3 = (-c1 * k * tau - c2 * k * m1 + alpha**2 * (m2y - m3 * m1)
              + k * A2 + m3 * A1)
    w2x = sg.partial_data(w2, grid, "x", accuracy)
    w1 = np.where(kmask, 0.0, (-w2x + tau * w3) / ksafe)
    out.update({"w1": w1, "w2": w2, "w3": w3})
    return out


def amplitude_phase(eq: str, k, tau, m1, m2, m3, params: dict,
                    grid: sg.GridSpec, A=None, D=None,
                    with_phase: bool = False, accuracy: int = 2) -> dict:
    """Squared amplitudes and gamma integrands of the soliton fields, plus
    the phases (and q, p) when requested.

    A and D are the undetermined auxiliary fields of the phase integrands;
    they default to zero."""
    if eq not in ("ishimori", "mix"):
        raise DomainError(f"no amplitude map for {eq!r}")
    alpha = get_alpha(params)
    aR, aI = alpha.real, alpha.imag
    mod2 = abs(alpha) ** 2
    ky = sg.partial_data(k, grid, "y", accuracy)
    kx = sg.partial_data(k, grid, "x", accuracy)
    m3x = sg.partial_data(m3, grid, "x", accuracy)

    if eq == "ishimori":
        a1p2 = (0.25 * k**2 + 0.25 * mod2 * (m3**2 + m2**2)
                - 0.5 * aR * k * m3 - 0.5 * aI * k * m2)
        a2p2 = (0.25 * k**2 + 0.25 * mod2 * (m3**2 + m2**2)
                + 0.5 * aR * k * m3 - 0.5 * aI * k * m2)
        a1sq, a2sq = a1p2, a2p2
        g1 = 1j * (0.5 * k**2 * tau + 0.5 * mod2 * (m3 * k * m1 + m2 * ky)
                   - 0.5 * aR * (k**2 * m1 + m3 * k * tau + m2 * kx)
                   + 0.5 * aI * (k * (2 * ky - m3x) - kx * m3))
        g2 = -1j * (0.5 * k**2 * tau + 0.5 * mod2 * (m3 * k * m1 + m2 * ky)
                    + 0.5 * aR * (k**2 * m1 + m3 * k * tau + m2 * kx)
                    + 0.5 * aI * (k * (2 * ky - m3x) - kx * m3))
    else:
        ca = complex(params.get("a", -0.5))
        cb = complex(params.get("b", -0.5))
        # l is never pinned down by the source; default non-authoritative
        l = params.get("l", ca.real)
        ab = abs(ca) ** 2 / abs(cb) ** 2
        a1p2 = ((l + 1) ** 2 * k**2 + 0.25 * mod2 * (m3**2 + m2**2)
                - (l + 1) * aR * k * m3 - (l + 1) * aI * k * m2)
        a2p2 = (l**2 * k**2 + 0.25 * mod2 * (m3**2 + m2**2)
                - l * aR * k * m3 + l * aI * k * m2)
        a1sq = ab * a1p2
        a2sq = a1p2 * 0 + (1.0 / ab) * a2p2
        g1 = 1j * (2 * (l + 1) ** 2 * k**2 * tau
                   + 0.5 * mod2 * (m3 * k * m1 + m2 * ky)
                   - (l + 1) * aR * (k**2 * m1 + m3 * k * tau + m2 * kx)
                   + (l + 1) * aI * (k * (2 * ky - m3x) - kx * m3))
        g2 = -1j * (2 * l**2 * k**2 * tau
                    + 0.5 * mod2 * (m3 * k * m1 + m2 * ky)
                    - l * aR * (k**2 * m1 + m3 * k * tau + m2 * kx)
                    - l * aI * (k * (2 * ky - m3x) - kx * m3))

    out = {"a1sq": a1sq, "a2sq": a2sq, "gamma1": g1, "gamma2": g2}
    if not with_phase:
        return out
    if np.any(a1p2 <= 0) or np.any(a2p2 <= 0):
        bad = a1p2 <= 0 if np.any(a1p2 <= 0) else a2p2 <= 0
        loc = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise DomainError(f"nonpositive amplitude at grid index {loc}")
    if A is None:
        A = np.zeros_like(g1)
    if D is None:
        D = np.zeros_like(g1)
    b1 = sg.antider_x_data(-g1 / (2j * a1p2) - (np.conj(A) - A + D - np.conj(D)),
                           grid)
    b2 = sg.antider_x_data(-g2 / (2j * a2p2) - (A - np.conj(A) + np.conj(D) - D),
                           grid)
    out.update({
        "b1": b1,
        "b2": b2,
        "q": np.sqrt(a1sq) * np.exp(1j * b1),
        "p": np.sqrt(a2sq) * np.exp(1j * b2),
    })
    return out
