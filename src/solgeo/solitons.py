"""Residual evaluators for the soliton PDE family, Lax-matrix builders,
spin<->soliton coefficient maps, and commutation-defect tests for the 2x2
and 3x3 linear problems.

Equation ids (lowercase strings): ishimori, ds, mix, mviii, mxxxiv, zii, zi,
mkdv_c, mkdv_r, strachan, m3q, mi.  Parameters are keyed alpha_re, alpha_im,
a, b, c, d, beta, r2, l.
"""

from __future__ import annotations

import numpy as np

from solgeo import grid as sg
from solgeo.errors import DomainError, NumericalError
from solgeo.waves import Wave


def get_alpha(params: dict) -> complex:
    return complex(params.get("alpha_re", 1.0), params.get("alpha_im", 0.0))


def _nonzero(value, name):
    """value, or a DomainError naming the parameter a map divides by."""
    if value == 0:
        raise DomainError(f"{name} must be nonzero")
    return value


def _r2_sign(params):
    """The mi signature sign params["r2"] (default +1): exactly +1 or -1."""
    r2 = params.get("r2", 1)
    if r2 not in (1, -1):
        raise DomainError(f"r2 must be +1 or -1, got {r2!r}")
    return 1 if r2 == 1 else -1


# --- derivatives: d(f, axis) ------------------------------------------------

def _fd(grid):
    """The finite-difference derivative d(f, axis) of arrays on grid."""
    return lambda f, axis: sg.partial_data(np.asarray(f), grid, axis)


def _wavenumbers(grid, axis, ndim):
    """Angular wavenumbers of a periodic axis of grid in FFT order, shaped
    to run along that axis of an ndim-dimensional array."""
    i = grid.index(axis)
    ax = grid.axes[i]
    if not ax.periodic:
        raise DomainError(f"spectral operations need a periodic axis; "
                          f"{axis!r} is open")
    shape = [1] * ndim
    shape[i] = -1
    return (2 * np.pi * np.fft.fftfreq(ax.n, d=ax.h)).reshape(shape)


def _spectral(grid):
    """The FFT derivative d(f, axis) along the periodic axes of grid, on
    arrays whose leading axes follow the grid (trailing matrix axes ride
    along)."""
    def d(f, axis):
        f = np.asarray(f)
        i = grid.index(axis)
        return np.fft.ifft(1j * _wavenumbers(grid, axis, f.ndim)
                           * np.fft.fft(f, axis=i), axis=i)
    return d


def _interp(f, grid, axis, at):
    """The band-limited interpolant of f along a periodic axis of grid (the
    Nyquist mode as a cosine) at the coordinates `at`: the axes of `at`
    lead, followed by the other axes of f."""
    f = np.asarray(f)
    i, ax = grid.index(axis), grid.axis(axis)
    k = _wavenumbers(grid, axis, f.ndim).ravel()
    s = np.asarray(at, dtype=float)[..., None] - ax.origin
    w = np.exp(1j * k * s)
    if ax.n % 2 == 0:
        w[..., ax.n // 2] = np.cos(k[ax.n // 2] * s[..., 0])
    return np.tensordot(w, np.fft.fft(f, axis=i) / ax.n, axes=(-1, i))


def _m1_op(d, f, alpha, a, b):
    """M1 f = alpha^2 f_yy + 4 alpha (b - a) f_xy + 4 (a^2 - 2ab - b) f_xx,
    with the derivative d(f, axis)."""
    return (alpha**2 * d(d(f, "y"), "y")
            + 4 * alpha * (b - a) * d(d(f, "x"), "y")
            + 4 * (a * a - 2 * a * b - b) * d(d(f, "x"), "x"))


def _m2_op(d, f, alpha, a, b):
    """M2 f = alpha^2 f_yy - 2 alpha (2a + 1) f_xy + 4 a (a + 1) f_xx; the
    isotropic (Ishimori) operator is M2 at a = b = -1/2."""
    return (alpha**2 * d(d(f, "y"), "y")
            - 2 * alpha * (2 * a + 1) * d(d(f, "x"), "y")
            + 4 * a * (a + 1) * d(d(f, "x"), "x"))


# --- spin helpers (FD only) --------------------------------------------------

def _dot(a, b):
    return np.sum(a * b, axis=-1)


# --- residuals ---------------------------------------------------------------

def pde_residual(eq: str, fields: dict, params: dict | None = None,
                 mode: str = "fd", grid=None) -> dict:
    """One residual array per printed equation line.

    In "fd" mode the fields are sampled arrays on `grid`; in "analytic"
    mode the scalar fields are Wave objects and derivatives are exact, so
    a residual reflects transcription alone, and it is sampled on `grid`
    once, at the end.  The mi signature sign is params["r2"] (default +1).
    """
    params = params or {}
    if grid is None:
        raise DomainError("grid required")
    if mode == "fd":
        d = _fd(grid)
    elif mode == "analytic":
        d = Wave.d
    else:
        raise DomainError(f"unknown mode {mode!r}")
    alpha = get_alpha(params)

    if eq == "ds":
        q, p, v = fields["q"], fields["p"], fields["v"]
        pq = p * q
        res = {
            "q": (1j * d(q, "t") + d(d(q, "x"), "x")
                  + alpha**2 * d(d(q, "y"), "y") + v * q),
            "p": (-1j * d(p, "t") + d(d(p, "x"), "x")
                  + alpha**2 * d(d(p, "y"), "y") + v * p),
            "v": (d(d(v, "x"), "x") - alpha**2 * d(d(v, "y"), "y")
                  + 2 * (d(d(pq, "x"), "x") + alpha**2 * d(d(pq, "y"), "y"))),
        }
    elif eq == "zi":
        q, p, v = fields["q"], fields["p"], fields["v"]
        res = {"q": 1j * d(q, "t") - d(d(q, "x"), "y") - v * q,
               "p": -1j * d(p, "t") - d(d(p, "x"), "y") - v * p,
               "v": d(v, "x") - 2 * d(p * q, "y")}
    elif eq in ("strachan", "m3q"):
        q, p, v = fields["q"], fields["p"], fields["v"]
        c = params.get("c", 1.0)
        dd = 0.0 if eq == "strachan" else params.get("d", 0.0)
        vq = v * q
        res = {
            "q": (1j * d(q, "t") - d(d(q, "x"), "y") + 2j * c * d(vq, "x")
                  - dd**2 * vq),
            "p": (-1j * d(p, "t") - d(d(p, "x"), "y") - 2j * c * d(vq, "x")
                  - dd**2 * v * p),
            "v": d(v, "x") - 2 * d(p * q, "y"),
        }
    elif eq == "mkdv_c":
        q, p, v1, v2 = fields["q"], fields["p"], fields["v1"], fields["v2"]
        res = {
            "q": (d(q, "t") + d(d(d(q, "x"), "x"), "y") - d(q * v1, "x")
                  - v2 * q),
            "p": (d(p, "t") + d(d(d(p, "x"), "x"), "y") - d(p * v1, "x")
                  - v2 * p),
            "v1": d(v1, "x") - 2 * d(p * q, "y"),
            "v2": d(v2, "x") - 2 * (p * d(d(q, "x"), "y")
                                    - d(d(p, "x"), "y") * q),
        }
    elif eq == "mkdv_r":
        q, v1 = fields["q"], fields["v1"]
        beta = params.get("beta", 1)
        res = {"q": d(q, "t") + d(d(d(q, "x"), "x"), "y") - d(q * v1, "x"),
               "v1": d(v1, "x") - 2 * beta * d(q * q, "y")}
    elif eq == "zii":
        q, p, v = fields["q"], fields["p"], fields["v"]
        a = params.get("a", -0.5)
        b = params.get("b", -0.5)
        variant = params.get("zii_sign_variant", "printed")
        m1q = _m1_op(d, q, alpha, a, b)
        m1p = _m1_op(d, p, alpha, a, b)
        if variant == "printed":
            r2 = 1j * d(p, "t") - m1p - v * p
        else:  # the limit form with the opposite overall sign
            r2 = -1j * d(p, "t") + m1p + v * p
        res = {"q": 1j * d(q, "t") + m1q + v * q, "p": r2,
               "v": (_m2_op(d, v, alpha, a, b)
                     + 2 * _m1_op(d, p * q, alpha, a, b))}
    elif eq not in _SPIN_EQS:
        raise DomainError(f"unknown equation id {eq!r}")
    elif mode != "fd":
        raise DomainError(f"{eq}: analytic mode not supported")
    else:
        return _spin_residual(eq, fields, params, grid, d, alpha)
    if mode == "analytic":
        return {k: r.sample(grid) for k, r in res.items()}
    return res


_SPIN_EQS = ("ishimori", "mix", "mviii", "mxxxiv", "mi")


def _spin_residual(eq, fields, params, grid, d, alpha):
    """pde_residual of the spin systems _SPIN_EQS, FD only: the only
    residuals here that call liealg."""
    from solgeo import liealg

    if eq == "ishimori":
        S, u = fields["S"], fields["u"]
        Sx, Sy, St = d(S, "x"), d(S, "y"), d(S, "t")
        ux, uy = d(u, "x"), d(u, "y")
        a2 = alpha**2
        r1 = (St - liealg.cross(S, d(Sx, "x") + a2 * d(Sy, "y"))
              - ux[..., None] * Sy - uy[..., None] * Sx)
        r2 = (d(ux, "x") - a2 * d(uy, "y")
              + 2 * a2 * _dot(S, liealg.cross(Sx, Sy)))
        return {"S": r1, "u": r2}

    if eq == "mix":
        S, u = fields["S"], fields["u"]
        a = params.get("a", -0.5)
        b = params.get("b", -0.5)
        coeffs = mix_coefficient_ops(u, params, grid)
        A1, A2 = coeffs["A1"], coeffs["A2"]
        Sx, Sy, St = d(S, "x"), d(S, "y"), d(S, "t")
        m1S = np.stack([_m1_op(d, S[..., i], alpha, a, b)
                        for i in range(3)], axis=-1)
        r1 = (St - liealg.cross(S, m1S) - A2[..., None] * Sx
              - A1[..., None] * Sy)
        r2 = (_m2_op(d, u, alpha, a, b)
              - 2 * alpha**2 * _dot(S, liealg.cross(Sx, Sy)))
        return {"S": r1, "u": r2}

    if eq in ("mviii", "mxxxiv"):
        S, w = fields["S"], fields["w"]
        Sy = d(S, "y")
        r1 = d(S, "t") - liealg.cross(S, d(Sy, "y")) - w[..., None] * Sy
        if eq == "mviii":
            r2 = (d(w, "x") + d(w, "y")
                  + _dot(S, liealg.cross(d(S, "x"), Sy)))
        else:
            r2 = d(w, "t") + d(w, "y") + 0.5 * d(_dot(Sy, Sy), "y")
        return {"S": r1, "w": r2}

    # mi
    S, u = fields["S"], fields["u"]
    Sm = liealg.spin_matrix(S, _r2_sign(params))
    Sx, Sy = d(Sm, "x"), d(Sm, "y")
    inner = liealg.commutator(Sm, Sy) + 2j * u[..., None, None] * Sm
    r1 = 1j * d(Sm, "t") - d(inner, "x")
    tr = np.trace(Sm @ liealg.commutator(Sx, Sy), axis1=-2, axis2=-1)
    r2 = d(u, "x") - 0.5j * tr
    return {"S": r1, "u": r2}


# --- Lax matrix builders -----------------------------------------------------

def build_lax(eq: str, fields: dict, params: dict | None = None,
              grid=None, d=None) -> dict:
    """Lax matrices exactly as printed, with the derivative d(f, axis) on
    the grid (default finite differences).

    zi -> {A1, A2, A3}; mi -> {A3, A4} with the sign params["r2"];
    zii -> {B0, B1, C0, C1, C2} with the diagonal C0 entries obtained by
    Fourier-symbol inversion of the constant-coefficient first-order
    operators (zero-mean gauge) on the doubly periodic (x, y) axes; any
    further grid axes are batch axes.
    """
    from solgeo import liealg

    params = params or {}
    if grid is None:
        raise DomainError("grid required")
    d = d or _fd(grid)

    if eq == "zi":
        q, p = (np.asarray(fields[k], dtype=complex) for k in ("q", "p"))
        v = fields["v"]
        A1 = liealg.matrices([[0, 1j * (q - p), q + p],
                              [-1j * (q - p), 0, 0],
                              [-(q + p), 0, 0]], q.shape, complex)
        spy = d(q + p, "y")
        dmy = d(1j * (p - q), "y")
        A2 = liealg.matrices([[0, spy, dmy],
                              [-spy, 0, v],
                              [-dmy, -v, 0]], q.shape, complex)
        A3 = liealg.matrices([[0, 0, 0],
                              [0, 0, 1],
                              [0, -1, 0]], q.shape, complex)
        return {"A1": A1, "A2": A2, "A3": A3}

    if eq == "mi":
        S, u = fields["S"], fields["u"]
        r2sign = _r2_sign(params)
        # r is lifted as 1 (r2=+1) or i (r2=-1) inside the complex Lax
        # matrices; the stored spin field itself never carries the i.
        r = 1.0 if r2sign == 1 else 1.0j
        s1, s2, s3 = S[..., 0], S[..., 1], S[..., 2]
        s1y, s2y, s3y = d(s1, "y"), d(s2, "y"), d(s3, "y")
        # A3 and A4 are skew, the hats of their (2,1), (0,2), (1,0) entries
        A3 = liealg.hat(np.stack([-s3, -1j * r * s2, -r * s1], axis=-1))
        sp = s1 + 1j * s2
        sm = s1 - 1j * s2
        spy = s1y + 1j * s2y
        smy = s1y - 1j * s2y
        a12 = -1j * r * (2j * s3 * s2y - 2j * s2 * s3y + 1j * u * s1)
        a13 = -r * (2 * s3 * s1y - 2 * s1 * s3y - u * s2)
        a23 = -(1j * r2sign * (sp * smy - sm * spy) - u * s3)
        A4 = liealg.hat(np.stack([-a23, a13, -a12], axis=-1))
        return {"A3": A3, "A4": A4}

    if eq == "zii":
        q, p = (np.asarray(fields[k], dtype=complex) for k in ("q", "p"))
        a = params.get("a", -0.5)
        b = params.get("b", -0.5)
        alpha = get_alpha(params)
        B0 = liealg.matrices([[0, q],
                              [p, 0]], q.shape, complex)
        B1 = liealg.matrices([[a + 1, 0],
                              [0, a]], q.shape, complex)
        C2 = liealg.matrices([[(2 * b + 1) / 2 + 0.5, 0],
                              [0, (2 * b + 1) / 2 - 0.5]], q.shape, complex)
        C1 = 1j * B0
        qx, qy, py = d(q, "x"), d(q, "y"), d(p, "y")
        c12 = 1j * (2 * b - a + 1) * qx + 1j * alpha * qy
        c21 = 1j * (a - 2 * b) * qx - 1j * alpha * py
        pq = p * q
        c11 = _solve_first_order(pq, grid, a + 1, alpha, 2 * b - a + 1, alpha)
        c22 = _solve_first_order(pq, grid, a, alpha, a - 2 * b, -alpha)
        C0 = liealg.matrices([[c11, c12],
                              [c21, c22]], q.shape, complex)
        return {"B0": B0, "B1": B1, "C0": C0, "C1": C1, "C2": C2}

    raise DomainError(f"no Lax builder for equation {eq!r}")


def _solve_first_order(pq, grid, cx, cy, rx, ry):
    """Solve cx*f_x - cy*f_y = i*(rx*(pq)_x + ry*(pq)_y) along the doubly
    periodic x and y axes of grid by Fourier-symbol division with zero-mean
    gauge; the wavenumbers follow the axis order, other axes are batch."""
    if not (grid.axis("x").periodic and grid.axis("y").periodic):
        raise DomainError("diagonal temporal entries need doubly periodic x, y")
    KX = _wavenumbers(grid, "x", pq.ndim)
    KY = _wavenumbers(grid, "y", pq.ndim)
    axes = (grid.index("x"), grid.index("y"))
    pq_hat = np.fft.fft2(pq, axes=axes)
    rhs_hat = 1j * (rx * (1j * KX) + ry * (1j * KY)) * pq_hat
    sym = 1j * (cx * KX - cy * KY)
    zero = np.abs(sym) < 1e-12
    # the constant mode is the gauge freedom, never a resonance
    bad = (zero & ((KX != 0) | (KY != 0))
           & (np.abs(rhs_hat) > 1e-10 * max(1.0, np.abs(pq_hat).max())))
    if bad.any():
        m = tuple(map(int, np.unravel_index(np.argmax(bad), bad.shape)))
        raise DomainError(f"resonant Fourier mode {m} in temporal-entry solve")
    f_hat = np.where(zero, 0.0, rhs_hat / np.where(zero, 1.0, sym))
    return np.fft.ifft2(f_hat, axes=axes)


# --- commutation defect for the linear problems ------------------------------

# the (first, second) extents of the cell that both sweep orders cross
LAX_CELL = (0.2, 0.2)
# RK4 steps per sweep at the first level of a Lax refinement study; the
# count doubles per level with the line resolution
LAX_SUBSTEPS = 4


def _periodic_line(name, n):
    """The periodic line of n points over [0, 2 pi) along axis name."""
    if n < 4:
        raise DomainError(f"need a line of n >= 4 points, got {n}")
    return sg.Axis(name, n, 2 * np.pi / n, periodic=True)


def _stage_axis(name, span, substeps):
    """The 2 substeps + 1 RK4 stage coordinates of a sweep over [0, span]."""
    if substeps < 2:
        raise DomainError(f"need substeps >= 2 per sweep, got {substeps}")
    return sg.Axis(name, 2 * substeps + 1, span / (2 * substeps))


def _sample(fields, names, grid, at):
    """Callables f(x, y, t) sampled on grid, with the coordinates in `at`
    (which broadcast over the grid) in place of the grid's, each broadcast
    to the grid shape."""
    c = {**dict(zip(grid.names, grid.meshes(sparse=True))), **at}
    return {k: np.broadcast_to(fields[k](c["x"], c["y"], c["t"]), grid.shape)
            for k in names}


def _sweep(rhs, g, span, substeps):
    """RK4 over [0, span] in substeps steps, where rhs(j, g) is the
    right-hand side at stage coordinate j * span / (2 substeps); the state
    is checked for blow-up after every step."""
    ds = span / substeps
    for step in range(substeps):
        j = 2 * step
        k1 = rhs(j, g)
        k2 = rhs(j + 1, g + ds / 2 * k1)
        k3 = rhs(j + 1, g + ds / 2 * k2)
        k4 = rhs(j + 2, g + ds * k3)
        g = g + ds / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        norm = np.abs(g).max()
        if not norm <= 1e6:  # a NaN norm fails too
            raise NumericalError(
                f"linear-problem evolution blew up at step {step} of "
                f"{substeps}: max |g| = {norm:.3e} > 1e6")
    return g


def lax_commutation_defect(eq: str, fields: dict, params: dict,
                           n_line: int = 32, substeps: int = 8) -> float:
    """Max-norm difference between the two orders of evolving the
    wavefunction, from the identity, across the cell LAX_CELL at the origin
    (RK4, `substeps` steps per sweep); the fields are callables f(x, y, t)
    that broadcast over array arguments.  Each sweep's stage generators come
    from build_lax with the FFT derivative d=_spectral(grid).

    zi: the x-problem and the t-problem, the latter along its
    characteristics, as pointwise sweeps on n_line sampled lines y.
    zii: sweeps along y and t, state on a periodic x-line; build_lax runs
    once on the doubly periodic (x, y) cell grid, batched over the t
    stages, and B0, C0 are read at each stage's exact y by trigonometric
    interpolation along y.
    """
    if eq == "zi":
        return _zi_defect(fields, params, n_line, substeps)
    if eq == "zii":
        return _zii_defect(fields, params, n_line, substeps)
    raise DomainError(f"no commutation test for equation {eq!r}")


def _zi_defect(fields, params, n_line, substeps):
    """The four sides of the cell as one RK4 loop on states (n_line, 4, 3, 3)
    from the identity, over n_line sampled lines y.

    The t-problem g_t = lam g_y + A2 g is pointwise along its characteristics
    y + lam (T - t).  The sides are the x-problem at t = 0 on the feet
    y + lam T (Phi0) and at t = T on y (PhiT), and the t-problem at x = 0
    (T0) and x = X (TX).  RK4 is linear in its start, so x then t is TX Phi0
    and t then x is PhiT T0, up to rounding; LAX_CELL is square, so all four
    step the same ds.  Each stage row is a periodic y-line with a shifted
    origin, so build_lax's spectral y-derivative stays exact.  The sides
    are built one at a time, so one build_lax dict is alive at once."""
    from solgeo import liealg

    lam = params.get("lam", 0.3)
    span = dict(zip(("x", "t"), LAX_CELL))
    line = _periodic_line("y", n_line)
    gr, gi = np.empty((2, 2 * substeps + 1, n_line, 4, 3, 3))
    for i, (axis, other, at) in enumerate((("x", "t", 0.0),
                                           ("x", "t", span["t"]),
                                           ("t", "x", 0.0),
                                           ("t", "x", span["x"]))):
        grid = sg.GridSpec.make(_stage_axis(axis, span[axis], substeps), line)
        s, y = grid.meshes(sparse=True)
        feet = y + lam * (span["t"] - (s if axis == "t" else at))
        lax = build_lax("zi", _sample(fields, ("q", "p", "v"), grid,
                                      {other: at, "y": feet}),
                        grid=grid, d=_spectral(grid))
        m = lax["A2"] if axis == "t" else lax["A1"] - lam * lax["A3"]
        gr[:, :, i], gi[:, :, i] = m.real, m.imag
        del lax, m
    g = _sweep(lambda j, gg: liealg.cmatmul(gr[j], gi[j], gg),
               np.broadcast_to(np.eye(3, dtype=complex), (n_line, 4, 3, 3)),
               span["x"], substeps)
    return float(np.abs(g[:, 3] @ g[:, 0] - g[:, 1] @ g[:, 2]).max())


def _zii_defect(fields, params, n_line, substeps):
    alpha = _nonzero(get_alpha(params), "alpha (alpha_re + i alpha_im)")
    span = dict(zip(("y", "t"), LAX_CELL))
    line = _periodic_line("x", n_line)
    d_line = _spectral(sg.GridSpec.make(line))
    cell = sg.GridSpec.make(_stage_axis("t", span["t"], substeps), line,
                            _periodic_line("y", n_line))
    lax = build_lax("zii", _sample(fields, ("q", "p"), cell, {}), params,
                    grid=cell, d=_spectral(cell))
    # B1 and C2 are constant: one matrix per line node
    B1, C2 = lax["B1"][0, :, 0], lax["C2"][0, :, 0]
    # B0 at (y stage, t stage), read at the two t ends of the cell
    b0_y = _interp(lax["B0"], cell, "y",
                   _stage_axis("y", span["y"], substeps).coords())

    def sweep_y(g, jt):
        b0 = b0_y[:, jt]
        return _sweep(lambda j, gg: (B1 @ d_line(gg, "x") + b0[j] @ gg) / alpha,
                      g, span["y"], substeps)

    def sweep_t(g, y):
        c1, c0 = (_interp(lax[k], cell, "y", y) for k in ("C1", "C0"))

        def rhs(j, gg):
            gx = d_line(gg, "x")
            return 2 * C2 @ d_line(gx, "x") + c1[j] @ gx + c0[j] @ gg
        return _sweep(rhs, g, span["t"], substeps)

    g0 = np.broadcast_to(np.eye(2, dtype=complex), (n_line, 2, 2))
    ga = sweep_t(sweep_y(g0, 0), span["y"])
    gb = sweep_y(sweep_t(g0, 0.0), 2 * substeps)
    return float(np.abs(ga - gb).max())


def lax_refinement_report(eq, fields, params, levels=3, n_line=16) -> dict:
    """Defect across refinement levels (line resolution and step count,
    from LAX_SUBSTEPS, both double per level; the cell stays fixed)."""
    return sg.refinement_study(
        lambda lv: lax_commutation_defect(
            eq, fields, params, n_line=n_line * 2**lv,
            substeps=LAX_SUBSTEPS * 2**lv), levels)


# --- spin <-> soliton coefficient maps ---------------------------------------

def mix_coefficient_ops(u: np.ndarray, params: dict,
                        grid: sg.GridSpec) -> dict:
    """Scalar coefficient fields of the anisotropic spin system:

    A1 = i(alpha (2b+1) u_y - 2(2ab+a+b) u_x)
    A2 = i(4 alpha^-1 (2a^2 b + a^2 + 2ab + b) u_x - 2(2ab+a+b) u_y).
    """
    alpha = _nonzero(get_alpha(params), "alpha (alpha_re + i alpha_im)")
    a = params.get("a", -0.5)
    b = params.get("b", -0.5)
    d = _fd(grid)
    ux, uy = d(u, "x"), d(u, "y")
    A1 = 1j * (alpha * (2 * b + 1) * uy - 2 * (2 * a * b + a + b) * ux)
    A2 = 1j * (4 * alpha**-1 * (2 * a * a * b + a * a + 2 * a * b + b) * ux
               - 2 * (2 * a * b + a + b) * uy)
    return {"A1": A1, "A2": A2}


def map_spin_coeffs(eq: str, k: np.ndarray, tau: np.ndarray, u: np.ndarray,
                    params: dict, grid: sg.GridSpec,
                    with_omega: bool = False) -> dict:
    """Frame coefficients (m1, m2, m3[, w1..w3]) from curvature, torsion and
    the scalar potential.  eq "ishimori" fixes the operator at a = b = -1/2
    and uses the focusing/defocusing sign beta in the epsilon slot."""
    if eq not in ("ishimori", "mix"):
        raise DomainError(f"no spin-coefficient map for {eq!r}")
    alpha = _nonzero(get_alpha(params), "alpha (alpha_re + i alpha_im)")
    beta = params.get("beta", 1)
    if eq == "ishimori":
        a = b = -0.5
    else:
        a = params.get("a", -0.5)
        b = params.get("b", -0.5)
    d = _fd(grid)
    m2u = _m2_op(d, u, alpha, a, b)
    kmask = np.abs(k) < 1e-12
    if kmask.mean() > 0.10:
        raise DomainError("zero-curvature set exceeds the 10% mask budget")
    ksafe = np.where(kmask, 1.0, k)
    ky, tauy = d(k, "y"), d(tau, "y")
    m2 = np.where(kmask, 0.0, -m2u / (2 * alpha**2 * ksafe))
    m1 = sg.antider_x_data(tauy - (beta / (2 * alpha**2)) * m2u, grid)
    m3 = sg.antider_x_data(
        ky + np.where(kmask, 0.0, (tau / (2 * alpha**2 * ksafe)) * m2u), grid)
    out = {"m1": m1, "m2": m2, "m3": m3, "k_mask": kmask}
    if not with_omega:
        return out

    m3y, m2y, kx = d(m3, "y"), d(m2, "y"), d(k, "x")
    ux, uy = d(u, "x"), d(u, "y")
    if eq == "ishimori":
        w2 = -kx - alpha**2 * (m3y + m2 * m1) + 1j * m2 * ux
        w3 = (-k * tau + alpha**2 * (m2y - m3 * m1)
              + 1j * k * uy + 1j * m3 * ux)
    else:
        coeffs = mix_coefficient_ops(u, params, grid)
        A1, A2 = coeffs["A1"], coeffs["A2"]
        c1 = 4 * (a * a - 2 * a * b - b)
        c2 = 4 * alpha * (b - a)
        w2 = -c1 * kx - c2 * ky - alpha**2 * (m3y + m2 * m1) + m2 * A1
        w3 = (-c1 * k * tau - c2 * k * m1 + alpha**2 * (m2y - m3 * m1)
              + k * A2 + m3 * A1)
    w1 = np.where(kmask, 0.0, (-d(w2, "x") + tau * w3) / ksafe)
    out.update({"w1": w1, "w2": w2, "w3": w3})
    return out


def amplitude_phase(eq: str, k, tau, m1, m2, m3, params: dict,
                    grid: sg.GridSpec, with_phase: bool = False) -> dict:
    """Squared amplitudes and gamma integrands of the soliton fields, plus
    the phases (and q, p) when requested.

    The phases integrate b1_x = -g1/(2i a1^2) - (A* - A + D - D*) and
    b2_x = -g2/(2i a2^2) - (A - A* + D* - D).  The paper leaves the
    auxiliary fields A and D free; they are zero here."""
    if eq not in ("ishimori", "mix"):
        raise DomainError(f"no amplitude map for {eq!r}")
    alpha = get_alpha(params)
    aR, aI = alpha.real, alpha.imag
    mod2 = abs(alpha) ** 2
    d = _fd(grid)
    ky, kx, m3x = d(k, "y"), d(k, "x"), d(m3, "x")

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
        ca = _nonzero(complex(params.get("a", -0.5)), "a")
        cb = _nonzero(complex(params.get("b", -0.5)), "b")
        # l is never pinned down by the source; default non-authoritative
        l = params.get("l", ca.real)
        with np.errstate(all="ignore"):
            ab = np.float64(abs(ca)) ** 2 / np.float64(abs(cb)) ** 2
        if not 0.0 < ab < np.inf:
            raise DomainError(f"|a|^2/|b|^2 = {ab} for a = {ca}, b = {cb}: "
                              "out of floating-point range")
        a1p2 = ((l + 1) ** 2 * k**2 + 0.25 * mod2 * (m3**2 + m2**2)
                - (l + 1) * aR * k * m3 - (l + 1) * aI * k * m2)
        a2p2 = (l**2 * k**2 + 0.25 * mod2 * (m3**2 + m2**2)
                - l * aR * k * m3 + l * aI * k * m2)
        a1sq = ab * a1p2
        a2sq = (1.0 / ab) * a2p2
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
        loc = tuple(map(int, np.unravel_index(np.argmax(bad), bad.shape)))
        raise DomainError(f"nonpositive amplitude at grid index {loc}")
    b1 = sg.antider_x_data(-g1 / (2j * a1p2), grid)
    b2 = sg.antider_x_data(-g2 / (2j * a2p2), grid)
    out.update({
        "b1": b1,
        "b2": b2,
        "q": np.sqrt(a1sq) * np.exp(1j * b1),
        "p": np.sqrt(a2sq) * np.exp(1j * b2),
    })
    return out
