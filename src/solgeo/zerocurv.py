"""Compatibility (zero-curvature) residuals for every supported matrix
system, the four-potential embedding of the three-matrix system into the
self-dual Yang-Mills form, curvature/Hodge duality, and rational spectral
parameter fields with their defining first-order equations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from solgeo import grid as sg
from solgeo.errors import DomainError
from solgeo.liealg import commutator, cross


def _check_conn(conn: dict, names) -> sg.GridSpec:
    missing = [n for n in names if n not in conn]
    if missing:
        raise DomainError(f"connection set missing fields {missing}")
    if len({(conn[n].grid, type(conn[n])) for n in names}) != 1:
        raise DomainError("all connection fields must share one grid and "
                          "one form: all matrix or all axial")
    return conn[names[0]].grid


# Each system is the compatibility condition of linear problems Psi_p =
# P Psi, one per potential P along its direction: an axis; an axis minus
# pencil terms (axis, k), where k is a parameter or a potential applied
# from the left; or None, for a potential that is never differentiated.
# Each residual line is a sum of pairs (P, Q), each standing for
#     line(P, Q) = d_{dir Q} P - d_{dir P} Q + [P, Q],
# and line(Q, P) = -line(P, Q), so a minus sign is a swapped pair.
_MLXII = {"A": "x", "B": "y", "C": "t"}
_SDYM = {"A1": "xi1", "A2": "xi2", "A3": "xi3", "A4": "xi4"}
_SDYM_LINES = {"a": [("A2", "A1")], "b": [("A4", "A3")],
               "c": [("A1", "A4"), ("A3", "A2")]}
_SYSTEMS = {
    "gmce": ({"A": "x", "B": "y"}, {"xy": [("A", "B")]}),
    "mlxii": (_MLXII, {"xy": [("A", "B")], "xt": [("A", "C")],
                       "yt": [("B", "C")]}),
    # Phi is undirected, so line(Phi, A_mu) is the covariant derivative
    # d_mu Phi + [Phi, A_mu]
    "bogomolny": ({"Phi": None, **_MLXII},
                  {"t": [("Phi", "C"), ("A", "B")],
                   "y": [("Phi", "B"), ("C", "A")],
                   "x": [("Phi", "A"), ("B", "C")]}),
    "mlxx3d": ({"B": "xi1", "D": ("xi2", ("xi4", "b"))}, {"r": [("B", "D")]}),
    # sdym4d with d_3 dropped
    "sdym3d": ({**_SDYM, "A3": None}, _SDYM_LINES),
    "mlxii4d": ({"A": "xi1", "B": "xi2", "C": "xi3", "D": "xi4"},
                {"12": [("A", "B")], "13": [("A", "C")], "14": [("A", "D")],
                 "32": [("C", "B")], "42": [("D", "B")], "34": [("C", "D")]}),
    "mlxx4d": ({"A": None, "B": ("xi1", ("xi3", "A")), "C": None,
                "D": ("xi2", ("xi4", "C"))},
               {"a": [("B", "D")], "b": [("A", "D")], "c": [("A", "C")],
                "d": [("C", "B")]}),
    "mlxx4d_scalar": ({"B": ("xi1", ("xi3", "a")),
                       "D": ("xi2", ("xi4", "b"))}, {"r": [("B", "D")]}),
    "sdym4d": (_SDYM, _SDYM_LINES),
}


def residual_lines(system: str, conn: dict, params: dict | None = None):
    """Yield (key, line), one residual array per printed equation line of
    the named system, in `_SYSTEMS` order.

    Systems: gmce {A,B}; mlxii {A,B,C}; bogomolny {Phi,A,B,C};
    mlxx3d {B,D} (param b); sdym3d {A1..A4}; mlxii4d {A,B,C,D};
    mlxx4d {A,B,C,D}; mlxx4d_scalar {B,D} (params a, b); sdym4d {A1..A4}.
    All fields are MatrixFields or, except for mlxx4d, all AxialFields,
    bracketed by the cross product into axial residuals.  Each system is
    one row of `_SYSTEMS`.  The generator drops each line once it is
    yielded, so a consumer that reduces a line and drops it before asking
    for the next holds one line at a time.
    """
    if system not in _SYSTEMS:
        raise DomainError(f"unknown system id {system!r}")
    dirs, lines = _SYSTEMS[system]
    g = _check_conn(conn, tuple(dirs))
    coefs = [k for d in dirs.values() if isinstance(d, tuple) for _, k in d[1:]]
    if isinstance(conn[next(iter(dirs))], sg.AxialField) and any(
            k in dirs for k in coefs):
        raise DomainError(f"{system} multiplies matrices: pass MatrixFields")
    names = [k for k in coefs if k not in dirs]
    coef = dict(zip(names, _finite_params(params or {}, names)))

    def deriv(name, direction):
        # 0 along no direction; a bare axis is one partial_data call
        if direction is None:
            return 0
        axis, *terms = (direction,) if isinstance(direction, str) else direction
        f = conn[name].data
        out = sg.partial_data(f, g, axis)
        for ax, k in terms:
            dk = sg.partial_data(f, g, ax)
            out = out - (conn[k].data @ dk if k in dirs else coef[k] * dk)
        return out

    def line(p, q):
        # one expression: no name holds a temporary, so numpy computes each
        # operation in place in the temporary's buffer
        bracket = cross if isinstance(conn[p], sg.AxialField) else commutator
        return (deriv(p, dirs[q]) - deriv(q, dirs[p])
                + bracket(conn[p].data, conn[q].data))

    for key, pairs in lines.items():
        r = line(*pairs[0])
        for p, q in pairs[1:]:
            r = r + line(p, q)
        yield key, r
        del r


def zc_residual(system: str, conn: dict, params: dict | None = None) -> dict:
    """Every line of `residual_lines` at once, as {key: residual array}."""
    return dict(residual_lines(system, conn, params))


# --- self-dual Yang-Mills embedding of the three-matrix system ---------------

def embed_sdym(A: sg.MatrixField, B: sg.MatrixField, C: sg.MatrixField) -> dict:
    """Complex-coordinate four-potential built from (A, B, C) over (x, y, t):
    pot_a = -iC, pot_abar = iC, pot_b = A - iB, pot_bbar = A + iB (the
    printed duplicate slot is read as the bar-beta potential)."""
    _check_conn({"A": A, "B": B, "C": C}, ("A", "B", "C"))
    g = A.grid
    return {
        "a": sg.MatrixField(g, -1j * C.data),
        "abar": sg.MatrixField(g, 1j * C.data),
        "b": sg.MatrixField(g, A.data - 1j * B.data),
        "bbar": sg.MatrixField(g, A.data + 1j * B.data),
    }


def sdym_complex_residuals(pot: dict) -> dict:
    """The three self-duality residuals F_ab = 0, F_abar_bbar = 0,
    F_a_abar + F_b_bbar = 0 of a z-independent complex-coordinate potential,
    with d_a = -i d_t, d_abar = i d_t, d_b = d_x - i d_y, d_bbar = d_x + i d_y.
    """
    g = pot["a"].grid

    def d(direction, name):
        f = pot[name].data
        i = 1j if direction.endswith("bar") else -1j
        if direction in ("a", "abar"):
            return i * sg.partial_data(f, g, "t")
        return sg.partial_data(f, g, "x") + i * sg.partial_data(f, g, "y")

    Aa, Ab = pot["a"].data, pot["b"].data
    Aabar, Abbar = pot["abar"].data, pot["bbar"].data
    f_ab = d("a", "b") - d("b", "a") + commutator(Aa, Ab)
    f_abar_bbar = d("abar", "bbar") - d("bbar", "abar") + commutator(Aabar, Abbar)
    trace = d("a", "abar") - d("abar", "a") + commutator(Aa, Aabar)
    trace += d("b", "bbar") - d("bbar", "b") + commutator(Ab, Abbar)
    return {"ab": f_ab, "abar_bbar": f_abar_bbar, "trace": trace}


def embedding_identity_defect(A: sg.MatrixField, B: sg.MatrixField,
                              C: sg.MatrixField) -> float:
    """Exact linear-combination identity between the self-duality residuals
    of the embedded potential and the three-matrix compatibility residuals.

    With Rk- the three-matrix residuals of the sign-reversed connections
    (-A, -B, -C) -- the sign flip accounts for the opposite linear-problem
    convention of the four-potential form -- the identity is

        F_ab            =  i*R_xt- + R_yt-
        F_abar_bbar     = -i*R_xt- + R_yt-
        F_a_abar+F_b_bbar = 2i*R_xy-

    and this function returns the worst entrywise defect of all three lines.

    The potentials and the negated connection die inside the calls that
    use them, and each line's right-hand side is formed in one shared
    scratch array and subtracted in place, so the live set peaks near 10
    stacks the size of A on a 32^3 grid.  The in-place forms keep the
    operands and order of `sd - (1j*r_xt + r_yt)` and the like, so the
    defect is the same to the bit.
    """
    sd = sdym_complex_residuals(embed_sdym(A, B, C))
    g = A.grid
    r = zc_residual("mlxii", {"A": sg.MatrixField(g, -A.data),
                              "B": sg.MatrixField(g, -B.data),
                              "C": sg.MatrixField(g, -C.data)})
    t = 1j * r["xt"]
    t += r["yt"]

    def defect(name):
        line = sd.pop(name)
        line -= t
        return np.abs(line).max()

    d1 = defect("ab")
    np.multiply(-1j, r["xt"], out=t)
    t += r["yt"]
    d2 = defect("abar_bbar")
    np.multiply(2j, r["xy"], out=t)
    return float(np.max([d1, d2, defect("trace")]))


# --- curvature and Hodge duality ---------------------------------------------

_PAIRS = ("12", "13", "14", "23", "24", "34")


def curvature(pot: dict) -> dict:
    """F_mu_nu = d_mu A_nu - d_nu A_mu + [A_mu, A_nu] for a four-potential
    {A1..A4} over xi1..xi4, keyed "12".."34", each of grid.shape + (m, m)."""
    g = _check_conn(pot, ("A1", "A2", "A3", "A4"))
    comps = {}
    for key in _PAIRS:
        mu, nu = int(key[0]), int(key[1])
        am = pot[f"A{mu}"]
        an = pot[f"A{nu}"]
        comps[key] = (
            sg.partial_data(an.data, g, f"xi{mu}")
            - sg.partial_data(am.data, g, f"xi{nu}")
            + commutator(am.data, an.data)
        )
    return comps


def hodge_dual(F: dict) -> dict:
    """(*F)_mu_nu = (1/2) eps_mu_nu_rho_delta F_rho_delta, eps_1234 = 1."""
    return {
        "12": F["34"],
        "13": -F["24"],
        "14": F["23"],
        "23": F["14"],
        "24": -F["13"],
        "34": F["12"],
    }


def selfdual_defect(F: dict) -> float:
    """Max-norm of F - *F over all six components."""
    dual = hodge_dual(F)
    return float(np.max([abs_max(F[k] - dual[k]) for k in _PAIRS]))


# --- spectral-parameter fields -----------------------------------------------

@dataclass(frozen=True)
class SpectralField:
    grid: sg.GridSpec
    kind: str
    lam: np.ndarray
    mask: np.ndarray  # True where a residual stencil reaches the pole band


def _coord(g: sg.GridSpec, name: str):
    """Coordinates of an axis shaped to broadcast against the grid; an axis
    the grid lacks is GridSpec.index's DomainError."""
    return g.meshes(sparse=True)[g.index(name)]


def _finite_params(params: dict, names, optional=()) -> list:
    """The named parameters as given, optional ones defaulting to 0.0; a
    missing or non-finite one is a DomainError naming it."""
    out = []
    for k in names:
        if k not in params and k not in optional:
            raise DomainError(f"parameter {k!r} is missing")
        v = params.get(k, 0.0)
        try:
            finite = bool(np.isfinite(v))
        except (TypeError, ValueError):
            finite = False
        if not finite:
            raise DomainError(f"parameter {k!r} must be finite, got {v!r}")
        out.append(v)
    return out


def lambda_field(kind: str, params: dict, g: sg.GridSpec) -> SpectralField:
    """Rational spectral-parameter solutions.

    sdym_xi: lam = (n1*xi3 + n3 + m1*xi4) / (n4 - n1*xi1 - m1*xi2), m1
    optional (default 0).
    mlxii_complex: lam = (a1*x_abar + a2*x_bbar + a3)/(a2*x_a - a1*x_b + a4)
    on an (x, y, t, xi1) grid where xi1 plays the z coordinate.

    lam is zeroed where |den| <= band = 2 h_max (bound on |grad den|),
    and the mask is |den| <= 2 band: the band plus the stencil reach.  Both
    are taken on the sparse numerator and denominator; only the quotient
    is grid-sized.  A rational lam is not periodic, and the reach holds on
    open axes only, so a periodic axis is a DomainError.
    """
    periodic = [a.name for a in g.axes if a.periodic]
    if periodic:
        raise DomainError(f"lambda fields need open axes, got periodic "
                          f"{periodic}")
    hmax = max(a.h for a in g.axes)
    if kind == "sdym_xi":
        n1, n3, n4, m1 = _finite_params(params, ("n1", "n3", "n4", "m1"),
                                        optional=("m1",))
        num = n1 * _coord(g, "xi3") + n3 + m1 * _coord(g, "xi4")
        den = n4 - n1 * _coord(g, "xi1") - m1 * _coord(g, "xi2")
        grad_bound = abs(n1) + abs(m1)
    elif kind == "mlxii_complex":
        a1, a2, a3, a4 = _finite_params(params, ("a1", "a2", "a3", "a4"))
        z = _coord(g, "xi1")
        t = _coord(g, "t")
        x = _coord(g, "x")
        y = _coord(g, "y")
        x_a = 0.5 * (z + 1j * t)
        x_abar = 0.5 * (z - 1j * t)
        x_b = 0.5 * (x + 1j * y)
        x_bbar = 0.5 * (x - 1j * y)
        num = a1 * x_abar + a2 * x_bbar + a3
        den = a2 * x_a - a1 * x_b + a4
        grad_bound = abs(a1) + abs(a2)
    else:
        raise DomainError(f"unknown lambda kind {kind!r}")

    # den is affine, so over the <= 2 cells a stencil reaches along one
    # axis it moves by at most one band: that reach is the second band
    band = 2.0 * hmax * max(grad_bound, 1e-300)
    aden = np.abs(den)
    pole = aden <= band
    if pole.all():
        raise DomainError("entire grid lies inside the pole mask")
    den = np.where(pole, 1.0, den)
    lam = np.empty(g.shape, dtype=np.result_type(num, den))
    np.divide(num, den, out=lam)
    mask = np.broadcast_to(aden <= 2.0 * band, g.shape).copy()
    if pole.any():
        np.copyto(lam, 0.0, where=pole)
    return SpectralField(g, kind, lam, mask)


def lambda_lines(f: SpectralField):
    """Yield (key, line), the finite-difference residuals of the defining
    first-order equations; sdym_xi computes and drops one line at a time."""
    d = lambda name: sg.partial_data(f.lam, f.grid, name)

    if f.kind == "sdym_xi":
        for key, a, b in (("xi13", "xi1", "xi3"), ("xi24", "xi2", "xi4")):
            r = d(a)
            r -= f.lam * d(b)
            yield key, r
            del r
    else:
        dz, dt, dx, dy = (d(k) for k in ("xi1", "t", "x", "y"))
        beta = dx - 1j * dy
        beta -= f.lam * (dz + 1j * dt)
        yield "beta", beta
        del beta
        alpha = dz - 1j * dt
        alpha += f.lam * (dx + 1j * dy)
        yield "alpha", alpha


def lambda_residual(f: SpectralField) -> dict:
    """Every line of `lambda_lines` at once, plus a copy of the field's
    mask, which already covers the stencil reach, under key "mask"."""
    res = dict(lambda_lines(f))
    res["mask"] = f.mask.copy()
    return res


def abs_max(r: np.ndarray):
    """max |r|, NaN if r holds one.  Real data takes no |r| temporary:
    negation is exact, and abs only clears the sign of a zero."""
    if r.dtype.kind != "f":
        return np.abs(r).max()
    return abs(np.maximum(r.max(), -r.min()))


def masked_norms(res: np.ndarray, mask: np.ndarray) -> dict:
    """Max of |res| off the mask, and the masked share; mask must be a bool
    array of res's shape.  A mask without True cells skips the gather."""
    if not (isinstance(mask, np.ndarray) and mask.dtype == bool
            and mask.shape == res.shape):
        raise DomainError(f"mask must be a bool array of shape {res.shape}, "
                          f"got {np.asarray(mask).dtype} {np.shape(mask)}")
    masked = np.count_nonzero(mask)
    vals = res[~mask] if masked else res
    if not vals.size:
        raise DomainError("no unmasked points to evaluate")
    return {"max": float(abs_max(vals)),
            "mask_coverage": masked / mask.size}
