"""Compatibility (zero-curvature) residuals for every supported matrix
system, the four-potential embedding of the three-matrix system into the
self-dual Yang-Mills form, curvature/Hodge duality, and rational spectral
parameter fields with their defining first-order equations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from solgeo import grid as sg
from solgeo.errors import DomainError
from solgeo.liealg import commutator


def _check_conn(conn: dict, names) -> sg.GridSpec:
    missing = [n for n in names if n not in conn]
    if missing:
        raise DomainError(f"connection set missing fields {missing}")
    grids = {conn[n].grid for n in names}
    if len(grids) != 1:
        raise DomainError("all connection fields must share one grid")
    return conn[names[0]].grid


def zc_residual(system: str, conn: dict, params: dict | None = None,
                accuracy: int = 2) -> dict:
    """One residual array per printed equation line of the named system.

    Systems: gmce {A,B}; mlxii/uvw {A,B,C}; bogomolny {Phi,A,B,C};
    mlxx3d {B,D} (param b); sdym3d {A1..A4}; mlxii4d {A,B,C,D};
    mlxx4d {A,B,C,D}; mlxx4d_scalar {B,D} (params a, b); sdym4d {A1..A4}.
    """
    params = params or {}
    d = lambda name, ax: sg.partial_data(conn[name].data, conn[name].grid,
                                         ax, accuracy)
    c = lambda x, y: commutator(conn[x].data, conn[y].data)

    if system == "gmce":
        _check_conn(conn, ("A", "B"))
        return {"xy": d("A", "y") - d("B", "x") + c("A", "B")}

    if system in ("mlxii", "uvw"):
        names = ("A", "B", "C") if system == "mlxii" else ("U", "V", "W")
        _check_conn(conn, names)
        a, b, w = names
        return {
            "xy": d(a, "y") - d(b, "x") + c(a, b),
            "xt": d(a, "t") - d(w, "x") + c(a, w),
            "yt": d(b, "t") - d(w, "y") + c(b, w),
        }

    if system == "bogomolny":
        _check_conn(conn, ("Phi", "A", "B", "C"))
        return {
            "t": d("Phi", "t") + c("Phi", "C") + d("A", "y") - d("B", "x") + c("A", "B"),
            "y": d("Phi", "y") + c("Phi", "B") + d("C", "x") - d("A", "t") + c("C", "A"),
            "x": d("Phi", "x") + c("Phi", "A") + d("B", "t") - d("C", "y") + c("B", "C"),
        }

    if system == "mlxx3d":
        _check_conn(conn, ("B", "D"))
        b = params["b"]
        return {"r": -b * d("B", "xi4") + d("B", "xi2") - d("D", "xi1") + c("B", "D")}

    if system == "sdym3d":
        _check_conn(conn, ("A1", "A2", "A3", "A4"))
        return {
            "a": d("A2", "xi1") - d("A1", "xi2") + c("A2", "A1"),
            "b": -d("A3", "xi4") + c("A4", "A3"),
            "c": d("A1", "xi4") - d("A4", "xi1") + c("A1", "A4")
                 + d("A3", "xi2") - c("A2", "A3"),
        }

    if system == "mlxii4d":
        _check_conn(conn, ("A", "B", "C", "D"))
        return {
            "12": d("A", "xi2") - d("B", "xi1") + c("A", "B"),
            "13": d("A", "xi3") - d("C", "xi1") + c("A", "C"),
            "14": d("A", "xi4") - d("D", "xi1") + c("A", "D"),
            "32": d("C", "xi2") - d("B", "xi3") + c("C", "B"),
            "42": d("D", "xi2") - d("B", "xi4") + c("D", "B"),
            "34": d("C", "xi4") - d("D", "xi3") + c("C", "D"),
        }

    if system == "mlxx4d":
        _check_conn(conn, ("A", "B", "C", "D"))
        A = conn["A"].data
        C = conn["C"].data
        return {
            "a": A @ d("D", "xi3") - C @ d("B", "xi4") + d("B", "xi2")
                 - d("D", "xi1") + c("B", "D"),
            "b": d("A", "xi2") - C @ d("A", "xi4") + c("A", "D"),
            "c": c("A", "C"),
            "d": d("C", "xi1") - A @ d("C", "xi3") + c("C", "B"),
        }

    if system == "mlxx4d_scalar":
        _check_conn(conn, ("B", "D"))
        a = params["a"]
        b = params["b"]
        return {
            "r": a * d("D", "xi3") - b * d("B", "xi4") + d("B", "xi2")
                 - d("D", "xi1") + c("B", "D")
        }

    if system == "sdym4d":
        _check_conn(conn, ("A1", "A2", "A3", "A4"))
        return {
            "a": d("A2", "xi1") - d("A1", "xi2") + c("A2", "A1"),
            "b": d("A4", "xi3") - d("A3", "xi4") + c("A4", "A3"),
            "c": (d("A1", "xi4") - d("A4", "xi1") + c("A1", "A4"))
                 - (d("A2", "xi3") - d("A3", "xi2") + c("A2", "A3")),
        }

    raise DomainError(f"unknown system id {system!r}")


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


def sdym_complex_residuals(pot: dict, accuracy: int = 2) -> dict:
    """The three self-duality residuals F_ab = 0, F_abar_bbar = 0,
    F_a_abar + F_b_bbar = 0 of a z-independent complex-coordinate potential,
    with d_a = -i d_t, d_abar = i d_t, d_b = d_x - i d_y, d_bbar = d_x + i d_y.
    """
    g = pot["a"].grid

    def da(f):
        return -1j * sg.partial_data(f.data, g, "t", accuracy)

    def dabar(f):
        return 1j * sg.partial_data(f.data, g, "t", accuracy)

    def db(f):
        return (sg.partial_data(f.data, g, "x", accuracy)
                - 1j * sg.partial_data(f.data, g, "y", accuracy))

    def dbbar(f):
        return (sg.partial_data(f.data, g, "x", accuracy)
                + 1j * sg.partial_data(f.data, g, "y", accuracy))

    Aa, Ab = pot["a"].data, pot["b"].data
    Aabar, Abbar = pot["abar"].data, pot["bbar"].data
    f_ab = da(pot["b"]) - db(pot["a"]) + commutator(Aa, Ab)
    f_abar_bbar = dabar(pot["bbar"]) - dbbar(pot["abar"]) + commutator(Aabar, Abbar)
    f_a_abar = da(pot["abar"]) - dabar(pot["a"]) + commutator(Aa, Aabar)
    f_b_bbar = db(pot["bbar"]) - dbbar(pot["b"]) + commutator(Ab, Abbar)
    return {"ab": f_ab, "abar_bbar": f_abar_bbar, "trace": f_a_abar + f_b_bbar}


def embedding_identity_defect(A: sg.MatrixField, B: sg.MatrixField,
                              C: sg.MatrixField, accuracy: int = 2) -> float:
    """Exact linear-combination identity between the self-duality residuals
    of the embedded potential and the three-matrix compatibility residuals.

    With Rk- the three-matrix residuals of the sign-reversed connections
    (-A, -B, -C) -- the sign flip accounts for the opposite linear-problem
    convention of the four-potential form -- the identity is

        F_ab            =  i*R_xt- + R_yt-
        F_abar_bbar     = -i*R_xt- + R_yt-
        F_a_abar+F_b_bbar = 2i*R_xy-

    and this function returns the worst entrywise defect of all three lines.
    """
    pot = embed_sdym(A, B, C)
    sd = sdym_complex_residuals(pot, accuracy)
    g = A.grid
    neg = {
        "A": sg.MatrixField(g, -A.data),
        "B": sg.MatrixField(g, -B.data),
        "C": sg.MatrixField(g, -C.data),
    }
    r = zc_residual("mlxii", neg, accuracy=accuracy)
    d1 = sd["ab"] - (1j * r["xt"] + r["yt"])
    d2 = sd["abar_bbar"] - (-1j * r["xt"] + r["yt"])
    d3 = sd["trace"] - 2j * r["xy"]
    return float(max(np.abs(d1).max(), np.abs(d2).max(), np.abs(d3).max()))


# --- curvature and Hodge duality ---------------------------------------------

_PAIRS = ("12", "13", "14", "23", "24", "34")


@dataclass(frozen=True)
class Curvature2Form:
    grid: sg.GridSpec
    comps: dict  # keys "12".."34", values grid.shape + (m, m)

    def get(self, mu: int, nu: int) -> np.ndarray:
        if mu == nu:
            return np.zeros_like(self.comps["12"])
        key = f"{mu}{nu}"
        if key in self.comps:
            return self.comps[key]
        return -self.comps[f"{nu}{mu}"]


def curvature(pot: dict, accuracy: int = 2) -> Curvature2Form:
    """F_mu_nu = d_mu A_nu - d_nu A_mu + [A_mu, A_nu] for a four-potential
    {A1..A4} over xi1..xi4."""
    g = _check_conn(pot, ("A1", "A2", "A3", "A4"))
    comps = {}
    for key in _PAIRS:
        mu, nu = int(key[0]), int(key[1])
        am = pot[f"A{mu}"]
        an = pot[f"A{nu}"]
        comps[key] = (
            sg.partial_data(an.data, g, f"xi{mu}", accuracy)
            - sg.partial_data(am.data, g, f"xi{nu}", accuracy)
            + commutator(am.data, an.data)
        )
    return Curvature2Form(g, comps)


def hodge_dual(F: Curvature2Form) -> Curvature2Form:
    """(*F)_mu_nu = (1/2) eps_mu_nu_rho_delta F_rho_delta, eps_1234 = 1."""
    c = F.comps
    return Curvature2Form(F.grid, {
        "12": c["34"],
        "13": -c["24"],
        "14": c["23"],
        "23": c["14"],
        "24": -c["13"],
        "34": c["12"],
    })


def selfdual_defect(F: Curvature2Form) -> float:
    """Max-norm of F - *F over all six components."""
    dual = hodge_dual(F)
    return float(max(np.abs(F.comps[k] - dual.comps[k]).max() for k in _PAIRS))


# --- spectral-parameter fields -----------------------------------------------

LAMBDA_KINDS = ("sdym_xi", "mlxii_complex")


@dataclass(frozen=True)
class SpectralField:
    grid: sg.GridSpec
    kind: str
    params: dict
    lam: np.ndarray
    mask: np.ndarray  # True where excluded (near the pole locus)


def _coord(g: sg.GridSpec, name: str):
    """Mesh coordinate for an axis, or 0.0 when the grid lacks it."""
    if name in g.names:
        meshes = g.meshes()
        return meshes[g.index(name)]
    return 0.0


def lambda_field(kind: str, params: dict, g: sg.GridSpec) -> SpectralField:
    """Rational spectral-parameter solutions.

    sdym_xi: lam = (n1*xi3 + n3 + m1*xi4) / (n4 - n1*xi1 - m1*xi2).
    mlxii_complex: lam = (a1*x_abar + a2*x_bbar + a3)/(a2*x_a - a1*x_b + a4)
    on an (x, y, t, xi1) grid where xi1 plays the z coordinate.
    """
    hmax = max(a.h for a in g.axes)
    if kind == "sdym_xi":
        n1, n3, n4 = params["n1"], params["n3"], params["n4"]
        m1 = params.get("m1", 0.0)
        num = n1 * _coord(g, "xi3") + n3 + m1 * _coord(g, "xi4")
        den = n4 - n1 * _coord(g, "xi1") - m1 * _coord(g, "xi2")
        num, den = np.broadcast_to(num, g.shape), np.broadcast_to(den, g.shape)
        grad_bound = abs(n1) + abs(m1)
    elif kind == "mlxii_complex":
        a1, a2, a3, a4 = (params[k] for k in ("a1", "a2", "a3", "a4"))
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
        num, den = np.broadcast_to(num, g.shape), np.broadcast_to(den, g.shape)
        grad_bound = abs(a1) + abs(a2)
    else:
        raise DomainError(f"unknown lambda kind {kind!r}")

    mask = np.abs(den) <= 2.0 * hmax * max(grad_bound, 1e-300)
    if mask.all():
        raise DomainError("entire grid lies inside the pole mask")
    lam = np.where(mask, 0.0, num / np.where(mask, 1.0, den))
    return SpectralField(g, kind, dict(params), lam, mask)


def _dilate_mask(mask: np.ndarray, cells: int) -> np.ndarray:
    out = mask.copy()
    for ax in range(mask.ndim):
        for s in range(1, cells + 1):
            for sign in (s, -s):
                shifted = np.roll(mask, sign, axis=ax)
                # roll wraps; the wrapped slab is conservative (extra masking)
                out |= shifted
    return out


def lambda_residual(f: SpectralField, accuracy: int = 2) -> dict:
    """Finite-difference residuals of the defining first-order equations,
    with the pole mask dilated to cover stencil reach.  Returns residual
    arrays plus the evaluation mask under key "mask"."""
    g = f.grid

    def d(name):
        if name in g.names:
            return sg.partial_data(f.lam, g, name, accuracy)
        return np.zeros_like(f.lam)

    if f.kind == "sdym_xi":
        r1 = d("xi1") - f.lam * d("xi3")
        r2 = d("xi2") - f.lam * d("xi4")
        res = {"xi13": r1, "xi24": r2}
    else:
        d_a = d("xi1") - 1j * d("t")
        d_abar = d("xi1") + 1j * d("t")
        d_b = d("x") - 1j * d("y")
        d_bbar = d("x") + 1j * d("y")
        res = {"beta": d_b - f.lam * d_abar, "alpha": d_a + f.lam * d_bbar}

    mask = _dilate_mask(f.mask, accuracy // 2 + 1)
    res["mask"] = mask
    return res


def masked_norms(res: np.ndarray, mask: np.ndarray) -> dict:
    keep = ~mask
    if not keep.any():
        raise DomainError("no unmasked points to evaluate")
    vals = np.abs(res[keep])
    out = {"max": float(vals.max()), "l2": float(np.sqrt(np.mean(vals**2))),
           "mask_coverage": float(mask.mean())}
    return out
