"""Regular-grid fields over 1-4 axes, finite differences on bare arrays, the
x-antiderivative, field serialization and the refinement-study loop.

Fields are immutable-by-convention wrappers around numpy arrays whose leading
axes follow the GridSpec axis order; matrix-valued fields carry two trailing
matrix axes, and so(3)-valued fields one trailing axis of axial components.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from solgeo.errors import DomainError

AXIS_NAMES = ("x", "y", "t", "xi1", "xi2", "xi3", "xi4")


@dataclass(frozen=True)
class Axis:
    name: str
    n: int
    h: float
    periodic: bool = False
    origin: float = 0.0

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise DomainError(f"unknown axis name {self.name!r}")
        if self.n < 4:
            raise DomainError(f"axis {self.name}: need n >= 4, got {self.n}")
        if not (self.h > 0):
            raise DomainError(f"axis {self.name}: spacing must be positive")

    def coords(self) -> np.ndarray:
        return self.origin + self.h * np.arange(self.n)


@dataclass(frozen=True)
class GridSpec:
    axes: tuple

    def __post_init__(self):
        names = [a.name for a in self.axes]
        if len(set(names)) != len(names):
            raise DomainError("axis names must be unique")

    @classmethod
    def make(cls, *axes):
        return cls(tuple(axes))

    @property
    def shape(self):
        return tuple(a.n for a in self.axes)

    @property
    def names(self):
        return tuple(a.name for a in self.axes)

    def index(self, name: str) -> int:
        for i, a in enumerate(self.axes):
            if a.name == name:
                return i
        raise DomainError(f"grid has no axis {name!r}")

    def axis(self, name: str) -> Axis:
        return self.axes[self.index(name)]

    def coords(self, name: str) -> np.ndarray:
        return self.axis(name).coords()

    def meshes(self, sparse: bool = False):
        """Coordinate arrays in axis order: broadcast to the full grid shape,
        or with sparse=True shaped (1, ..., n, ..., 1) so that they
        broadcast against each other without dense copies."""
        return np.meshgrid(*[a.coords() for a in self.axes], indexing="ij",
                           sparse=sparse)


@dataclass(frozen=True)
class ScalarField:
    grid: GridSpec
    data: np.ndarray

    def __post_init__(self):
        if self.data.shape != self.grid.shape:
            raise DomainError(
                f"data shape {self.data.shape} != grid shape {self.grid.shape}"
            )


@dataclass(frozen=True)
class MatrixField:
    grid: GridSpec
    data: np.ndarray  # grid.shape + (m, m)

    def __post_init__(self):
        if self.data.shape[:-2] != self.grid.shape or self.data.shape[-1] != self.data.shape[-2]:
            raise DomainError(
                f"data shape {self.data.shape} incompatible with grid {self.grid.shape}"
            )


@dataclass(frozen=True)
class AxialField:
    """so(3)-valued field of axial vectors; its matrices are liealg.hat(data)."""
    grid: GridSpec
    data: np.ndarray  # grid.shape + (3,)

    def __post_init__(self):
        if self.data.shape != self.grid.shape + (3,):
            raise DomainError(f"axial data shape {self.data.shape} != grid "
                              f"shape {self.grid.shape} + (3,)")


def diff_axis(data: np.ndarray, axis: int, h: float,
              periodic: bool) -> np.ndarray:
    """Second-order first derivative along one array axis; central in the
    interior, one-sided on open boundaries, wrap-around when periodic.
    Returns a C-contiguous array.

    Complex128 data is scaled on its float view, by the reciprocal of 2h.
    numpy divides complex by real through complex division (Smith's
    algorithm), which for a real divisor computes (re + im*0) * (1/(2h))
    per component.  The product gives the same bits, except that a -0
    component keeps its sign (the division can give +0) and that a
    non-finite component does not turn its partner into NaN.  On a 32^3
    stack of 3x3 matrices (2-core x86 host) the call went from 1.9-2.5
    to 1.0-1.1 ms.  Real data keeps the division: a reciprocal product
    would change the last bit of 12-51 % of the entries at the spacings
    in use."""
    n = data.shape[axis]
    if n < 3:
        raise DomainError(f"need at least 3 points, got {n}")
    f = np.ascontiguousarray(data)
    out = np.empty(f.shape, dtype=np.result_type(f.dtype, float))
    # one pass over the flat buffers: entry k minus entry k - 2p, with p the
    # stride of the axis in elements, is f[i+1] - f[i-1] along the axis
    # except on its first and last slab, which the edge stencils overwrite
    p = math.prod(f.shape[axis + 1:])
    src, m = f.reshape(-1), f.size
    flat = out.reshape(-1)[p:m - p]
    np.subtract(src[2 * p:], src[:m - 2 * p], out=flat)
    if flat.dtype == complex:
        parts = flat.view(float)
        np.multiply(parts, 1.0 / (2 * h), out=parts)
    else:
        np.divide(flat, 2 * h, out=flat)
    f = np.moveaxis(f, axis, 0)
    edge = np.moveaxis(out, axis, 0)
    if periodic:
        edge[0] = (f[1] - f[-1]) / (2 * h)
        edge[-1] = (f[0] - f[-2]) / (2 * h)
    else:
        edge[0] = (-1.5 * f[0] + 2.0 * f[1] - 0.5 * f[2]) / h
        edge[-1] = -(-1.5 * f[-1] + 2.0 * f[-2] - 0.5 * f[-3]) / h
    return out


def partial_data(data: np.ndarray, grid: GridSpec, axis_name: str) -> np.ndarray:
    """Finite-difference partial derivative along a named axis of a bare
    array whose leading axes follow grid (Scalar- or MatrixField data)."""
    ax_i = grid.index(axis_name)
    ax = grid.axes[ax_i]
    return diff_axis(data, ax_i, ax.h, ax.periodic)


def antider_x(field):
    """Antiderivative along x: cumulative trapezoid, zero on the x-minimum
    plane (gauge convention)."""
    return replace(field, data=antider_x_data(field.data, field.grid))


def antider_x_data(data: np.ndarray, grid: GridSpec) -> np.ndarray:
    """antider_x on a bare array whose leading axes follow grid.  The
    operation order (h * (y[i+1] + y[i]) / 2, then a running sum) matches
    scipy's cumulative_trapezoid bit for bit."""
    ax_i = grid.index("x")
    h = grid.axes[ax_i].h
    data = np.asarray(data)
    y = np.moveaxis(data, ax_i, 0)
    steps = h * (y[1:] + y[:-1]) / 2.0
    out = np.zeros(data.shape, dtype=steps.dtype)
    np.cumsum(steps, axis=0, out=np.moveaxis(out, ax_i, 0)[1:])
    return out


# --- serialization -----------------------------------------------------------

_MAGIC = "solgeo-field-v1"
# the payload's dtype per header "value"
_PAYLOAD = {"real": "<f8", "complex": "<c16"}


def save_field(path, field):
    """Binary field format: one JSON header line, then a raw little-endian
    float64 payload, or complex128 (re/im pairs) for complex data."""
    if isinstance(field, AxialField):
        raise DomainError("save an axial field as MatrixField(liealg.hat)")
    data = np.ascontiguousarray(field.data)
    kind = "matrix" if isinstance(field, MatrixField) else "scalar"
    header = {
        "format": _MAGIC,
        "kind": kind,
        "axes": [
            {"name": a.name, "n": a.n, "h": a.h, "periodic": a.periodic,
             "origin": a.origin}
            for a in field.grid.axes
        ],
        "value": "complex" if np.iscomplexobj(data) else "real",
    }
    dtype = _PAYLOAD[header["value"]]
    if kind == "matrix":
        header["mshape"] = list(data.shape[-2:])
    with open(path, "wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode())
        fh.write(data.astype(dtype, copy=False).tobytes())


def load_field(path):
    """Read a save_field file; a foreign or malformed header, or a payload
    of another size than the header gives, is a DomainError naming path."""
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline())
        except ValueError:
            raise DomainError(f"{path}: first line is not JSON") from None
        if not isinstance(header, dict) or header.get("format") != _MAGIC:
            raise DomainError(f"{path}: not a solgeo field file")
        try:
            grid = GridSpec(tuple(Axis(**a) for a in header["axes"]))
            matrix = header["kind"] == "matrix"
            shape = grid.shape + (tuple(header["mshape"]) if matrix else ())
            data = np.empty(shape, dtype=_PAYLOAD[header["value"]])
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"{path}: malformed header "
                              f"({type(exc).__name__}: {exc})") from None
        # readinto stops short on a short payload, and read(1) finds the
        # excess of a long one
        if fh.readinto(data) != data.nbytes or fh.read(1):
            raise DomainError(f"{path}: payload is not the {data.nbytes} "
                              "bytes its header gives")
    return MatrixField(grid, data) if matrix else ScalarField(grid, data)


def save_field_csv(path, field):
    """Plain CSV for 1D/2D scalar fields (2D: one row per x index)."""
    if not isinstance(field, ScalarField):
        raise DomainError("CSV mode covers scalar fields only")
    if len(field.grid.axes) > 2:
        raise DomainError("CSV mode covers 1D/2D fields only")
    data = field.data
    if np.iscomplexobj(data):
        raise DomainError("CSV mode covers real fields only")
    write_csv(path, data)


def write_csv(path, rows: np.ndarray):
    """Write a real 1-D array as one row, or a 2-D array row by row, in
    the bytes of np.savetxt(path, rows, delimiter=",", fmt="%.17g"),
    formatted by one %-operation over the whole array rather than one
    per row."""
    rows = np.atleast_2d(rows)
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(line * rows.shape[0] % tuple(rows.ravel().tolist()))


def field_norms(data: np.ndarray):
    """Max-norm, L2 norm and argmax location of a residual array."""
    mag = np.abs(np.asarray(data))
    flat_arg = int(np.argmax(mag))
    loc = np.unravel_index(flat_arg, mag.shape)
    return {
        "max": float(mag.max()),
        "l2": float(np.sqrt(np.mean(mag**2))),
        "argmax": [int(i) for i in loc],
    }


def refinement_study(defect, levels: int) -> dict:
    """Defects defect(0) ... defect(levels - 1) of a grid-refinement study
    and the ratio of each level's defect to the next one's.  The ratio is
    nan unless the coarser defect is finite and the finer one positive: a
    study that ends on a vanishing defect, or starts from one that blew
    up, shows no rate, so every gate fails on it."""
    defects = [defect(lv) for lv in range(levels)]
    ratios = [d0 / d1 if math.isfinite(d0) and d1 > 0 else math.nan
              for d0, d1 in zip(defects, defects[1:])]
    return {"defects": defects, "ratios": ratios}
