"""Regular-grid fields over 1-4 axes, finite differences on bare arrays, the
x-antiderivative, field serialization and the refinement-study loop.

Fields are immutable-by-convention wrappers around numpy arrays whose leading
axes follow the GridSpec axis order; matrix-valued fields carry two trailing
matrix axes.
"""

from __future__ import annotations

import json
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

    def meshes(self):
        """Coordinate arrays broadcast to the full grid shape, in axis order."""
        return np.meshgrid(*[a.coords() for a in self.axes], indexing="ij")


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


# one-sided first-derivative stencils, offsets from the boundary point
_EDGE2 = np.array([-1.5, 2.0, -0.5])
_EDGE4_0 = np.array([-25.0 / 12.0, 4.0, -3.0, 4.0 / 3.0, -0.25])
_EDGE4_1 = np.array([-0.25, -5.0 / 6.0, 1.5, -0.5, 1.0 / 12.0])


def diff_axis(data: np.ndarray, axis: int, h: float, periodic: bool,
              accuracy: int = 2) -> np.ndarray:
    """First derivative along one array axis; central in the interior,
    same-order one-sided stencils on open boundaries, wrap-around when
    periodic."""
    if accuracy not in (2, 4):
        raise DomainError("accuracy must be 2 or 4")
    n = data.shape[axis]
    if n < accuracy + 1:
        raise DomainError(f"need at least {accuracy + 1} points, got {n}")
    f = np.moveaxis(data, axis, 0)
    out = np.empty_like(f, dtype=np.result_type(f.dtype, float))
    if accuracy == 2:
        if periodic:
            out[:] = (np.roll(f, -1, axis=0) - np.roll(f, 1, axis=0)) / (2 * h)
        else:
            out[1:-1] = (f[2:] - f[:-2]) / (2 * h)
            out[0] = (_EDGE2[0] * f[0] + _EDGE2[1] * f[1] + _EDGE2[2] * f[2]) / h
            out[-1] = -(_EDGE2[0] * f[-1] + _EDGE2[1] * f[-2] + _EDGE2[2] * f[-3]) / h
    else:
        if periodic:
            out[:] = (
                -np.roll(f, -2, axis=0)
                + 8 * np.roll(f, -1, axis=0)
                - 8 * np.roll(f, 1, axis=0)
                + np.roll(f, 2, axis=0)
            ) / (12 * h)
        else:
            out[2:-2] = (-f[4:] + 8 * f[3:-1] - 8 * f[1:-3] + f[:-4]) / (12 * h)
            out[0] = sum(c * f[j] for j, c in enumerate(_EDGE4_0)) / h
            out[1] = sum(c * f[j] for j, c in enumerate(_EDGE4_1)) / h
            out[-1] = -sum(c * f[-1 - j] for j, c in enumerate(_EDGE4_0)) / h
            out[-2] = -sum(c * f[-1 - j] for j, c in enumerate(_EDGE4_1)) / h
    return np.moveaxis(out, 0, axis)


def partial_data(data: np.ndarray, grid: GridSpec, axis_name: str,
                 accuracy: int = 2) -> np.ndarray:
    """Finite-difference partial derivative along a named axis of a bare
    array whose leading axes follow grid (Scalar- or MatrixField data)."""
    ax_i = grid.index(axis_name)
    ax = grid.axes[ax_i]
    return diff_axis(data, ax_i, ax.h, ax.periodic, accuracy)


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


def save_field(path, field):
    """Binary field format: one JSON header line, then a raw little-endian
    float64 payload (re/im interleaved for complex data)."""
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
    if kind == "matrix":
        header["mshape"] = list(data.shape[-2:])
    with open(path, "wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode())
        if np.iscomplexobj(data):
            inter = np.empty(data.shape + (2,))
            inter[..., 0] = data.real
            inter[..., 1] = data.imag
            fh.write(inter.astype("<f8").tobytes())
        else:
            fh.write(data.astype("<f8").tobytes())


def load_field(path):
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode())
        if header.get("format") != _MAGIC:
            raise DomainError(f"{path}: not a solgeo field file")
        grid = GridSpec(tuple(
            Axis(a["name"], a["n"], a["h"], a["periodic"], a["origin"])
            for a in header["axes"]
        ))
        shape = grid.shape
        if header["kind"] == "matrix":
            shape = shape + tuple(header["mshape"])
        raw = np.frombuffer(fh.read(), dtype="<f8")
        if header["value"] == "complex":
            raw = raw.reshape(shape + (2,))
            data = raw[..., 0] + 1j * raw[..., 1]
        else:
            data = raw.reshape(shape)
    if header["kind"] == "matrix":
        return MatrixField(grid, data)
    return ScalarField(grid, data)


def save_field_csv(path, field):
    """Plain CSV for 1D/2D scalar fields (2D: one row per x index)."""
    if isinstance(field, MatrixField):
        raise DomainError("CSV mode covers scalar fields only")
    if len(field.grid.axes) > 2:
        raise DomainError("CSV mode covers 1D/2D fields only")
    data = field.data
    if np.iscomplexobj(data):
        raise DomainError("CSV mode covers real fields only")
    np.savetxt(path, np.atleast_2d(data), delimiter=",", fmt="%.17g")


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
    and the ratio of each level's defect to the next one's (inf when the
    next defect is zero)."""
    defects = [defect(lv) for lv in range(levels)]
    ratios = [d0 / d1 if d1 > 0 else float("inf")
              for d0, d1 in zip(defects, defects[1:])]
    return {"defects": defects, "ratios": ratios}
