"""Closed-form plane-wave fields: finite sums of complex exponentials
amp * exp(i * sum_a k_a * coord_a), closed under the arithmetic and the
derivatives the residual evaluators need.  Used for the analytic-derivative
mode, where residual checks must be free of discretization error.  A wave
is also a callable f(x, y, t), the form the Lax commutation sweeps sample,
so both oracles of a plane-wave case evaluate the same object."""

from __future__ import annotations

import numpy as np


def _norm_k(k: dict) -> tuple:
    return tuple(sorted((ax, float(c)) for ax, c in k.items() if c != 0.0))


class Wave:
    """Finite sum of plane waves; terms maps wavevector -> complex amplitude."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = {k: v for k, v in terms.items() if v != 0}

    @classmethod
    def exp(cls, amp, **k):
        return cls({_norm_k(k): complex(amp)})

    @classmethod
    def const(cls, c):
        return cls({(): complex(c)})

    def __add__(self, other):
        if not isinstance(other, Wave):
            other = Wave.const(other)
        out = dict(self.terms)
        for k, a in other.terms.items():
            out[k] = out.get(k, 0.0) + a
        return Wave(out)

    __radd__ = __add__

    def __neg__(self):
        return Wave({k: -a for k, a in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Wave):
            other = Wave.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Wave):
            return Wave({k: a * other for k, a in self.terms.items()})
        out = {}
        for k1, a1 in self.terms.items():
            d1 = dict(k1)
            for k2, a2 in other.terms.items():
                d = dict(d1)
                for ax, c in k2:
                    d[ax] = d.get(ax, 0.0) + c
                k = _norm_k(d)
                out[k] = out.get(k, 0.0) + a1 * a2
        return Wave(out)

    __rmul__ = __mul__

    def d(self, axis: str):
        """Partial derivative along a named axis."""
        out = {}
        for k, a in self.terms.items():
            c = dict(k).get(axis, 0.0)
            if c != 0.0:
                out[k] = a * 1j * c
        return Wave(out)

    def conj(self):
        return Wave({tuple((ax, -c) for ax, c in k): np.conj(a)
                     for k, a in self.terms.items()})

    def __call__(self, x, y, t):
        """Values at coordinates that broadcast together.  Each term is a
        product of factors exp(i c_a x_a), one per axis, so on sparse
        meshes it costs one full-grid product per term instead of a
        full-grid exp; the conjugate of a wave evaluates to the exact
        conjugate."""
        coords = {"x": x, "y": y, "t": t}
        out = np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y),
                                           np.shape(t)), dtype=complex)
        for k, a in self.terms.items():
            term = a
            for ax, c in k:
                term = term * np.exp(1j * (c * coords[ax]))
            out += term
        return out

    def sample(self, grid) -> np.ndarray:
        """Values on an (x, y, t) grid, from its sparse meshes."""
        return self(**dict(zip(grid.names, grid.meshes(sparse=True))))
