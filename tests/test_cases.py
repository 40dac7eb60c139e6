"""The seeded random fields of solgeo.cases against a dense reference
built from the same draws."""

import numpy as np
import pytest

from solgeo import cases
from solgeo import grid as sg

NAMES = ("x", "y", "t", "xi1")


def _grid(ndim, periodic):
    # unequal sizes, spacings and origins, so that a swapped axis shows;
    # "mixed" makes every second axis periodic
    return sg.GridSpec.make(*(
        sg.Axis(NAMES[a], 5 + a, 0.3 + 0.1 * a,
                periodic=a % 2 == 1 if periodic == "mixed" else periodic,
                origin=0.2 * a) for a in range(ndim)))


def dense_smooth(grid, rng, scale=1.0):
    """sum of amp * exp(i k.x) over four modes on the dense meshes, each
    drawing the periodic axes' m, the open axes' k, then amp, as
    random_smooth documents."""
    periodic = [a for a in grid.axes if a.periodic]
    x = grid.meshes()
    out = np.zeros(grid.shape, dtype=complex)
    for _ in range(4):
        m = iter(rng.integers(-2, 3, size=len(periodic)))
        u = iter(rng.uniform(-2.0, 2.0, size=len(grid.axes) - len(periodic)))
        k = [next(m) * 2 * np.pi / (a.n * a.h) if a.periodic else next(u)
             for a in grid.axes]
        amp = (rng.normal() + 1j * rng.normal()) * scale / 4
        out += amp * np.exp(1j * sum(ka * xa for ka, xa in zip(k, x)))
    return out


@pytest.mark.parametrize("periodic", [False, True, "mixed"])
@pytest.mark.parametrize("ndim", [1, 2, 3, 4])
def test_random_smooth_matches_dense_reference(ndim, periodic):
    g = _grid(ndim, periodic)
    rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
    got = cases.random_smooth(g, rng, scale=0.7)
    want = dense_smooth(g, ref_rng, scale=0.7)
    assert got.shape == g.shape and got.dtype == complex
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    # the same draws in the same order leave both generators in one state
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("periodic", [False, True])
def test_random_connection_entries_are_random_smooth_in_order(periodic):
    g = _grid(3, periodic)
    rng, ref_rng = np.random.default_rng(12), np.random.default_rng(12)
    conn = cases.random_connection(g, rng, names=("A", "B"), m=2, scale=0.3)
    assert list(conn) == ["A", "B"]
    for name in ("A", "B"):
        assert conn[name].data.shape == g.shape + (2, 2)
        for i in range(2):
            for j in range(2):
                assert np.array_equal(conn[name].data[..., i, j],
                                      cases.random_smooth(g, ref_rng, 0.3))
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("grid", [
    sg.GridSpec.make(*(sg.Axis(a, 8, 0.1, periodic=True) for a in "xyt")),
    cases.default_grid_xyt(16),
], ids=["period-0.8", "period-2pi"])
def test_random_smooth_is_band_limited_on_periodic_grids(grid):
    # every mode fits whole periods into each axis, |m| <= 2 of them, so
    # the discrete spectrum has nothing beyond |m| = 2
    spec = np.abs(np.fft.fftn(cases.random_smooth(grid,
                                                  np.random.default_rng(3))))
    m = np.meshgrid(*(np.fft.fftfreq(a.n, 1.0 / a.n) for a in grid.axes),
                    indexing="ij")
    outside = np.logical_or.reduce([np.abs(ma) > 2 for ma in m])
    assert spec[outside].max() <= 1e-12 * spec.max()


# x periodic with period 2 pi, y open: the partly periodic grid on which
# uniform draws on every axis left a jump at the x wrap
MIXED = sg.GridSpec.make(sg.Axis("x", 16, 2 * np.pi / 16, periodic=True),
                         sg.Axis("y", 12, 0.3, origin=0.4))


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_random_smooth_is_band_limited_along_periodic_axes(seed):
    # along the periodic x every mode fits |m| <= 2 whole periods, whatever
    # the open y draws
    spec = np.abs(np.fft.fft(cases.random_smooth(
        MIXED, np.random.default_rng(seed)), axis=0))
    m = np.fft.fftfreq(16, 1.0 / 16)
    assert spec[np.abs(m) > 2].max() <= 1e-12 * spec.max()
