"""The transform layer on numpy's pocketfft, bit for bit against scipy.fft.

scipy.fft ships the same pocketfft code; it is the reference here, as sympy
is for the spectral operators, and stays off the package's import path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft as sfft

from exactlaws._kernels import StatsEngine, _reduced_size
from exactlaws.grid import (VectorField3, _axis_phases, _band_axis, _band_irfftn, _band_rfftn,
                            _irfftn, _rfftn, make_grid)

# Every reduced grid an engine can pick for kmax <= 21, plus full grids.
SIZES = sorted({_reduced_size(k, 1024) for k in range(22)} | {8, 12, 16, 32, 48, 64})


def assert_bitwise(got, ref):
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert np.array_equal(got.view(np.float64), ref.view(np.float64))


@pytest.mark.parametrize("n", SIZES)
def test_rfftn_and_irfftn_match_scipy_bitwise(n):
    rng = np.random.Generator(np.random.Philox(key=[n, 5]))
    for lead in [(), (3,), (9,)]:
        values = rng.standard_normal(lead + (n, n, n))
        spec = sfft.rfftn(values, axes=(-3, -2, -1))
        assert_bitwise(_rfftn(values), spec)
        assert_bitwise(_irfftn(spec.copy(), n), sfft.irfftn(spec, s=(n, n, n), axes=(-3, -2, -1)))


def scipy_shifted(engine, ell):
    """The engine's fields at x + ell by scipy's three inverse passes."""
    m = engine.m
    px, py, pz = _axis_phases(engine.grid, ell, m)
    x = sfft.ifft(engine._spectra * px[:, None, None], axis=1)
    xy = sfft.ifft(x * py[:, None], axis=2)
    shifted = sfft.irfft(xy * pz, n=m, axis=3)
    return shifted.reshape(shifted.shape[0], -1)


@pytest.mark.parametrize("n, count", [(8, 1), (12, 3), (16, 2), (48, 1)])
def test_per_shift_passes_match_scipy_bitwise(n, count):
    # White noise keeps m = n on the per-shift path.  Consecutive separations
    # share l_x, then (l_x, l_y), so the engine reuses its x and xy buffers.
    grid = make_grid(n)
    rng = np.random.Generator(np.random.Philox(key=[n, 6]))
    engine = StatsEngine(grid, {f"f{i}": VectorField3(grid, rng.standard_normal((3, n, n, n)))
                                for i in range(count)})
    assert engine.evaluation == "per-shift-fft" and engine.m == n
    ells = [(0.3, 0.2, 0.1), (0.3, 0.2, 0.7), (0.3, -0.4, 0.7), (1.1, -0.4, 0.7), (0.0, 0.0, 0.0)]
    for ell in ells:
        assert_bitwise(engine._shifted(np.array(ell)), scipy_shifted(engine, ell))
    assert engine.inverse_passes == {"x": 3, "xy": 4, "z": 5}


@st.composite
def band_boxes(draw):
    m = draw(st.integers(4, 32)) * 2
    return m, draw(st.integers(1, (m - 1) // 3)), draw(st.integers(1, 9))


@settings(max_examples=30, deadline=None)
@given(box=band_boxes(), seed=st.integers(0, 2**32))
def test_band_box_transforms_match_whole_grid_bitwise(box, seed):
    # The band-box passes skip the lines without a box mode; every value they
    # give is the whole-grid helper's: the forward at the box modes, the
    # inverse of the box zero-embedded in the half-spectrum.
    m, kmax, count = box
    rng = np.random.Generator(np.random.Philox(key=[seed, 7]))
    axis = _band_axis(m, kmax)
    at = (Ellipsis, axis[:, None], axis, slice(0, kmax + 1))
    values = rng.standard_normal((count, m, m, m))
    spec = _band_rfftn(values, kmax)
    assert_bitwise(spec, _rfftn(values)[at])
    embedded = np.zeros((count, m, m, m // 2 + 1), dtype=complex)
    embedded[at] = spec
    assert_bitwise(_band_irfftn(spec, m), _irfftn(embedded, m))
