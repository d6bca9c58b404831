"""Generator tests: solenoidality, determinism, spectra."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactlaws.grid import curl, divergence, inner_mean, make_grid
from exactlaws.synth import (
    SpectrumSpec,
    _rng,
    abc_flow,
    mhd_test_pair,
    random_solenoidal,
    taylor_green,
)

from oracles import synthesize_full_grid


class TestAbcFlow:
    def test_solenoidal(self):
        v = abc_flow(make_grid(16))
        assert np.max(np.abs(divergence(v).values)) <= 1e-12

    def test_beltrami(self):
        v = abc_flow(make_grid(16))
        assert np.max(np.abs(curl(v).values - v.values)) <= 1e-10

    def test_zero_coefficients(self):
        v = abc_flow(make_grid(8), 0.0, 0.0, 0.0)
        assert np.max(np.abs(v.values)) == 0.0


class TestTaylorGreen:
    def test_solenoidal(self):
        v = taylor_green(make_grid(16))
        assert np.max(np.abs(divergence(v).values)) <= 1e-12

    def test_zero_helicity(self):
        v = taylor_green(make_grid(16))
        assert abs(inner_mean(v, curl(v))) <= 1e-12

    def test_third_component_zero(self):
        v = taylor_green(make_grid(8))
        assert np.max(np.abs(v.values[2])) == 0.0


def measured_shell_energies(v, kmax):
    """Shell spectrum straight from a full FFT (independent of the generator)."""
    n = v.grid.n
    vh = np.fft.fftn(v.values, axes=(1, 2, 3)) / n**3
    m = np.fft.fftfreq(n, 1.0 / n)
    kk = np.sqrt(
        m[:, None, None] ** 2 + m[None, :, None] ** 2 + m[None, None, :] ** 2
    )
    shell = np.rint(kk).astype(int)
    e_mode = 0.5 * np.sum(np.abs(vh) ** 2, axis=0)
    out = np.zeros(kmax + 1)
    mask = shell <= kmax
    np.add.at(out, shell[mask], e_mode[mask])
    return out


class TestRandomSolenoidal:
    def test_solenoidal(self):
        spec = SpectrumSpec(-5.0 / 3.0, 2, 8, 1.5, 11)
        v = random_solenoidal(make_grid(32), spec)
        assert np.max(np.abs(divergence(v).values)) <= 1e-11 * spec.rms

    def test_deterministic(self):
        g = make_grid(16)
        spec = SpectrumSpec(-2.0, 1, 5, 1.0, 42)
        a = random_solenoidal(g, spec)
        b = random_solenoidal(g, spec)
        assert np.array_equal(a.values, b.values)

    def test_shell_spectrum_slope(self):
        g = make_grid(64)
        spec = SpectrumSpec(-5.0 / 3.0, 2, 16, 1.0, 7)
        v = random_solenoidal(g, spec)
        energies = measured_shell_energies(v, 16)
        shells = np.arange(2, 17)
        slope, _ = np.polyfit(np.log(shells), np.log(energies[2:]), 1)
        assert abs(slope + 5.0 / 3.0) <= 0.2

    def test_rms_normalization(self):
        v = random_solenoidal(make_grid(16), SpectrumSpec(-1.0, 1, 4, 2.5, 3))
        assert abs(v.rms() - 2.5) <= 1e-12

    def test_band_outside_resolved(self):
        with pytest.raises(ValueError, match="band exceeds"):
            random_solenoidal(make_grid(16), SpectrumSpec(-1.0, 2, 6, 1.0, 0))

    def test_band_is_sharp(self):
        v = random_solenoidal(make_grid(32), SpectrumSpec(-2.0, 3, 7, 1.0, 5))
        energies = measured_shell_energies(v, 10)
        assert energies[:3].max() <= 1e-28
        assert energies[8:].max() <= 1e-28
        assert energies[3:8].min() > 0


class TestMhdTestPair:
    def test_seed_zero_deterministic_and_solenoidal(self):
        g = make_grid(16)
        v1, h1 = mhd_test_pair(g, 0)
        v2, h2 = mhd_test_pair(g, 0)
        assert np.array_equal(v1.values, v2.values)
        assert np.array_equal(h1.values, h2.values)
        assert np.max(np.abs(divergence(v1).values)) <= 1e-12
        assert np.max(np.abs(divergence(h1).values)) <= 1e-12

    def test_fields_differ(self):
        g = make_grid(16)
        v, h = mhd_test_pair(g, 0)
        assert np.max(np.abs(v.values - h.values)) > 0.1 * v.rms()

    def test_random_pair(self):
        g = make_grid(16)
        v, h = mhd_test_pair(g, 9)
        assert np.max(np.abs(divergence(v).values)) <= 1e-11
        assert np.max(np.abs(v.values - h.values)) > 0.1 * v.rms()
        v2, h2 = mhd_test_pair(g, 9)
        assert np.array_equal(v.values, v2.values)
        assert np.array_equal(h.values, h2.values)


def same_bytes(a, b):
    """Bitwise equality; unlike np.array_equal it tells -0.0 from 0.0."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def grids_and_bands(draw):
    n = draw(st.integers(4, 24)) * 2
    kmax = draw(st.integers(1, n // 3))
    kmin = draw(st.integers(1, kmax))
    return make_grid(n), kmin, kmax


@settings(max_examples=40, deadline=None)
@given(
    grid_band=grids_and_bands(),
    slope=st.floats(-4.0, 2.0),
    rms=st.floats(0.1, 10.0),
    seed=st.integers(0, 2**32),
)
def test_band_box_synthesis_matches_full_grid_bitwise(grid_band, slope, rms, seed):
    # The generator transforms and shapes the spectrum on the band box only;
    # every value it writes is the one the whole half-spectrum gives, for the
    # plain stream of random_solenoidal and both streams of mhd_test_pair.
    grid, kmin, kmax = grid_band
    spec = SpectrumSpec(slope, kmin, kmax, rms, seed)
    got = random_solenoidal(grid, spec)
    assert same_bytes(got.values, synthesize_full_grid(grid, spec, _rng(seed)).values)
    if seed:  # seed 0 selects the ABC pair
        pair_spec = SpectrumSpec(-5.0 / 3.0, 2, min(8, grid.n // 3), 1.0, seed)
        for stream, fld in zip((1, 2), mhd_test_pair(grid, seed)):
            ref = synthesize_full_grid(grid, pair_spec, _rng(seed, stream))
            assert same_bytes(fld.values, ref.values)


@settings(max_examples=40, deadline=None)
@given(
    grid_band=grids_and_bands(),
    slope=st.floats(-4.0, 2.0),
    rms=st.floats(0.1, 10.0),
    seed=st.integers(1, 2**32),
)
def test_generated_field_properties(grid_band, slope, rms, seed):
    # Whatever the draw, the shaping fixes the shell energies to k^slope, the
    # projection the divergence and the scaling the rms; the bytes repeat for
    # a seed, and the two streams of an MHD pair differ.
    grid, kmin, kmax = grid_band
    spec = SpectrumSpec(slope, kmin, kmax, rms, seed)
    v = random_solenoidal(grid, spec)
    shells = np.arange(kmin, kmax + 1)
    per_target = measured_shell_energies(v, kmax)[kmin:] / shells.astype(float) ** slope
    assert np.max(np.abs(per_target / per_target[0] - 1.0)) <= 1e-12
    assert np.max(np.abs(divergence(v).values)) <= 1e-12 * rms * kmax
    assert abs(v.rms() - rms) <= 1e-14 * rms
    assert same_bytes(random_solenoidal(grid, spec).values, v.values)
    a, b = mhd_test_pair(grid, seed)
    assert not np.array_equal(a.values, b.values)


def test_synthesis_peak_memory():
    # The band box replaces the whole-spectrum temporaries of the forward
    # transform, the shaping and the inverse passes: 12.0 MB traced at n = 64
    # (shells 2..16), 19.3 MB (18.4 MiB) for the whole half-spectrum.
    g = make_grid(64)
    spec = SpectrumSpec(-5.0 / 3.0, 2, 16, 1.0, 7)
    tracemalloc.start()
    try:
        random_solenoidal(g, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 18.4 * 2**20
