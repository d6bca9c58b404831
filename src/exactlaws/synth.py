"""Deterministic and seeded generators of solenoidal test fields.

All randomness flows through the counter-based Philox bit generator so that
identical (grid, parameters, seed) inputs reproduce identical fields on any
platform.  A random field draws n^3 noise values per component; the
forward transform, the shaping and the inverse transform then run only on
the lines through the box of wavenumbers up to the band's kmax, with the
values the whole half-spectrum would give, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid3, VectorField3, _band_axis, _band_irfftn, _band_rfftn, _leray

__all__ = [
    "SpectrumSpec",
    "abc_flow",
    "taylor_green",
    "random_solenoidal",
    "mhd_test_pair",
]


@dataclass(frozen=True)
class SpectrumSpec:
    """Target shell spectrum E(k) ~ k**slope on integer shells [kmin, kmax]."""

    slope: float
    kmin: int
    kmax: int
    rms: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.kmin < 1 or self.kmax < self.kmin:
            raise ValueError("need 1 <= kmin <= kmax")
        if not self.rms > 0:
            raise ValueError("rms must be positive")

    def validate_for(self, grid: Grid3) -> None:
        if self.kmax > grid.n // 3:
            raise ValueError(
                f"band exceeds resolved wavenumbers: kmax={self.kmax} > n/3={grid.n // 3}"
            )


def abc_flow(grid: Grid3, A: float = 1.0, B: float = 1.0, C: float = 1.0) -> VectorField3:
    """Arnold-Beltrami-Childress flow; curl(v) = v for every (A, B, C)."""
    return _abc_with_phases(grid, A, B, C, (0.0, 0.0, 0.0))


def _abc_with_phases(grid, A, B, C, phases) -> VectorField3:
    X, Y, Z = grid.mesh()
    px, py, pz = phases
    v = np.stack(
        [
            A * np.sin(Z + pz) + C * np.cos(Y + py),
            B * np.sin(X + px) + A * np.cos(Z + pz),
            C * np.sin(Y + py) + B * np.cos(X + px),
        ]
    )
    return VectorField3(grid, v)


def taylor_green(grid: Grid3) -> VectorField3:
    """Taylor-Green vortex: solenoidal, zero net helicity, third component zero."""
    X, Y, Z = grid.mesh()
    v = np.stack(
        [
            np.sin(X) * np.cos(Y) * np.cos(Z),
            -np.cos(X) * np.sin(Y) * np.cos(Z),
            np.zeros_like(X),
        ]
    )
    return VectorField3(grid, v)


def _rng(seed: int, stream: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), stream]))


def _synthesize(grid: Grid3, spec: SpectrumSpec, rng: np.random.Generator) -> VectorField3:
    """One seeded field: n^3 noise per component, then everything else on
    the band box |kx|, |ky|, kz <= kmax.

    The band lies inside the box, which holds no Nyquist plane (kmax <= n/3),
    and the box keeps the ascending index order of each axis, so every mode
    gets the values, and every shell the sums (in the same order), that the
    whole half-spectrum would give.  ``grid._band_rfftn`` and
    ``grid._band_irfftn`` run their passes only on the lines through the box,
    which leaves every box mode and every output value as the whole-grid
    transforms compute them.
    """
    spec.validate_for(grid)
    n, kmax = grid.n, spec.kmax
    noise = rng.standard_normal((3, n, n, n))
    box = np.stack([_band_rfftn(c, kmax) for c in noise])  # one component's spectrum at a time
    del noise

    m = np.fft.fftfreq(n, d=1.0 / n)[_band_axis(n, kmax)]  # signed integer wavenumbers
    mz = np.fft.rfftfreq(n, d=1.0 / n)[: kmax + 1]
    mx = m[:, None, None]
    my = m[None, :, None]
    mzz = mz[None, None, :]
    shell = np.rint(np.sqrt(mx * mx + my * my + mzz * mzz)).astype(int)
    band = (shell >= spec.kmin) & (shell <= kmax)
    box *= band

    _leray(box, mx, my, mzz)

    # Shell energies from the half-spectrum: conjugate modes count twice except
    # on the kz = 0 plane (the box holds no kz = n/2 plane).
    weight = np.full(shell.shape, 2.0)
    weight[:, :, 0] = 1.0
    power = np.abs(box[0]) ** 2  # summed over components in np.sum's order
    for c in box[1:]:
        power += np.abs(c) ** 2
    e_mode = 0.5 * weight * power
    current = np.zeros(kmax + 1)
    np.add.at(current, shell.clip(0, kmax).ravel(), (e_mode * band).ravel())
    target = np.array(
        [float(s) ** spec.slope if spec.kmin <= s <= kmax else 0.0 for s in range(kmax + 1)]
    )
    factor = np.zeros(kmax + 1)
    nonzero = current > 0
    factor[nonzero] = np.sqrt(target[nonzero] / current[nonzero])
    box *= factor[shell.clip(0, kmax)] * band

    v = _band_irfftn(box, n)
    del box
    sq = v[0] * v[0]  # |v|^2, summed over components in np.sum's order
    for c in v[1:]:
        sq += c * c
    v *= spec.rms / np.sqrt(np.mean(sq))
    return VectorField3(grid, v)


def random_solenoidal(grid: Grid3, spec: SpectrumSpec) -> VectorField3:
    """Gaussian solenoidal field with prescribed shell energies.

    White Gaussian noise is transformed, Leray-projected, and rescaled shell
    by shell so the energy in integer shell s is proportional to s**slope on
    [kmin, kmax] and zero outside; the result is normalized to the requested
    rms amplitude.
    """
    return _synthesize(grid, spec, _rng(spec.seed))


def mhd_test_pair(grid: Grid3, seed: int = 0) -> tuple[VectorField3, VectorField3]:
    """Independent solenoidal (velocity, magnetic) pair for the coupled laws.

    seed 0 gives the deterministic pair (ABC flow, phase-shifted ABC flow);
    any other seed draws two random band-limited fields from split Philox
    streams.
    """
    if seed == 0:
        v = abc_flow(grid)
        h = _abc_with_phases(grid, 1.0, 1.0, 1.0, (2.0, 0.9, 4.1))
        return v, h
    kmax = min(8, grid.n // 3)
    spec = SpectrumSpec(slope=-5.0 / 3.0, kmin=2, kmax=kmax, rms=1.0, seed=seed)
    v = _synthesize(grid, spec, _rng(seed, stream=1))
    h = _synthesize(grid, spec, _rng(seed, stream=2))
    return v, h
