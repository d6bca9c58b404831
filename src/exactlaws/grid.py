"""Periodic cubic grids, real fields, and exact spectral operators.

Fields live on a uniform periodic grid over [0, length)^3 and are treated
as band-limited trigonometric interpolants, so derivatives and sub-grid
translations are exact up to round-off.  Arrays are indexed ``[ix, iy, iz]``
with point (i, j, k) at (i*h, j*h, k*h); the file format stores values
x-fastest, matching that indexing convention.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np
from scipy import fft as _fft

__all__ = [
    "Grid3",
    "ScalarField",
    "VectorField3",
    "FieldFileError",
    "make_grid",
    "curl",
    "divergence",
    "project_solenoidal",
    "shift",
    "volume_mean",
    "inner_mean",
    "read_field",
    "write_field",
]


@dataclass(frozen=True)
class Grid3:
    """Uniform periodic grid with ``n`` points per axis on a cube of edge ``length``."""

    n: int
    length: float = 2.0 * np.pi

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)):
            raise ValueError("n must be an integer")
        if self.n % 2 != 0:
            raise ValueError("n must be even")
        if self.n < 8:
            raise ValueError("n must be at least 8")
        if not (float(self.length) > 0.0 and np.isfinite(self.length)):
            raise ValueError("length must be positive and finite")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "length", float(self.length))

    @property
    def spacing(self) -> float:
        return self.length / self.n

    def axis(self) -> np.ndarray:
        """Grid coordinates along one axis."""
        return np.arange(self.n) * self.spacing

    def mesh(self):
        """Coordinate arrays X, Y, Z indexed [ix, iy, iz]."""
        x = self.axis()
        return np.meshgrid(x, x, x, indexing="ij")

    def wavenumbers(self):
        """Signed wavenumbers (kx, ky) and the half-axis kz of the real transform."""
        k = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.spacing)
        kz = 2.0 * np.pi * np.fft.rfftfreq(self.n, d=self.spacing)
        return k, k.copy(), kz


def make_grid(n: int, length: float = 2.0 * np.pi) -> Grid3:
    """Build a grid; rejects odd or too-small n and non-positive length."""
    return Grid3(n, length)


def _to_locked_array(values, shape) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.shape != shape:
        raise ValueError(f"expected array of shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("field values must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ScalarField:
    """Real scalar samples on a Grid3, indexed [ix, iy, iz]."""

    grid: Grid3
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        n = self.grid.n
        object.__setattr__(self, "values", _to_locked_array(self.values, (n, n, n)))


@dataclass(frozen=True)
class VectorField3:
    """Real 3-component field on a Grid3; ``values`` has shape (3, n, n, n)."""

    grid: Grid3
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        n = self.grid.n
        object.__setattr__(self, "values", _to_locked_array(self.values, (3, n, n, n)))

    @property
    def components(self) -> tuple[ScalarField, ScalarField, ScalarField]:
        return tuple(ScalarField(self.grid, self.values[c]) for c in range(3))

    def rms(self) -> float:
        return float(np.sqrt(np.mean(np.sum(self.values * self.values, axis=0))))


def _require_same_grid(a, b):
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")


def _derivative_wavenumbers(grid: Grid3):
    """ik factors with the Nyquist mode zeroed, keeping derivatives real and skew-adjoint."""
    kx, ky, kz = grid.wavenumbers()
    kx = kx.copy()
    ky = ky.copy()
    kz = kz.copy()
    kx[grid.n // 2] = 0.0
    ky[grid.n // 2] = 0.0
    kz[-1] = 0.0
    return (
        kx[:, None, None],
        ky[None, :, None],
        kz[None, None, :],
    )


def _rfftn(values: np.ndarray) -> np.ndarray:
    return _fft.rfftn(values, axes=(-3, -2, -1))


def _irfftn(spec: np.ndarray, n: int) -> np.ndarray:
    return _fft.irfftn(spec, s=(n, n, n), axes=(-3, -2, -1))


def curl(v: VectorField3) -> VectorField3:
    """Spectral curl; the output divergence vanishes to round-off."""
    kx, ky, kz = _derivative_wavenumbers(v.grid)
    vh = _rfftn(v.values)
    wh = np.empty_like(vh)
    wh[0] = 1j * (ky * vh[2] - kz * vh[1])
    wh[1] = 1j * (kz * vh[0] - kx * vh[2])
    wh[2] = 1j * (kx * vh[1] - ky * vh[0])
    return VectorField3(v.grid, _irfftn(wh, v.grid.n))


def divergence(v: VectorField3) -> ScalarField:
    """Spectral divergence."""
    kx, ky, kz = _derivative_wavenumbers(v.grid)
    vh = _rfftn(v.values)
    dh = 1j * (kx * vh[0] + ky * vh[1] + kz * vh[2])
    return ScalarField(v.grid, _irfftn(dh, v.grid.n))


def project_solenoidal(v: VectorField3) -> VectorField3:
    """Remove the gradient part of ``v`` (Helmholtz/Leray projection in k-space).

    Idempotent; solenoidal inputs pass through unchanged to round-off and a
    pure gradient is annihilated.  The k = 0 (mean) mode is kept.  The
    projection uses the Nyquist-zeroed derivative wavenumbers, matching the
    divergence operator; signed Nyquist frequencies are ambiguous in the
    half-spectrum and would break the reality of the output.
    """
    grid = v.grid
    kx, ky, kz = _derivative_wavenumbers(grid)
    k2 = kx * kx + ky * ky + kz * kz
    k2safe = np.where(k2 == 0.0, 1.0, k2)
    vh = _rfftn(v.values)
    kdotv = (kx * vh[0] + ky * vh[1] + kz * vh[2]) / k2safe
    vh[0] -= kx * kdotv
    vh[1] -= ky * kdotv
    vh[2] -= kz * kdotv
    return VectorField3(grid, _irfftn(vh, grid.n))


def _shift_phase(grid: Grid3, ell, m: int | None = None) -> np.ndarray:
    """Phase factors exp(i k.l) with the Nyquist planes taken as cosine modes.

    The cosine convention keeps shifted fields exactly real; lattice shifts
    still reduce to index rolls because cos(pi*m) = (-1)^m.  ``m`` evaluates
    the factors on an m-point grid over the same cube, for spectra restricted
    to a coarser grid; by default the grid's own n points are used.
    """
    ell = np.asarray(ell, dtype=np.float64)
    if ell.shape != (3,):
        raise ValueError("shift vector must have 3 components")
    m = grid.n if m is None else m
    k = 2.0 * np.pi * np.fft.fftfreq(m, d=grid.length / m)
    kz = 2.0 * np.pi * np.fft.rfftfreq(m, d=grid.length / m)
    half = m // 2
    px = np.exp(1j * k * ell[0])
    px[half] = np.cos(k[half] * ell[0])
    py = np.exp(1j * k * ell[1])
    py[half] = np.cos(k[half] * ell[1])
    pz = np.exp(1j * kz * ell[2])
    pz[-1] = np.cos(kz[-1] * ell[2])
    return px[:, None, None] * (py[:, None] * pz[None, :])[None]


def shift(u, ell):
    """Translate a field by an arbitrary real vector: returns u(. + ell).

    Implemented as spectral phase modulation, exact for band-limited fields;
    shifting by a lattice vector reproduces an index roll.
    """
    phase = _shift_phase(u.grid, ell)
    out = _irfftn(_rfftn(u.values) * phase, u.grid.n)
    if isinstance(u, VectorField3):
        return VectorField3(u.grid, out)
    if isinstance(u, ScalarField):
        return ScalarField(u.grid, out)
    raise TypeError("shift expects a ScalarField or VectorField3")


def volume_mean(f: ScalarField) -> float:
    """Arithmetic mean over grid points (the periodic volume average)."""
    return float(np.mean(f.values))


def inner_mean(u: VectorField3, v: VectorField3) -> float:
    """Volume average of the pointwise dot product u . v."""
    _require_same_grid(u, v)
    return float(np.mean(np.einsum("cxyz,cxyz->xyz", u.values, v.values)))


class FieldFileError(ValueError):
    """Raised for malformed EXL1 field files."""


_MAGIC = b"EXL1"
_HEADER = struct.Struct("<IIdI")  # version, n, length, ncomp


def write_field(fld, path) -> None:
    """Write a field in the EXL1 format (f64 little-endian, x-fastest, components consecutive)."""
    if isinstance(fld, VectorField3):
        comps = [fld.values[c] for c in range(3)]
    elif isinstance(fld, ScalarField):
        comps = [fld.values]
    else:
        raise TypeError("write_field expects a ScalarField or VectorField3")
    grid = fld.grid
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(_HEADER.pack(1, grid.n, grid.length, len(comps)))
        for comp in comps:
            fh.write(np.ravel(comp, order="F").astype("<f8").tobytes())


def read_field(path):
    """Read an EXL1 file; returns a VectorField3 (ncomp=3) or ScalarField (ncomp=1)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 4 or raw[:4] != _MAGIC:
        raise FieldFileError("not an EXL1 file (bad magic)")
    if len(raw) < 4 + _HEADER.size:
        raise FieldFileError("short read: truncated EXL1 header")
    version, n, length, ncomp = _HEADER.unpack_from(raw, 4)
    if version != 1:
        raise FieldFileError(f"unsupported EXL1 version {version}")
    if ncomp not in (1, 3):
        raise FieldFileError(f"dimension mismatch: ncomp must be 1 or 3, got {ncomp}")
    try:
        grid = Grid3(int(n), float(length))
    except ValueError as exc:
        raise FieldFileError(f"dimension mismatch: {exc}") from exc
    count = ncomp * n**3
    payload = raw[4 + _HEADER.size :]
    if len(payload) < 8 * count:
        raise FieldFileError("short read: truncated EXL1 payload")
    if len(payload) > 8 * count:
        raise FieldFileError("trailing data after EXL1 payload")
    flat = np.frombuffer(payload, dtype="<f8", count=count)
    comps = [
        flat[i * n**3 : (i + 1) * n**3].reshape((n, n, n), order="F")
        for i in range(ncomp)
    ]
    if ncomp == 1:
        return ScalarField(grid, comps[0])
    return VectorField3(grid, np.stack(comps))
