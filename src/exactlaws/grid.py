"""Periodic cubic grids, real fields, and exact spectral operators.

Fields live on a uniform periodic grid over [0, length)^3 and are treated
as band-limited trigonometric interpolants, so derivatives and sub-grid
translations are exact up to round-off.  Arrays are indexed ``[ix, iy, iz]``
with point (i, j, k) at (i*h, j*h, k*h); the file format stores values
x-fastest, matching that indexing convention.

The package's 3-D transforms are the whole-grid real transforms ``_rfftn``
and ``_irfftn`` and their forms on the band box |kx|, |ky|, kz <= kmax,
``_band_rfftn`` and ``_band_irfftn``, which pass only over the lines that
hold a box mode, so their cost scales with the band, and give the whole-grid
helpers' values at the box bit for bit.  Two engine steps run their own
passes: ``_kernels._input_transform`` skips the lines that cannot hold an
active mode, and ``StatsEngine._shifted`` phases each axis before its pass
and runs each pass in blocks of lines on the process's CPUs (``_run_blocks``).
"""

from __future__ import annotations

import functools
import os
import struct
import threading
from dataclasses import dataclass, field

import numpy as np

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
        k, kz = _wavenumbers(self.length, self.n)
        return k, k.copy(), kz


def _wavenumbers(length: float, m: int):
    """Signed wavenumbers k of an m-point axis over the period ``length`` (the
    Nyquist mode at index m // 2) and the half axis kz of the real transform
    (Nyquist last); with length 2*pi both hold the integer indices."""
    k = 2.0 * np.pi * np.fft.fftfreq(m, d=length / m)
    kz = 2.0 * np.pi * np.fft.rfftfreq(m, d=length / m)
    return k, kz


def make_grid(n: int, length: float = 2.0 * np.pi) -> Grid3:
    """Build a grid; rejects odd or too-small n and non-positive length."""
    return Grid3(n, length)


def _to_locked_array(values, shape) -> np.ndarray:
    """``values`` as a read-only C-contiguous float64 array of ``shape``: the
    caller's own array when it already is one, else a copy."""
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.shape != shape:
        raise ValueError(f"expected array of shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("field values must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ScalarField:
    """Real scalar samples on a Grid3, indexed [ix, iy, iz].

    A C-contiguous float64 array is taken over, not copied: ``f.values is a``,
    and ``a`` becomes read-only, so writing to it afterwards raises.  Any
    other input (another dtype, a strided view, a list) is copied, and the
    caller's object stays writable.
    """

    grid: Grid3
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        n = self.grid.n
        object.__setattr__(self, "values", _to_locked_array(self.values, (n, n, n)))


@dataclass(frozen=True)
class VectorField3:
    """Real 3-component field on a Grid3; ``values`` has shape (3, n, n, n).

    A C-contiguous float64 array is taken over, not copied: ``f.values is a``,
    and ``a`` becomes read-only, so writing to it afterwards raises.  Any
    other input (another dtype, a strided view, a list) is copied, and the
    caller's object stays writable.  Taking the array over saves a copy of
    the field on every read: 2.6 MB at n=48, 48 MB at n=128.
    """

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


def _derivative_wavenumbers(length: float, m: int):
    """ik factors of an m-point grid over the period ``length``, with the Nyquist
    mode zeroed, keeping derivatives real and skew-adjoint."""
    k, kz = _wavenumbers(length, m)
    k[m // 2] = 0.0
    kz[-1] = 0.0
    return k[:, None, None], k[None, :, None], kz[None, None, :]


# The two transforms over the last three axes, on numpy's pocketfft.  They run
# their passes in scipy.fft's order and scale once at the end, as it does, so
# every spectrum and field is bit-identical to scipy.fft.rfftn and irfftn
# (numpy's own rfftn and irfftn visit the complex axes in the other order).
def _rfftn(values: np.ndarray) -> np.ndarray:
    """Real-to-complex transform: the real pass on the last axis, then the
    complex passes on axes -3 and -2."""
    spec = np.fft.rfft(values, axis=-1)
    np.fft.fft(spec, axis=-3, out=spec)
    return np.fft.fft(spec, axis=-2, out=spec)


def _irfftn(spec: np.ndarray, n: int) -> np.ndarray:
    """Inverse of ``_rfftn`` onto an n-grid: unscaled complex passes on axes -3
    and -2, the unscaled real pass on the last axis, then one scaling by 1/n^3.
    The complex passes run in place, so ``spec`` is overwritten."""
    np.fft.ifft(spec, axis=-3, norm="forward", out=spec)
    np.fft.ifft(spec, axis=-2, norm="forward", out=spec)
    out = np.fft.irfft(spec, n=n, axis=-1, norm="forward")
    out *= 1.0 / n**3
    return out


# The same two transforms on the band box |kx|, |ky|, kz <= kmax (kmax < n/2),
# held as (..., 2 kmax + 1, 2 kmax + 1, kmax + 1) with each full axis in
# ascending index order: wavenumbers 0..kmax, then -kmax..-1.  Each pass runs
# only on the lines that hold a box mode (or, inverse, that a box mode reaches),
# and pocketfft transforms every line as it would among the whole grid's, so
# the values are those of ``_rfftn`` and ``_irfftn`` bit for bit.
def _band_axis(n: int, kmax: int) -> np.ndarray:
    """The indices of the wavenumbers |k| <= kmax on an n-point axis, ascending."""
    return np.r_[0 : kmax + 1, n - kmax : n]


def _band_rfftn(values: np.ndarray, kmax: int) -> np.ndarray:
    """``_rfftn(values)`` at the band box: the real pass on every z line, the
    x pass on the kz <= kmax columns, then the y pass on the box's x rows."""
    axis = _band_axis(values.shape[-1], kmax)
    spec = np.fft.rfft(values, axis=-1)
    cols = np.ascontiguousarray(spec[..., : kmax + 1])
    del spec
    np.fft.fft(cols, axis=-3, out=cols)
    rows = cols[..., axis, :, :]
    del cols
    np.fft.fft(rows, axis=-2, out=rows)
    return rows[..., axis, :]


def _band_irfftn(box: np.ndarray, n: int) -> np.ndarray:
    """``_irfftn`` of the box zero-embedded in the n-grid half-spectrum: the x
    pass on the box's y columns, the y pass on the kz <= kmax columns, the z
    pass zero-padded to n, then the scaling by 1/n^3.  ``box`` is kept."""
    kmax = box.shape[-1] - 1
    axis = _band_axis(n, kmax)
    lines = np.zeros(box.shape[:-3] + (n,) + box.shape[-2:], dtype=complex)
    lines[..., axis, :, :] = box
    np.fft.ifft(lines, axis=-3, norm="forward", out=lines)
    planes = np.zeros(box.shape[:-3] + (n, n, kmax + 1), dtype=complex)
    planes[..., axis, :] = lines
    del lines
    np.fft.ifft(planes, axis=-2, norm="forward", out=planes)
    out = np.fft.irfft(planes, n=n, axis=-1, norm="forward")
    del planes
    out *= 1.0 / n**3
    return out


# The per-shift passes of ``_kernels.StatsEngine._shifted`` run in contiguous
# blocks of the lines they transform, one block per CPU the process may run
# on: the calling thread runs the first block and daemon helper threads the
# others, writing into the caller's buffers.  pocketfft transforms each line
# on its own, and numpy's elementwise loops give an element the same bits
# wherever it sits in a block, so no value depends on the blocks.
#
# Elements of a helper's ufunc buffers (numpy's default is 8192).  A phase
# multiply into a block that is not contiguous buffers its operands: at
# n = 48 that took 0.38 MB per call, which stayed resident in the helper
# thread's malloc arena.
_HELPER_BUFSIZE = 1024


class _Helper:
    """A daemon thread that runs one job at a time: ``start`` hands it a job,
    and ``wait`` returns, once the job has returned and been dropped, the
    exception it raised or None."""

    def __init__(self):
        self._go, self._done = threading.Lock(), threading.Lock()
        self._go.acquire()
        self._done.acquire()
        self._job = self._error = None
        threading.Thread(target=self._serve, name="exactlaws-pass", daemon=True).start()

    def start(self, job) -> None:
        self._job = job
        self._go.release()

    def wait(self) -> BaseException | None:
        self._done.acquire()
        error, self._error = self._error, None
        return error

    def _serve(self) -> None:
        np.setbufsize(_HELPER_BUFSIZE)  # this thread's own numpy setting
        while True:
            self._go.acquire()
            try:
                self._job()
            except BaseException as exc:  # raised again by the thread that waits
                self._error = exc
            self._job = None  # it holds the caller's buffers
            self._done.release()


_helpers = []  # the helpers started so far
_helpers_lock = threading.Lock()  # held by the thread whose blocks they run


def _forget_helpers() -> None:
    """Start afresh with no helpers: in a forked child, which has none of
    their threads, and after an interrupted wait, which may leave them busy."""
    global _helpers, _helpers_lock
    _helpers, _helpers_lock = [], threading.Lock()


if hasattr(os, "register_at_fork"):  # a platform that can fork
    os.register_at_fork(after_in_child=_forget_helpers)


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without the affinity call
        return os.cpu_count() or 1


def _run_blocks(job, size: int, count: int) -> int:
    """Call ``job(s)`` on ``count`` contiguous slices ``s`` that cover
    range(size); return, once every call has, the number of threads that
    made them.

    The first slice runs on the calling thread and the others on helper
    threads.  When ``count`` is 1 or another thread holds the helpers, the
    calling thread makes one call on the whole range instead.  An exception
    a call raised is raised here, and the helpers stay usable.
    """
    count = max(1, min(count, size))
    lock = _helpers_lock
    if count == 1 or not lock.acquire(blocking=False):
        job(slice(0, size))
        return 1
    blocks = [slice(size * i // count, size * (i + 1) // count) for i in range(count)]
    try:
        while len(_helpers) < count - 1:
            _helpers.append(_Helper())
        helpers = _helpers[: count - 1]
        for helper, s in zip(helpers, blocks[1:]):
            helper.start(functools.partial(job, s))
        try:
            job(blocks[0])
        finally:
            try:
                errors = [helper.wait() for helper in helpers]
            except BaseException:  # interrupted, with helpers that may still be busy
                _forget_helpers()
                raise
        for error in errors:
            if error is not None:
                raise error
    finally:
        lock.release()
    return count


def _curl_modes(kx, ky, kz, vh: np.ndarray) -> np.ndarray:
    """i k x vh for the spectrum vh[c] of each component at modes with the
    wavenumbers kx, ky, kz (broadcasting against vh[0]): a box or a mode list."""
    wh = np.empty_like(vh)
    wh[0] = 1j * (ky * vh[2] - kz * vh[1])
    wh[1] = 1j * (kz * vh[0] - kx * vh[2])
    wh[2] = 1j * (kx * vh[1] - ky * vh[0])
    return wh


def curl(v: VectorField3) -> VectorField3:
    """Spectral curl (Nyquist wavenumbers zeroed); the output divergence vanishes to round-off."""
    kx, ky, kz = _derivative_wavenumbers(v.grid.length, v.grid.n)
    return VectorField3(v.grid, _irfftn(_curl_modes(kx, ky, kz, _rfftn(v.values)), v.grid.n))


def divergence(v: VectorField3) -> ScalarField:
    """Spectral divergence."""
    kx, ky, kz = _derivative_wavenumbers(v.grid.length, v.grid.n)
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
    vh = _rfftn(v.values)
    _leray(vh, *_derivative_wavenumbers(grid.length, grid.n))
    return VectorField3(grid, _irfftn(vh, grid.n))


def _leray(vh: np.ndarray, kx, ky, kz) -> None:
    """Remove the part of a (3, ...) spectrum parallel to k, in place.

    kx, ky, kz broadcast against vh[0]; where k = 0 the spectrum is kept.
    """
    k2 = kx * kx + ky * ky + kz * kz
    k2safe = np.where(k2 == 0.0, 1.0, k2)
    kdotv = (kx * vh[0] + ky * vh[1] + kz * vh[2]) / k2safe
    vh[0] -= kx * kdotv
    vh[1] -= ky * kdotv
    vh[2] -= kz * kdotv


def _axis_phases(grid: Grid3, ell, m: int | None = None):
    """Per-axis phase factors (px, py, pz) of exp(i k.l) = px(kx) py(ky) pz(kz).

    The Nyquist modes are taken as cosine modes, which keeps shifted fields
    exactly real; lattice shifts still reduce to index rolls because
    cos(pi*m) = (-1)^m.  ``m`` evaluates the factors on an m-point grid over
    the same cube, for spectra restricted to a coarser grid; by default the
    grid's own n points are used.  pz covers the half axis of the real
    transform.
    """
    ell = np.asarray(ell, dtype=np.float64)
    if ell.shape != (3,):
        raise ValueError("shift vector must have 3 components")
    m = grid.n if m is None else m
    k, kz = _wavenumbers(grid.length, m)
    half = m // 2
    px = np.exp(1j * k * ell[0])
    px[half] = np.cos(k[half] * ell[0])
    py = np.exp(1j * k * ell[1])
    py[half] = np.cos(k[half] * ell[1])
    pz = np.exp(1j * kz * ell[2])
    pz[-1] = np.cos(kz[-1] * ell[2])
    return px, py, pz


def shift(u, ell):
    """Translate a field by an arbitrary real vector: returns u(. + ell).

    Implemented as spectral phase modulation, exact for band-limited fields;
    shifting by a lattice vector reproduces an index roll.
    """
    px, py, pz = _axis_phases(u.grid, ell)
    phase = px[:, None, None] * (py[:, None] * pz[None, :])[None]
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
        for comp in comps:  # x-fastest: the transposed component in C order
            fh.write(np.ascontiguousarray(comp.T, dtype="<f8"))


def read_field(path):
    """Read an EXL1 file; returns a VectorField3 (ncomp=3) or ScalarField (ncomp=1).

    Each component is read into one reused buffer and copied once into the
    [component, ix, iy, iz] C-order layout.
    """
    with open(path, "rb") as fh:
        head = fh.read(4 + _HEADER.size)
        if len(head) < 4 or head[:4] != _MAGIC:
            raise FieldFileError("not an EXL1 file (bad magic)")
        if len(head) < 4 + _HEADER.size:
            raise FieldFileError("short read: truncated EXL1 header")
        version, n, length, ncomp = _HEADER.unpack_from(head, 4)
        if version != 1:
            raise FieldFileError(f"unsupported EXL1 version {version}")
        if ncomp not in (1, 3):
            raise FieldFileError(f"dimension mismatch: ncomp must be 1 or 3, got {ncomp}")
        try:
            grid = Grid3(int(n), float(length))
        except ValueError as exc:
            raise FieldFileError(f"dimension mismatch: {exc}") from exc
        count = ncomp * n**3
        size = os.fstat(fh.fileno()).st_size - len(head)
        if size < 8 * count:
            raise FieldFileError("short read: truncated EXL1 payload")
        if size > 8 * count:
            raise FieldFileError("trailing data after EXL1 payload")
        values = np.empty((ncomp, n, n, n))
        flat = np.empty(n**3, dtype="<f8")
        for comp in values:
            if fh.readinto(flat) != flat.nbytes:
                raise FieldFileError("short read: truncated EXL1 payload")
            comp[...] = flat.reshape(n, n, n).T  # stored x-fastest: flat[iz, iy, ix]
    del flat  # released before the field checks its values
    if ncomp == 1:
        return ScalarField(grid, values[0])
    return VectorField3(grid, values)
