"""Shared engine for direction-resolved third-order increment statistics.

All law evaluations reduce to volume means of cubic increment kernels at
separations r*nhat, and every such kernel is a contraction of one tensor of
increment third moments, M_pqr(l) = <dp dq dr>, over the stacked components
of the input fields.  Because the kernels are cubic, their volume mean is
alias-free on any grid with more than 3*kmax points per axis, where kmax is
the largest active wavenumber of the input fields.  The engine therefore
works on the smallest such grid (m points per axis), which the given fields
fix.

On an alias-free grid the engine keeps each field only at the K active
modes, the union of the fields' active masks, gathered once from the field's
spectrum, the cut to the m-grid and its (m/n)^3 scale being an index map;
otherwise (m = n) it keeps each field's whole spectrum.  On an alias-free
grid that spectrum is taken one component at a time, and only on the lines
that can hold an active mode, so no whole-grid spectrum of a field exists.
Curls and each mode's place in the band box and in the (kz plane, column)
table are fixed at build, and no whole-grid array outlives the step that
reads it: one step, ``StatsEngine._build_rows``, builds the rows a request
lacks, inverting each band-limited component once, in batches of
consecutive components through one band box, when a pair product first
reads it and dropping it after the last, transforming the pair products in
batches, each holding at most ``_BATCH`` grid points, and dropping them once
the rows exist.  Both transforms are ``grid``'s band-box forms, which run
their passes only on the lines that hold a mode of the box |kx|, |ky|,
kz <= kmax and give the whole-grid values there bit for bit.  ``moments``
evaluates the rows built, the directions of one radius in blocks whose
columns x block temporaries hold at most ``_MOMENT_BLOCK`` elements.

Two evaluation paths share that reduced grid:

* sine series, when the grid is alias-free (m > 3*kmax).  For real fields
  M_pqr(l) is a sine series in k.l with one row of real coefficients G per
  sorted component triple, kept as a dense table over (kz plane, column
  (kx, ky)), zero where no mode lies.  exp(i k.l) factors per axis, so every
  radius sums its modes by column: all directions at one radius cost one
  matrix product per kz plane and block of directions, and (columns + kz
  planes) x directions half phases exp(i x/2), with no transform; sin x - x
  is the one Taylor series they leave.  The law's term means are contractions
  of M.  While columns x directions x radii fit in ``_BATCH``, whole radii of
  a ladder share one pass of per-column phases and contractions; each radius
  keeps its own products, which leaves its values bitwise those of its own ladder.
  A row is built the first time a request reads it and kept for the rest
  of the engine's life, so a radius or epsilon ladder builds each row once
  and a law never pays for the rows of the others (helicity reads 18 of the
  56 rows of its two fields); the pair products it needs are transformed
  for its build alone.
* per-shift FFT, otherwise.  Each separation costs an inverse transform of
  the shifted spectra, one axis at a time into buffers the engine keeps,
  and a pointwise kernel pass: fixed-order ``einsum`` contractions that make
  one pass each and call no BLAS, so its bits do not depend on the BLAS
  thread count.  The phase factors are separable, so
  separations with equal x, or equal (x, y), components share the first
  passes; the directions are visited in that order.  This is the case for
  full-spectrum input (e.g. white noise, m = n), where the report value is
  the grid average of the aliased cubic products; the sine series gives the
  continuous average instead, which differs there.  Zero fields cost
  nothing on this path: they have no increment array, and the pieces that
  touch them are exactly 0.0.

A field may be given as ``CurlOf`` another: the engine then takes i k x u^
from the source's stored spectrum (the spectrum ``grid.curl`` transforms
back, at the kept modes), with no round trip through the grid.  The
helicity law's default vorticity is taken this way.

The law table ``LAWS`` is the one place a law is defined: one row of
coefficients per law over two kinds of cubic increment pieces, the cube
<(n.dx)(n.dy)(n.dz)> and the trace <(n.dx)(dy.dz)>.  Both paths only
evaluate pieces; the row turns them into the term means (L1, L2, T1, T2,
flux) and assembles from those the structure-function combinations (raw
combos), the ball quadrature of the dissipation functionals and the radial
shell form.  Keeping one source for the kernel algebra makes the exact
degeneracies (equal-field cancellations, halving identities) hold to the
last bit on both paths.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import time
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from operator import add

import numpy as np

from .grid import (Grid3, VectorField3, _axis_phases, _band_axis, _band_irfftn, _band_rfftn,
                   _curl_modes, _derivative_wavenumbers, _rfftn, _wavenumbers)

__all__ = [
    "LawKind",
    "CurlOf",
    "StatsEngine",
    "term_means",
    "raw_from_terms",
    "ball_node",
    "shell_node",
    "COMBINE_COEFFS",
    "LAWS",
    "stage_clock",
]


class LawKind(str, Enum):
    """The four exact-law families."""

    HYDRO_ENERGY = "hydro-energy"
    HELICITY = "helicity"
    MHD_ENERGY = "mhd-energy"
    CROSS_HELICITY = "cross-helicity"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class _LawRow:
    """The coefficients of one law over the cubic increment pieces.

    A pattern "xyz" over the primary field a and the paired field b names the
    cube piece <(n.dx)(n.dy)(n.dz)> and the trace piece <(n.dx)(dy.dz)>.  L1
    and L2 sum the cube pieces of their patterns, T1 and T2 the trace-minus-
    cube pieces of the same patterns; flux is the first trace minus the second.
    """

    l1: tuple[str, ...]
    l2: tuple[str, ...]
    flux: tuple[str, str]
    raw: tuple[float, float]  # (p, q): raw_X = (p * X1 + q * X2) / r for X = L, T
    combine: tuple[float, float]  # (c_L, c_T): S_X = raw_X + c_X * raw_flux
    # part -> (a, b_T, b_F): the shell form of each dissipation functional is
    # the quadrature of 4*pi * [a * r^3 * dphi_eps * S_main
    #                           + r^2 * phi_eps * (b_T * S_T + b_F * S_flux)],
    # S_main being S_L for the L part and S_T for the T part.
    shell: dict
    # The ball integrand groups the flux under 2*phi/r with T1 (then
    # b_F = 2*a*p) or with T2 (then b_F = 2*a*q), sign flipped for the T part.
    flux_with_t1: bool


# The one place a law is defined; hydrodynamic energy is the MHD energy law
# with a zero second field.
LAWS: dict[LawKind, _LawRow] = {
    LawKind.HELICITY: _LawRow(
        l1=("aab",),
        l2=("baa",),
        flux=("baa", "aab"),
        raw=(1.0, -0.5),
        combine=(-0.4, 0.4),
        shell={"L": (0.75, 1.5, 1.5), "T": (0.375, -0.75, -0.75)},
        flux_with_t1=True,
    ),
    LawKind.MHD_ENERGY: _LawRow(
        l1=("aaa", "abb"),
        l2=("bab",),
        flux=("abb", "bab"),
        raw=(1.0, -2.0),
        combine=(0.8, -0.8),
        shell={"L": (0.75, 1.5, -3.0), "T": (0.375, -0.75, 1.5)},
        flux_with_t1=False,
    ),
    LawKind.CROSS_HELICITY: _LawRow(
        l1=("aba",),
        l2=("bbb", "baa"),
        flux=("baa", "aab"),
        raw=(2.0, -1.0),
        combine=(-0.8, 0.8),
        shell={"L": (0.75, 1.5, 3.0), "T": (0.375, -0.75, -1.5)},
        flux_with_t1=True,
    ),
}
LAWS[LawKind.HYDRO_ENERGY] = LAWS[LawKind.MHD_ENERGY]

# Flux coefficients (c_L, c_T) entering the combined values.
COMBINE_COEFFS = {law: row.combine for law, row in LAWS.items()}


class _StageClock:
    """Seconds per named stage, each stage counting its own time: a stage
    entered inside another stops the other's count until it is left."""

    def __init__(self):
        self.seconds = {}
        self.open = []  # the stages entered and not left, innermost last
        self.since = time.perf_counter()

    def switch(self, name=None) -> None:
        """Charge the time since the last switch to the innermost open stage,
        then enter the stage ``name`` or, if None, leave that one."""
        now = time.perf_counter()
        if self.open:
            self.seconds[self.open[-1]] = self.seconds.get(self.open[-1], 0.0) + now - self.since
        self.since = now
        if name is None:
            self.open.pop()
        else:
            self.open.append(name)


# The clock of the innermost ``stage_clock`` block, if any: the stages run
# below public functions whose signatures do not carry one.
_CLOCK = contextvars.ContextVar("exactlaws_stage_clock", default=None)


@contextlib.contextmanager
def stage_clock():
    """Time the stages that run inside the block: engine build, row build,
    evaluation and radial assembly.  Yields {stage: seconds}, filled as
    they run."""
    clock = _StageClock()
    token = _CLOCK.set(clock)
    try:
        yield clock.seconds
    finally:
        _CLOCK.reset(token)


@contextlib.contextmanager
def _stage(name: str):
    """Count the block, or the decorated function, as the stage ``name`` of
    the ``stage_clock`` running, if any."""
    clock = _CLOCK.get()
    if clock is None:
        yield
        return
    clock.switch(name)
    try:
        yield
    finally:
        clock.switch()


_SUPPORT_RTOL = 1e-13  # spectral amplitudes below this (relative) count as empty
# Elements of each columns x directions temporary in ``StatsEngine.moments``:
# the directions of one radius are evaluated in blocks of at most this size.
_MOMENT_BLOCK = 2**20
# Elements of one batch: the stacked m^3 grids of one batched transform, and
# the columns x directions x radii of the per-column tables of one pass over
# a ladder.  At m = 16 a batch of 16 products ran faster than one of all 30
# (2^17), and with a lower peak resident memory.
_BATCH = 2**16


def _active_modes(spec: np.ndarray) -> np.ndarray:
    """Modes where one field's (3, ...) spectrum is active: where its amplitude
    exceeds _SUPPORT_RTOL of the field's peak amplitude (none for a zero field)."""
    amp = np.abs(spec[0])
    for comp in spec[1:]:
        np.maximum(amp, np.abs(comp), out=amp)
    return amp > _SUPPORT_RTOL * amp.max()


def _power(spec: np.ndarray) -> np.ndarray:
    """The sum of |spec|^2 over axis 1 of a C-contiguous complex (a, b, c)
    array, (a, c), read through its real view without a temporary."""
    flat = spec.view(float)
    power = np.einsum("abz,abz->az", flat, flat)
    return power[:, 0::2] + power[:, 1::2]


def _input_transform(values: np.ndarray) -> tuple:
    """``_rfftn(values)`` of one (3, n, n, n) field on the lines that can hold
    an active mode, one component at a time, and the field's active modes.

    The z pass runs on every line.  The x pass runs only on the kz planes,
    and the y pass only on the (kx, kz) lines, whose Parseval bound can exceed
    _SUPPORT_RTOL of the field's peak amplitude, or that an earlier component
    transformed: its active modes need every component's values (a
    solenoidal field's y component vanishes on the whole ky axis).  By
    Parseval, the passes left to run take a kz plane of power P (its sum of
    |.|^2) to n^2 modes of amplitude at most n sqrt(P), and a line to n modes
    of at most sqrt(n P).  The largest amplitude of the first component's
    strongest plane, and the root of each line's power, which one of its
    modes reaches, bound the peak from below.  A plane or line is skipped only
    when twice its bound is still below _SUPPORT_RTOL of that floor, so no
    amplitude it would give is active: the mask and the peak are those of
    ``_active_modes(_rfftn(values))`` bit for bit, each line being
    transformed as among the whole grid's.  Returns, per component, the
    transformed lines (kx, kz, values over ky), and the mask (the mean not
    yet excluded).  Full-spectrum input, whose first component keeps every
    kz plane, is transformed whole instead, as its lines would hold the
    whole spectrum: the spectrum then takes the lines' place.
    """
    n = values.shape[-1]
    amp = np.zeros((n, n, n // 2 + 1))  # each mode's largest amplitude over the components
    done = np.zeros((n, n // 2 + 1), dtype=bool)  # the (kx, kz) lines transformed so far
    floor = 0.0  # a lower bound on amp.max()
    lines = []
    for comp in values:
        spec = np.fft.rfft(comp, axis=-1)  # the z pass, on every line
        power = _power(spec.reshape(1, n * n, -1))[0]  # per kz plane
        if not lines:  # the first component's strongest plane sets the floor
            floor = np.abs(np.fft.fft2(spec[:, :, np.argmax(power)], axes=(0, 1))).max()
        kz = np.flatnonzero((2.0 * n * np.sqrt(power) > _SUPPORT_RTOL * floor) | done.any(axis=0))
        if not lines and len(kz) == len(power):
            del spec, amp
            spec = _rfftn(values)
            return spec, _active_modes(spec)
        planes = np.take(spec, kz, axis=2)
        del spec
        np.fft.fft(planes, axis=0, out=planes)  # the x pass, (kx, y, plane)
        power = _power(planes)  # per (kx, plane) line
        floor = max(floor, np.sqrt(power.max(initial=0.0)))
        kx, plane = np.nonzero((2.0 * np.sqrt(n * power) > _SUPPORT_RTOL * floor) | done[:, kz])
        rows = np.fft.fft(planes[kx, :, plane], axis=-1)  # the y pass, (line, ky)
        del planes
        kz = kz[plane]
        done[kx, kz] = True
        amp[kx, :, kz] = np.maximum(amp[kx, :, kz], np.abs(rows))
        lines.append((kx, kz, rows))
    return lines, amp > _SUPPORT_RTOL * amp.max()


def _lines_spectrum(values: np.ndarray, lines, at) -> np.ndarray:
    """A field's spectrum from its ``_input_transform`` lines: (3, K) at the
    modes ``at`` (ix, iy, iz), or whole (3, n, n, n // 2 + 1) when ``at`` is
    None, transformed again.  A component with a wanted mode on a line it did
    not transform, a value below the field's active threshold but not zero,
    is transformed again whole, one component at a time."""
    if isinstance(lines, np.ndarray):  # the whole spectrum
        return lines if at is None else lines[(Ellipsis, *at)]
    if at is None:
        return _rfftn(values)
    n = values.shape[-1]
    out = np.empty((3,) + at[0].shape, dtype=complex)
    for comp, (kx, kz, rows), dest in zip(values, lines, out):
        line = np.full((n, n // 2 + 1), -1)
        line[kx, kz] = np.arange(len(kx))
        wanted = line[at[0], at[2]]
        dest[...] = _rfftn(comp)[at] if wanted.min(initial=0) < 0 else rows[wanted, at[1]]
    return out


def _support_radius(active: np.ndarray, n: int) -> int:
    """Largest |wavenumber index| along any axis over the active modes of an n-grid."""
    k, kz = (np.rint(np.abs(t)).astype(int) for t in _wavenumbers(2.0 * np.pi, n))
    return max(int(t[active.any(axis=other)].max(initial=0))
               for t, other in ((k, (1, 2)), (k, (0, 2)), (kz, (0, 1))))


def _is_5_smooth(k: int) -> bool:
    """Whether k has no prime factor above 5."""
    for p in (2, 3, 5):
        while k % p == 0:
            k //= p
    return k == 1


def _reduced_size(kmax: int, n: int) -> int:
    """Smallest even fast FFT length m > 3*kmax, at least 4 (cubic products
    alias-free), or n when that is not smaller: twice the smallest 5-smooth
    number of at least half the target."""
    half = -(-max(3 * kmax + 1, 4) // 2)
    while not _is_5_smooth(half):
        half += 1
    return 2 * half if 2 * half < n else n


# (-1)^j / (2j + 1)! for j = 9..1: the Taylor series of sin(x) - x in powers
# of x^2; at |x| = 1 the first omitted term is 1.2e-19 of the leading one.
_SIN_SERIES = tuple((-1.0) ** j / float(np.prod(np.arange(1, 2 * j + 2))) for j in range(9, 0, -1))


def _sin_minus_x(x: np.ndarray, sin=None) -> np.ndarray:
    """sin(x) - x to full relative precision, by its Taylor series for |x| < 1;
    ``sin`` is sin(x) where it is known already."""
    out = (np.sin(x) if sin is None else sin) - x
    small = np.abs(x) < 1.0
    xs = x[small]
    x2 = xs * xs
    out[small] = np.polyval(_SIN_SERIES, x2) * x2 * xs
    return out


def _half_angle(x: np.ndarray, half: np.ndarray) -> tuple:
    """(sin x - x, cos x - 1, sin x) from x and its half phase h = exp(i x/2), to
    full relative precision: cos x - 1 = -2 Im(h)^2, sin x = 2 Im(h) Re(h)."""
    sin = 2.0 * half.imag * half.real
    return _sin_minus_x(x, sin), -2.0 * half.imag * half.imag, sin


@dataclass(frozen=True)
class CurlOf:
    """A ``StatsEngine`` field that is the spectral curl of the field ``name``.

    The engine takes i k x u^ from that field's stored spectrum, within its
    active mask: the spectrum ``grid.curl`` transforms back, at the modes
    the engine keeps, without the round trip through the grid.  ``name``
    must come before it in the fields.
    """

    name: str


class StatsEngine:
    """Increment statistics for a named set of fields on one grid.

    ``fields`` maps names to a VectorField3 on ``grid`` (whose shape and
    finite values it checked itself), to ``CurlOf`` an earlier name or to
    None; None, an all-zero field and a field without modes besides its mean
    all stand for the zero field.  Names holding the same values share one
    set of component rows.  The given fields fix the reduced grid.  On an
    alias-free grid (``alias_free``: m > 3*kmax) each distinct field is kept
    at the K modes of the union of the active masks; ``_build_rows``, the one row builder, builds the rows of G asked
    for from their pair products in one step and keeps them in (kz plane,
    column) layout, the products dropped, and ``moments`` evaluates the
    built rows over ladders of separations by column sums, one matrix
    product per kz plane and block of directions.  Otherwise each field is
    kept as its whole spectrum on the m-grid, and ``increments`` costs at
    most one inverse pass per axis and separation vector, fewer when
    consecutive separations share components.  A curl is taken from its
    source's stored spectrum, within the source's mask.
    ``evaluation`` names the path ``angular_term_sums`` takes: "sine-series"
    or "per-shift-fft".  ``separations`` counts the separations evaluated,
    ``inverse_passes`` the inverse passes per axis, ``transform_calls`` the
    3-D transforms (one per distinct given field and one per batch of band
    components or pair products), ``column_passes`` the column-sum passes, one
    per rung and block of directions; ``describe`` also gives the modes kept
    and the series rows and pair products built.
    """

    @_stage("engine_build")
    def __init__(self, grid: Grid3, fields: dict):
        self.grid = grid
        n = grid.n
        self.transform_calls = 0
        # First pass: each distinct given field is transformed once, one
        # component at a time and only on the lines that can hold an active
        # mode, and the supports of their active masks fix kmax, hence m.
        given = []  # (values, lines, active mask) of each distinct given field with modes
        source = {}  # name -> index into given, None for the zero field, or a CurlOf
        for name, fld in fields.items():
            if isinstance(fld, CurlOf) and fld.name not in source:
                raise ValueError(f"field {name!r} is the curl of {fld.name!r}, "
                                 "which must come before it")
            source[name] = fld if isinstance(fld, CurlOf) else None
            if fld is None or isinstance(fld, CurlOf):
                continue
            if not (isinstance(fld, VectorField3) and fld.grid == grid):
                raise ValueError(f"field {name!r} does not match the grid: a VectorField3 "
                                 "on it, a CurlOf or None is needed")
            values = fld.values
            source[name] = next((j for j, (seen, _, _) in enumerate(given)
                                 if seen is values or np.array_equal(seen, values)), None)
            if source[name] is None:
                lines, active = _input_transform(values)
                self.transform_calls += 1
                active[0, 0, 0] = False  # the mean: increments ignore it
                if active.any():
                    source[name] = len(given)
                    given.append((values, lines, active))
        self.kmax = max((_support_radius(active, n) for _, _, active in given), default=0)
        m = _reduced_size(self.kmax, n)
        self.m = m
        self.alias_free = m > 3 * self.kmax
        self.evaluation = "sine-series" if self.alias_free else "per-shift-fft"

        # Second pass, in the given order: each distinct field is stored once,
        # at the K modes of the union of the masks on an alias-free grid (every
        # active mode lies inside the m-grid), else as its whole spectrum, and
        # a curl is taken from its source's stored spectrum, within its mask.
        if self.alias_free:
            union = reduce(np.logical_or, [active for _, _, active in given],
                           np.zeros((n, n, n // 2 + 1), dtype=bool))
            at = np.nonzero(union)
            # The same modes in the band box |kx|, |ky|, kz <= kmax of
            # ``grid._band_rfftn``, in ``_band_axis`` order: its wavenumbers
            # are ``_axis`` on its first two axes and ``_kz`` on the third.
            side = 2 * self.kmax + 1
            self._box = tuple(np.where(i < n // 2, i, i + side - n) for i in at[:2]) + at[2:]
            k, kz = _wavenumbers(grid.length, m)
            self._axis = k[_band_axis(m, self.kmax)]
            self._kz = kz[: self.kmax + 1]
            wavenumbers = (self._axis[self._box[0]], self._axis[self._box[1]],
                           self._kz[self._box[2]])
            # The columns (kx, ky) that hold a mode, numbered in raster order of
            # the band box with no sort (numpy's first sort pages in about
            # 0.5 MB of code, which shows in the peak resident memory).
            cell = self._box[0] * side + self._box[1]  # (kx mod side, ky mod side)
            present = np.zeros(side * side, dtype=bool)
            present[cell] = True
            # Each column's kx and ky as indices into ``_axis``, and each
            # mode's place in G's dense (kz plane, column) table.
            self._cells = np.divmod(np.flatnonzero(present), side)
            self._slot = at[2] * len(self._cells[0]) + (np.cumsum(present) - 1)[cell]
            table = (self.kmax + 1, len(self._cells[0]))
            gather = at
        else:
            self._box = None
            wavenumbers = _derivative_wavenumbers(grid.length, m)
            gather, table = None, (0, 0)
        blocks = []  # (stored spectrum, active mask) of each distinct field with modes
        block = {None: None}  # index into given, or ("curl", block) -> index into blocks
        owner = {}  # name -> index into blocks, or None for the zero field
        for name, src in source.items():
            if isinstance(src, CurlOf):
                src = None if owner[src.name] is None else ("curl", owner[src.name])
            if src not in block:
                if isinstance(src, tuple):
                    spec = _curl_modes(*wavenumbers, blocks[src[1]][0])
                    active = _active_modes(spec) & blocks[src[1]][1]
                else:
                    spec = _lines_spectrum(*given[src][:2], gather)
                    if m < n:
                        spec *= (m / n) ** 3
                    active = given[src][2] if gather is None else given[src][2][gather]
                block[src] = len(blocks) if active.any() else None
                if active.any():
                    blocks.append((spec, active))
            owner[name] = block[src]
        del given  # the full-grid spectra, before any copy below
        self.modes = len(at[0]) if self.alias_free else 0
        stored = (self.modes,) if self.alias_free else (m, m, m // 2 + 1)
        if len(blocks) == 1:  # a lone field is kept as it is, without a copy
            self._fields = blocks[0][0]
        else:
            self._fields = np.concatenate([spec for spec, _ in blocks]
                                          or [np.zeros((0,) + stored, dtype=complex)])
        # The three component indices of each field in ``moments``; the extra
        # index len(self._fields) stands for the zero field.
        zero = self._fields.shape[0]
        self.components = {
            name: np.full(3, zero) if j is None else np.arange(3 * j, 3 * j + 3)
            for name, j in owner.items()
        }
        # Spectra on the m-grid for ``increments``; on an alias-free grid they
        # are scattered from the stored modes on first use.
        self._spectra = None if self.alias_free else self._fields
        self._base = None  # field values on the reduced grid, on first use
        # Buffers of the last x pass and xy pass, one component's z pass input
        # and the z pass's output.
        self._passes = None
        self._keys = (None, None)  # the l_x and (l_x, l_y) the buffers hold
        self.pair_products = 0  # pair products transformed, each dropped with its row build
        self._coeffs = np.zeros(table + (0,))  # the G rows built so far, (planes, columns, rows)
        # Row of G that each (p, q, r) reads in ``moments``: -1 for a row not
        # built yet (it reads NaN), -2 for a triple touching the zero field.
        self._row_index = np.full((zero + 1,) * 3, -2)
        self._row_index[:zero, :zero, :zero] = -1
        self.separations = 0
        self.inverse_passes = {"x": 0, "xy": 0, "z": 0}
        self.column_passes = 0

    def describe(self) -> dict:
        """The grid the engine used, the evaluation path it takes, the modes it
        keeps (0 on the per-shift path) and the work it did so far."""
        return {
            "n": self.grid.n,
            "m": self.m,
            "kmax": self.kmax,
            "alias_free": self.alias_free,
            "evaluation": self.evaluation,
            "modes": self.modes,
            "separations": self.separations,
            "inverse_passes": dict(self.inverse_passes),
            "series_rows": self._coeffs.shape[2],
            "pair_products": self.pair_products,
            "transform_calls": self.transform_calls,
            "column_passes": self.column_passes,
        }

    def increments(self, ell) -> dict[str, np.ndarray | None]:
        """Flat (3, m**3) increment arrays u(x + ell) - u(x) per field name.

        The arrays are views of one buffer, which the next call overwrites.
        The zero field gets None: it has no increment array.  On an alias-free
        grid the fields are the ones the sine series sums, their values at the
        stored modes.
        """
        if self._base is None:
            self._base = self._shifted(np.zeros(3), count=False).copy()
        delta = self._shifted(ell)
        delta -= self._base
        self.separations += 1
        zero = self._fields.shape[0]
        return {name: None if p == zero else delta[p : p + 3]
                for name, (p, _, _) in self.components.items()}

    def _shifted(self, ell, count: bool = True) -> np.ndarray:
        """The fields at x + ell on the reduced grid, flat (C, m**3), in the
        engine's output buffer.

        The inverse transform runs one axis at a time, each pass after the
        phase factor of its axis.  The x pass depends on l_x only and the xy
        pass on (l_x, l_y), so each is kept, in a buffer reused between calls,
        and reused while those components repeat (exact float equality).  The
        z pass runs one component at a time, after the z phase is applied into
        a third kept buffer of one component's size, so a call allocates no
        whole-grid array; each line is transformed as in one batch, bit for bit.
        ``count`` adds the passes made to ``inverse_passes``.
        """
        m = self.m
        if self._spectra is None:  # alias-free: the stored modes, from the band box to the m-grid
            at = (*(_band_axis(m, self.kmax)[i] for i in self._box[:2]), self._box[2])
            self._spectra = np.zeros((self._fields.shape[0], m, m, m // 2 + 1), dtype=complex)
            self._spectra[(Ellipsis, *at)] = self._fields
        px, py, pz = _axis_phases(self.grid, ell, m)
        if self._passes is None:
            self._passes = (np.empty_like(self._spectra), np.empty_like(self._spectra),
                            np.empty_like(self._spectra[0]),
                            np.empty(self._spectra.shape[:-1] + (m,)))
        x, xy, z, out = self._passes
        keys = (float(ell[0]), (float(ell[0]), float(ell[1])))
        made = {"x": keys[0] != self._keys[0], "xy": keys[1] != self._keys[1], "z": True}
        if made["x"]:
            np.fft.ifft(np.multiply(self._spectra, px[:, None, None], out=x), axis=1, out=x)
        if made["xy"]:
            np.fft.ifft(np.multiply(x, py[:, None], out=xy), axis=2, out=xy)
        for comp, dest in zip(xy, out):
            np.fft.irfft(np.multiply(comp, pz, out=z), n=m, axis=2, out=dest)
        self._keys = keys
        if count:
            for axis, done in made.items():
                self.inverse_passes[axis] += done
        return out.reshape(out.shape[0], -1)

    def _band_components(self, group) -> np.ndarray:
        """The band-limited components ``group`` (len(group), m, m, m) on the
        reduced grid, inverted together through one band box."""
        side = 2 * self.kmax + 1
        box = np.zeros((len(group), side, side, self.kmax + 1), dtype=complex)
        box[(slice(None), *self._box)] = self._fields[group]
        self.transform_calls += 1
        return _band_irfftn(box, self.m)

    def _pair_products(self, pairs) -> list:
        """conj((tu)^) / m**3 at the stored modes for each pair (t, u) of
        ``pairs``, in order, transformed in batches of at most ``_BATCH`` grid
        points.  Each band-limited component is inverted once, in its batch of
        as many consecutive components, when a pair first reads it, and
        dropped after the last pair that reads it."""
        step = max(1, _BATCH // self.m**3)
        last = {c: i for i, pair in enumerate(pairs) for c in pair}
        band, out = {}, []
        for s in range(0, len(pairs), step):
            batch = pairs[s : s + step]
            for c in sorted({c for pair in batch for c in pair} - band.keys()):
                if c not in band:
                    first = c - c % step
                    group = [t for t in range(first, first + step) if last.get(t, -1) >= s]
                    band.update(zip(group, self._band_components(group)))
            out.extend(self._product_batch(band, batch))
            for c in [c for c in band if last[c] < s + step]:
                del band[c]
        return out

    def _product_batch(self, band, batch) -> np.ndarray:
        """conj((tu)^) / m**3 at the stored modes, (len(batch), K), from one
        band-box forward transform of the stacked products of the band-limited
        fields ``band``.  Its grids are freed on return, before the next batch
        is built; freeing the stack before the gather instead raised the peak
        resident memory of an n=64 sweep."""
        m = self.m
        stack = np.empty((len(batch), m, m, m))
        for out, (t, u) in zip(stack, batch):
            np.multiply(band[t], band[u], out=out)
        spec = _band_rfftn(stack, self.kmax)
        self.transform_calls += 1
        return np.conj(spec[(slice(None), *self._box)] / m**3)

    @_stage("row_build")
    def _build_rows(self, triples) -> None:
        """Build the G rows of the sorted component triples (p <= q <= r) not
        built yet; triples that touch the zero field read its zero row.

        For real fields whose cubic products are alias-free on the grid,
          M_pqr(l) = sum over the splits (s | tu) of C(l) - C(-l),
          C(l) = <s(x + l) t(x) u(x)> = sum_k s^(k) conj((tu)^(k)) exp(i k.l),
        and each +-k pair of the half spectrum contributes
        -4 Im(s^ conj((tu)^)) sin(k.l), or -2 per mode on the kz = 0 plane
        where both members appear.  So M_pqr(l) = G_pqr . (sin(k.l) - k.l):
        the fields are cut to the active modes first, so the identity holds
        exactly; then M = O(l^3), the linear part sum_k G_k k.l vanishes, and
        dropping it keeps full relative precision at small separations, where
        the sine terms would cancel.  Every permutation of (p, q, r) reads the
        same row, so permuted moments are bitwise equal.  The pair products
        the new rows read come first, each band-limited component inverted
        once per call, and are dropped on return: a later call transforms
        again those its own rows read, bit for bit.
        """
        index = self._row_index
        new = sorted(t for t in {tuple(sorted(map(int, t))) for t in triples} if index[t] == -1)
        if not new:
            return
        # In order of the later component, then the earlier: a component no
        # pair with a later one reads (helicity's vorticity components) is
        # dropped before the next is inverted.
        pairs = sorted({pq for p, q, r in new for pq in ((q, r), (p, r), (p, q))},
                       key=lambda pair: pair[::-1])
        products = dict(zip(pairs, self._pair_products(pairs)))
        self.pair_products += len(pairs)
        coeff, built = self._fields / self.m**3, self._coeffs.shape[2]
        planes, columns = self._coeffs.shape[:2]
        rows = np.zeros((planes * columns, len(new)))
        pair = np.where(self._box[2] == 0, -2.0, -4.0)  # per mode: kz = 0 holds both of +-k
        for i, (p, q, r) in enumerate(new):
            split = (
                np.imag(coeff[p] * products[q, r])
                + np.imag(coeff[q] * products[p, r])
                + np.imag(coeff[r] * products[p, q])
            )
            for perm in itertools.permutations((p, q, r)):
                index[perm] = built + i
            rows[self._slot, i] = pair * split
        rows = rows.reshape(planes, columns, -1)
        self._coeffs = np.concatenate([self._coeffs, rows], axis=2) if built else rows

    def moments(self, rungs) -> np.ndarray:
        """Increment third moments M[p, q, r, i, j] = <dp dq dr> at the
        separations rungs[i, j], for R rungs of a ladder of S separations
        each, (R, S, 3).

        Valid on alias-free grids only.  ``components`` gives each field's
        indices p, q, r; the last index of each axis is the zero field, which
        reads 0.0.  Only the rows ``_build_rows`` has built are evaluated:
        entries whose row was never built read NaN, never 0.0.

        exp(i k.l) factors per axis: with a = kx l_x + ky l_y, b = kz l_z,
        s(x) = sin(x) - x and c(x) = cos(x) - 1,
          s(a + b) = s(a) cos(b) + a c(b) + c(a) sin(b) + s(b),
        where every term is cubic in small arguments, as s is, so the sum
        keeps full relative precision at any radius.  The modes therefore sum
        to one matrix product per kz plane of G's (plane, column) table with
        the columns' s(a), c(a), kx, ky and 1 (a is linear in l), weighted
        per plane; s, c and sin come from the half phases exp(i a/2), a
        product of per-axis ones, and exp(i b/2).  Each rung is taken in
        blocks whose columns x separations tables hold at most
        ``_MOMENT_BLOCK`` elements, the half phases of a block for all rungs
        at once; each rung has its own products, counted in
        ``column_passes``, so its values do not depend on the other rungs.
        """
        if not self.alias_free:
            raise ValueError("the sine series needs an alias-free grid (m > 3*kmax)")
        rungs = np.asarray(rungs, dtype=float)
        count, size = rungs.shape[:2]
        self.separations += count * size
        table, axis, kz, (ox, oy) = self._coeffs, self._axis, self._kz, self._cells
        rows = np.empty((table.shape[2] + 2, count, size))
        rows[-2] = 0.0  # the zero field's row
        rows[-1] = np.nan  # the rows not built
        kx, ky = axis[ox], axis[oy]
        # a is linear in (l_x, l_y), so G . a is l_x (G . kx) + l_y (G . ky).
        linear = np.stack([kx, ky, np.ones_like(kx)], axis=1)
        step = max(1, _MOMENT_BLOCK // max(1, len(kx)))
        for s in range(0, size, step):
            block = rungs[:, s : s + step]  # (R, B, 3)
            width = block.shape[1]
            lx, ly = block[:, None, :, 0], block[:, None, :, 1]  # (R, 1, B)
            # s(a) and c(a) from the products of the per-axis half phases.
            a = kx[:, None] * lx + ky[:, None] * ly  # (R, columns, B)
            s_a, c_a, _ = _half_angle(a, np.exp(0.5j * axis[:, None] * lx)[:, ox]
                                      * np.exp(0.5j * axis[:, None] * ly)[:, oy])
            # One product per rung and plane, (R, planes, 2B + 3, rows): a
            # single (planes x rows) product touched more of the BLAS buffers,
            # and so of the peak resident memory.
            trig = np.concatenate([s_a, c_a, np.broadcast_to(linear, (count,) + linear.shape)],
                                  axis=2)
            sums = np.swapaxes(trig, 1, 2)[:, None] @ table
            b = kz[:, None] * block[:, None, :, 2]  # (R, planes, B)
            s_b, c_b, sin_b = _half_angle(b, np.exp(0.5j * b))
            by_plane = sums[:, :, : 2 * width].reshape(count, len(kz), 2, width, -1)
            cb = np.swapaxes(c_b, 1, 2)
            rows[:-2, :, s : s + step] = np.moveaxis(
                np.einsum("ipjsr,jips->isr", by_plane, np.stack([1.0 + c_b, sin_b]))
                + block[:, :, 0:1] * (cb @ sums[:, :, -3])
                + block[:, :, 1:2] * (cb @ sums[:, :, -2])
                + np.swapaxes(s_b, 1, 2) @ sums[:, :, -1],
                -1, 0,
            )
            self.column_passes += count
        return rows[self._row_index]


def _law_terms(law: LawKind, cube, trace) -> tuple:
    """(L1, L2, T1, T2, flux) of ``law`` from its cube and trace pieces.

    ``cube`` and ``trace`` map a pattern "xyz" over the fields a and b to the
    piece <(n.dx)(n.dy)(n.dz)> or <(n.dx)(dy.dz)>.  Each piece is evaluated
    once; trace patterns are symmetric in y and z and are taken with y <= z.
    Equal fields therefore give equal pieces bit for bit, and the law's exact
    cancellations survive on both evaluation paths.
    """
    row = LAWS[law]
    cubes = {p: cube(p) for p in row.l1 + row.l2}
    yz_sorted = {p: p[0] + "".join(sorted(p[1:])) for p in row.l1 + row.l2 + row.flux}
    traces = {p: trace(p) for p in set(yz_sorted.values())}
    tr = {p: traces[key] for p, key in yz_sorted.items()}
    l1, l2 = (reduce(add, [cubes[p] for p in pats]) for pats in (row.l1, row.l2))
    t1, t2 = (reduce(add, [tr[p] - cubes[p] for p in pats]) for pats in (row.l1, row.l2))
    return l1, l2, t1, t2, tr[row.flux[0]] - tr[row.flux[1]]


def term_means(law: LawKind, da, db, nhat) -> tuple[float, float, float, float, float]:
    """Angular means (L1, L2, T1, T2, flux) of the law's kernel pieces.

    ``da`` is the increment of the primary (velocity-like) field, ``db`` of
    the paired field, both flat (3, M) or None for the zero field; the pieces
    are volume means over the M points.  A piece that touches the zero field
    is exactly 0.0 and is not evaluated.  Each reduction is an ``einsum``
    contraction without ``optimize`` (which may route it through a BLAS
    product): one pass in a fixed order, with no temporary but n.d, so the
    bits do not depend on the BLAS thread count.
    """
    delta = {"a": da, "b": db}
    nd = {c: None if d is None else np.einsum("i,ij->j", nhat, d) for c, d in delta.items()}

    def cube(p):
        if any(delta[c] is None for c in p):
            return 0.0
        x, y, z = (nd[c] for c in p)
        return float(np.einsum("j,j,j->", x, y, z)) / x.size

    def trace(p):
        if any(delta[c] is None for c in p):
            return 0.0
        x, y, z = p
        return float(np.einsum("ij,ij,j->", delta[y], delta[z], nd[x])) / nd[x].size

    return _law_terms(law, cube, trace)


def _cube(mom, n3, x, y, z) -> np.ndarray:
    """Per direction, sum_ijk n_i n_j n_k M[x_i, y_j, z_k], the 27 terms added
    in order, so a column's bits do not depend on how many columns there are
    (numpy's ``sum`` would add one column's terms pairwise)."""
    terms = (n3 * mom[np.ix_(x, y, z)]).reshape((27,) + mom.shape[3:])
    out = terms[0].copy()
    for term in terms[1:]:
        out += term
    return out


def _trace(mom, nt, x, y, z) -> np.ndarray:
    """Per direction, sum_k n_k sum_i M[x_k, y_i, z_i]."""
    return (nt * mom[x[:, None], y[None, :], z[None, :]].sum(axis=1)).sum(axis=0)


def _moment_terms(law: LawKind, a, b, mom, n3, nt) -> tuple:
    """Per-direction (L1, L2, T1, T2, flux) of ``term_means`` contracted from M.

    ``a`` and ``b`` are the component indices of the two fields.
    """
    comps = {"a": a, "b": b}
    return _law_terms(
        law,
        lambda p: _cube(mom, n3, *(comps[c] for c in p)),
        lambda p: _trace(mom, nt, *(comps[c] for c in p)),
    )


def _law_triples(law: LawKind, a, b) -> set:
    """The sorted component triples (p <= q <= r) of M that ``_moment_terms``
    reads for ``law`` on the fields with component indices ``a`` and ``b``: a
    cube piece over "xyz" reads every M[x_i, y_j, z_k], a trace piece a subset."""
    row = LAWS[law]
    comps = {"a": a.tolist(), "b": b.tolist()}
    return {tuple(sorted(t)) for p in row.l1 + row.l2 + row.flux
            for t in itertools.product(*(comps[c] for c in p))}


@_stage("evaluation")
def angular_term_sums(engine: StatsEngine, requests, radii, dirs) -> dict[str, np.ndarray]:
    """Direction-weighted term means over a ladder of radii, for several laws at once.

    ``requests`` maps labels to (law, first_name, second_name) triples; each
    label gets a (len(radii), 5) array of (L1, L2, T1, T2, flux), one row per
    radius.  The rows each request reads are found and built once per call.
    On an alias-free grid the moments at every direction of one radius come
    from one sine series evaluation and are contracted per law, as many whole
    radii at once as columns x directions x radii fit in ``_BATCH``; otherwise the
    increments are computed once per separation and shared by ``term_means``,
    visiting the directions sorted by (l_x, l_y) so that consecutive
    separations share inverse passes.  Accumulation runs in the direction
    set's order, which keeps the sums bit-reproducible.
    """
    sums = {label: np.zeros((len(radii), 5)) for label in requests}
    if engine.evaluation == "sine-series":
        # M is odd in the separation, so every term mean is even in nhat and
        # each antipodal pair contributes its summed weight times one value.
        nhat, weights = dirs._half
        reads = {label: (law, engine.components[a], engine.components[b])
                 for label, (law, a, b) in requests.items()}
        engine._build_rows(set().union(*(_law_triples(*read) for read in reads.values())))
        radii = np.asarray(radii, dtype=float)
        # Whole radii share one pass of per-column phases and contractions
        # while its per-column tables, columns x directions x radii, fit in
        # _BATCH; one pass per radius made the ballshell gate a fifth slower.
        per = max(1, _BATCH // max(1, len(engine._cells[0]) * len(nhat)))
        nt = nhat.T[:, None]  # (3, 1, directions): one radius axis, broadcast
        n3 = nt[:, None, None] * nt[None, :, None] * nt[None, None, :]
        for i in range(0, len(radii), per):
            r = radii[i : i + per]
            mom = engine.moments(r[:, None, None] * nhat)
            for label, read in reads.items():
                terms = np.stack(_moment_terms(*read, mom, n3, nt))
                sums[label][i : i + len(r)] = (terms * weights).sum(axis=2).T
        return sums
    for i, r in enumerate(radii):
        ells = r * dirs.directions
        means = {label: np.empty((len(ells), 5)) for label in requests}
        for j in np.lexsort((ells[:, 1], ells[:, 0])):
            deltas = engine.increments(ells[j])
            for label, (law, a, b) in requests.items():
                means[label][j] = term_means(law, deltas[a], deltas[b], dirs.directions[j])
        for label in requests:
            for w, t in zip(dirs.weights, means[label]):
                sums[label][i] += w * t
    return sums


def raw_from_terms(law: LawKind, terms, r):
    """Assemble (raw_L, raw_T, raw_flux) from direction-summed term means,
    the last axis of ``terms``, at the radii ``r``."""
    l1, l2, t1, t2, fx = np.moveaxis(np.asarray(terms), -1, 0)
    p, q = LAWS[law].raw
    return (p * l1 + q * l2) / r, (p * t1 + q * t2) / r, fx / r


def ball_node(law: LawKind, part: str, terms, phi, dphi, r):
    """Angular content of the ball integrand at the radii r, as displayed.

    Multiplied by 4*pi*r^2 and the radial weight this yields the ball
    quadrature of the dissipation functional.  The groupings mirror the
    functional definitions term by term, with weights a*p and a*q that are
    exact in binary, so equal-field cancellations are exact in floating point.
    Only a is read from the shell row, the flux entering with T1 or T2 under
    2*phi/r, so comparing ball and shell checks the shell row's b_F.
    """
    l1, l2, t1, t2, fx = np.moveaxis(np.asarray(terms), -1, 0)
    row = LAWS[law]
    a = row.shell[part][0]
    p, q = row.raw
    g = 2.0 * phi / r
    t1g, t2g = (t1 + fx, t2) if row.flux_with_t1 else (t1, t2 + fx)
    if part == "L":
        return a * p * (dphi * l1 + g * t1g) + a * q * (dphi * l2 + g * t2g)
    return a * p * (dphi * t1 - g * t1g) + a * q * (dphi * t2 - g * t2g)


def shell_node(law: LawKind, part: str, raw_l, raw_t, raw_flux, phi, dphi, r):
    """Radial shell integrand at the radii r (without the 4*pi and the radial
    weight); r^3 is the scalar pow, which ndarray ** 3 need not match bitwise."""
    a, b_t, b_f = LAWS[law].shell[part]
    main = raw_l if part == "L" else raw_t
    return a * np.float_power(r, 3) * dphi * main + r * r * phi * (b_t * raw_t + b_f * raw_flux)


def check_part(part: str) -> str:
    if part not in ("L", "T"):
        raise ValueError("part must be 'L' or 'T'")
    return part
