"""Shared engine for direction-resolved third-order increment statistics.

All law evaluations reduce to volume means of cubic increment kernels at
separations r*nhat, and every such kernel is a contraction of one tensor of
increment third moments, M_pqr(l) = <dp dq dr>, over the stacked components
of the input fields.  Because the kernels are cubic, their volume mean is
alias-free on any grid with more than 3*kmax points per axis, where kmax is
the largest active wavenumber of the input fields.  The engine therefore
works on the smallest such grid (m points per axis): the given fields fix
m, each is cut to the m-grid once, with its active mask, and what the
engine derives from them (curls, the sine-series modes) is taken there.

Two evaluation paths share that reduced grid:

* sine series, when the grid is alias-free (m > 3*kmax).  For real fields
  M_pqr(l) is a sine series in k.l with one row of real coefficients per
  sorted component triple, so all directions at one radius cost one matrix
  product and no transform; the law's term means are contractions of M.
  A row, and the pair-product transforms it needs, is built the first time
  a request reads it and kept for the rest of the engine's life, so a
  radius or epsilon ladder builds each row once and a law never pays for
  the rows of the others (helicity reads 18 of the 56 rows of its two
  fields).
* per-shift FFT, otherwise.  Each separation costs an inverse transform of
  the shifted spectra, one axis at a time, and a pointwise kernel pass.
  The phase factors are separable, so separations with equal x, or equal
  (x, y), components share the first passes; the directions are visited in
  that order.  This is the case for full-spectrum input (e.g. white noise,
  m = n), where the report value is the grid average of the aliased cubic
  products; the sine series gives the continuous average instead, which
  differs there.  Zero fields cost nothing on this path: they have no
  increment array, and the pieces that touch them are exactly 0.0.

A field may be given as ``CurlOf`` another: the engine then takes i k x u^
from the source's spectrum on the reduced grid (the spectrum ``grid.curl``
transforms back, cut to that grid), with no round trip through the grid.
The helicity law's default vorticity is taken this way.

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

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from operator import add

import numpy as np
from scipy import fft as _fft

from .grid import Grid3, VectorField3, _axis_phases, _curl_spectrum, _wavenumbers

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

_SUPPORT_RTOL = 1e-13  # spectral amplitudes below this (relative) count as empty


def _active_modes(spec: np.ndarray) -> np.ndarray:
    """Half-spectrum modes k != 0 where one field's (3, ...) rfftn spectrum is active.

    A mode is active when its amplitude exceeds _SUPPORT_RTOL of the field's
    peak amplitude; the mean (k = 0) never counts, since increments ignore it.
    """
    amp = np.abs(spec).max(axis=0)
    active = amp > _SUPPORT_RTOL * amp.max()
    active[0, 0, 0] = False
    return active


def _support_radius(active: np.ndarray, n: int) -> int:
    """Largest |wavenumber index| along any axis over the active modes of an n-grid."""
    k, kz = (np.rint(np.abs(t)).astype(int) for t in _wavenumbers(2.0 * np.pi, n))
    return max(int(t[active.any(axis=other)].max(initial=0))
               for t, other in ((k, (1, 2)), (k, (0, 2)), (kz, (0, 1))))


def _reduced_size(kmax: int, n: int) -> int:
    """Smallest even fast FFT length m > 3*kmax (cubic products alias-free)."""
    target = 3 * kmax + 1
    if target >= n:
        return n
    m = max(target, 4)
    while True:
        fast = _fft.next_fast_len(m, real=True)
        if fast >= n:
            return n
        if fast % 2 == 0:
            return fast
        m = fast + 1


def _extract_spectrum(spec: np.ndarray, n: int, m: int) -> np.ndarray:
    """Cut an rfftn spectrum, or a mask over one, from an n-grid to an m-grid
    (m even, m < n), values unscaled; the m-grid's Nyquist planes stay empty."""
    half = m // 2
    out = np.zeros(spec.shape[:-3] + (m, m, half + 1), dtype=spec.dtype)
    pos = slice(0, half)
    neg_t = slice(half + 1, m)
    neg_s = slice(n - half + 1, n)
    cols = slice(0, half)
    out[..., pos, pos, cols] = spec[..., pos, pos, cols]
    out[..., pos, neg_t, cols] = spec[..., pos, neg_s, cols]
    out[..., neg_t, pos, cols] = spec[..., neg_s, pos, cols]
    out[..., neg_t, neg_t, cols] = spec[..., neg_s, neg_s, cols]
    return out


# (-1)^j / (2j + 1)! for j = 1..9: the Taylor series of sin(x) - x in powers
# of x^2; at |x| = 1 the first omitted term is 1.2e-19 of the leading one.
_SIN_SERIES = tuple((-1.0) ** j / float(np.prod(np.arange(1, 2 * j + 2))) for j in range(1, 10))


def _sin_minus_x(x: np.ndarray) -> np.ndarray:
    """sin(x) - x to full relative precision, by its Taylor series for |x| < 1."""
    out = np.sin(x) - x
    small = np.abs(x) < 1.0
    xs = x[small]
    x2 = xs * xs
    acc = np.full_like(xs, _SIN_SERIES[-1])
    for c in _SIN_SERIES[-2::-1]:
        acc = acc * x2 + c
    out[small] = acc * x2 * xs
    return out


@dataclass(frozen=True)
class CurlOf:
    """A ``StatsEngine`` field that is the spectral curl of the field ``name``.

    The engine takes i k x u^ from that field's spectrum on the reduced grid,
    within its active mask: the spectrum ``grid.curl`` transforms back, cut
    to that grid, without the round trip through the grid.  ``name`` must
    come before it in the fields.
    """

    name: str


class StatsEngine:
    """Increment statistics for a named set of fields on one grid.

    ``fields`` maps names to VectorField3 (or raw (3, n, n, n) arrays) or to
    ``CurlOf`` an earlier name; a None entry, an all-zero field and a field
    without modes besides its mean all stand for the zero field.  Names
    holding the same values share one set of component rows; raw arrays must
    be finite.  The given fields fix the reduced grid; each is cut to it once,
    with its active mask, and a curl is taken there.  ``increments``
    then costs at most one inverse pass per axis and separation vector, fewer
    when consecutive separations share components; on an alias-free grid
    (``alias_free``: m > 3*kmax) ``moments`` gives the third moments of the
    increments at many separations in one matrix product.  The sine-series
    rows behind it are built on first use, only for the component triples
    asked for, and kept for later calls.  ``evaluation`` names the path
    ``angular_term_sums`` takes: "sine-series" or "per-shift-fft".
    ``separations`` counts the separations evaluated, ``inverse_passes`` the
    inverse passes per axis, ``describe`` also the series rows and pair
    products built.
    """

    def __init__(self, grid: Grid3, fields: dict):
        self.grid = grid
        n = grid.n
        # First pass: each distinct given field is transformed once, and the
        # supports of their active masks fix kmax, hence m.
        given = []  # (values, spectrum, active mask) of each distinct given field with modes
        source = {}  # name -> index into given, None for the zero field, or a CurlOf
        for name, fld in fields.items():
            if isinstance(fld, CurlOf) and fld.name not in source:
                raise ValueError(f"field {name!r} is the curl of {fld.name!r}, "
                                 "which must come before it")
            source[name] = fld if isinstance(fld, CurlOf) else None
            if fld is None or isinstance(fld, CurlOf):
                continue
            values = fld.values if isinstance(fld, VectorField3) else np.asarray(fld)
            if values.shape != (3, n, n, n):
                raise ValueError(f"field {name!r} does not match the grid")
            if not (isinstance(fld, VectorField3) or np.isfinite(values).all()):
                raise ValueError(f"field {name!r} has non-finite values")
            source[name] = next((j for j, (seen, _, _) in enumerate(given)
                                 if seen is values or np.array_equal(seen, values)), None)
            if source[name] is None:
                spec = _fft.rfftn(values, axes=(1, 2, 3))
                active = _active_modes(spec)
                if active.any():
                    source[name] = len(given)
                    given.append((values, spec, active))
        self.kmax = max((_support_radius(active, n) for _, _, active in given), default=0)
        m = _reduced_size(self.kmax, n)
        self.m = m
        self.alias_free = m > 3 * self.kmax
        self.evaluation = "sine-series" if self.alias_free else "per-shift-fft"

        # Second pass, in the given order: each distinct field is cut to the
        # m-grid once, with its mask, and a curl is taken there from the cut
        # spectrum of its source, within the source's mask.
        blocks = []  # (spectrum, active mask) on the m-grid of each distinct field with modes
        block = {None: None}  # index into given, or ("curl", block) -> index into blocks
        owner = {}  # name -> index into blocks, or None for the zero field
        for name, src in source.items():
            if isinstance(src, CurlOf):
                src = None if owner[src.name] is None else ("curl", owner[src.name])
            if src not in block:
                if isinstance(src, tuple):
                    spec = _curl_spectrum(grid.length, blocks[src[1]][0])
                    active = _active_modes(spec) & blocks[src[1]][1]
                elif m < n:
                    spec = _extract_spectrum(given[src][1], n, m) * (m / n) ** 3
                    active = _extract_spectrum(given[src][2], n, m)
                else:
                    _, spec, active = given[src]
                block[src] = len(blocks) if active.any() else None
                if active.any():
                    blocks.append((spec, active))
            owner[name] = block[src]
        del given  # the full-grid spectra, not needed past the cut, before the copy below
        self._active = np.zeros((m, m, m // 2 + 1), dtype=bool)  # union of the masks
        for _, active in blocks:
            self._active |= active
        empty = np.zeros((0, m, m, m // 2 + 1), dtype=complex)
        self._spectra = np.concatenate([spec for spec, _ in blocks] or [empty])
        # The three component indices of each field in ``moments``; the extra
        # index len(self._spectra) stands for the zero field.
        zero = self._spectra.shape[0]
        self.components = {
            name: np.full(3, zero) if j is None else np.arange(3 * j, 3 * j + 3)
            for name, j in owner.items()
        }
        self._base = None  # field values on the reduced grid, on first use
        self._passes = None  # buffers of the last x pass and xy pass
        self._keys = (None, None)  # the l_x and (l_x, l_y) the buffers hold
        self._modes = None  # sine-series mode tables, on first use
        self._products = {}  # (t, u) -> pair-product coefficients, as built
        self._coeffs = None  # the G rows built so far, (rows, K)
        # Row of G that each (p, q, r) reads in ``moments``: -1 for a row not
        # built yet (it reads NaN), -2 for a triple touching the zero field.
        self._row_index = np.full((zero + 1,) * 3, -2)
        self._row_index[:zero, :zero, :zero] = -1
        self.separations = 0
        self.inverse_passes = {"x": 0, "xy": 0, "z": 0}

    def describe(self) -> dict:
        """The grid the engine used, the evaluation path it takes and the work
        it did so far."""
        return {
            "n": self.grid.n,
            "m": self.m,
            "kmax": self.kmax,
            "alias_free": self.alias_free,
            "evaluation": self.evaluation,
            "separations": self.separations,
            "inverse_passes": dict(self.inverse_passes),
            "series_rows": 0 if self._coeffs is None else self._coeffs.shape[0],
            "pair_products": len(self._products),
        }

    def increments(self, ell) -> dict[str, np.ndarray | None]:
        """Flat (3, m**3) increment arrays u(x + ell) - u(x) per field name.

        The zero field gets None: it has no increment array.
        """
        if self._base is None:
            self._base = self._shifted(np.zeros(3), count=False)
        delta = self._shifted(ell)
        delta -= self._base
        self.separations += 1
        zero = self._spectra.shape[0]
        return {name: None if p == zero else delta[p : p + 3]
                for name, (p, _, _) in self.components.items()}

    def _shifted(self, ell, count: bool = True) -> np.ndarray:
        """The fields at x + ell on the reduced grid, flat (C, m**3).

        The inverse transform runs one axis at a time, each pass after the
        phase factor of its axis.  The x pass depends on l_x only and the xy
        pass on (l_x, l_y), so each is kept, in a buffer reused between calls,
        and reused while those components repeat (exact float equality).
        ``count`` adds the passes made to ``inverse_passes``.
        """
        m = self.m
        px, py, pz = _axis_phases(self.grid, ell, m)
        if self._passes is None:
            self._passes = (np.empty_like(self._spectra), np.empty_like(self._spectra))
        x, xy = self._passes
        keys = (float(ell[0]), (float(ell[0]), float(ell[1])))
        made = {"x": keys[0] != self._keys[0], "xy": keys[1] != self._keys[1], "z": True}
        if made["x"]:
            x = _fft.ifft(np.multiply(self._spectra, px[:, None, None], out=x), axis=1,
                          overwrite_x=True)
        if made["xy"]:
            xy = _fft.ifft(np.multiply(x, py[:, None], out=xy), axis=2, overwrite_x=True)
        shifted = _fft.irfft(xy * pz, n=m, axis=3, overwrite_x=True)
        self._passes = (x, xy)
        self._keys = keys
        if count:
            for axis, done in made.items():
                self.inverse_passes[axis] += done
        return shifted.reshape(shifted.shape[0], -1)

    def _series_modes(self) -> tuple:
        """(active mask, wavevectors (K, 3), pair weights (K,), spectral
        coefficients (C, K), band-limited fields (C, m, m, m)) of the K active
        modes of all fields."""
        m = self.m
        active = self._active
        coeff = self._spectra[:, active] / m**3
        band = _fft.irfftn(
            np.where(active, self._spectra, 0.0), s=(m, m, m), axes=(1, 2, 3)
        )
        k, kz = _wavenumbers(self.grid.length, m)
        kx, ky, kz = np.meshgrid(k, k, kz, indexing="ij")
        kvec = np.stack([kx[active], ky[active], kz[active]], axis=1)
        pair = np.where(kz[active] == 0.0, -2.0, -4.0)
        return active, kvec, pair, coeff, band

    def _product(self, t: int, u: int) -> np.ndarray:
        """conj((tu)^) / m**3 at the active modes, for components t <= u."""
        if (t, u) not in self._products:
            active, _, _, _, band = self._modes
            spec = _fft.rfftn(band[t] * band[u])[active] / self.m**3
            self._products[t, u] = np.conj(spec)
        return self._products[t, u]

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
        same row, so permuted moments are bitwise equal.
        """
        if self._modes is None:
            self._modes = self._series_modes()
            self._coeffs = np.empty((0, self._modes[1].shape[0]))
        _, _, pair, coeff, _ = self._modes
        index = self._row_index
        new = sorted(t for t in {tuple(sorted(map(int, t))) for t in triples} if index[t] == -1)
        rows = []
        for p, q, r in new:
            split = (
                np.imag(coeff[p] * self._product(q, r))
                + np.imag(coeff[q] * self._product(p, r))
                + np.imag(coeff[r] * self._product(p, q))
            )
            for perm in itertools.permutations((p, q, r)):
                index[perm] = self._coeffs.shape[0] + len(rows)
            rows.append(pair * split)
        if rows:
            self._coeffs = np.concatenate([self._coeffs, rows])

    def moments(self, ells, triples=None) -> np.ndarray:
        """Increment third moments M[p, q, r, s] = <dp dq dr> at separations ells[s].

        Valid on alias-free grids only.  ``components`` gives each field's
        indices p, q, r; the last index of each axis is the zero field.
        ``triples`` lists the sorted (p, q, r) to build rows for, all of them
        by default; entries whose row was never built read NaN, never 0.0.
        """
        if not self.alias_free:
            raise ValueError("the sine series needs an alias-free grid (m > 3*kmax)")
        if triples is None:
            triples = itertools.combinations_with_replacement(range(self._spectra.shape[0]), 3)
        if triples or self._modes is None:
            self._build_rows(triples)
        kvec = self._modes[1]
        ells = np.asarray(ells, dtype=float).reshape(-1, 3)
        self.separations += ells.shape[0]
        phase = (
            kvec[:, 0:1] * ells[:, 0]
            + kvec[:, 1:2] * ells[:, 1]
            + kvec[:, 2:3] * ells[:, 2]
        )
        rows = self._coeffs @ _sin_minus_x(phase)
        unbuilt = np.full(ells.shape[0], np.nan)
        return np.vstack([rows, np.zeros(ells.shape[0]), unbuilt])[self._row_index]


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
    is exactly 0.0 and is not evaluated.
    """
    delta = {"a": da, "b": db}
    nd = {c: None if d is None else nhat @ d for c, d in delta.items()}

    def cube(p):
        if any(delta[c] is None for c in p):
            return 0.0
        x, y, z = (nd[c] for c in p)
        return float(x @ (y * z)) / x.size

    def trace(p):
        if any(delta[c] is None for c in p):
            return 0.0
        x, y, z = p
        return float(np.vdot(delta[y], delta[z] * nd[x])) / nd[x].size

    return _law_terms(law, cube, trace)


def _cube(mom, n3, x, y, z) -> np.ndarray:
    """Per direction, sum_ijk n_i n_j n_k M[x_i, y_j, z_k]."""
    return (n3 * mom[np.ix_(x, y, z)]).reshape(27, -1).sum(axis=0)


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


def angular_term_sums(engine: StatsEngine, requests, radii, dirs) -> dict[str, np.ndarray]:
    """Direction-weighted term means over a ladder of radii, for several laws at once.

    ``requests`` maps labels to (law, first_name, second_name) triples; each
    label gets a (len(radii), 5) array of (L1, L2, T1, T2, flux), one row per
    radius.  The rows each request reads are found and built once per call.
    On an alias-free grid the moments at every direction of one radius come
    from one sine series evaluation and are contracted per law; otherwise the
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
        nt = np.ascontiguousarray(nhat.T)
        n3 = nt[:, None, None] * nt[None, :, None] * nt[None, None, :]
        reads = {label: (law, engine.components[a], engine.components[b])
                 for label, (law, a, b) in requests.items()}
        engine._build_rows(set().union(*(_law_triples(*read) for read in reads.values())))
        for i, r in enumerate(radii):
            mom = engine.moments(r * nhat, ())
            for label, read in reads.items():
                sums[label][i] = (np.stack(_moment_terms(*read, mom, n3, nt)) * weights).sum(axis=1)
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
