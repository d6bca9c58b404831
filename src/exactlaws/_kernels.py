"""Shared engine for direction-resolved third-order increment statistics.

All law evaluations reduce to volume means of cubic increment kernels at
separations r*nhat, and every such kernel is a contraction of one tensor of
increment third moments, M_pqr(l) = <dp dq dr>, over the stacked components
of the input fields.  Because the kernels are cubic, their volume mean is
alias-free on any grid with more than 3*kmax points per axis, where kmax is
the largest active wavenumber of the input fields.  The engine therefore
restricts each field to its spectral support and works on the smallest
such grid (m points per axis).

Two evaluation paths share that reduced grid:

* sine series, when the grid is alias-free (m > 3*kmax).  For real fields
  M_pqr(l) is a sine series in k.l whose real coefficients are computed
  once per engine, so all directions at one radius cost one matrix product
  and no transform; the law's term means are contractions of M.
* per-shift FFT, otherwise.  Each separation costs one batched inverse
  transform of the shifted spectra and a pointwise kernel pass.  This is
  the case for full-spectrum input (e.g. white noise, m = n), where the
  report value is the grid average of the aliased cubic products; the sine
  series gives the continuous average instead, which differs there.

The per-law term means kept here are the building blocks shared by the
structure-function combinations (raw combos), the ball quadrature of the
dissipation functionals, and the radial shell form; keeping one source for
the kernel algebra makes the exact degeneracies (equal-field cancellations,
halving identities) hold to the last bit on both paths.
"""

from __future__ import annotations

from enum import Enum

import numpy as np
from scipy import fft as _fft

from .grid import Grid3, VectorField3, _shift_phase

__all__ = [
    "LawKind",
    "StatsEngine",
    "term_means",
    "raw_from_terms",
    "ball_node",
    "shell_node",
    "COMBINE_COEFFS",
    "SHELL_WEIGHTS",
]


class LawKind(str, Enum):
    """The four exact-law families."""

    HYDRO_ENERGY = "hydro-energy"
    HELICITY = "helicity"
    MHD_ENERGY = "mhd-energy"
    CROSS_HELICITY = "cross-helicity"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


# Flux coefficients (c_L, c_T) entering the combined values
# S_L = raw_L + c_L * raw_flux, S_T = raw_T + c_T * raw_flux.
COMBINE_COEFFS: dict[LawKind, tuple[float, float]] = {
    LawKind.HELICITY: (-0.4, 0.4),
    LawKind.MHD_ENERGY: (0.8, -0.8),
    LawKind.CROSS_HELICITY: (-0.8, 0.8),
    LawKind.HYDRO_ENERGY: (0.8, -0.8),
}

# Radial shell weights (a, b_T, b_F): the shell form of each dissipation
# functional is the quadrature of
#   4*pi * [ a * r^3 * dphi_eps(r) * S_main(r)
#            + r^2 * phi_eps(r) * (b_T * S_T(r) + b_F * S_flux(r)) ]
# where S_main is S_L for the L part and S_T for the T part.
SHELL_WEIGHTS: dict[LawKind, dict[str, tuple[float, float, float]]] = {
    LawKind.HELICITY: {"L": (0.75, 1.5, 1.5), "T": (0.375, -0.75, -0.75)},
    LawKind.MHD_ENERGY: {"L": (0.75, 1.5, -3.0), "T": (0.375, -0.75, 1.5)},
    LawKind.CROSS_HELICITY: {"L": (0.75, 1.5, 3.0), "T": (0.375, -0.75, -1.5)},
    LawKind.HYDRO_ENERGY: {"L": (0.75, 1.5, -3.0), "T": (0.375, -0.75, 1.5)},
}

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
    signed = np.rint(np.fft.fftfreq(n, 1.0 / n)).astype(int)
    k = 0
    ax0 = active.any(axis=(1, 2))
    if ax0.any():
        k = max(k, int(np.abs(signed[ax0]).max()))
    ax1 = active.any(axis=(0, 2))
    if ax1.any():
        k = max(k, int(np.abs(signed[ax1]).max()))
    ax2 = active.any(axis=(0, 1))
    if ax2.any():
        k = max(k, int(np.nonzero(ax2)[0].max()))
    return k


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
    """Restrict an rfftn spectrum from an n-grid to an m-grid (m even, m < n)."""
    half = m // 2
    out = np.zeros(spec.shape[:-3] + (m, m, half + 1), dtype=complex)
    pos = slice(0, half)
    neg_t = slice(half + 1, m)
    neg_s = slice(n - half + 1, n)
    cols = slice(0, half)
    out[..., pos, pos, cols] = spec[..., pos, pos, cols]
    out[..., pos, neg_t, cols] = spec[..., pos, neg_s, cols]
    out[..., neg_t, pos, cols] = spec[..., neg_s, pos, cols]
    out[..., neg_t, neg_t, cols] = spec[..., neg_s, neg_s, cols]
    out *= (m / n) ** 3
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


class StatsEngine:
    """Increment statistics for a named set of fields on one grid.

    ``fields`` maps names to VectorField3 (or raw (3, n, n, n) arrays); a
    None entry, an all-zero field and a field without modes besides its mean
    all stand for the zero field.  Names holding the same values share one
    set of component rows.  All fields are restricted to the union of their
    spectral supports once.  ``increments`` then costs one small batched
    inverse transform per separation vector; on an alias-free grid
    (``alias_free``: m > 3*kmax) ``moments`` gives the third moments of the
    increments at many separations in one matrix product.  ``evaluation``
    names the path ``angular_term_sums`` takes: "sine-series" or
    "per-shift-fft".
    """

    def __init__(self, grid: Grid3, fields: dict):
        self.grid = grid
        self.names = list(fields)
        n = grid.n
        kmax = 0
        distinct = []  # (values, spectrum) of each distinct field with modes
        owner = {}  # name -> index into distinct, or None for the zero field
        for name, fld in fields.items():
            owner[name] = None
            if fld is None:
                continue
            values = fld.values if isinstance(fld, VectorField3) else np.asarray(fld)
            if values.shape != (3, n, n, n):
                raise ValueError(f"field {name!r} does not match the grid")
            owner[name] = next(
                (j for j, (seen, _) in enumerate(distinct)
                 if seen is values or np.array_equal(seen, values)),
                None,
            )
            if owner[name] is not None:
                continue
            spec = _fft.rfftn(values, axes=(1, 2, 3))
            active = _active_modes(spec)
            if active.any():
                owner[name] = len(distinct)
                distinct.append((values, spec))
                kmax = max(kmax, _support_radius(active, n))
        self.kmax = kmax
        m = _reduced_size(kmax, n)
        self.m = m
        self.npoints = m**3
        self.alias_free = m > 3 * kmax
        self.evaluation = "sine-series" if self.alias_free else "per-shift-fft"

        stacked = [spec if m == n else _extract_spectrum(spec, n, m) for _, spec in distinct]
        if stacked:
            self._spectra = np.concatenate(stacked, axis=0)
        else:
            self._spectra = np.zeros((0, m, m, m // 2 + 1), dtype=complex)
        self._slices = {
            name: None if j is None else slice(3 * j, 3 * j + 3) for name, j in owner.items()
        }
        # The three component indices of each field in ``moments``; the extra
        # index len(self._spectra) stands for the zero field.
        zero = self._spectra.shape[0]
        self.components = {
            name: np.full(3, zero) if sl is None else np.arange(sl.start, sl.stop)
            for name, sl in self._slices.items()
        }
        self._zero = np.zeros((3, self.npoints))
        self._zero.setflags(write=False)
        self._base = None  # field values on the reduced grid, on first use
        self._series = None  # sine-series tables, on first use

    def describe(self) -> dict:
        """The grid the engine used and the evaluation path it takes."""
        return {
            "n": self.grid.n,
            "m": self.m,
            "kmax": self.kmax,
            "alias_free": self.alias_free,
            "evaluation": self.evaluation,
        }

    def increments(self, ell) -> dict[str, np.ndarray]:
        """Flat (3, m**3) increment arrays u(x + ell) - u(x) per field name."""
        m = self.m
        if self._base is None:
            base = _fft.irfftn(self._spectra, s=(m, m, m), axes=(1, 2, 3))
            self._base = np.ascontiguousarray(base.reshape(base.shape[0], -1))
        phase = _shift_phase(self.grid, ell, m)
        shifted = _fft.irfftn(self._spectra * phase, s=(m, m, m), axes=(1, 2, 3))
        delta = shifted.reshape(shifted.shape[0], -1) - self._base
        out = {}
        for name, sl in self._slices.items():
            out[name] = self._zero if sl is None else delta[sl]
        return out

    def _sine_series(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(wavevectors (K, 3), coefficients G (rows, K), index (C+1,)*3) of
        M_pqr(l) = G[index[p, q, r]] . (sin(k.l) - k.l) over the K active modes.

        For real fields whose cubic products are alias-free on the grid,
          M_pqr(l) = sum over the splits (s | tu) of C(l) - C(-l),
          C(l) = <s(x + l) t(x) u(x)> = sum_k s^(k) conj((tu)^(k)) exp(i k.l),
        and each +-k pair of the half spectrum contributes
        -4 Im(s^ conj((tu)^)) sin(k.l), or -2 per mode on the kz = 0 plane
        where both members appear.  The fields are cut to the active modes
        first, so the identity holds exactly; then M = O(l^3), the linear part
        sum_k G_k k.l vanishes, and dropping it keeps full relative precision
        at small separations, where the sine terms would cancel.  Only the
        distinct sorted rows p <= q <= r are stored; ``index`` maps every
        (p, q, r), in any order, onto its row, so permuted moments are
        bitwise equal.
        """
        m = self.m
        comps = self._spectra.shape[0]
        active = np.zeros((m, m, m // 2 + 1), dtype=bool)
        for j in range(0, comps, 3):
            active |= _active_modes(self._spectra[j : j + 3])
        coeff = self._spectra[:, active] / m**3
        band = _fft.irfftn(
            np.where(active, self._spectra, 0.0), s=(m, m, m), axes=(1, 2, 3)
        )
        prods = {}
        for t in range(comps):
            for u in range(t, comps):
                prods[t, u] = np.conj(_fft.rfftn(band[t] * band[u])[active] / m**3)
        k1 = 2.0 * np.pi * np.fft.fftfreq(m, d=self.grid.length / m)
        k3 = 2.0 * np.pi * np.fft.rfftfreq(m, d=self.grid.length / m)
        kx, ky, kz = np.meshgrid(k1, k1, k3, indexing="ij")
        kvec = np.stack([kx[active], ky[active], kz[active]], axis=1)
        pair = np.where(kz[active] == 0.0, -2.0, -4.0)

        rows = []
        row_of = np.zeros((comps,) * 3, dtype=int)
        for p in range(comps):
            for q in range(p, comps):
                for r in range(q, comps):
                    split = (
                        np.imag(coeff[p] * prods[q, r])
                        + np.imag(coeff[q] * prods[p, r])
                        + np.imag(coeff[r] * prods[p, q])
                    )
                    row_of[p, q, r] = len(rows)
                    rows.append(pair * split)
        coeffs = np.array(rows).reshape(len(rows), kvec.shape[0])
        # Every index triple reads the row of its sorted triple; triples that
        # touch the zero field (index comps) read the appended zero row.
        index = np.full((comps + 1,) * 3, len(rows))
        srt = np.sort(np.indices((comps,) * 3).reshape(3, -1), axis=0)
        index[:comps, :comps, :comps] = row_of[srt[0], srt[1], srt[2]].reshape((comps,) * 3)
        return kvec, coeffs, index

    def moments(self, ells) -> np.ndarray:
        """Increment third moments M[p, q, r, s] = <dp dq dr> at separations ells[s].

        Valid on alias-free grids only.  ``components`` gives each field's
        indices p, q, r; the last index of each axis is the zero field.
        """
        if not self.alias_free:
            raise ValueError("the sine series needs an alias-free grid (m > 3*kmax)")
        if self._series is None:
            self._series = self._sine_series()
        kvec, coeffs, index = self._series
        ells = np.asarray(ells, dtype=float).reshape(-1, 3)
        phase = (
            kvec[:, 0:1] * ells[:, 0]
            + kvec[:, 1:2] * ells[:, 1]
            + kvec[:, 2:3] * ells[:, 2]
        )
        rows = coeffs @ _sin_minus_x(phase)
        rows = np.concatenate([rows, np.zeros((1, ells.shape[0]))])
        return rows[index]


def _dot3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("cm,cm->m", a, b)


def term_means(law: LawKind, da, db, nhat) -> tuple[float, float, float, float, float]:
    """Angular means (L1, L2, T1, T2, flux) of the law's kernel pieces.

    ``da`` is the increment of the primary (velocity-like) field, ``db`` of
    the paired field, both flat (3, M).  The five numbers are volume means of
      L1: n.da times the longitudinal scalar pair of the first kernel,
      L2:          ... of the second kernel,
      T1, T2: their transverse counterparts,
      flux: the lagged triple product, via the BAC-CAB expansion.
    """
    nd_a = nhat @ da
    nd_b = nhat @ db
    aa = _dot3(da, da)
    ab = _dot3(da, db)
    if law is LawKind.HELICITY:
        l1 = nd_a * (nd_a * nd_b)
        l2 = nd_b * (nd_a * nd_a)
        t1 = nd_a * (ab - nd_a * nd_b)
        t2 = nd_b * (aa - nd_a * nd_a)
        fx = nd_b * aa - nd_a * ab
    elif law in (LawKind.MHD_ENERGY, LawKind.HYDRO_ENERGY):
        bb = _dot3(db, db)
        l1 = nd_a * (nd_a * nd_a + nd_b * nd_b)
        l2 = nd_b * (nd_a * nd_b)
        t1 = nd_a * ((aa - nd_a * nd_a) + (bb - nd_b * nd_b))
        t2 = nd_b * (ab - nd_a * nd_b)
        fx = nd_a * bb - nd_b * ab
    elif law is LawKind.CROSS_HELICITY:
        bb = _dot3(db, db)
        l1 = nd_a * (nd_b * nd_a)
        l2 = nd_b * (nd_b * nd_b + nd_a * nd_a)
        t1 = nd_a * (ab - nd_b * nd_a)
        t2 = nd_b * ((bb - nd_b * nd_b) + (aa - nd_a * nd_a))
        fx = nd_b * aa - nd_a * ab
    else:  # pragma: no cover - enum is exhaustive
        raise ValueError(f"unknown law {law}")
    return (
        float(np.mean(l1)),
        float(np.mean(l2)),
        float(np.mean(t1)),
        float(np.mean(t2)),
        float(np.mean(fx)),
    )


def _cube(mom, n3, x, y, z) -> np.ndarray:
    """Per direction, sum_ijk n_i n_j n_k M[x_i, y_j, z_k]."""
    return (n3 * mom[np.ix_(x, y, z)]).reshape(27, -1).sum(axis=0)


def _trace(mom, nt, x, y, z) -> np.ndarray:
    """Per direction, sum_k n_k sum_i M[x_k, y_i, z_i]."""
    return (nt * mom[x[:, None], y[None, :], z[None, :]].sum(axis=1)).sum(axis=0)


def _moment_terms(law: LawKind, mom, n3, nt, a, b) -> tuple:
    """Per-direction (L1, L2, T1, T2, flux) of ``term_means`` contracted from M.

    ``a`` and ``b`` are the component indices of the two fields.  Each piece
    comes from one ``_cube`` or ``_trace`` call, so equal fields give equal
    pieces bit for bit and the law's exact cancellations survive.
    """
    cube = lambda x, y, z: _cube(mom, n3, x, y, z)
    trace = lambda x, y, z: _trace(mom, nt, x, y, z)
    if law is LawKind.HELICITY:
        l1, l2 = cube(a, a, b), cube(b, a, a)
        tr_ab, tr_ba = trace(a, a, b), trace(b, a, a)
        return l1, l2, tr_ab - l1, tr_ba - l2, tr_ba - tr_ab
    if law in (LawKind.MHD_ENERGY, LawKind.HYDRO_ENERGY):
        aaa, abb, bab = cube(a, a, a), cube(a, b, b), cube(b, a, b)
        tr_abb, tr_bab = trace(a, b, b), trace(b, a, b)
        t1 = (trace(a, a, a) - aaa) + (tr_abb - abb)
        return aaa + abb, bab, t1, tr_bab - bab, tr_abb - tr_bab
    if law is LawKind.CROSS_HELICITY:
        aba, bbb, baa = cube(a, b, a), cube(b, b, b), cube(b, a, a)
        tr_ab, tr_ba = trace(a, a, b), trace(b, a, a)
        t2 = (trace(b, b, b) - bbb) + (tr_ba - baa)
        return aba, bbb + baa, tr_ab - aba, t2, tr_ba - tr_ab
    raise ValueError(f"unknown law {law}")  # pragma: no cover - enum is exhaustive


def _antipodal_half(dirs) -> tuple[np.ndarray, np.ndarray]:
    """One direction of each antipodal pair and the pair's summed weight.

    M is odd in the separation, so every term mean is even in nhat, and the
    directions +-n together contribute their summed weight times one value.
    """
    groups: dict = {}
    for d, w in zip(dirs.directions, dirs.weights):
        key = max(tuple(d), tuple(-d))
        groups[key] = groups.get(key, 0.0) + w
    return np.array(list(groups)), np.array(list(groups.values()))


def angular_term_sums(engine: StatsEngine, requests, r: float, dirs):
    """Direction-weighted term means at separation r for several laws at once.

    ``requests`` maps labels to (law, first_name, second_name) triples.  On
    an alias-free grid the moments at every direction come from one sine
    series evaluation and are contracted per law; otherwise the increments
    are computed once per direction and shared by ``term_means``.
    Accumulation order is fixed for bit-reproducibility.
    """
    if engine.evaluation == "sine-series":
        nhat, weights = _antipodal_half(dirs)
        nt = np.ascontiguousarray(nhat.T)
        n3 = nt[:, None, None] * nt[None, :, None] * nt[None, None, :]
        mom = engine.moments(r * nhat)
        comps = engine.components
        sums = {}
        for label, (law, name_a, name_b) in requests.items():
            terms = _moment_terms(law, mom, n3, nt, comps[name_a], comps[name_b])
            weighted = np.stack(terms) * weights
            sums[label] = tuple(float(x) for x in weighted.sum(axis=1))
        return sums
    sums = {label: (0.0, 0.0, 0.0, 0.0, 0.0) for label in requests}
    for nhat, w in zip(dirs.directions, dirs.weights):
        deltas = engine.increments(r * nhat)
        for label, (law, name_a, name_b) in requests.items():
            tm = term_means(law, deltas[name_a], deltas[name_b], nhat)
            acc = sums[label]
            sums[label] = (
                acc[0] + w * tm[0],
                acc[1] + w * tm[1],
                acc[2] + w * tm[2],
                acc[3] + w * tm[3],
                acc[4] + w * tm[4],
            )
    return sums


def raw_from_terms(law: LawKind, terms, r: float) -> tuple[float, float, float]:
    """Assemble (raw_L, raw_T, raw_flux) from direction-summed term means."""
    l1, l2, t1, t2, fx = terms
    if law is LawKind.HELICITY:
        raw_l = (l1 - 0.5 * l2) / r
        raw_t = (t1 - 0.5 * t2) / r
    elif law in (LawKind.MHD_ENERGY, LawKind.HYDRO_ENERGY):
        raw_l = (l1 - 2.0 * l2) / r
        raw_t = (t1 - 2.0 * t2) / r
    else:
        raw_l = (2.0 * l1 - l2) / r
        raw_t = (2.0 * t1 - t2) / r
    return raw_l, raw_t, fx / r


def ball_node(law: LawKind, part: str, terms, phi: float, dphi: float, r: float) -> float:
    """Angular content of the ball integrand at radius r, as displayed.

    Multiplied by 4*pi*r^2 and the radial weight this yields the ball
    quadrature of the dissipation functional.  The groupings mirror the
    functional definitions term by term, so equal-field cancellations are
    exact in floating point.
    """
    l1, l2, t1, t2, fx = terms
    g = 2.0 * phi / r
    if law is LawKind.HELICITY:
        if part == "L":
            return 0.75 * (dphi * l1 + g * (t1 + fx)) - 0.375 * (dphi * l2 + g * t2)
        return 0.375 * (dphi * t1 - g * (t1 + fx)) - 0.1875 * (dphi * t2 - g * t2)
    if law in (LawKind.MHD_ENERGY, LawKind.HYDRO_ENERGY):
        if part == "L":
            return (
                0.75 * (dphi * l1 + g * t1)
                - 1.5 * (dphi * l2 + g * t2)
                - 3.0 * (phi / r) * fx
            )
        return (
            0.375 * (dphi * t1 - g * t1)
            - 0.75 * (dphi * t2 - g * t2)
            + 1.5 * (phi / r) * fx
        )
    if part == "L":
        return 1.5 * (dphi * l1 + g * (t1 + fx)) - 0.75 * (dphi * l2 + g * t2)
    return 0.75 * (dphi * t1 - g * (t1 + fx)) - 0.375 * (dphi * t2 - g * t2)


def shell_node(
    law: LawKind,
    part: str,
    raw_l: float,
    raw_t: float,
    raw_flux: float,
    phi: float,
    dphi: float,
    r: float,
) -> float:
    """Radial shell integrand (without the 4*pi and the radial weight)."""
    a, b_t, b_f = SHELL_WEIGHTS[law][part]
    main = raw_l if part == "L" else raw_t
    return a * r**3 * dphi * main + r * r * phi * (b_t * raw_t + b_f * raw_flux)


def check_part(part: str) -> str:
    if part not in ("L", "T"):
        raise ValueError("part must be 'L' or 'T'")
    return part
