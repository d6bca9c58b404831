"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the library's evaluation machinery:
shifted fields come from direct evaluation of the trigonometric interpolant
built with explicit DFT matrices, projections apply the n (x) n matrix,
flux kernels use literal cross products, and averages are plain sums.  The
cost is O(n^6) per shift, which is fine for the small grids the oracle
comparisons run on.  The one exception, ``law_triples_by_replay``, replays
the library's own kernel algebra to record which moments it reads.
"""

import numpy as np


def dft_coefficients(values):
    """Forward DFT of (..., n, n, n) real samples via explicit matrices."""
    n = values.shape[-1]
    F = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
    out = np.tensordot(values, F.T, axes=([-3], [0]))  # x-axis -> last
    out = np.tensordot(out, F.T, axes=([-3], [0]))
    out = np.tensordot(out, F.T, axes=([-3], [0]))
    return out  # axes restored in order (..., kx, ky, kz)


def shifted_field(values, grid, ell):
    """u(x + ell) from the interpolant; real part of the full mode sum."""
    n = grid.n
    coeffs = dft_coefficients(values)
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=grid.spacing)
    x = grid.axis()
    mats = [np.exp(1j * np.outer(x + ell[axis], k)) for axis in range(3)]
    out = np.tensordot(coeffs, mats[0].T, axes=([-3], [0]))
    out = np.tensordot(out, mats[1].T, axes=([-3], [0]))
    out = np.tensordot(out, mats[2].T, axes=([-3], [0]))
    return out.real / n**3


def naive_raw_combos(law, v, w, r, dirs):
    """Direction/volume-averaged raw combos by the book.

    ``law`` is the LawKind value string; ``w`` may be None for the
    hydrodynamic energy law.  Returns (raw_L, raw_T, raw_flux).
    """
    grid = v.grid
    vv = v.values
    ww = np.zeros_like(vv) if w is None else w.values
    raw_l = raw_t = raw_f = 0.0
    for nhat, weight in zip(dirs.directions, dirs.weights):
        ell = r * nhat
        dv = shifted_field(vv, grid, ell) - vv
        dw = shifted_field(ww, grid, ell) - ww
        proj = np.outer(nhat, nhat)
        dv_l = np.einsum("ij,jxyz->ixyz", proj, dv)
        dv_t = dv - dv_l
        dw_l = np.einsum("ij,jxyz->ixyz", proj, dw)
        dw_t = dw - dw_l
        dot = lambda a, b: np.einsum("cxyz,cxyz->xyz", a, b)
        if law == "helicity":
            kern_l = dv * dot(dv_l, dw_l) - 0.5 * dw * dot(dv_l, dv_l)
            kern_t = dv * dot(dv_t, dw_t) - 0.5 * dw * dot(dv_t, dv_t)
            kern_f = np.cross(dv, np.cross(dw, dv, axis=0), axis=0)
        elif law in ("mhd-energy", "hydro-energy"):
            kern_l = dv * (dot(dv_l, dv_l) + dot(dw_l, dw_l)) - 2.0 * dw * dot(dv_l, dw_l)
            kern_t = dv * (dot(dv_t, dv_t) + dot(dw_t, dw_t)) - 2.0 * dw * dot(dv_t, dw_t)
            kern_f = np.cross(dw, np.cross(dv, dw, axis=0), axis=0)
        elif law == "cross-helicity":
            kern_l = 2.0 * dv * dot(dw_l, dv_l) - dw * (dot(dw_l, dw_l) + dot(dv_l, dv_l))
            kern_t = 2.0 * dv * dot(dw_t, dv_t) - dw * (dot(dw_t, dw_t) + dot(dv_t, dv_t))
            kern_f = np.cross(dv, np.cross(dw, dv, axis=0), axis=0)
        else:
            raise ValueError(law)
        size = vv[0].size
        raw_l += weight * float(np.sum(np.einsum("c,cxyz->xyz", nhat, kern_l))) / size
        raw_t += weight * float(np.sum(np.einsum("c,cxyz->xyz", nhat, kern_t))) / size
        raw_f += weight * float(np.sum(np.einsum("c,cxyz->xyz", nhat, kern_f))) / size
    return raw_l / r, raw_t / r, raw_f / r


def naive_yaglom(v, w, r, dirs):
    """(1/r) <(n.dv)(dv.dw) - (1/2)(n.dw)|dv|^2> by direct evaluation."""
    grid = v.grid
    vv, ww = v.values, w.values
    total = 0.0
    for nhat, weight in zip(dirs.directions, dirs.weights):
        ell = r * nhat
        dv = shifted_field(vv, grid, ell) - vv
        dw = shifted_field(ww, grid, ell) - ww
        nd_v = np.einsum("c,cxyz->xyz", nhat, dv)
        nd_w = np.einsum("c,cxyz->xyz", nhat, dw)
        vw = np.einsum("cxyz,cxyz->xyz", dv, dw)
        v2 = np.einsum("cxyz,cxyz->xyz", dv, dv)
        total += weight * float(np.sum(nd_v * vw - 0.5 * nd_w * v2)) / vv[0].size
    return total / r


def naive_fourthirds(v, r, dirs):
    """(1/r) <(n.dv)|dv|^2> by direct evaluation."""
    grid = v.grid
    vv = v.values
    total = 0.0
    for nhat, weight in zip(dirs.directions, dirs.weights):
        dv = shifted_field(vv, grid, r * nhat) - vv
        nd_v = np.einsum("c,cxyz->xyz", nhat, dv)
        v2 = np.einsum("cxyz,cxyz->xyz", dv, dv)
        total += weight * float(np.sum(nd_v * v2)) / vv[0].size
    return total / r


def antipodal_half(dirs):
    """One direction of each antipodal pair and the pair's summed weight, by a
    plain loop over the set: pairs in order of first appearance, the larger
    of +-d as the representative, weights summed in set order."""
    groups = {}
    for d, w in zip(dirs.directions, dirs.weights):
        key = max(tuple(d), tuple(-d))
        groups[key] = groups.get(key, 0.0) + w
    return np.array(list(groups)), np.array(list(groups.values()))


def law_triples_by_replay(law, a, b):
    """The sorted component triples of M that the law's kernel algebra reads,
    found by running ``_kernels._law_terms`` with cube and trace callbacks
    that record the entries of M they would contract: M[x_i, y_j, z_k] for a
    cube piece over "xyz", M[x_k, y_i, z_i] for a trace piece.  ``a`` and
    ``b`` are the component indices of the two fields."""
    from exactlaws import _kernels

    comps = {"a": a, "b": b}
    read = set()

    def cube_index(x, y, z):
        return np.ix_(x, y, z)

    def trace_index(x, y, z):
        return x[:, None], y[None, :], z[None, :]

    def record(index_of, pattern):
        index = np.broadcast_arrays(*index_of(*(comps[c] for c in pattern)))
        read.update(zip(*(i.ravel().tolist() for i in index)))
        return 0.0

    _kernels._law_terms(law, lambda p: record(cube_index, p), lambda p: record(trace_index, p))
    return {tuple(sorted(t)) for t in read}
