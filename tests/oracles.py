"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the library's evaluation machinery:
shifted fields come from direct evaluation of the trigonometric interpolant
built with explicit DFT matrices, projections apply the n (x) n matrix,
flux kernels use literal cross products, and averages are plain sums.  The
cost is O(n^6) per shift, which is fine for the small grids the oracle
comparisons run on.  Two exceptions reuse library code on purpose:
``law_triples_by_replay`` replays the library's own kernel algebra to record
which moments it reads, and ``synthesize_full_grid`` is the field generator
as it ran on the whole half-spectrum, the bitwise reference for the band-box
generator.
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


def synthesize_full_grid(grid, spec, rng):
    """``synth._synthesize`` on the whole half-spectrum: band mask, Leray
    projection, shell shaping and the inverse transform over all n^2 (n/2 + 1)
    modes.  It draws the same noise and runs the same transforms as the
    library, so it gives the same field bit for bit."""
    from exactlaws.grid import VectorField3, _irfftn, _leray, _rfftn

    spec.validate_for(grid)
    n = grid.n
    vh = _rfftn(rng.standard_normal((3, n, n, n)))

    m = np.fft.fftfreq(n, d=1.0 / n)
    mz = np.fft.rfftfreq(n, d=1.0 / n)
    mx = m[:, None, None]
    my = m[None, :, None]
    mzz = mz[None, None, :]
    shell = np.rint(np.sqrt(mx * mx + my * my + mzz * mzz)).astype(int)
    band = (shell >= spec.kmin) & (shell <= spec.kmax)
    vh *= band

    _leray(vh, mx, my, mzz)

    weight = np.full(shell.shape, 2.0)
    weight[:, :, 0] = 1.0
    weight[:, :, -1] = 1.0
    power = np.abs(vh[0]) ** 2
    for c in vh[1:]:
        power += np.abs(c) ** 2
    e_mode = 0.5 * weight * power
    smax = spec.kmax
    current = np.zeros(smax + 1)
    np.add.at(current, shell.clip(0, smax).ravel(), (e_mode * band).ravel())
    target = np.array(
        [float(s) ** spec.slope if spec.kmin <= s <= smax else 0.0 for s in range(smax + 1)]
    )
    factor = np.zeros(smax + 1)
    nonzero = current > 0
    factor[nonzero] = np.sqrt(target[nonzero] / current[nonzero])
    vh *= factor[shell.clip(0, smax)] * band

    v = _irfftn(vh, n)
    del vh
    sq = v[0] * v[0]
    for c in v[1:]:
        sq += c * c
    v *= spec.rms / np.sqrt(np.mean(sq))
    return VectorField3(grid, v)
