"""Independent reference values for the structure-function sweeps.

Nothing here calls into ``exactlaws``: field files are parsed directly, the
direction set is rebuilt from the icosahedron, and the third-moment tensor of
the increments, M_pqr(l) = <dp dq dr>, comes from one of two algorithms that
share no code with the program's per-shift engine:

* ``moments_sine_series`` (band-limited fields on an alias-free grid).  For
  real periodic fields the expansion of the cubic increment collapses to
  M_pqr(l) = sum over the three splits (s | tu) of C(l) - C(-l), with
  C(l) = <s(x + l) t(x) u(x)> = sum_k s^(k) conj((tu)^(k)) exp(i k.l),
  so every separation is one real dot product with a sine table.
* ``moments_brute_force`` (any grid, including aliased full-spectrum
  fields).  Each separation shifts the full field with complex numpy FFTs
  (cosine convention on the Nyquist planes, as the grid uses) and averages
  the products directly.

``sweep_rows`` then contracts M with each direction into the law's raw and
combined values and averages over directions.
"""

from __future__ import annotations

import struct

import numpy as np

# A value passes when |got - ref| <= TOLERANCE * max|ref| over its column.
# The two reference algorithms agree with the program's per-shift engine to
# within 2e-13 of the column maximum (sums reordered, different transforms).
# A dropped direction or negated flux coefficients move some column by more
# than 5e-2 of its maximum on these workloads.  1e-9 sits well over three
# decades inside each side.
TOLERANCE = 1e-9

COLUMNS = ("raw_L", "raw_T", "raw_flux", "S_L", "S_T")

# Flux coefficients (c_L, c_T) in S_L = raw_L + c_L raw_flux, S_T = raw_T + c_T raw_flux.
FLUX_COEFFS = {"helicity": (-0.4, 0.4), "hydro-energy": (0.8, -0.8)}


def read_exl1(path) -> tuple[np.ndarray, float]:
    """(values (3, n, n, n), length) of a 3-component EXL1 file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    head = struct.Struct("<IIdI")
    if raw[:4] != b"EXL1":
        raise ValueError(f"{path} is not an EXL1 file")
    _, n, length, ncomp = head.unpack_from(raw, 4)
    if ncomp != 3:
        raise ValueError(f"{path} holds {ncomp} components, not 3")
    flat = np.frombuffer(raw, dtype="<f8", offset=4 + head.size, count=3 * n**3)
    return flat.reshape((3, n, n, n)).transpose(0, 3, 2, 1).copy(), length


def icosa_directions(level: int) -> np.ndarray:
    """Unit vertices of the icosahedron subdivided ``level`` times."""
    phi = (1.0 + 5.0**0.5) / 2.0
    base = []
    for a in (-1.0, 1.0):
        for b in (-phi, phi):
            base += [(0.0, a, b), (a, b, 0.0), (b, 0.0, a)]
    verts = [np.array(v) / np.linalg.norm(v) for v in base]
    edge = min(np.linalg.norm(verts[0] - v) for v in verts[1:])
    close = lambda i, j: abs(np.linalg.norm(verts[i] - verts[j]) - edge) < 1e-9
    faces = [
        (i, j, k)
        for i in range(12)
        for j in range(i + 1, 12)
        for k in range(j + 1, 12)
        if close(i, j) and close(j, k) and close(i, k)
    ]
    for _ in range(level):
        mids: dict = {}

        def mid(i, j):
            key = (min(i, j), max(i, j))
            if key not in mids:
                p = verts[i] + verts[j]
                verts.append(p / np.linalg.norm(p))
                mids[key] = len(verts) - 1
            return mids[key]

        faces = [
            f
            for a, b, c in faces
            for f in ((a, mid(a, b), mid(c, a)), (b, mid(b, c), mid(a, b)),
                      (c, mid(c, a), mid(b, c)), (mid(a, b), mid(b, c), mid(c, a)))
        ]
    return np.array(verts)


def spectral_curl(values: np.ndarray, length: float) -> np.ndarray:
    n = values.shape[-1]
    k = 2.0 * np.pi / length * np.fft.fftfreq(n, 1.0 / n)
    k[n // 2] = 0.0
    kx, ky, kz = np.meshgrid(k, k, k, indexing="ij")
    vh = np.fft.fftn(values, axes=(1, 2, 3))
    wh = 1j * np.stack([ky * vh[2] - kz * vh[1], kz * vh[0] - kx * vh[2], kx * vh[1] - ky * vh[0]])
    return np.fft.ifftn(wh, axes=(1, 2, 3)).real


def moments_sine_series(fields: np.ndarray, length: float, ells: np.ndarray) -> np.ndarray:
    """M (S, C, C, C) at separations ``ells`` (S, 3); exact when n > 3 kmax."""
    c, n = fields.shape[0], fields.shape[-1]
    spec = np.fft.rfftn(fields, axes=(1, 2, 3)) / n**3
    amp = np.abs(spec).max(axis=0)
    mask = amp > 1e-13 * amp.max()
    kx, ky, kz = np.meshgrid(
        np.fft.fftfreq(n, 1.0 / n), np.fft.fftfreq(n, 1.0 / n), np.fft.rfftfreq(n, 1.0 / n),
        indexing="ij",
    )
    kvec = 2.0 * np.pi / length * np.stack([kx[mask], ky[mask], kz[mask]], axis=1)
    # Each +-k pair appears once in the half spectrum, twice on the kz = 0 and
    # Nyquist planes; the pair sum of s^ conj(X^) 2i sin(k.l) is -4 Im(.) sin(k.l).
    pair = np.where((kz[mask] == 0) | (kz[mask] == n // 2), -2.0, -4.0)
    sines = np.sin(kvec @ ells.T)  # (modes, S)
    s_hat = spec[:, mask]
    split = np.empty((c, c, c, ells.shape[0]))  # split[s, t, u] = C_s,tu(l) - C_s,tu(-l)
    for t in range(c):
        for u in range(t, c):
            tu_hat = np.fft.rfftn(fields[t] * fields[u])[mask] / n**3
            split[:, t, u] = (pair * np.imag(s_hat * np.conj(tu_hat))) @ sines
            split[:, u, t] = split[:, t, u]
    moments = split + split.transpose(1, 0, 2, 3) + split.transpose(2, 1, 0, 3)
    return np.moveaxis(moments, -1, 0)


def moments_brute_force(fields: np.ndarray, length: float, ells: np.ndarray) -> np.ndarray:
    """M (S, C, C, C) as grid averages of products of spectrally shifted fields."""
    n = fields.shape[-1]
    k = 2.0 * np.pi / length * np.fft.fftfreq(n, 1.0 / n)
    spec = np.fft.fftn(fields, axes=(1, 2, 3))
    out = np.empty((ells.shape[0],) + (fields.shape[0],) * 3)
    for s, ell in enumerate(ells):
        phases = []
        for axis in range(3):
            p = np.exp(1j * k * ell[axis])
            p[n // 2] = np.cos(k[n // 2] * ell[axis])
            phases.append(p)
        phase = phases[0][:, None, None] * phases[1][None, :, None] * phases[2][None, None, :]
        delta = np.fft.ifftn(spec * phase, axes=(1, 2, 3)).real - fields
        flat = delta.reshape(delta.shape[0], -1)
        out[s] = np.einsum("pm,qm,rm->pqr", flat, flat, flat, optimize=True) / flat.shape[1]
    return out


def _law_terms(law: str, m: np.ndarray, nhat: np.ndarray):
    """Direction-resolved (raw_L, raw_T, raw_flux) times r, from moments M (S, C, C, C).

    Kernels: helicity pairs a = velocity with b = vorticity,
      L = (1/2)(n.da)^2 (n.db),  T = (n.da)(da.db) - (1/2)(n.da)^2(n.db) - (1/2)(n.db)|da|^2,
      flux = (n.db)|da|^2 - (n.da)(da.db);
    hydro-energy has only a, L = (n.da)^3, T = (n.da)|da|^2 - (n.da)^3, flux = 0.
    """
    a = slice(0, 3)
    aaa = m[:, a, a, a]
    if law == "hydro-energy":
        cube = np.einsum("si,sj,sk,sijk->s", nhat, nhat, nhat, aaa)
        along = np.einsum("si,sijj->s", nhat, aaa)
        return cube, along - cube, np.zeros_like(cube)
    b = slice(3, 6)
    aab = m[:, a, a, b]
    nnn = np.einsum("si,sj,sk,sijk->s", nhat, nhat, nhat, aab)  # (n.da)^2 (n.db)
    adb = np.einsum("si,sijj->s", nhat, aab)  # (n.da)(da.db)
    bda = np.einsum("sk,sjjk->s", nhat, aab)  # (n.db)|da|^2
    return 0.5 * nnn, adb - 0.5 * nnn - 0.5 * bda, bda - adb


def direction_terms(law: str, fields: np.ndarray, length: float, scales, dirs, method) -> np.ndarray:
    """Per (scale, direction) values (raw_L, raw_T, raw_flux), shape (scales, dirs, 3)."""
    scales = np.asarray(scales, dtype=float)
    nhat = np.tile(dirs, (len(scales), 1))
    ells = np.repeat(scales, len(dirs))[:, None] * nhat
    terms = np.stack(_law_terms(law, method(fields, length, ells), nhat), axis=-1)
    return terms.reshape(len(scales), len(dirs), 3) / scales[:, None, None]


def sweep_rows(law: str, terms: np.ndarray, flux_coeffs=None) -> np.ndarray:
    """Rows (raw_L, raw_T, raw_flux, S_L, S_T) per scale from equal-weight direction means."""
    c_l, c_t = flux_coeffs if flux_coeffs is not None else FLUX_COEFFS[law]
    raw_l, raw_t, flux = terms.mean(axis=1).T
    return np.stack([raw_l, raw_t, flux, raw_l + c_l * flux, raw_t + c_t * flux], axis=1)


def compare_rows(got: np.ndarray, ref: np.ndarray) -> list[str]:
    """Problems found comparing report rows with reference rows of the same shape."""
    problems = []
    for j, name in enumerate(COLUMNS):
        scale = float(np.max(np.abs(ref[:, j])))
        worst = float(np.max(np.abs(got[:, j] - ref[:, j])))
        if worst > TOLERANCE * scale:
            problems.append(f"{name}: max deviation {worst:.3e} exceeds {TOLERANCE:g} x {scale:.3e}")
    return problems
