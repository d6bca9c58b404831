"""Sphere quadrature, field increments, and longitudinal/transverse algebra.

Direction sets discretize the normalized sphere average; all constructors
return antipodally closed sets (every direction paired with its exact
negation at equal weight), which makes odd moments vanish identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import VectorField3, shift

__all__ = [
    "DirectionSet",
    "IncrementPair",
    "direction_set_icosa",
    "direction_set_random",
    "parse_direction_spec",
    "increment",
    "split_long_trans",
    "dndl",
    "identity227",
    "triple_product_check",
]


@dataclass(frozen=True)
class DirectionSet:
    """Unit directions with quadrature weights summing to one."""

    directions: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    descriptor: str = ""

    def __post_init__(self):
        d = np.ascontiguousarray(self.directions, dtype=np.float64)
        w = np.ascontiguousarray(self.weights, dtype=np.float64)
        if d.ndim != 2 or d.shape[1] != 3 or w.shape != (d.shape[0],):
            raise ValueError("directions must be (m, 3) with matching weights")
        if not (np.isfinite(d).all() and np.isfinite(w).all()):
            raise ValueError("directions and weights must be finite")
        norms = np.linalg.norm(d, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-14:
            raise ValueError("directions must be unit vectors")
        if abs(w.sum() - 1.0) > 1e-14 or np.any(w <= 0):
            raise ValueError("weights must be positive and sum to 1")
        # One direction of each antipodal pair, the larger of +-d, with the
        # pair's summed weight: pairs in order of first appearance, weights
        # summed in set order.  Odd statistics such as the increment third
        # moments need only these (``_kernels.angular_term_sums``).
        rows = [tuple(row) for row in d.tolist()]
        keys = set(rows)
        half: dict = {}
        for row, weight in zip(rows, w.tolist()):
            neg = tuple(-x for x in row)
            if neg not in keys:
                raise ValueError("direction set is not antipodally closed")
            key = max(row, neg)
            half[key] = half.get(key, 0.0) + weight
        d.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "directions", d)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "_half", (np.array(list(half)), np.array(list(half.values()))))

    def __eq__(self, other) -> bool:
        """Equal when the directions, weights and descriptor are."""
        if not isinstance(other, DirectionSet):
            return NotImplemented
        return (
            self.descriptor == other.descriptor
            and np.array_equal(self.directions, other.directions)
            and np.array_equal(self.weights, other.weights)
        )

    def __hash__(self) -> int:
        # + 0.0 maps -0.0 to 0.0, which compare equal, onto the same bytes.
        return hash((self.descriptor, (self.directions + 0.0).tobytes(),
                     (self.weights + 0.0).tobytes()))

    def __len__(self) -> int:
        return self.directions.shape[0]

    def first_moment(self) -> np.ndarray:
        return self.weights @ self.directions

    def second_moment(self) -> np.ndarray:
        return np.einsum("m,mi,mj->ij", self.weights, self.directions, self.directions)

    def second_moment_error(self) -> float:
        """Max-norm deviation of the second moment from the isotropic value I/3."""
        return float(np.max(np.abs(self.second_moment() - np.eye(3) / 3.0)))


_ICOSA_COUNTS = (12, 42, 162, 642, 2562, 10242)


# The 20 faces of the icosahedron over the vertices of _base_icosahedron, in
# the order and orientation of their convex hull (scipy.spatial.ConvexHull);
# the subdivision numbers its new vertices in this order, so the table fixes
# the order of every icosa:L direction set.  A test checks it against the hull.
_ICOSA_FACES = (
    (0, 1, 2), (6, 4, 2), (6, 0, 5), (6, 0, 2), (7, 3, 1),
    (7, 0, 5), (7, 0, 1), (8, 4, 2), (8, 1, 2), (8, 3, 1),
    (8, 9, 3), (8, 9, 4), (10, 9, 4), (10, 6, 4), (10, 6, 5),
    (11, 7, 5), (11, 9, 3), (11, 7, 3), (11, 10, 9), (11, 10, 5),
)


def _base_icosahedron():
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = []
    for a in (-1.0, 1.0):
        for b in (-phi, phi):
            verts.append((0.0, a, b))
            verts.append((a, b, 0.0))
            verts.append((b, 0.0, a))
    verts = np.array(verts) / np.sqrt(1.0 + phi * phi)
    return verts, _ICOSA_FACES


def direction_set_icosa(level: int) -> DirectionSet:
    """Subdivided-icosahedron directions with equal weights.

    Level 0 is the bare icosahedron (12 vertices); each level quadruples the
    faces, giving 12, 42, 162, 642, ... nodes.  Midpoint subdivision preserves
    the exact antipodal symmetry of the base solid.  Equal weights are exact to
    degree 5 only and do not converge to the sphere average: on the README's
    n=64 field hydro-energy is 0.50-9.2 % off at level 2, 0.40-7.8 % at level 4.
    """
    if not 0 <= level <= 5:
        raise ValueError("icosahedron subdivision level must be in 0..5")
    verts, faces = _base_icosahedron()
    verts = [np.array(v) for v in verts]
    for _ in range(level):
        midpoint = {}
        new_faces = []

        def mid(i, j):
            key = (min(i, j), max(i, j))
            if key not in midpoint:
                p = verts[i] + verts[j]
                p = p / np.linalg.norm(p)
                verts.append(p)
                midpoint[key] = len(verts) - 1
            return midpoint[key]

        for (a, b, c) in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    d = np.array(verts)
    if d.shape[0] != _ICOSA_COUNTS[level]:
        raise AssertionError("unexpected icosahedral node count")
    w = np.full(d.shape[0], 1.0 / d.shape[0])
    return DirectionSet(d, w, descriptor=f"icosa:{level}")


def direction_set_random(m: int, seed: int = 0) -> DirectionSet:
    """m/2 uniform random directions plus their exact antipodes, equal weights."""
    if m < 2 or m % 2 != 0:
        raise ValueError("m must be even and at least 2")
    rng = np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), 0]))
    half = []
    while len(half) < m // 2:
        p = rng.standard_normal(3)
        norm = np.linalg.norm(p)
        if norm > 1e-8:
            half.append(p / norm)
    half = np.array(half)
    d = np.concatenate([half, -half])
    w = np.full(m, 1.0 / m)
    return DirectionSet(d, w, descriptor=f"random:{m}:{seed}")


def parse_direction_spec(spec: str) -> DirectionSet:
    """Parse "icosa:LEVEL" or "random:M:SEED" into a DirectionSet."""
    parts = spec.split(":")
    if parts[0] == "icosa" and len(parts) == 2:
        return direction_set_icosa(int(parts[1]))
    if parts[0] == "random" and len(parts) in (2, 3):
        seed = int(parts[2]) if len(parts) == 3 else 0
        return direction_set_random(int(parts[1]), seed)
    raise ValueError(f"unrecognized direction-set spec {spec!r}")


def increment(u: VectorField3, ell) -> VectorField3:
    """Field increment u(. + ell) - u(.)."""
    shifted = shift(u, ell)
    return VectorField3(u.grid, shifted.values - u.values)


@dataclass(frozen=True)
class IncrementPair:
    """Longitudinal/transverse split of an increment relative to a direction."""

    longitudinal: VectorField3
    transverse: VectorField3


def _check_unit(nhat) -> np.ndarray:
    nhat = np.asarray(nhat, dtype=np.float64)
    if nhat.shape != (3,) or abs(np.linalg.norm(nhat) - 1.0) > 1e-12:
        raise ValueError("projection direction must be a unit 3-vector")
    return nhat


def split_long_trans(du: VectorField3, nhat) -> IncrementPair:
    """Split du into n(n . du) and the perpendicular remainder."""
    nhat = _check_unit(nhat)
    along = np.einsum("c,cxyz->xyz", nhat, du.values)
    long_part = nhat[:, None, None, None] * along[None]
    return IncrementPair(
        VectorField3(du.grid, long_part),
        VectorField3(du.grid, du.values - long_part),
    )


def dndl(ell) -> np.ndarray:
    """Jacobian of the unit vector n(l) = l/|l|: (delta_ik - n_i n_k)/|l|."""
    ell = np.asarray(ell, dtype=np.float64)
    if ell.shape != (3,):
        raise ValueError("ell must be a 3-vector")
    norm = np.linalg.norm(ell)
    if norm == 0.0:
        raise ValueError("dndl is singular at ell = 0")
    n = ell / norm
    return (np.eye(3) - np.outer(n, n)) / norm


def identity227(ell, A, B, C) -> tuple[float, float]:
    """Both sides of the mixed-vector projection identity at separation ell.

    The left side contracts the derivative tensor of n_i n_j (minus its
    symmetrized counterpart weighted by n_k) against A_k B_i C_j, built from
    the Jacobian ``dndl``.  The right side is the closed form
    (1/|l|) n . [C (A.B) + B (A.C) - 2 A (B.C)],
    which vanishes when A = B = C.  This is ``identity227_batch`` on one row.
    """
    ell = np.asarray(ell, dtype=np.float64)
    if ell.shape != (3,):
        raise ValueError("ell must be a 3-vector")
    lhs, rhs = identity227_batch(ell[None], *(np.reshape(x, (1, 3)) for x in (A, B, C)))
    return float(lhs[0]), float(rhs[0])


def identity227_batch(ells, As, Bs, Cs):
    """Vectorized identity evaluation; arrays have shape (m, 3)."""
    ells = np.asarray(ells, dtype=np.float64)
    As = np.asarray(As, dtype=np.float64)
    Bs = np.asarray(Bs, dtype=np.float64)
    Cs = np.asarray(Cs, dtype=np.float64)
    norms = np.linalg.norm(ells, axis=1)
    if np.any(norms == 0):
        raise ValueError("identity is singular at ell = 0")
    n = ells / norms[:, None]
    eye = np.eye(3)
    M = (eye[None] - np.einsum("mi,mk->mik", n, n)) / norms[:, None, None]
    # M_ik n_j A_k B_i C_j + M_jk n_i A_k B_i C_j - 2 M_ij n_k A_k B_i C_j,
    # contracted pairwise: M.A and M.C first, then dot products.
    dot = lambda x, y: np.einsum("mi,mi->m", x, y)
    MA = np.einsum("mik,mk->mi", M, As)
    MC = np.einsum("mij,mj->mi", M, Cs)
    lhs = dot(n, Cs) * dot(Bs, MA) + dot(n, Bs) * dot(Cs, MA) - 2.0 * dot(n, As) * dot(Bs, MC)
    rhs = (
        np.einsum("mi,mi->m", n, Cs) * np.einsum("mi,mi->m", As, Bs)
        + np.einsum("mi,mi->m", n, Bs) * np.einsum("mi,mi->m", As, Cs)
        - 2.0 * np.einsum("mi,mi->m", n, As) * np.einsum("mi,mi->m", Bs, Cs)
    ) / norms
    return lhs, rhs


def triple_product_check(X, Y) -> float:
    """Residual of X x (Y x X) = Y (X.X) - X (Y.X); zero for exact arithmetic."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    lhs = np.cross(X, np.cross(Y, X))
    rhs = Y * (X @ X) - X * (Y @ X)
    return float(np.linalg.norm(lhs - rhs))
