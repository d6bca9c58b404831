"""The increment-statistics engine: sine-series path against the per-shift loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactlaws import _kernels
from exactlaws._kernels import LawKind, StatsEngine, term_means
from exactlaws.geometry import DirectionSet, direction_set_icosa
from exactlaws.grid import VectorField3, curl, make_grid
from exactlaws.synth import SpectrumSpec, random_solenoidal

ALL_LAWS = (LawKind.HYDRO_ENERGY, LawKind.HELICITY, LawKind.MHD_ENERGY, LawKind.CROSS_HELICITY)
DIRS = direction_set_icosa(1)


def band_fields(n=16, kmax=4, seed=3):
    g = make_grid(n)
    v = random_solenoidal(g, SpectrumSpec(-5.0 / 3.0, 1, kmax, 1.0, seed))
    h = random_solenoidal(g, SpectrumSpec(-5.0 / 3.0, 1, kmax, 1.0, seed + 1))
    return g, {"v": v, "w": curl(v), "h": h, "zero": None}


def per_shift_sums(engine, requests, r, dirs):
    """The per-direction loop: explicit increments, term means, weighted sums."""
    sums = {label: (0.0, 0.0, 0.0, 0.0, 0.0) for label in requests}
    for nhat, w in zip(dirs.directions, dirs.weights):
        deltas = engine.increments(r * nhat)
        for label, (law, a, b) in requests.items():
            tm = term_means(law, deltas[a], deltas[b], nhat)
            sums[label] = tuple(acc + w * t for acc, t in zip(sums[label], tm))
    return sums


def assert_columns_agree(got, ref, rtol, common=False):
    """got, ref: (rows, 5); each column within rtol of its largest |ref|, or
    of the largest |ref| over all columns when ``common``."""
    got, ref = np.asarray(got), np.asarray(ref)
    scale = np.max(np.abs(ref)) if common else np.max(np.abs(ref), axis=0)
    assert np.all(np.abs(got - ref) <= rtol * scale)


def request_for(law):
    second = {LawKind.HELICITY: "w", LawKind.HYDRO_ENERGY: "zero"}.get(law, "h")
    return (law, "v", second)


class TestSineSeriesAgreement:
    @pytest.mark.parametrize("law", ALL_LAWS)
    def test_single_law(self, law):
        g, fields = band_fields()
        engine = StatsEngine(g, fields)
        assert engine.alias_free and engine.evaluation == "sine-series"
        req = {"x": request_for(law)}
        radii = (0.05, 0.3, g.length / 4.0)
        got = [_kernels.angular_term_sums(engine, req, r, DIRS)["x"] for r in radii]
        ref = [per_shift_sums(engine, req, r, DIRS)["x"] for r in radii]
        assert_columns_agree(got, ref, 1e-12)

    def test_three_law_request(self):
        g, fields = band_fields(n=24, kmax=6, seed=11)
        engine = StatsEngine(g, fields)
        req = {
            "hel": request_for(LawKind.HELICITY),
            "mhd": request_for(LawKind.MHD_ENERGY),
            "cross": request_for(LawKind.CROSS_HELICITY),
        }
        radii = (0.1, 0.4, 0.7)
        got = [_kernels.angular_term_sums(engine, req, r, DIRS) for r in radii]
        ref = [per_shift_sums(engine, req, r, DIRS) for r in radii]
        for label in req:
            assert_columns_agree([g[label] for g in got], [f[label] for f in ref], 1e-12)


def random_dirs(vectors):
    half = np.asarray(vectors, dtype=float)
    half = half / np.linalg.norm(half, axis=1, keepdims=True)
    d = np.concatenate([half, -half])
    return DirectionSet(d, np.full(len(d), 1.0 / len(d)))


nonzero_vector = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda p: np.linalg.norm(p) > 1e-3
)


@settings(max_examples=25, deadline=None)
@given(
    n=st.sampled_from([8, 12, 16]),
    seed=st.integers(0, 2**16),
    frac=st.floats(0.02, 1.0),
    vectors=st.lists(nonzero_vector, min_size=1, max_size=4),
    law=st.sampled_from(ALL_LAWS),
    alpha=st.floats(0.25, 4.0),
)
def test_sine_series_properties(n, seed, frac, vectors, law, alpha):
    g, fields = band_fields(n=n, kmax=(n - 1) // 3, seed=seed)
    engine = StatsEngine(g, fields)
    assert engine.alias_free
    dirs = random_dirs(vectors)
    r = frac * g.length / 4.0
    req = {"x": request_for(law)}
    got = _kernels.angular_term_sums(engine, req, r, dirs)["x"]
    ref = per_shift_sums(engine, req, r, dirs)["x"]
    # With as few as two directions one term can cancel far below the others
    # (round-off stays at the scale of the pieces), so the law's largest
    # term mean sets the scale here.
    assert_columns_agree([got], [ref], 1e-12, common=True)

    ells = r * dirs.directions
    mom = engine.moments(ells)
    peak = np.max(np.abs(mom))
    assert np.max(np.abs(engine.moments(-ells) + mom)) <= 1e-12 * peak

    scaled = {
        name: None if f is None else VectorField3(g, alpha * f.values)
        for name, f in fields.items()
    }
    mom_scaled = StatsEngine(g, scaled).moments(ells)
    assert np.max(np.abs(mom_scaled - alpha**3 * mom)) <= 1e-12 * alpha**3 * peak


def test_small_separation_limit():
    # M(l) = <(l.grad p)(l.grad q)(l.grad r)> + O(l^5), so at |l| = 1e-5 the
    # scaled moments match the gradient moments to about 1e-9.  A plain sine
    # series would lose about 1e-16 / (k l)^2 of relative precision here.
    g, fields = band_fields()
    engine = StatsEngine(g, {"v": fields["v"], "h": fields["h"]})
    nhat = np.array([0.36, -0.48, 0.8])
    ell = 1e-5
    mom = engine.moments([ell * nhat])[:6, :6, :6, 0] / ell**3
    values = np.concatenate([fields["v"].values, fields["h"].values])
    kx, ky, kz = g.wavenumbers()
    k_dot_n = nhat[0] * kx[:, None, None] + nhat[1] * ky[None, :, None] + nhat[2] * kz
    spec = np.fft.rfftn(values, axes=(1, 2, 3))
    slope = np.fft.irfftn(1j * k_dot_n * spec, s=(16, 16, 16), axes=(1, 2, 3)).reshape(6, -1)
    expected = np.einsum("pi,qi,ri->pqr", slope, slope, slope) / slope.shape[1]
    assert np.max(np.abs(mom - expected)) <= 1e-7 * np.max(np.abs(expected))


class TestFallback:
    def test_white_noise_matches_per_shift_loop_bitwise(self):
        g = make_grid(8)
        rng = np.random.default_rng(5)
        v = VectorField3(g, rng.standard_normal((3, 8, 8, 8)))
        h = VectorField3(g, rng.standard_normal((3, 8, 8, 8)))
        engine = StatsEngine(g, {"v": v, "h": h, "zero": None})
        assert not engine.alias_free
        assert engine.evaluation == "per-shift-fft"
        with pytest.raises(ValueError, match="alias-free"):
            engine.moments([[0.1, 0.0, 0.0]])
        req = {"hy": (LawKind.HYDRO_ENERGY, "v", "zero"), "mhd": (LawKind.MHD_ENERGY, "v", "h")}
        assert _kernels.angular_term_sums(engine, req, 0.4, DIRS) == per_shift_sums(
            engine, req, 0.4, DIRS
        )


class TestExactness:
    def test_moments_symmetric_bitwise(self):
        g, fields = band_fields(n=12, kmax=3)
        mom = StatsEngine(g, fields).moments(0.3 * DIRS.directions)
        for axes in ((1, 0, 2, 3), (0, 2, 1, 3), (2, 1, 0, 3), (1, 2, 0, 3)):
            assert np.array_equal(mom, mom.transpose(axes))

    def test_equal_arrays_share_rows(self):
        g, fields = band_fields()
        copy = VectorField3(g, fields["v"].values.copy())
        engine = StatsEngine(g, {"a": fields["v"], "b": copy})
        assert engine.components["a"].tolist() == engine.components["b"].tolist()
        for law in (LawKind.MHD_ENERGY, LawKind.CROSS_HELICITY):
            l1, l2, t1, t2, fx = _kernels.angular_term_sums(
                engine, {"x": (law, "a", "b")}, 0.3, DIRS
            )["x"]
            raw = _kernels.raw_from_terms(law, (l1, l2, t1, t2, fx), 0.3)
            assert raw == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("fill", [0.0, 1.3])
    def test_modeless_field_gives_exact_zeros(self, fill):
        g, fields = band_fields()
        flat = VectorField3(g, np.full((3, 16, 16, 16), fill))
        engine = StatsEngine(g, {"v": fields["v"], "flat": flat})
        mom = engine.moments(0.2 * DIRS.directions)
        assert not np.any(mom[3:])
        assert not np.any(mom[:, 3:])
        sums = _kernels.angular_term_sums(
            engine, {"x": (LawKind.CROSS_HELICITY, "v", "flat")}, 0.2, DIRS
        )["x"]
        assert _kernels.raw_from_terms(LawKind.CROSS_HELICITY, sums, 0.2) == (0.0, 0.0, 0.0)

    def test_no_modes_at_all(self):
        g = make_grid(8)
        engine = StatsEngine(g, {"a": VectorField3(g, np.full((3, 8, 8, 8), 0.4)), "b": None})
        assert engine.kmax == 0 and engine.alias_free
        sums = _kernels.angular_term_sums(engine, {"x": (LawKind.HELICITY, "a", "b")}, 0.3, DIRS)
        assert sums["x"] == (0.0, 0.0, 0.0, 0.0, 0.0)

