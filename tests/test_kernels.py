"""The increment-statistics engine: sine-series path against the per-shift loop."""

import bisect
import itertools
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exactlaws import _kernels, grid
from exactlaws._kernels import CurlOf, LawKind, StatsEngine, term_means
from exactlaws.geometry import DirectionSet, direction_set_icosa, direction_set_random
from exactlaws.grid import VectorField3, curl, make_grid
from exactlaws.laws import sweep_structure
from exactlaws.mollifier import bump_mollifier, dissipation_matrix
from exactlaws.report import canonical_hash
from exactlaws.synth import SpectrumSpec, random_solenoidal

from oracles import law_triples_by_replay

ALL_LAWS = (LawKind.HYDRO_ENERGY, LawKind.HELICITY, LawKind.MHD_ENERGY, LawKind.CROSS_HELICITY)
DIRS = direction_set_icosa(1)


def band_fields(n=16, kmax=4, seed=3):
    g = make_grid(n)
    v = random_solenoidal(g, SpectrumSpec(-5.0 / 3.0, 1, kmax, 1.0, seed))
    h = random_solenoidal(g, SpectrumSpec(-5.0 / 3.0, 1, kmax, 1.0, seed + 1))
    return g, {"v": v, "w": curl(v), "h": h, "zero": None}


def per_shift_sums(engine, requests, radii, dirs):
    """The per-direction loop at each radius: explicit increments, term
    means, weighted sums; {label: (len(radii), 5)}."""
    out = {label: [] for label in requests}
    for r in radii:
        sums = {label: (0.0, 0.0, 0.0, 0.0, 0.0) for label in requests}
        for nhat, w in zip(dirs.directions, dirs.weights):
            deltas = engine.increments(r * nhat)
            for label, (law, a, b) in requests.items():
                tm = term_means(law, deltas[a], deltas[b], nhat)
                sums[label] = tuple(acc + w * t for acc, t in zip(sums[label], tm))
        for label in requests:
            out[label].append(sums[label])
    return {label: np.array(rows) for label, rows in out.items()}


def every_row(engine):
    """The engine, with the G row of every sorted component triple built."""
    engine._build_rows(itertools.combinations_with_replacement(range(engine._fields.shape[0]), 3))
    return engine


def rung(engine, ells):
    """M at the (S, 3) separations ``ells``, one rung, from the rows built."""
    return engine.moments(np.asarray(ells, dtype=float)[None])[..., 0, :]


def assert_bitwise(got, ref):
    assert got.keys() == ref.keys()
    for label in ref:
        assert np.array_equal(got[label], ref[label])


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
        got = _kernels.angular_term_sums(engine, req, radii, DIRS)["x"]
        ref = per_shift_sums(engine, req, radii, DIRS)["x"]
        assert got.shape == (3, 5)
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
        got = _kernels.angular_term_sums(engine, req, radii, DIRS)
        ref = per_shift_sums(engine, req, radii, DIRS)
        for label in req:
            assert_columns_agree(got[label], ref[label], 1e-12)


def random_dirs(vectors):
    half = np.asarray(vectors, dtype=float)
    half = half / np.linalg.norm(half, axis=1, keepdims=True)
    d = np.concatenate([half, -half])
    return DirectionSet(d, np.full(len(d), 1.0 / len(d)))


nonzero_vector = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda p: np.linalg.norm(p) > 1e-3
)
# 81 antipodal pairs on an engine larger than the drawn ones: n = 32, shells
# up to 10, all rows, at r = 0.79.
COLUMN_VECTORS = [tuple(v) for v in np.random.default_rng(1).standard_normal((81, 3))]


@settings(max_examples=25, deadline=None)
@example(n=32, seed=7, frac=0.5, vectors=COLUMN_VECTORS, law=LawKind.HELICITY, alpha=1.7)
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
    got = _kernels.angular_term_sums(engine, req, [r], dirs)["x"]
    ref = per_shift_sums(engine, req, [r], dirs)["x"]
    # With as few as two directions one term can cancel far below the others
    # (round-off stays at the scale of the pieces), so the law's largest
    # term mean sets the scale here.
    assert_columns_agree(got, ref, 1e-12, common=True)

    # M is odd in l bit for bit, which the antipodal folding in
    # angular_term_sums relies on.
    ells = r * dirs.directions
    mom = rung(every_row(engine), ells)
    peak = np.max(np.abs(mom))
    np.testing.assert_array_equal(rung(engine, -ells), -mom)

    scaled = {
        name: None if f is None else VectorField3(g, alpha * f.values)
        for name, f in fields.items()
    }
    mom_scaled = rung(every_row(StatsEngine(g, scaled)), ells)
    assert np.max(np.abs(mom_scaled - alpha**3 * mom)) <= 1e-12 * alpha**3 * peak


def test_half_angle_forms_match_mpmath():
    # sin x - x and cos x - 1 at full relative precision from x and exp(i x/2),
    # against 40-digit mpmath: over signed |x| from 1e-8 to 80, on both sides
    # of the series' switch at |x| = 1, and just past multiples of 2 pi, where
    # cos(x) - 1 is 8e-4 relative off.
    mag = np.concatenate([
        np.logspace(-8, np.log10(80.0), 200),
        np.nextafter(1.0, [0.0, 2.0]), [1.0],
        2.0 * np.pi * np.arange(1, 13) + 1e-7,
    ])
    x = np.concatenate([mag, -mag])
    s_x, c_x, _ = _kernels._half_angle(x, np.exp(0.5j * x))
    with mpmath.workdps(40):
        for value, s, c in zip(x, s_x, c_x):
            v = mpmath.mpf(float(value))
            for got, want in ((s, mpmath.sin(v) - v), (c, mpmath.cos(v) - 1)):
                assert abs(mpmath.mpf(float(got)) - want) <= 1e-15 * abs(want), value


def test_small_separation_limit():
    # M(l) = <(l.grad p)(l.grad q)(l.grad r)> + O(l^5), so at |l| = 1e-5 the
    # scaled moments match the gradient moments to about 1e-9.  A plain sine
    # series would lose about 1e-16 / (k l)^2 of relative precision here.
    g, fields = band_fields()
    engine = StatsEngine(g, {"v": fields["v"], "h": fields["h"]})
    nhat = np.array([0.36, -0.48, 0.8])
    ell = 1e-5
    mom = rung(every_row(engine), [ell * nhat])[:6, :6, :6, 0] / ell**3
    values = np.concatenate([fields["v"].values, fields["h"].values])
    kx, ky, kz = g.wavenumbers()
    k_dot_n = nhat[0] * kx[:, None, None] + nhat[1] * ky[None, :, None] + nhat[2] * kz
    spec = np.fft.rfftn(values, axes=(1, 2, 3))
    slope = np.fft.irfftn(1j * k_dot_n * spec, s=(16, 16, 16), axes=(1, 2, 3)).reshape(6, -1)
    expected = np.einsum("pi,qi,ri->pqr", slope, slope, slope) / slope.shape[1]
    assert np.max(np.abs(mom - expected)) <= 1e-7 * np.max(np.abs(expected))


def test_moment_blocks_match_one_block(monkeypatch):
    # A smaller budget splits the separations into blocks of one matrix
    # product each, which may move the moments at round-off only.
    g, fields = band_fields(n=24, kmax=6, seed=5)
    ells = 0.4 * direction_set_icosa(1).directions
    one = rung(every_row(StatsEngine(g, fields)), ells)
    modes = StatsEngine(g, fields).describe()["modes"]
    assert modes * len(ells) <= _kernels._MOMENT_BLOCK
    for budget in (5 * modes, 1):  # 5 separations per block, then 1
        monkeypatch.setattr(_kernels, "_MOMENT_BLOCK", budget)
        blocked = rung(every_row(StatsEngine(g, fields)), ells)
        assert np.max(np.abs(blocked - one)) <= 1e-13 * np.max(np.abs(one))


def test_sweep_peak_memory():
    # The engine keeps each field at its active modes, and its transforms
    # run one component at a time, so a sweep's traced peak stays within a
    # few field sizes.
    g = make_grid(64)
    v = random_solenoidal(g, SpectrumSpec(-5.0 / 3.0, 2, 16, 1.0, 3))
    tracemalloc.start()
    try:
        sweep_structure(LawKind.HELICITY, v, [0.2, 0.8], direction_set_icosa(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.6 * v.values.nbytes


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
            rung(engine, [[0.1, 0.0, 0.0]])
        req = {"hy": (LawKind.HYDRO_ENERGY, "v", "zero"), "mhd": (LawKind.MHD_ENERGY, "v", "h")}
        radii = (0.4, 0.25, 0.4)
        assert_bitwise(_kernels.angular_term_sums(engine, req, radii, DIRS),
                       per_shift_sums(engine, req, radii, DIRS))
        # icosa:2 repeats components, the random set does not; visiting the
        # directions sorted changes which inverse passes are reused, not a bit.
        for dirs in (direction_set_icosa(2), direction_set_random(24)):
            assert_bitwise(_kernels.angular_term_sums(engine, req, radii, dirs),
                           per_shift_sums(engine, req, radii, dirs))

    def test_zero_separation_increments_exactly_zero(self):
        g = make_grid(8)
        rng = np.random.default_rng(6)
        v = VectorField3(g, rng.standard_normal((3, 8, 8, 8)))
        engine = StatsEngine(g, {"v": v, "zero": None})
        engine.increments(np.array([0.3, 0.0, -0.2]))  # leave other passes cached
        deltas = engine.increments(np.zeros(3))
        assert not np.any(deltas["v"])
        assert deltas["zero"] is None

    def test_zero_field_pieces_exactly_zero(self):
        g = make_grid(8)
        rng = np.random.default_rng(8)
        engine = StatsEngine(g, {"v": VectorField3(g, rng.standard_normal((3, 8, 8, 8)))})
        da = engine.increments(np.array([0.2, -0.5, 0.1]))["v"]
        nhat = np.array([0.6, 0.0, -0.8])
        zeros = np.zeros_like(da)
        for law in ALL_LAWS:
            skipped = term_means(law, da, None, nhat)
            evaluated = term_means(law, da, zeros, nhat)
            assert skipped == evaluated
            assert term_means(law, None, None, nhat) == (0.0,) * 5
            assert term_means(law, None, da, nhat) == term_means(law, zeros, da, nhat)
        assert term_means(LawKind.CROSS_HELICITY, da, None, nhat) == (0.0,) * 5
        l1, l2, t1, t2, flux = term_means(LawKind.MHD_ENERGY, da, None, nhat)
        assert l1 != 0.0 and t1 != 0.0 and (l2, t2, flux) == (0.0, 0.0, 0.0)

    def test_work_counts(self):
        # icosa:1 has 13 distinct l_x and 25 distinct (l_x, l_y) among its 42
        # directions, so 2 radii cost 26 x passes, 50 xy passes and 84 z passes.
        g = make_grid(12)
        v = VectorField3(g, np.random.default_rng(10).standard_normal((3, 12, 12, 12)))
        report = sweep_structure(LawKind.HYDRO_ENERGY, v, [0.3, 0.6], DIRS)
        assert report.engine["evaluation"] == "per-shift-fft"
        assert report.engine["separations"] == 84
        assert report.engine["inverse_passes"] == {"x": 26, "xy": 50, "z": 84}
        payload = report.to_json_dict()
        traced = {**payload, "provenance": {"engine": report.engine}}
        assert canonical_hash(traced) == canonical_hash(payload)


    def test_white_noise_exact_degeneracies(self):
        g = make_grid(8)
        rng = np.random.default_rng(9)
        v = VectorField3(g, rng.standard_normal((3, 8, 8, 8)))
        engine = StatsEngine(g, {"v": v, "copy": VectorField3(g, v.values.copy()), "zero": None})
        assert engine.evaluation == "per-shift-fft"
        req = {
            "mhd-equal": (LawKind.MHD_ENERGY, "v", "copy"),
            "cross-equal": (LawKind.CROSS_HELICITY, "v", "copy"),
            "cross-zero": (LawKind.CROSS_HELICITY, "v", "zero"),
            "mhd-zero": (LawKind.MHD_ENERGY, "v", "zero"),
            "hydro": (LawKind.HYDRO_ENERGY, "v", "zero"),
        }
        radii = np.array([0.2, 0.4])
        sums = _kernels.angular_term_sums(engine, req, radii, DIRS)
        for label in ("mhd-equal", "cross-equal"):
            law = req[label][0]
            assert not np.any(_kernels.raw_from_terms(law, sums[label], radii))
        assert not np.any(sums["cross-zero"])
        assert np.array_equal(sums["hydro"], sums["mhd-zero"])
        assert np.all(sums["hydro"][:, 0] != 0.0)


class TestExactness:
    def test_moments_symmetric_bitwise(self):
        g, fields = band_fields(n=12, kmax=3)
        mom = rung(every_row(StatsEngine(g, fields)), 0.3 * DIRS.directions)
        for axes in ((1, 0, 2, 3), (0, 2, 1, 3), (2, 1, 0, 3), (1, 2, 0, 3)):
            assert np.array_equal(mom, mom.transpose(axes))

    def test_equal_arrays_share_rows(self):
        g, fields = band_fields()
        copy = VectorField3(g, fields["v"].values.copy())
        engine = StatsEngine(g, {"a": fields["v"], "b": copy})
        assert engine.components["a"].tolist() == engine.components["b"].tolist()
        for law in (LawKind.MHD_ENERGY, LawKind.CROSS_HELICITY):
            terms = _kernels.angular_term_sums(engine, {"x": (law, "a", "b")}, [0.3], DIRS)["x"]
            assert not np.any(_kernels.raw_from_terms(law, terms, 0.3))

    @pytest.mark.parametrize("fill", [0.0, 1.3])
    def test_modeless_field_gives_exact_zeros(self, fill):
        g, fields = band_fields()
        flat = VectorField3(g, np.full((3, 16, 16, 16), fill))
        engine = StatsEngine(g, {"v": fields["v"], "flat": flat})
        mom = rung(every_row(engine), 0.2 * DIRS.directions)
        assert not np.any(mom[3:])
        assert not np.any(mom[:, 3:])
        sums = _kernels.angular_term_sums(
            engine, {"x": (LawKind.CROSS_HELICITY, "v", "flat")}, [0.2], DIRS
        )["x"]
        assert not np.any(_kernels.raw_from_terms(LawKind.CROSS_HELICITY, sums, 0.2))

    def test_no_modes_at_all(self):
        g = make_grid(8)
        engine = StatsEngine(g, {"a": VectorField3(g, np.full((3, 8, 8, 8), 0.4)), "b": None})
        assert engine.kmax == 0 and engine.alias_free
        sums = _kernels.angular_term_sums(engine, {"x": (LawKind.HELICITY, "a", "b")}, [0.3], DIRS)
        assert sums["x"].shape == (1, 5) and not np.any(sums["x"])


ALL_LAW_REQUESTS = {law.value: request_for(law) for law in ALL_LAWS}


def law_raws(g, fields, r, dirs):
    """(4 laws, 3) raw combos (raw_L, raw_T, raw_flux) from one engine."""
    engine = StatsEngine(g, fields)
    sums = _kernels.angular_term_sums(engine, ALL_LAW_REQUESTS, [r], dirs)
    return engine, [_kernels.raw_from_terms(law, sums[label][0], r)
                    for label, (law, _, _) in ALL_LAW_REQUESTS.items()]


def test_ladder_finds_and_builds_rows_once(monkeypatch):
    # The rows a request reads depend on the request and the engine only, so
    # a ladder finds them once per request and builds them in one call; each
    # radius still gets the sums a ladder of its own would give, bit for bit.
    g, fields = band_fields()
    engine = StatsEngine(g, fields)
    calls = {"law_triples": 0, "build_rows": 0}
    law_triples, build_rows = _kernels._law_triples, StatsEngine._build_rows

    def counting_law_triples(*args):
        calls["law_triples"] += 1
        return law_triples(*args)

    def counting_build_rows(self, triples):
        calls["build_rows"] += 1
        return build_rows(self, triples)

    monkeypatch.setattr(_kernels, "_law_triples", counting_law_triples)
    monkeypatch.setattr(StatsEngine, "_build_rows", counting_build_rows)
    radii = np.geomspace(0.05, g.length / 4.0, 12)
    sums = _kernels.angular_term_sums(engine, ALL_LAW_REQUESTS, radii, DIRS)
    assert calls == {"law_triples": len(ALL_LAW_REQUESTS), "build_rows": 1}
    assert engine.separations == 12 * len(DIRS) // 2  # one per antipodal pair
    for i, r in enumerate(radii):
        single = _kernels.angular_term_sums(engine, ALL_LAW_REQUESTS, [r], DIRS)
        assert_bitwise(single, {label: x[i : i + 1] for label, x in sums.items()})
    assert calls == {"law_triples": 13 * len(ALL_LAW_REQUESTS), "build_rows": 13}


class TestMetamorphic:
    @pytest.mark.parametrize("kind", ["band-limited", "white-noise"])
    def test_constant_mean_leaves_combos_unchanged(self, kind):
        # Increments do not see a constant vector, whatever path evaluates them.
        if kind == "band-limited":
            g, fields = band_fields(n=32, kmax=8, seed=21)
            evaluation = "sine-series"
        else:
            g = make_grid(16)
            rng = np.random.default_rng(12)
            v, h = (VectorField3(g, rng.standard_normal((3, 16, 16, 16))) for _ in range(2))
            fields = {"v": v, "w": curl(v), "h": h, "zero": None}
            evaluation = "per-shift-fft"
        offset = np.array([0.7, -1.3, 0.4])[:, None, None, None]
        shifted = {name: None if f is None else VectorField3(g, f.values + offset)
                   for name, f in fields.items()}
        for r in (0.2, 0.7):
            engine, ref = law_raws(g, fields, r, DIRS)
            assert engine.evaluation == evaluation
            _, got = law_raws(g, shifted, r, DIRS)
            assert_columns_agree(got, ref, 1e-12)

    def test_cube_symmetries(self):
        # u'(x) = R u(R^T x) with R one of the 48 signed permutations maps the
        # grid onto itself.  With the directions rotated too, the energy and
        # cross-helicity combos are unchanged and the helicity ones, whose
        # second field is the curl (a pseudovector), pick up det R.
        g, fields = band_fields(n=16, kmax=4, seed=5)
        assert StatsEngine(g, fields).evaluation == "sine-series"
        n, r = g.n, 0.45
        _, ref = law_raws(g, fields, r, DIRS)
        ref = np.array(ref)
        index = np.indices((n, n, n))
        seen = set()
        for perm in itertools.permutations(range(3)):
            for signs in itertools.product((1.0, -1.0), repeat=3):
                R = np.zeros((3, 3))
                R[range(3), perm] = signs
                seen.add(R.tobytes())
                # (R^T x) along axis perm[i] is signs[i] * x_i.
                src = [None] * 3
                for i in range(3):
                    src[perm[i]] = (int(signs[i]) * index[i]) % n

                def transform(f):
                    u = f.values[:, src[0], src[1], src[2]]
                    return VectorField3(g, np.stack([signs[c] * u[perm[c]] for c in range(3)]))

                v, h = transform(fields["v"]), transform(fields["h"])
                moved = {"v": v, "w": curl(v), "h": h, "zero": None}
                dirs = DirectionSet(DIRS.directions @ R.T, DIRS.weights)
                _, got = law_raws(g, moved, r, dirs)
                expected = ref.copy()
                expected[ALL_LAWS.index(LawKind.HELICITY)] *= np.linalg.det(R)
                assert_columns_agree(got, expected, 1e-12)
        assert len(seen) == 48


def white_noise(n=12, seed=13):
    g = make_grid(n)
    return g, VectorField3(g, np.random.default_rng(seed).standard_normal((3, n, n, n)))


class TestDerivedCurl:
    @pytest.mark.parametrize("kind", ["band-limited", "white-noise"])
    def test_default_omega_matches_explicit_curl(self, kind):
        # The default vorticity is taken from the engine's spectrum of v; an
        # explicit curl(v) makes the round trip through the grid.
        if kind == "band-limited":
            g, fields = band_fields(n=24, kmax=6, seed=17)
            v, evaluation = fields["v"], "sine-series"
        else:
            (g, v), evaluation = white_noise(), "per-shift-fft"
        scales = [0.05, 0.2, g.length / 4.0]
        derived = sweep_structure(LawKind.HELICITY, v, scales, DIRS)
        explicit = sweep_structure(LawKind.HELICITY, (v, curl(v)), scales, DIRS)
        assert derived.engine["evaluation"] == evaluation
        assert "omega_supplied" not in derived.metadata
        columns = lambda rep: [row[1:] for row in list(rep.csv_rows())[1:]]
        assert_columns_agree(columns(derived), columns(explicit), 1e-12)

    def test_curl_fields_share_rows_and_follow_their_source(self):
        g, fields = band_fields()
        v = fields["v"]
        engine = StatsEngine(g, {"v": v, "w": CurlOf("v"), "w2": CurlOf("v"), "o": None,
                                 "curl0": CurlOf("o")})
        assert engine.components["w"].tolist() == engine.components["w2"].tolist() == [3, 4, 5]
        assert engine.components["curl0"].tolist() == engine.components["o"].tolist()
        flat = VectorField3(g, np.full((3, 16, 16, 16), 0.5))
        assert StatsEngine(g, {"c": flat, "w": CurlOf("c")}).components["w"].tolist() == [0] * 3
        with pytest.raises(ValueError, match="must come before it"):
            StatsEngine(g, {"w": CurlOf("v"), "v": v})
        with pytest.raises(ValueError, match="must come before it"):
            StatsEngine(g, {"w": CurlOf("w")})

    def test_default_curl_is_taken_on_the_reduced_grid(self, monkeypatch):
        g = make_grid(32)
        v = random_solenoidal(g, SpectrumSpec(-5.0 / 3.0, 1, 5, 1.0, 7))
        original, seen = _kernels._curl_modes, []

        def spy(kx, ky, kz, vh):
            seen.append((vh.shape, kx.shape, ky.shape, kz.shape))
            return original(kx, ky, kz, vh)

        monkeypatch.setattr(_kernels, "_curl_modes", spy)
        engine = sweep_structure(LawKind.HELICITY, v, [0.2, 0.4], DIRS).engine
        m, modes = engine["m"], engine["modes"]
        assert m < g.n and 0 < modes < m**3
        # Once, on the source's active modes: never at n, never on a box.
        assert seen == [((3, modes), (modes,), (modes,), (modes,))]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_raw_array_is_rejected(bad):
    # The engine takes a VectorField3, which checks its values are finite
    # (a NaN peak would make every mode read as inactive: the zero field);
    # a raw array is refused whatever it holds.
    g, fields = band_fields()
    raw = np.array(fields["h"].values)
    raw[1, 2, 3, 4] = bad
    with pytest.raises(ValueError, match="field 'h' does not match the grid"):
        StatsEngine(g, {"v": fields["v"], "h": raw})


@settings(max_examples=60, deadline=None)
@given(half=st.integers(4, 16), data=st.data())
def test_support_radius_is_the_largest_signed_index(half, data):
    n = 2 * half
    index = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, half))
    nyquist = st.sampled_from([(half, 0, 0), (0, half, 0), (0, 0, half), (n - 1, half, half)])
    picks = data.draw(st.lists(index, max_size=6)) + data.draw(st.lists(nyquist, max_size=2))
    active = np.zeros((n, n, half + 1), dtype=bool)
    for i in picks:
        active[i] = True
    # Index i on a full axis is the wavenumber i or i - n; kz is never negative.
    expected = max((max(min(i, n - i), min(j, n - j), k) for i, j, k in zip(*np.nonzero(active))),
                   default=0)
    assert _kernels._support_radius(active, n) == expected


def test_reduced_size_is_the_smallest_even_fast_length():
    # Every even n in [8, 1024] and every kmax < n: the result is n, or the
    # smallest even 5-smooth m >= 4 with 3*kmax < m < n.
    smooth = sorted(2**a * 3**b * 5**c for a in range(1, 11) for b in range(7) for c in range(5)
                    if 4 <= 2**a * 3**b * 5**c <= 1024)
    for n in range(8, 1025, 2):
        for kmax in range(n):
            i = bisect.bisect_right(smooth, 3 * kmax)
            expected = smooth[i] if i < len(smooth) and smooth[i] < n else n
            assert _kernels._reduced_size(kmax, n) == expected, (kmax, n)


# Requests over the fields v, w = curl v (derived), h and the zero field.
REQUESTS = (
    (LawKind.HELICITY, "v", "w"),
    (LawKind.HELICITY, "h", "v"),
    (LawKind.MHD_ENERGY, "v", "h"),
    (LawKind.MHD_ENERGY, "v", "v"),
    (LawKind.CROSS_HELICITY, "v", "h"),
    (LawKind.CROSS_HELICITY, "h", "zero"),
    (LawKind.HYDRO_ENERGY, "w", "zero"),
)


def derived_fields(seed=3):
    g, fields = band_fields(n=12, kmax=3, seed=seed)
    return g, {**fields, "w": CurlOf("v")}


@settings(max_examples=20, deadline=None)
@given(
    chosen=st.lists(st.sampled_from(REQUESTS), min_size=1, max_size=4, unique=True),
    seed=st.integers(0, 2**16),
)
def test_restricted_rows_match_full_rows(chosen, seed):
    g, fields = derived_fields(seed)
    requests = {str(i): req for i, req in enumerate(chosen)}
    restricted, full = StatsEngine(g, fields), StatsEngine(g, fields)
    every_row(full)  # before any request
    read = set().union(*(
        _kernels._law_triples(law, restricted.components[a], restricted.components[b])
        for law, a, b in chosen
    ))
    zero = restricted.components["zero"][0]
    wanted = {t for t in read if zero not in t}
    for radii in ((0.3, 0.7), (0.5,)):  # each row is built once, by the first ladder
        got = _kernels.angular_term_sums(restricted, requests, radii, DIRS)
        ref = _kernels.angular_term_sums(full, requests, radii, DIRS)
        assert restricted.describe()["series_rows"] == len(wanted)
        for label in requests:
            # An unbuilt row reads NaN, so finite sums never read one.
            assert np.all(np.isfinite(got[label]))
            assert_columns_agree(got[label], ref[label], 1e-12, common=True)
    assert full.describe()["series_rows"] == 165
    mom = rung(restricted, 0.3 * DIRS.directions)
    for t in itertools.combinations_with_replacement(range(zero), 3):
        assert np.all(np.isfinite(mom[t]) if t in wanted else np.isnan(mom[t]))


def test_rows_built_later_match_rows_built_at_once():
    # The band-limited fields are dropped once the requested rows exist and
    # inverted again for a later request, which builds the same rows.
    g, fields = derived_fields()
    later, once = StatsEngine(g, fields), StatsEngine(g, fields)
    every_row(once)
    later._build_rows([(0, 0, 0), (0, 4, 7)])
    assert later.describe()["series_rows"] == 2
    every_row(later)
    assert later.describe()["series_rows"] == 165
    zero = later.components["zero"][0]
    for t in itertools.combinations_with_replacement(range(zero), 3):
        assert np.array_equal(later._coeffs[..., later._row_index[t]],
                              once._coeffs[..., once._row_index[t]])


def test_batched_transforms_match_one_at_a_time(monkeypatch):
    # Stacked band components and stacked pair products are transformed
    # together; with a budget of one element each goes through a transform
    # of its own, and every product and row keeps its bits.
    g, fields = derived_fields()
    batched = StatsEngine(g, fields)
    every_row(batched)
    monkeypatch.setattr(_kernels, "_BATCH", 1)
    single = StatsEngine(g, fields)
    every_row(single)
    components = batched._fields.shape[0]
    assert batched.describe()["pair_products"] == components * (components + 1) // 2
    given = 2  # the forward transforms of v and h; w is CurlOf("v")
    assert batched.transform_calls == given + 2  # m = 10: one batch of each
    pairs = single.describe()["pair_products"]
    assert pairs == batched.describe()["pair_products"]
    assert single.transform_calls == given + components + pairs
    # The products are dropped once the rows exist; rows built from them
    # keep every bit, so the products did.
    assert np.array_equal(batched._row_index, single._row_index)
    assert np.array_equal(batched._coeffs, single._coeffs)


def test_no_band_field_or_product_outlives_the_row_build(monkeypatch):
    # Each band component and each product batch is freed by the time
    # _build_rows returns, on a first and on a later call; rows built later
    # transform again the products they read.
    import weakref

    g, fields = derived_fields()
    engine = StatsEngine(g, fields)
    made = []

    def tracked(method):
        def inner(self, *args):
            out = method(self, *args)
            made.append(weakref.ref(out))
            return out
        return inner

    for name in ("_band_components", "_product_batch"):
        monkeypatch.setattr(StatsEngine, name, tracked(getattr(StatsEngine, name)))
    for build in (lambda: engine._build_rows([(0, 0, 0), (0, 4, 7)]), lambda: every_row(engine)):
        before = len(made)
        build()
        assert len(made) > before
        assert all(ref() is None for ref in made)


def transform_reference(fields: list):
    """The whole-grid path the engine's input transform replaces: (kmax,
    stored spectra) from ``_rfftn`` and ``_active_modes`` of each field."""
    n = fields[0].shape[-1]
    specs, masks = [], []
    for values in fields:
        spec = grid._rfftn(values)
        active = _kernels._active_modes(spec)
        active[0, 0, 0] = False
        if active.any():
            specs.append(spec)
            masks.append(active)
    kmax = max((_kernels._support_radius(a, n) for a in masks), default=0)
    m = _kernels._reduced_size(kmax, n)
    if not specs or m <= 3 * kmax:
        return kmax, specs
    at = np.nonzero(np.logical_or.reduce(masks))
    stored = [spec[(Ellipsis, *at)] for spec in specs]
    for spec in stored:
        if m < n:
            spec *= (m / n) ** 3
    return kmax, stored


FIELD_KINDS = ("band-limited", "faint-shells", "white-noise", "zero", "mean-only",
               "one-zero-component")


def input_field(kind, n, seed, kmax):
    rng = np.random.default_rng(seed)
    if kind == "white-noise":
        return rng.standard_normal((3, n, n, n))
    if kind == "zero":
        return np.zeros((3, n, n, n))
    if kind == "mean-only":
        return np.broadcast_to(rng.standard_normal((3, 1, 1, 1)), (3, n, n, n)).copy()
    v = random_solenoidal(make_grid(n), SpectrumSpec(-5.0 / 3.0, 1, kmax, 1.0, seed)).values
    if kind == "faint-shells":  # active shells 1e-9 below the others
        inner = SpectrumSpec(-5.0 / 3.0, 1, max(1, kmax // 2), 1.0, seed + 1)
        return random_solenoidal(make_grid(n), inner).values + 1e-9 * v
    if kind == "one-zero-component":
        v = v.copy()
        v[2] = 0.0
    return v


@settings(max_examples=30, deadline=None)
@example(n=16, kinds=("band-limited", "band-limited"), seed=3, kmaxes=(2, 5))
@example(n=24, kinds=("faint-shells",), seed=4, kmaxes=(8, 1))
@example(n=12, kinds=("white-noise",), seed=1, kmaxes=(3,))
@example(n=8, kinds=("zero", "mean-only"), seed=2, kmaxes=(1, 1))
@given(
    n=st.sampled_from([8, 12, 16, 24]),
    kinds=st.lists(st.sampled_from(FIELD_KINDS), min_size=1, max_size=2),
    seed=st.integers(0, 2**16),
    kmaxes=st.tuples(st.integers(1, 11), st.integers(1, 11)),
)
def test_input_transform_matches_the_whole_grid_transform(n, kinds, seed, kmaxes):
    # Transformed one component at a time on the lines that can hold an
    # active mode, the given fields give the mask, kmax and stored modes of
    # the whole-grid transform bit for bit: band-limited fields (two of them
    # with different bands, whose union reaches lines one of them skipped),
    # active shells far below the rest, white noise, the zero field, a mean
    # and a field with a zero component.
    fields = [input_field(kind, n, seed + i, min(k, n // 3))
              for i, (kind, k) in enumerate(zip(kinds, kmaxes))]
    for values in fields:
        lines, active = _kernels._input_transform(values)
        assert np.array_equal(active, _kernels._active_modes(grid._rfftn(values)))
    engine = StatsEngine(make_grid(n), {f"f{i}": VectorField3(make_grid(n), values)
                                        for i, values in enumerate(fields)})
    kmax, stored = transform_reference(fields)
    assert engine.kmax == kmax
    expected = np.concatenate(stored) if stored else np.zeros((0,) + engine._fields.shape[1:])
    assert engine._fields.shape == expected.shape
    assert engine._fields.tobytes() == expected.tobytes()


def column_fields(seed=3):
    """Fields of an engine with more columns than radii fit in one pass:
    n = 32, shells 2..10 (K = 2633, 349 columns in 11 kz planes)."""
    g = make_grid(32)
    v, h = (random_solenoidal(g, SpectrumSpec(-5.0 / 3.0, 2, 10, 1.0, s)) for s in (seed, seed + 1))
    return g, {"v": v, "w": curl(v), "h": h, "zero": None}


@pytest.mark.parametrize(
    "make, dirs, passes",
    [(band_fields, DIRS, (1, 3, 5)), (band_fields, direction_set_random(2), (1, 3, 5)),
     (column_fields, direction_set_icosa(2), (3, 3, 5))],
    ids=["icosa1", "one-pair", "columns"],
)
def test_grouped_ladder_matches_radius_by_radius(monkeypatch, make, dirs, passes):
    # Whole radii share one pass of per-column phases and contractions; each
    # radius keeps its own matrix products, so its sums are bitwise those of
    # a ladder of its own, whether the whole ladder fits in one pass, the
    # group boundary falls mid-ladder (2 + 2 + 1 radii) or each radius is a
    # pass, also for one antipodal pair (the cube contraction adds its 27
    # terms in order, whatever the column count).
    g, fields = make()
    radii = np.geomspace(0.05, g.length / 4.0, 5)
    engine = StatsEngine(g, fields)
    single = [_kernels.angular_term_sums(engine, ALL_LAW_REQUESTS, [r], dirs) for r in radii]
    alone = {label: np.concatenate([s[label] for s in single]) for label in ALL_LAW_REQUESTS}
    nhat = dirs._half[0]
    mom = engine.moments(radii[:, None, None] * nhat)
    for i, r in enumerate(radii):
        assert np.array_equal(mom[..., i, :], rung(engine, r * nhat), equal_nan=True)
    calls, moments = [], engine.moments
    monkeypatch.setattr(engine, "moments", lambda *args: calls.append(1) or moments(*args))
    columns = engine._coeffs.shape[1]
    for budget, count in zip((_kernels._BATCH, 2 * columns * len(nhat), 1), passes):
        monkeypatch.setattr(_kernels, "_BATCH", budget)
        before, calls[:] = engine.column_passes, []
        assert_bitwise(_kernels.angular_term_sums(engine, ALL_LAW_REQUESTS, radii, dirs), alone)
        assert (len(calls), engine.column_passes - before) == (count, len(radii))


def test_column_passes_follow_rungs_and_direction_blocks(monkeypatch):
    # The ballshell gate's engine (n = 32, shells 2..5, K = 404) takes its six
    # radial nodes over icosa:1 in one column-sum pass each and five
    # transforms: two forward, one for its 9 band components and two for its
    # 30 products.  The n = 64 field (K = 9843) has one pass per radius, and
    # its 6 band components and 15 products at m = 50 have one transform each.
    g = make_grid(32)
    v, h = (random_solenoidal(g, SpectrumSpec(-5.0 / 3.0, 2, 5, 1.0, s)) for s in (2, 9003))
    engine = StatsEngine(g, {"v": v, "omega": CurlOf("v"), "h": h})
    requests = {
        "helicity": (LawKind.HELICITY, "v", "omega"),
        "mhd-energy": (LawKind.MHD_ENERGY, "v", "h"),
        "cross-helicity": (LawKind.CROSS_HELICITY, "v", "h"),
    }
    _kernels.angular_term_sums(engine, requests, np.linspace(0.05, 0.4, 6), DIRS)
    work = engine.describe()
    assert (work["modes"], work["series_rows"], work["pair_products"]) == (404, 74, 30)
    assert (work["column_passes"], work["transform_calls"]) == (6, 5)

    g = make_grid(64)
    v = random_solenoidal(g, SpectrumSpec(-5.0 / 3.0, 2, 16, 1.0, 3))
    engine = StatsEngine(g, {"v": v, "omega": CurlOf("v")})
    _kernels.angular_term_sums(engine, {"x": (LawKind.HELICITY, "v", "omega")}, [0.2, 0.8], DIRS)
    work = engine.describe()
    assert (work["m"], work["modes"], work["pair_products"]) == (50, 9843, 15)
    assert (work["column_passes"], work["transform_calls"]) == (2, 1 + 6 + 15)
    # With room for one separation per block, a rung has a pass per direction.
    monkeypatch.setattr(_kernels, "_MOMENT_BLOCK", 1)
    rung(engine, 0.2 * DIRS.directions)
    assert engine.describe()["column_passes"] == 2 + len(DIRS.directions)


@pytest.mark.parametrize("dirs", [direction_set_icosa(2), direction_set_random(40)],
                         ids=["icosa2", "random40"])
def test_column_sums_match_the_sine_table(dirs):
    # The column sums give the all-modes sine table, evaluated here from the
    # modes' wavevectors and G per mode, to round-off of each row's largest
    # value, and the series summed in long double to round-off of each
    # separation's largest moment, at every radius and on a rung that mixes
    # |l| = 0.01 and 0.8.
    g, fields = column_fields()
    engine = StatsEngine(g, {"v": fields["v"], "w": CurlOf("v")})
    box = engine._box
    kvec = np.stack([engine._axis[box[0]], engine._axis[box[1]], engine._kz[box[2]]], axis=1)
    # G per mode, read from its (kz plane, column) table once every row is
    # built: the columns (kx, ky) that hold a mode, in raster order of the
    # band box.
    every_row(engine)
    cells = box[0] * (2 * engine.kmax + 1) + box[1]
    coeffs = engine._coeffs[box[2], np.searchsorted(np.unique(cells), cells)].T
    mixed = np.where(np.arange(len(dirs.directions))[:, None] % 2 == 0, 0.01, 0.8)
    for ells in [r * dirs.directions for r in (0.01, 0.05, 0.2, 0.8)] + [mixed * dirs.directions]:
        mom = rung(engine, ells)
        x = kvec.astype(np.longdouble) @ ells.T.astype(np.longdouble)
        series = coeffs.astype(np.longdouble) @ (np.sin(x) - x)
        # Rows in M's layout: past the built rows come the zero field's row
        # and the row of triples not built (none are here), both zero.
        expand = lambda rows: np.concatenate([rows, np.zeros((2, len(ells)))])[engine._row_index]
        table = expand(coeffs @ _kernels._sin_minus_x(kvec @ ells.T))
        exact = expand(series.astype(float))
        row_max = np.max(np.abs(table), axis=-1, keepdims=True)
        assert np.all(np.abs(mom - table) <= 1e-13 * row_max)
        column_max = np.max(np.abs(exact).reshape(-1, len(ells)), axis=0)
        assert np.all(np.abs(mom - exact) <= 2e-14 * column_max)


def test_per_shift_build_keeps_one_spectrum():
    # A lone field's spectrum is kept as transformed, not copied: white noise
    # at n = 48 peaks at 1.34 times its spectrum (2.02 times with the copy).
    g = make_grid(48)
    v = VectorField3(g, np.random.default_rng(4).standard_normal((3, 48, 48, 48)))
    tracemalloc.start()
    try:
        engine = StatsEngine(g, {"a": v, "b": None})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert engine.evaluation == "per-shift-fft"
    assert peak <= 1.5 * engine._fields.nbytes


def test_per_shift_separation_allocates_no_whole_grid_array():
    # After the first separation has made the kept buffers, a separation and
    # its kernel pass allocate the two n.d arrays of one component's size and
    # small ones: the z pass goes one component at a time through a kept
    # buffer and the trace pieces are one-pass contractions.
    n = 32
    g = make_grid(n)
    rng = np.random.default_rng(5)
    engine = StatsEngine(g, {"a": VectorField3(g, rng.standard_normal((3, n, n, n))),
                             "b": VectorField3(g, rng.standard_normal((3, n, n, n)))})
    assert engine.evaluation == "per-shift-fft"
    nhat = np.array([0.0, 0.6, 0.8])
    engine.increments(np.array([0.1, 0.2, 0.3]))
    tracemalloc.start()
    try:
        deltas = engine.increments(np.array([0.1, 0.2, 0.4]))
        term_means(LawKind.MHD_ENERGY, deltas["a"], deltas["b"], nhat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * n**3 * 8


@pytest.mark.parametrize("law", ALL_LAWS)
@pytest.mark.parametrize(
    "b", [np.arange(3, 6), np.arange(3), np.full(3, 3)], ids=["distinct", "equal", "zero"]
)
def test_law_triples_match_the_kernel_algebra(law, b):
    # Read from the law's patterns, the rows equal those the kernel algebra
    # contracts, for a second field of its own, equal to the first (a == b)
    # and zero (index 3, the zero field's index beside one field with modes).
    a = np.arange(3)
    assert _kernels._law_triples(law, a, b) == law_triples_by_replay(law, a, b)


class TestRestrictedExactGates:
    def ball(self, g, fields, request, eps=0.4):
        matrix = dissipation_matrix(g, fields, {"x": request}, bump_mollifier(), [eps], 8, DIRS)
        return matrix["x"]["ball"]["L"][0]

    def test_zero_field_builds_nothing_and_reads_zero(self):
        g, fields = band_fields()
        engine = StatsEngine(g, {"v": fields["v"], "zero": None})
        sums = _kernels.angular_term_sums(
            engine, {"x": (LawKind.CROSS_HELICITY, "v", "zero")}, [0.3], DIRS
        )
        assert not np.any(sums["x"])
        assert engine.describe()["series_rows"] == 0
        assert self.ball(g, {"v": fields["v"], "zero": None},
                         (LawKind.CROSS_HELICITY, "v", "zero")) == 0.0

    def test_halving_and_alignment_on_separate_engines(self):
        # Each law on an engine of its own builds only the rows it reads.
        g, fields = band_fields(n=24, kmax=6, seed=19)
        v = {"v": fields["v"], "zero": None}
        hel = self.ball(g, v, (LawKind.HELICITY, "v", "v"))
        energy = self.ball(g, v, (LawKind.MHD_ENERGY, "v", "zero"))
        assert energy != 0.0
        assert abs(hel - 0.5 * energy) <= 1e-12 * abs(0.5 * energy)
        rms3 = fields["v"].rms() ** 3
        for law in (LawKind.MHD_ENERGY, LawKind.CROSS_HELICITY):
            assert abs(self.ball(g, v, (law, "v", "v"))) <= 1e-12 * rms3
