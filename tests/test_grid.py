"""Grid, field, spectral-operator, and file-format tests."""

import os
import tempfile
import threading

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from exactlaws.grid import (
    _run_blocks,
    FieldFileError,
    ScalarField,
    VectorField3,
    curl,
    divergence,
    inner_mean,
    make_grid,
    project_solenoidal,
    read_field,
    shift,
    volume_mean,
    write_field,
)
from exactlaws.synth import abc_flow, random_solenoidal, SpectrumSpec


def symbolic_vector_field(grid, exprs):
    """Evaluate sympy expressions of (x, y, z) on the grid."""
    x, y, z = sp.symbols("x y z")
    X, Y, Z = grid.mesh()
    comps = []
    for e in exprs:
        fn = sp.lambdify((x, y, z), e, "numpy")
        comps.append(np.broadcast_to(fn(X, Y, Z), X.shape).astype(float))
    return VectorField3(grid, np.stack(comps))


def symbolic_curl(exprs):
    x, y, z = sp.symbols("x y z")
    fx, fy, fz = exprs
    return (
        sp.diff(fz, y) - sp.diff(fy, z),
        sp.diff(fx, z) - sp.diff(fz, x),
        sp.diff(fy, x) - sp.diff(fx, y),
    )


def symbolic_divergence(exprs):
    x, y, z = sp.symbols("x y z")
    return sum(sp.diff(e, s) for e, s in zip(exprs, (x, y, z)))


class TestMakeGrid:
    def test_spacing(self):
        g = make_grid(64, 2 * np.pi)
        assert g.spacing == 2 * np.pi / 64
        assert g.spacing * g.n == g.length

    def test_small_grid(self):
        assert make_grid(8, 1.0).spacing == 0.125

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError, match="even"):
            make_grid(7)

    def test_tiny_n_rejected(self):
        with pytest.raises(ValueError):
            make_grid(6)

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            make_grid(16, 0.0)


class TestSpectralOperators:
    def test_curl_abc_is_beltrami(self):
        g = make_grid(16)
        v = abc_flow(g)
        w = curl(v)
        assert np.max(np.abs(w.values - v.values)) <= 1e-10

    def test_curl_matches_symbolic(self):
        x, y, z = sp.symbols("x y z")
        exprs = (sp.Integer(0), sp.Integer(0), sp.sin(x))
        g = make_grid(16)
        v = symbolic_vector_field(g, exprs)
        expected = symbolic_vector_field(g, symbolic_curl(exprs))
        got = curl(v)
        assert np.max(np.abs(got.values - expected.values)) <= 1e-12

    def test_curl_constant_is_zero(self):
        g = make_grid(8)
        v = VectorField3(g, np.ones((3, 8, 8, 8)))
        assert np.max(np.abs(curl(v).values)) <= 1e-14

    def test_divergence_abc(self):
        g = make_grid(16)
        assert np.max(np.abs(divergence(abc_flow(g)).values)) <= 1e-12

    def test_divergence_matches_symbolic(self):
        x, y, z = sp.symbols("x y z")
        exprs = (sp.sin(x), sp.Integer(0), sp.Integer(0))
        g = make_grid(16)
        v = symbolic_vector_field(g, exprs)
        X, _, _ = g.mesh()
        got = divergence(v)
        assert np.max(np.abs(got.values - np.cos(X))) <= 1e-12

    def test_divergence_constant(self):
        g = make_grid(8)
        v = VectorField3(g, np.full((3, 8, 8, 8), 2.5))
        assert np.max(np.abs(divergence(v).values)) == 0.0

    def test_divergence_of_curl_vanishes(self):
        g = make_grid(16)
        rng = np.random.default_rng(2)
        v = VectorField3(g, rng.standard_normal((3, 16, 16, 16)))
        w = curl(v)
        assert np.max(np.abs(divergence(w).values)) <= 1e-12 * w.rms()


class TestProjection:
    def test_abc_unchanged(self):
        g = make_grid(16)
        v = abc_flow(g)
        p = project_solenoidal(v)
        assert np.max(np.abs(p.values - v.values)) <= 1e-12

    def test_gradient_annihilated(self):
        g = make_grid(16)
        X, _, _ = g.mesh()
        grad = VectorField3(g, np.stack([np.cos(X), np.zeros_like(X), np.zeros_like(X)]))
        p = project_solenoidal(grad)
        assert np.max(np.abs(p.values)) <= 1e-13

    def test_random_field_solenoidal_and_idempotent(self):
        g = make_grid(16)
        rng = np.random.default_rng(5)
        v = VectorField3(g, rng.standard_normal((3, 16, 16, 16)))
        p = project_solenoidal(v)
        rms = p.rms()
        assert np.max(np.abs(divergence(p).values)) <= 1e-12 * max(rms, 1.0)
        pp = project_solenoidal(p)
        assert np.max(np.abs(pp.values - p.values)) <= 1e-13


class TestShift:
    def test_zero_shift_identity(self):
        g = make_grid(16)
        v = abc_flow(g)
        s = shift(v, (0.0, 0.0, 0.0))
        assert np.max(np.abs(s.values - v.values)) <= 1e-14

    def test_halfperiod_shift_of_sine(self):
        g = make_grid(16)
        X, _, _ = g.mesh()
        f = ScalarField(g, np.sin(X))
        s = shift(f, (np.pi, 0.0, 0.0))
        assert np.max(np.abs(s.values + np.sin(X))) <= 1e-12

    def test_lattice_shift_equals_roll(self):
        g = make_grid(16)
        v = random_solenoidal(g, SpectrumSpec(-2.0, 1, 5, 1.0, 3))
        s = shift(v, (g.spacing, 0.0, 0.0))
        rolled = np.roll(v.values, -1, axis=1)
        assert np.max(np.abs(s.values - rolled)) <= 1e-12

    def test_shift_composition(self):
        g = make_grid(16)
        v = random_solenoidal(g, SpectrumSpec(-2.0, 1, 5, 1.0, 4))
        l1 = np.array([0.3, -0.7, 0.11])
        l2 = np.array([-1.2, 0.05, 0.4])
        once = shift(v, l1 + l2)
        twice = shift(shift(v, l1), l2)
        assert np.max(np.abs(once.values - twice.values)) <= 1e-12

    def test_shift_commutes_with_curl(self):
        g = make_grid(16)
        v = random_solenoidal(g, SpectrumSpec(-2.0, 1, 5, 1.0, 6))
        ell = (0.37, 1.1, -0.52)
        a = curl(shift(v, ell))
        b = shift(curl(v), ell)
        scale = np.max(np.abs(b.values))
        assert np.max(np.abs(a.values - b.values)) <= 1e-12 * scale

    def test_mean_translation_invariant(self):
        g = make_grid(16)
        X, Y, _ = g.mesh()
        f = ScalarField(g, np.sin(X) * np.cos(2 * Y) + 0.25)
        assert abs(volume_mean(shift(f, (0.21, -0.9, 1.4))) - volume_mean(f)) <= 1e-13


class TestMeans:
    def test_constant_mean(self):
        g = make_grid(8)
        f = ScalarField(g, np.full((8, 8, 8), 3.25))
        assert volume_mean(f) == 3.25

    def test_abc_energy_against_trapezoid(self):
        g = make_grid(16)
        v = abc_flow(g)
        got = inner_mean(v, v)
        # Independent oracle: trapezoid integration of the closed form on a
        # finer mesh with the periodic endpoint appended.
        n = 48
        t = np.linspace(0.0, 2 * np.pi, n + 1)
        X, Y, Z = np.meshgrid(t, t, t, indexing="ij")
        vals = (
            (np.sin(Z) + np.cos(Y)) ** 2
            + (np.sin(X) + np.cos(Z)) ** 2
            + (np.sin(Y) + np.cos(X)) ** 2
        )
        integral = np.trapezoid(np.trapezoid(np.trapezoid(vals, t), t), t)
        oracle = integral / (2 * np.pi) ** 3
        assert abs(got - oracle) <= 1e-6
        assert abs(got - 3.0) <= 1e-12

    def test_beltrami_helicity(self):
        g = make_grid(16)
        v = abc_flow(g)
        assert abs(inner_mean(v, curl(v)) - 3.0) <= 1e-12

    def test_grid_mismatch(self):
        v1 = abc_flow(make_grid(8))
        v2 = abc_flow(make_grid(16))
        with pytest.raises(ValueError, match="different grids"):
            inner_mean(v1, v2)


class TestFieldFiles:
    def test_vector_round_trip(self, tmp_path):
        g = make_grid(8, 1.5)
        rng = np.random.default_rng(0)
        v = VectorField3(g, rng.standard_normal((3, 8, 8, 8)))
        path = tmp_path / "v.fld"
        write_field(v, path)
        back = read_field(path)
        assert isinstance(back, VectorField3)
        assert back.grid == g
        assert np.array_equal(back.values, v.values)

    def test_scalar_round_trip(self, tmp_path):
        g = make_grid(8)
        f = ScalarField(g, np.random.default_rng(1).standard_normal((8, 8, 8)))
        path = tmp_path / "f.fld"
        write_field(f, path)
        back = read_field(path)
        assert isinstance(back, ScalarField)
        assert np.array_equal(back.values, f.values)

    def test_x_fastest_layout(self, tmp_path):
        g = make_grid(8)
        v = abc_flow(g)
        path = tmp_path / "v.fld"
        write_field(v, path)
        raw = np.fromfile(path, dtype="<f8", offset=24)
        # First 8 payload entries walk the x axis of component 0.
        assert np.array_equal(raw[:8], v.values[0, :, 0, 0])

    def test_read_peak_memory(self, tmp_path):
        import tracemalloc

        g = make_grid(32)
        v = VectorField3(g, np.random.default_rng(4).standard_normal((3, 32, 32, 32)))
        path = tmp_path / "v.fld"
        write_field(v, path)
        payload = v.values.nbytes
        tracemalloc.start()
        try:
            back = read_field(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.values, v.values)
        assert back.values.flags.c_contiguous
        assert peak <= 2.2 * payload

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.fld"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(FieldFileError, match="not an EXL1 file"):
            read_field(path)

    def test_bad_version(self, tmp_path):
        g = make_grid(8)
        path = tmp_path / "v.fld"
        write_field(abc_flow(g), path)
        data = bytearray(path.read_bytes())
        data[4] = 9
        path.write_bytes(bytes(data))
        with pytest.raises(FieldFileError, match="version"):
            read_field(path)

    def test_truncated_payload(self, tmp_path):
        g = make_grid(8)
        path = tmp_path / "v.fld"
        write_field(abc_flow(g), path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(FieldFileError, match="short read"):
            read_field(path)

    def test_bad_ncomp(self, tmp_path):
        g = make_grid(8)
        path = tmp_path / "v.fld"
        write_field(abc_flow(g), path)
        data = bytearray(path.read_bytes())
        data[20] = 2  # ncomp field
        path.write_bytes(bytes(data))
        with pytest.raises(FieldFileError, match="dimension mismatch"):
            read_field(path)

    def test_trailing_data(self, tmp_path):
        g = make_grid(8)
        path = tmp_path / "v.fld"
        write_field(abc_flow(g), path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(FieldFileError, match="trailing"):
            read_field(path)


class TestFieldValidation:
    def test_non_finite_rejected(self):
        g = make_grid(8)
        bad = np.zeros((3, 8, 8, 8))
        bad[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            VectorField3(g, bad)

    def test_shape_mismatch_rejected(self):
        g = make_grid(8)
        with pytest.raises(ValueError, match="shape"):
            VectorField3(g, np.zeros((3, 8, 8, 4)))

    @pytest.mark.parametrize("kind", [VectorField3, ScalarField])
    def test_contiguous_float64_array_taken_over(self, kind):
        # No copy: the field keeps the caller's array and makes it read-only.
        g = make_grid(8)
        a = np.zeros((3, 8, 8, 8) if kind is VectorField3 else (8, 8, 8))
        f = kind(g, a)
        assert f.values is a
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1.0

    @pytest.mark.parametrize(
        "make",
        [
            lambda: np.zeros((3, 8, 8, 8), dtype=np.float32),
            lambda: np.zeros((3, 8, 8, 16))[..., ::2],
            lambda: np.zeros((3, 8, 8, 8)).tolist(),
        ],
        ids=["float32", "strided-view", "list"],
    )
    def test_other_input_copied(self, make):
        a = make()
        f = VectorField3(make_grid(8), a)
        assert f.values is not a and not f.values.flags.writeable
        if isinstance(a, np.ndarray):
            assert not np.shares_memory(f.values, a)
            a[0, 0, 0, 0] = 1.0
        else:
            a[0][0][0][0] = 1.0
        assert f.values[0, 0, 0, 0] == 0.0


SPECIAL_VALUES = (0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308)


@settings(max_examples=30, deadline=None)
@given(
    n=st.sampled_from([8, 10, 12, 16]),
    length=st.floats(1e-6, 1e6),
    vector=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.integers(-300, 300),
    specials=st.lists(st.sampled_from(SPECIAL_VALUES), max_size=5),
)
def test_field_file_round_trip_bitwise(n, length, vector, seed, exponent, specials):
    g = make_grid(n, length)
    values = np.random.default_rng(seed).standard_normal((3, n, n, n) if vector else (n, n, n))
    values *= 10.0**exponent
    values.reshape(-1)[: len(specials)] = specials
    fld = VectorField3(g, values) if vector else ScalarField(g, values)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.fld")
        write_field(fld, path)
        back = read_field(path)
    assert type(back) is type(fld)
    assert back.grid == g
    assert back.values.tobytes() == fld.values.tobytes()


class TestRunBlocks:
    """``_run_blocks``, which runs the blocks of each per-shift pass on the
    calling thread and the helper threads."""

    def test_the_blocks_cover_the_range_once(self):
        seen = []
        assert _run_blocks(seen.append, 10, 3) == 3
        assert sorted(i for s in seen for i in range(10)[s]) == list(range(10))

    def test_an_error_in_a_helper_block_is_raised_and_the_helpers_stay_usable(self):
        def job(s):
            if s.start:  # not the calling thread's block
                raise ZeroDivisionError(s)

        with pytest.raises(ZeroDivisionError):
            _run_blocks(job, 4, 2)
        seen = []
        assert _run_blocks(seen.append, 4, 2) == 2
        assert sorted(s.start for s in seen) == [0, 2]

    def test_a_thread_that_finds_the_helpers_busy_runs_its_range_inline(self):
        holding, release, counts = threading.Event(), threading.Event(), []

        def hold(s):
            if s.start == 0:
                holding.set()
                release.wait(60)

        thread = threading.Thread(target=lambda: counts.append(_run_blocks(hold, 2, 2)))
        thread.start()
        try:
            assert holding.wait(60)
            seen = []
            assert _run_blocks(lambda s: seen.append((s, threading.get_ident())), 4, 2) == 1
        finally:
            release.set()
            thread.join(60)
        assert not thread.is_alive() and counts == [2]
        assert seen == [(slice(0, 4), threading.get_ident())]
