"""Direction sets, increments, projections, and the pointwise identities."""

import numpy as np
import pytest

from exactlaws.geometry import (
    DirectionSet,
    direction_set_icosa,
    direction_set_random,
    dndl,
    identity227,
    increment,
    parse_direction_spec,
    split_long_trans,
    triple_product_check,
)
from exactlaws.geometry import identity227_batch
from exactlaws.grid import VectorField3, make_grid
from exactlaws.synth import abc_flow

from oracles import antipodal_half


class TestDirectionSets:
    def test_icosa_counts(self):
        for level, count in enumerate((12, 42, 162, 642)):
            ds = direction_set_icosa(level)
            assert len(ds) == count
            assert np.allclose(ds.weights, 1.0 / count)

    def test_face_table_matches_convex_hull(self):
        from scipy.spatial import ConvexHull

        from exactlaws.geometry import _base_icosahedron

        verts, faces = _base_icosahedron()
        hull = ConvexHull(verts).simplices
        assert len(faces) == 20
        assert {tuple(sorted(f)) for f in faces} == {tuple(sorted(int(i) for i in f)) for f in hull}

    def test_level_out_of_range(self):
        with pytest.raises(ValueError):
            direction_set_icosa(6)

    def test_first_moment_vanishes(self):
        for ds in (direction_set_icosa(1), direction_set_random(64, 3)):
            assert np.max(np.abs(ds.first_moment())) <= 1e-14

    def test_icosa_second_moment(self):
        assert direction_set_icosa(2).second_moment_error() <= 1e-3

    def test_random_second_moment(self):
        assert direction_set_random(512, 7).second_moment_error() <= 0.05

    def test_random_minimal(self):
        ds = direction_set_random(2, 0)
        assert len(ds) == 2
        assert np.allclose(ds.directions[0], -ds.directions[1])
        assert np.allclose(ds.weights, 0.5)

    def test_random_odd_rejected(self):
        with pytest.raises(ValueError):
            direction_set_random(5, 0)

    def test_antipodal_validation(self):
        d = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match="antipodal"):
            DirectionSet(d, np.array([0.5, 0.5]))

    def test_non_finite_directions_and_weights_rejected(self):
        # Every comparison with NaN is false, so NaN weights would pass the
        # positivity and unit-sum checks and make every sum over the set NaN.
        d = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            DirectionSet(d, np.array([np.nan, np.nan, 0.5, 0.5]))
        bad = d.copy()
        bad[0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            DirectionSet(bad, np.full(4, 0.25))

    @pytest.mark.parametrize("spec", ["icosa:0", "icosa:1", "icosa:2", "icosa:3", "random:40:3"])
    def test_antipodal_half_matches_loop(self, spec):
        # The pairing is computed once per set; it must keep the loop's order,
        # representatives and weight sums bit for bit.
        dirs = parse_direction_spec(spec)
        nhat, weights = dirs._half
        ref_nhat, ref_weights = antipodal_half(dirs)
        assert nhat.shape == (len(dirs) // 2, 3)
        assert np.array_equal(nhat, ref_nhat) and np.array_equal(weights, ref_weights)

    def test_parse_specs(self):
        assert len(parse_direction_spec("icosa:1")) == 42
        assert len(parse_direction_spec("random:10:3")) == 10
        with pytest.raises(ValueError):
            parse_direction_spec("cube:3")

    def test_corrupted_weights_break_second_moment(self):
        # Moving weight onto one antipodal pair keeps the set formally valid
        # but must be caught by the second-moment threshold the self-test uses.
        base = direction_set_icosa(2)
        d = base.directions
        partner = int(np.argmin(np.linalg.norm(d + d[0], axis=1)))
        w = base.weights.copy()
        w[0] += 0.05
        w[partner] += 0.05
        w /= w.sum()
        corrupted = DirectionSet(d, w)
        assert corrupted.second_moment_error() > 1e-3


class TestDirectionSetEquality:
    def test_equal_sets(self):
        a, b = direction_set_icosa(1), direction_set_icosa(1)
        assert a == b and not (a != b)
        assert hash(a) == hash(b) and len({a, b}) == 1
        assert parse_direction_spec("random:24") == parse_direction_spec("random:24")

    def test_unequal_sets(self):
        a = direction_set_icosa(1)
        assert a != direction_set_icosa(2)
        assert a != DirectionSet(a.directions, a.weights, "custom")
        weights = a.weights.copy()
        weights[0] += 0.005
        weights[1] -= 0.005
        assert a != DirectionSet(a.directions, weights, a.descriptor)
        assert a != DirectionSet(a.directions[::-1], a.weights, a.descriptor)

    def test_label_is_the_descriptor_or_the_count(self):
        a = direction_set_icosa(1)
        assert a.label == "icosa:1"
        assert DirectionSet(a.directions, a.weights).label == "custom:42"

    def test_other_types(self):
        a = direction_set_icosa(0)
        assert (a == "icosa:0") is False
        assert (a == 12) is False
        assert a != None  # noqa: E711

    def test_signed_zeros_hash_alike(self):
        axis = np.array([[0.0, 1.0, 0.0], [0.0, -1.0, 0.0]])
        a = DirectionSet(axis, np.array([0.5, 0.5]))
        b = DirectionSet(axis * np.array([-1.0, 1.0, -1.0]), np.array([0.5, 0.5]))
        assert a == b and hash(a) == hash(b)


class TestIncrement:
    def test_zero_separation(self):
        v = abc_flow(make_grid(8))
        d = increment(v, (0.0, 0.0, 0.0))
        assert np.max(np.abs(d.values)) <= 1e-14

    def test_constant_field(self):
        g = make_grid(8)
        v = VectorField3(g, np.full((3, 8, 8, 8), 1.7))
        d = increment(v, (0.3, -0.2, 0.9))
        assert np.max(np.abs(d.values)) <= 1e-13

    def test_sine_halfperiod(self):
        g = make_grid(16)
        X, _, _ = g.mesh()
        v = VectorField3(g, np.stack([np.sin(X)] * 3))
        d = increment(v, (np.pi, 0.0, 0.0))
        assert np.max(np.abs(d.values + 2.0 * np.sin(X))) <= 1e-12


class TestSplitLongTrans:
    def test_axis_case(self):
        g = make_grid(8)
        du = VectorField3(g, np.stack([np.full((8, 8, 8), c) for c in (1.0, 2.0, 3.0)]))
        pair = split_long_trans(du, np.array([1.0, 0.0, 0.0]))
        assert np.allclose(pair.longitudinal.values[0], 1.0)
        assert np.max(np.abs(pair.longitudinal.values[1:])) == 0.0
        assert np.allclose(pair.transverse.values[1], 2.0)

    def test_perpendicular_increment(self):
        g = make_grid(8)
        du = VectorField3(g, np.stack([np.zeros((8, 8, 8)), np.ones((8, 8, 8)), np.zeros((8, 8, 8))]))
        pair = split_long_trans(du, np.array([1.0, 0.0, 0.0]))
        assert np.max(np.abs(pair.longitudinal.values)) == 0.0

    def test_diagonal_direction(self):
        g = make_grid(8)
        du = VectorField3(g, np.stack([np.ones((8, 8, 8)), np.zeros((8, 8, 8)), np.zeros((8, 8, 8))]))
        nhat = np.ones(3) / np.sqrt(3.0)
        pair = split_long_trans(du, nhat)
        assert np.allclose(pair.longitudinal.values, 1.0 / 3.0)

    def test_completeness_and_orthogonality(self):
        g = make_grid(8)
        rng = np.random.default_rng(12)
        du = VectorField3(g, rng.standard_normal((3, 8, 8, 8)))
        nhat = rng.standard_normal(3)
        nhat /= np.linalg.norm(nhat)
        pair = split_long_trans(du, nhat)
        total = pair.longitudinal.values + pair.transverse.values
        assert np.max(np.abs(total - du.values)) <= 1e-13
        dot = np.einsum("cxyz,cxyz->xyz", pair.longitudinal.values, pair.transverse.values)
        assert np.max(np.abs(dot)) <= 1e-12

    def test_non_unit_rejected(self):
        g = make_grid(8)
        du = VectorField3(g, np.zeros((3, 8, 8, 8)))
        with pytest.raises(ValueError, match="unit"):
            split_long_trans(du, np.array([1.0, 1.0, 0.0]))


class TestDndl:
    def test_axis_value(self):
        M = dndl(np.array([1.0, 0.0, 0.0]))
        assert np.allclose(M, np.diag([0.0, 1.0, 1.0]))

    def test_symmetry_and_trace(self):
        ell = np.array([0.3, -1.2, 0.7])
        M = dndl(ell)
        assert np.allclose(M, M.T)
        assert abs(np.trace(M) - 2.0 / np.linalg.norm(ell)) <= 1e-14

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(3)
        h = 1e-5
        for _ in range(20):
            ell = rng.standard_normal(3)
            if np.linalg.norm(ell) < 0.5:
                continue
            M = dndl(ell)
            fd = np.zeros((3, 3))
            for k in range(3):
                ep = ell.copy()
                em = ell.copy()
                ep[k] += h
                em[k] -= h
                fd[:, k] = (ep / np.linalg.norm(ep) - em / np.linalg.norm(em)) / (2 * h)
            assert np.max(np.abs(M - fd)) <= 1e-8

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            dndl(np.zeros(3))


class TestIdentity:
    def test_equal_vectors_vanish(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            ell = rng.standard_normal(3)
            A = rng.standard_normal(3)
            lhs, rhs = identity227(ell, A, A, A)
            assert abs(lhs) <= 1e-12
            assert abs(rhs) <= 1e-12

    def test_hand_case(self):
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0])
        lhs, rhs = identity227(e1, e1, e2, e2)
        assert abs(lhs + 2.0) <= 1e-14
        assert abs(rhs + 2.0) <= 1e-14

    def test_random_samples(self):
        rng = np.random.Generator(np.random.Philox(key=[99, 0]))
        m = 10_000
        ells = rng.standard_normal((m, 3))
        ells /= np.linalg.norm(ells, axis=1)[:, None]
        ells *= rng.uniform(0.05, 2.0, m)[:, None]
        A, B, C = (rng.standard_normal((m, 3)) for _ in range(3))
        lhs, rhs = identity227_batch(ells, A, B, C)
        assert np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs))) <= 1e-10

    def test_scaling_covariance(self):
        rng = np.random.default_rng(8)
        ell = rng.standard_normal(3)
        A, B, C = (rng.standard_normal(3) for _ in range(3))
        lhs1, rhs1 = identity227(ell, A, B, C)
        for lam in (0.5, 2.0, 7.3):
            lhs2, rhs2 = identity227(lam * ell, A, B, C)
            assert abs(lhs2 * lam - lhs1) <= 1e-12 * (1 + abs(lhs1))
            assert abs(rhs2 * lam - rhs1) <= 1e-12 * (1 + abs(rhs1))

    def test_zero_separation_rejected(self):
        with pytest.raises(ValueError):
            identity227(np.zeros(3), np.ones(3), np.ones(3), np.ones(3))


class TestTripleProduct:
    def test_axis_case(self):
        assert triple_product_check(np.array([1.0, 0, 0]), np.array([0.0, 1, 0])) == 0.0

    def test_parallel_case(self):
        X = np.array([0.4, -1.0, 2.0])
        assert triple_product_check(X, 3.0 * X) <= 1e-13

    def test_random(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            assert triple_product_check(rng.standard_normal(3), rng.standard_normal(3)) <= 1e-13
