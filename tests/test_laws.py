"""Structure-function combinations: examples, invariants, oracle equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactlaws._kernels import StatsEngine
from exactlaws.geometry import direction_set_icosa, direction_set_random
from exactlaws.grid import VectorField3, curl, make_grid
from exactlaws.laws import (
    COMBINE_COEFFS,
    _line_fit,
    LawKind,
    RawCombos,
    combine,
    dr_fourthirds,
    elsasser,
    elsasser_inverse,
    fit_power_law,
    power_law_fit,
    raw_combos,
    sweep_structure,
    yaglom_helicity,
)
from exactlaws.mollifier import (
    bump_mollifier,
    d_ball,
    dissipation_matrix,
    dr_dissipation,
    sweep_dissipation,
)
from exactlaws.synth import SpectrumSpec, abc_flow, random_solenoidal, taylor_green

from oracles import naive_fourthirds, naive_raw_combos, naive_yaglom

DIRS12 = direction_set_icosa(0)
ALL_LAWS = (LawKind.HYDRO_ENERGY, LawKind.HELICITY, LawKind.MHD_ENERGY, LawKind.CROSS_HELICITY)


def random_pair(n=8, kmax=2, seeds=(3, 4)):
    g = make_grid(n)
    v = random_solenoidal(g, SpectrumSpec(-5.0 / 3.0, 1, kmax, 1.0, seeds[0]))
    h = random_solenoidal(g, SpectrumSpec(-5.0 / 3.0, 1, kmax, 1.0, seeds[1]))
    return g, v, h


class TestCombine:
    def test_flux_free(self):
        rc = RawCombos(LawKind.HELICITY, 0.1, 1.0, 0.0, 0.0)
        assert combine(LawKind.HELICITY, rc) == (1.0, 0.0)

    def test_helicity_flux_coefficients(self):
        rc = RawCombos(LawKind.HELICITY, 0.1, 0.0, 0.0, 1.0)
        s_l, s_t = combine(LawKind.HELICITY, rc)
        assert (s_l, s_t) == (-0.4, 0.4)

    def test_cross_helicity_flux_coefficients(self):
        rc = RawCombos(LawKind.CROSS_HELICITY, 0.1, 0.0, 0.0, 1.0)
        assert combine(LawKind.CROSS_HELICITY, rc) == (-0.8, 0.8)

    def test_mhd_energy_flux_coefficients(self):
        rc = RawCombos(LawKind.MHD_ENERGY, 0.1, 0.0, 0.0, 1.0)
        assert combine(LawKind.MHD_ENERGY, rc) == (0.8, -0.8)

    def test_law_mismatch(self):
        rc = RawCombos(LawKind.HELICITY, 0.1, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="law mismatch"):
            combine(LawKind.MHD_ENERGY, rc)


class TestRawCombos:
    def test_constant_field_zero(self):
        g = make_grid(8)
        v = VectorField3(g, np.full((3, 8, 8, 8), 0.8))
        for law in ALL_LAWS:
            w = v if law in (LawKind.HELICITY, LawKind.MHD_ENERGY, LawKind.CROSS_HELICITY) else None
            rc = raw_combos(law, v, w, 0.3, DIRS12)
            assert abs(rc.raw_L) <= 1e-14
            assert abs(rc.raw_T) <= 1e-14
            assert abs(rc.raw_flux) <= 1e-14

    def test_hydro_equals_mhd_with_zero_h(self):
        g, v, _ = random_pair()
        zero = VectorField3(g, np.zeros((3, 8, 8, 8)))
        a = raw_combos(LawKind.HYDRO_ENERGY, v, None, 0.3, DIRS12)
        b = raw_combos(LawKind.MHD_ENERGY, v, zero, 0.3, DIRS12)
        assert (a.raw_L, a.raw_T, a.raw_flux) == (b.raw_L, b.raw_T, b.raw_flux)

    def test_beltrami_flux_vanishes(self):
        g = make_grid(16)
        v = abc_flow(g)
        rc = raw_combos(LawKind.HELICITY, v, v, 0.3, DIRS12)
        assert rc.raw_flux == 0.0

    def test_beltrami_halves_hydro(self):
        g, v, _ = random_pair(n=16, kmax=4)
        hel = raw_combos(LawKind.HELICITY, v, v, 0.4, DIRS12)
        hyd = raw_combos(LawKind.HYDRO_ENERGY, v, None, 0.4, DIRS12)
        assert abs(hel.raw_L - 0.5 * hyd.raw_L) <= 1e-12 * max(abs(hyd.raw_L), 1e-30)
        assert abs(hel.raw_T - 0.5 * hyd.raw_T) <= 1e-12 * max(abs(hyd.raw_T), 1e-30)

    def test_equal_fields_kill_mhd(self):
        g, v, _ = random_pair(n=16, kmax=4)
        rc = raw_combos(LawKind.MHD_ENERGY, v, v, 0.3, DIRS12)
        assert rc.raw_L == 0.0
        assert rc.raw_T == 0.0
        assert rc.raw_flux == 0.0

    def test_cubic_scaling(self):
        g, v, h = random_pair(n=16, kmax=4)
        alpha = 1.7
        va = VectorField3(g, alpha * v.values)
        ha = VectorField3(g, alpha * h.values)
        for law, w, wa in (
            (LawKind.HELICITY, curl(v), None),
            (LawKind.MHD_ENERGY, h, ha),
            (LawKind.CROSS_HELICITY, h, ha),
        ):
            if law is LawKind.HELICITY:
                wa = curl(va)
            rc1 = raw_combos(law, v, w, 0.3, DIRS12)
            rc2 = raw_combos(law, va, wa, 0.3, DIRS12)
            for x1, x2 in (
                (rc1.raw_L, rc2.raw_L),
                (rc1.raw_T, rc2.raw_T),
                (rc1.raw_flux, rc2.raw_flux),
            ):
                assert abs(x2 - alpha**3 * x1) <= 1e-12 * max(abs(alpha**3 * x1), 1e-20)

    def test_parity_invariance(self):
        g, v, h = random_pair(n=16, kmax=4)

        def reflect(f):
            vals = -f.values
            for axis in (1, 2, 3):
                vals = np.flip(vals, axis=axis)
            vals = np.roll(vals, 1, axis=(1, 2, 3))
            return VectorField3(g, np.ascontiguousarray(vals))

        rc1 = raw_combos(LawKind.MHD_ENERGY, v, h, 0.3, DIRS12)
        rc2 = raw_combos(LawKind.MHD_ENERGY, reflect(v), reflect(h), 0.3, DIRS12)
        scale = max(abs(rc1.raw_L), abs(rc1.raw_T), 1e-20)
        assert abs(rc1.raw_L - rc2.raw_L) <= 1e-12 * scale
        assert abs(rc1.raw_T - rc2.raw_T) <= 1e-12 * scale
        assert abs(rc1.raw_flux - rc2.raw_flux) <= 1e-12 * scale

    def test_invalid_scale(self):
        g, v, _ = random_pair()
        with pytest.raises(ValueError):
            raw_combos(LawKind.HYDRO_ENERGY, v, None, 0.0, DIRS12)
        with pytest.raises(ValueError, match="length/4"):
            raw_combos(LawKind.HYDRO_ENERGY, v, None, 2.0, DIRS12)

    def test_missing_magnetic_field(self):
        g, v, _ = random_pair()
        with pytest.raises(ValueError, match="magnetic field required"):
            raw_combos(LawKind.MHD_ENERGY, v, None, 0.3, DIRS12)

    def test_grid_mismatch(self):
        _, v, _ = random_pair(n=8)
        _, _, h = random_pair(n=16, kmax=4)
        with pytest.raises(ValueError, match="different grids"):
            raw_combos(LawKind.MHD_ENERGY, v, h, 0.3, DIRS12)
        with pytest.raises(ValueError, match="different grids"):
            elsasser(v, h)
        with pytest.raises(ValueError, match="different grids"):
            elsasser_inverse(v, h)


MOL = bump_mollifier()
HYDRO = LawKind.HYDRO_ENERGY

# Every evaluator at one separation or radius x, and the two ladder evaluators
# at a ladder; all take their input through one validator.
AT_ONE_SCALE = {
    "raw_combos": lambda v, x: raw_combos(HYDRO, v, None, x, DIRS12),
    "sweep_structure": lambda v, x: sweep_structure(HYDRO, v, [x], DIRS12),
    "yaglom_helicity": lambda v, x: yaglom_helicity(v, None, x, DIRS12),
    "dr_fourthirds": lambda v, x: dr_fourthirds(v, x, DIRS12),
    "d_ball": lambda v, x: d_ball(HYDRO, "L", v, None, MOL, x, 4, DIRS12),
    "sweep_dissipation": lambda v, x: sweep_dissipation(HYDRO, "L", v, MOL, [x], 4, DIRS12),
    "dr_dissipation": lambda v, x: dr_dissipation(v, MOL, x, "long", 4, DIRS12),
}
LADDERS = {
    "sweep_structure": lambda v, xs: sweep_structure(HYDRO, v, xs, DIRS12),
    "sweep_dissipation": lambda v, xs: sweep_dissipation(HYDRO, "L", v, MOL, xs, 4, DIRS12),
    "dissipation_matrix": lambda v, xs: dissipation_matrix(
        v.grid, {"v": v}, {"x": (HYDRO, "v", "v")}, MOL, xs, 4, DIRS12
    ),
}


@pytest.mark.parametrize("evaluator", list(AT_ONE_SCALE))
@pytest.mark.parametrize(
    "x, match",
    [(0.0, "must be positive"), (-0.3, "must be positive"), (np.nan, "must be positive"),
     (2.0, "length/4"), (np.inf, "length/4")],
)
def test_evaluators_reject_unusable_scale(evaluator, x, match):
    _, v, _ = random_pair()  # length 2*pi: length/4 = 1.57
    with pytest.raises(ValueError, match=match):
        AT_ONE_SCALE[evaluator](v, x)


@pytest.mark.parametrize("evaluator", list(LADDERS))
def test_ladder_evaluators_reject_descending_ladder(evaluator):
    _, v, _ = random_pair()
    with pytest.raises(ValueError, match="strictly ascending"):
        LADDERS[evaluator](v, [0.4, 0.2])


@pytest.mark.parametrize("evaluator", list(LADDERS))
def test_ladder_evaluators_reject_empty_ladder(evaluator):
    _, v, _ = random_pair()
    kind = "scales" if evaluator == "sweep_structure" else "epsilons"
    with pytest.raises(ValueError, match=f"{kind} must not be empty"):
        LADDERS[evaluator](v, [])


class TestNaiveOracle:
    @staticmethod
    def check_all_laws(n, kmax, evaluation, dirs=DIRS12):
        g, v, h = random_pair(n=n, kmax=kmax, seeds=(3, 4))
        omega = curl(v)
        assert StatsEngine(g, {"v": v, "h": h}).evaluation == evaluation
        for r in (0.3, 0.7):
            for law in ALL_LAWS:
                if law is LawKind.HELICITY:
                    w = omega
                elif law is LawKind.HYDRO_ENERGY:
                    w = None
                else:
                    w = h
                rc = raw_combos(law, v, w, r, dirs)
                ref = naive_raw_combos(law.value, v, w, r, dirs)
                got = np.array([rc.raw_L, rc.raw_T, rc.raw_flux])
                exp = np.array(ref)
                assert np.all(np.abs(got - exp) <= 1e-10 * np.abs(exp) + 1e-13)

    def test_all_laws_match_naive_reference(self):
        self.check_all_laws(8, 2, "sine-series")

    def test_per_shift_path_matches_naive_reference(self):
        # m = 12 = 3*kmax is not alias-free, and kmax < 6 leaves the Nyquist
        # planes empty, so the aliased grid average is the one the oracle takes.
        self.check_all_laws(12, 4, "per-shift-fft")
        # Random directions share no components, so no inverse pass is reused.
        self.check_all_laws(12, 4, "per-shift-fft", direction_set_random(24, 5))


@settings(max_examples=15, deadline=None)
@given(
    law=st.sampled_from(ALL_LAWS),
    kmax=st.sampled_from([1, 2]),
    length=st.sampled_from([2.0 * np.pi, 1.0, 5.0]),
    seeds=st.tuples(st.integers(0, 2**16), st.integers(0, 2**16)),
    dirs=st.tuples(st.sampled_from([2, 4, 6]), st.integers(0, 2**16)),
    frac=st.floats(0.05, 1.0),
)
def test_sine_path_matches_naive_oracle(law, kmax, length, seeds, dirs, frac):
    # Random small configurations: kmax 1 reduces n = 8 to m = 4, kmax 2
    # keeps m = 8; the helicity law takes its default (engine-derived) curl.
    g = make_grid(8, length)
    v, h = (random_solenoidal(g, SpectrumSpec(-5.0 / 3.0, 1, kmax, 1.0, s)) for s in seeds)
    dirs = direction_set_random(*dirs)
    r = frac * length / 4.0
    second = {LawKind.HELICITY: None, LawKind.HYDRO_ENERGY: None}.get(law, h)
    assert StatsEngine(g, {"v": v, "h": h}).evaluation == "sine-series"
    rc = raw_combos(law, v, second, r, dirs)
    got = np.array([rc.raw_L, rc.raw_T, rc.raw_flux])
    ref = naive_raw_combos(law.value, v, curl(v) if law is LawKind.HELICITY else second, r, dirs)
    assert np.all(np.abs(got - np.array(ref)) <= 1e-10 * np.max(np.abs(ref)) + 1e-13)


class TestSweepStructure:
    def test_zero_field(self):
        g = make_grid(8)
        v = VectorField3(g, np.zeros((3, 8, 8, 8)))
        report = sweep_structure(LawKind.HYDRO_ENERGY, v, [0.1, 0.2, 0.4], DIRS12)
        assert all(rc.raw_L == 0.0 for rc in report.combos)

    def test_deterministic(self):
        g, v, _ = random_pair(n=16, kmax=4)
        r1 = sweep_structure(LawKind.HELICITY, v, [0.1, 0.2, 0.4], DIRS12)
        r2 = sweep_structure(LawKind.HELICITY, v, [0.1, 0.2, 0.4], DIRS12)
        assert r1.to_json_dict() == r2.to_json_dict()

    def test_scales_must_ascend(self):
        g, v, _ = random_pair()
        with pytest.raises(ValueError, match="ascending"):
            sweep_structure(LawKind.HYDRO_ENERGY, v, [0.4, 0.2], DIRS12)

    def test_smooth_field_vanishing_order(self):
        # Band-limited random fields have generic cubic statistics; the
        # combined values vanish quadratically with the separation.
        g = make_grid(32)
        v = random_solenoidal(g, SpectrumSpec(-5.0 / 3.0, 2, 5, 1.0, 7))
        scales = list(np.geomspace(0.01, 0.07, 6))
        report = sweep_structure(LawKind.HELICITY, v, scales, direction_set_icosa(2))
        fit = power_law_fit(report, (scales[0], scales[-1]))
        assert fit.slope >= 1.9

    def test_omega_mismatch_flagged(self):
        g, v, h = random_pair(n=16, kmax=4)
        report = sweep_structure(LawKind.HELICITY, (v, h), [0.1, 0.2], DIRS12)
        assert report.metadata["omega_supplied"]
        assert "warning" in report.metadata


class TestAuxiliaryLaws:
    def test_yaglom_reduces_for_equal_fields(self):
        g, v, _ = random_pair(n=16, kmax=4)
        for r in (0.1, 0.3):
            y = yaglom_helicity(v, v, r, DIRS12)
            d = dr_fourthirds(v, r, DIRS12)
            assert abs(y - 0.5 * d) <= 1e-12 * max(abs(d), 1e-30)

    def test_constant_field(self):
        g = make_grid(8)
        v = VectorField3(g, np.full((3, 8, 8, 8), 1.2))
        assert yaglom_helicity(v, v, 0.3, DIRS12) == 0.0
        assert dr_fourthirds(v, 0.3, DIRS12) == 0.0

    def test_yaglom_against_naive(self):
        g = make_grid(16)
        v = taylor_green(g)
        omega = curl(v)
        got = yaglom_helicity(v, omega, 0.2, DIRS12)
        ref = naive_yaglom(v, omega, 0.2, DIRS12)
        assert abs(got - ref) <= 1e-10

    def test_fourthirds_against_naive(self):
        g, v, _ = random_pair(n=16, kmax=4)
        got = dr_fourthirds(v, 0.25, DIRS12)
        ref = naive_fourthirds(v, 0.25, DIRS12)
        assert abs(got - ref) <= 1e-10 * max(abs(ref), 1e-20)


class TestElsasser:
    def test_equal_fields(self):
        g, v, _ = random_pair()
        zp, zm = elsasser(v, v)
        assert np.max(np.abs(zm.values)) == 0.0
        assert np.max(np.abs(zp.values - v.values)) == 0.0

    def test_zero_magnetic(self):
        g, v, _ = random_pair()
        zero = VectorField3(g, np.zeros((3, 8, 8, 8)))
        zp, zm = elsasser(v, zero)
        assert np.max(np.abs(zp.values - v.values / 2)) == 0.0
        assert np.max(np.abs(zm.values - v.values / 2)) == 0.0

    def test_round_trip(self):
        g, v, h = random_pair()
        zp, zm = elsasser(v, h)
        v2, h2 = elsasser_inverse(zp, zm)
        assert np.max(np.abs(v2.values - v.values)) <= 1e-15
        assert np.max(np.abs(h2.values - h.values)) <= 1e-15


class TestPowerLawFit:
    def test_exact_quadratic(self):
        xs = np.geomspace(0.1, 1.0, 6)
        fit = fit_power_law(xs, 3.0 * xs**2)
        assert abs(fit.slope - 2.0) <= 1e-10
        assert abs(fit.prefactor - 3.0) <= 1e-9
        assert fit.r_squared >= 1.0 - 1e-12

    def test_exact_linear(self):
        xs = np.geomspace(0.1, 1.0, 5)
        fit = fit_power_law(xs, -0.7 * xs)
        assert abs(fit.slope - 1.0) <= 1e-10
        assert fit.sign_consistent

    def test_sign_change_flagged(self):
        xs = np.array([0.1, 0.2, 0.4, 0.8])
        fit = fit_power_law(xs, np.array([1.0, -1.0, 1.0, -1.0]))
        assert not fit.sign_consistent

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="3"):
            fit_power_law([0.1, 0.2], [1.0, 2.0])

    def test_abscissas_without_spread_are_rejected(self):
        with pytest.raises(ValueError, match="abscissas"):
            fit_power_law([0.1, 0.1, 0.1], [1.0, 2.0, 3.0])


class TestLineFit:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_polyfit(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-3.0, 2.0, 4 + seed)
        y = rng.normal(0.5, 2.0) * x + rng.normal() + 0.1 * rng.standard_normal(x.size)
        slope, intercept, _ = _line_fit(x, y)
        ref_slope, ref_intercept = np.polyfit(x, y, 1)
        assert abs(slope - ref_slope) <= 1e-12 * abs(ref_slope)
        assert abs(intercept - ref_intercept) <= 1e-12 * abs(ref_intercept)

    def test_constant_values_fit_exactly(self):
        assert _line_fit([0.1, 0.2, 0.4], [2.5, 2.5, 2.5]) == (0.0, 2.5, 1.0)
