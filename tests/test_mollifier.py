"""Mollifier profiles, dissipation functionals, and the coefficient algebra."""

import math
import time

import mpmath
import numpy as np
import pytest

from exactlaws._kernels import CurlOf
from exactlaws.geometry import direction_set_icosa
from exactlaws.grid import VectorField3, curl, make_grid
from exactlaws.laws import LawKind, dr_fourthirds, raw_combos
from exactlaws.mollifier import (
    _gauss_legendre,
    bump_mollifier,
    coefficient_oracle,
    d_ball,
    d_shell,
    dissipation_matrix,
    dr_dissipation,
    dr_dissipation_profile,
    extrapolate_to_zero,
    mollifier_moments,
    phi_L,
    phi_T,
    sweep_dissipation,
)
from exactlaws.synth import SpectrumSpec, abc_flow, random_solenoidal

MOL = bump_mollifier()
DIRS12 = direction_set_icosa(0)


class TestMollifierProfile:
    def test_tabulated_mass_matches_quadrature(self):
        from scipy import integrate

        from exactlaws.mollifier import _BUMP_MASS

        mass, _ = integrate.quad(
            lambda r: r * r * np.exp(-1.0 / (1.0 - r * r)), 0.0, 1.0, epsabs=1e-15, epsrel=1e-14
        )
        assert abs(_BUMP_MASS - mass) <= 1e-15 * mass

    def test_unit_mass(self):
        m2, _ = mollifier_moments(MOL)
        assert abs(m2 - 1.0) <= 1e-10

    def test_third_moment(self):
        _, m3 = mollifier_moments(MOL)
        assert abs(m3 + 3.0) <= 1e-8

    def test_moments_scale_invariant(self):
        for eps in (0.1, 0.5, 2.0):
            m2, m3 = mollifier_moments(MOL, eps=eps)
            assert abs(m2 - 1.0) <= 1e-8
            assert abs(m3 + 3.0) <= 1e-8

    def test_support_and_smoothness(self):
        assert MOL.phi(1.0) == 0.0
        assert MOL.phi(1.5) == 0.0
        assert MOL.dphi(0.0) == 0.0
        assert MOL.phi(0.0) > 0.0

    def test_phi_T_outside_support(self):
        assert phi_T(MOL, 1.0) == 0.0
        assert phi_T(MOL, 2.3) == 0.0

    def test_phi_T_singular_at_zero(self):
        with pytest.raises(ValueError, match="singular"):
            phi_T(MOL, 0.0)

    def test_longitudinal_gradient_identity(self):
        # d/dr phi_L = phi' + 2 phi / r
        h = 1e-6
        for r in (0.3, 0.5, 0.8):
            grad = (phi_L(MOL, r + h) - phi_L(MOL, r - h)) / (2 * h)
            expected = MOL.dphi(r) + 2.0 * MOL.phi(r) / r
            assert abs(grad - expected) <= 1e-7

    def test_phi_T_matches_adaptive_quadrature(self):
        # The fixed Gauss-Legendre rule against scipy's adaptive quad.
        from scipy import integrate

        for r in np.linspace(0.01, 0.99, 99):
            val, _ = integrate.quad(lambda s: MOL.phi(s) / s, r, 1.0, epsabs=1e-13, epsrel=1e-12)
            assert abs(phi_T(MOL, r) - 2.0 * val) <= 1e-12

    def test_phi_T_matches_mpmath_quadrature(self):
        # Against 30-digit quadrature the 128-node rule is off by at most
        # 8.9e-16 over the 99 radii above; adaptive quad's own error reaches
        # 6.6e-13 there, which is why the test above holds only 1e-12.
        with mpmath.workdps(30):
            amplitude = mpmath.mpf(MOL.amplitude)
            for r in np.linspace(0.01, 0.99, 25):
                want = 2 * mpmath.quad(lambda s: amplitude * mpmath.exp(-1 / (1 - s * s)) / s,
                                       [r, 1])
                assert abs(phi_T(MOL, r) - float(want)) <= 2e-15, r

    def test_decomposition_consistency(self):
        r = 0.5
        assert abs(phi_L(MOL, r) + phi_T(MOL, r) - MOL.phi(r)) <= 1e-10


def _root(count: int, x: float, bits: int = 200) -> int:
    """The root of P_count next to the double node x, times 2^bits: one Newton
    step in exact 2^-bits fixed point squares x's 1e-16 error to about 1e-28."""
    one = 1 << bits
    xi = int(x * 2.0**bits)  # exact for |x| > 2^-147
    p0, p1 = one, xi
    for k in range(1, count):
        p0, p1 = p1, ((2 * k + 1) * (xi * p1 >> bits) - k * p0) // (k + 1)
    dp = count * ((xi * p1 >> bits) - p0) * one // ((xi * xi >> bits) - one)
    return xi - p1 * one // dp


def _moment_errors(x, w):
    """Relative errors of the rule on x^{2k}, k < len(x), summed exactly."""
    k = np.arange(len(x))
    exact = 2.0 / (2 * k + 1)
    terms = w * x ** (2 * k)[:, None]
    return np.array([abs(math.fsum(row) - e) / e for row, e in zip(terms, exact)])


class TestGaussLegendre:
    """The radial rule: Newton's method on the Legendre recurrence."""

    COUNTS = range(2, 201)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="the last Newton step needs a wider np.longdouble")
    def test_nodes_are_the_correctly_rounded_roots(self):
        # Within 2 ulp of the roots, to 60 digits (measured: 0.5002 ulp on
        # x86-64; leggauss reaches 2.9 ulp over the same counts).
        for count in self.COUNTS:
            x, _ = _gauss_legendre(count)
            for node in x[count // 2:]:
                root = _root(count, float(node))
                if root == 0:
                    assert node == 0.0
                    continue
                error = abs(int(node * 2.0**200) - root) / 2.0**200
                assert error <= 2 * np.spacing(node), (count, node)

    def test_exactly_symmetric(self):
        for count in self.COUNTS:
            x, w = _gauss_legendre(count)
            assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1]), count
            assert np.all(np.diff(x) > 0.0) and np.all(w > 0.0), count

    def test_even_moments_no_worse_than_leggauss(self):
        # Rounding the nodes to double moves the integral of x^{2k} by up to
        # 2k * 2^-53 of itself; below that floor neither rule is ranked (it
        # decides counts 10 and 19, at 4.7e-16 and 1.0e-15).
        for count in self.COUNTS:
            ours = _moment_errors(*_gauss_legendre(count)).max()
            theirs = _moment_errors(*np.polynomial.legendre.leggauss(count)).max()
            assert ours <= max(theirs, 2 * (count - 1) * 2.0**-53), (count, ours, theirs)
            assert ours <= 2e-14, count

    def test_builds_no_slower_than_leggauss(self):
        # Median of 30 interleaved builds: no slower at 32 and 128 nodes, and
        # within 0.1 ms at 6, where both are a few dozen numpy calls.
        for count, slack in ((6, 1e-4), (32, 0.0), (128, 0.0)):
            ours, theirs = [], []
            for _ in range(30):
                for rule, times in ((_gauss_legendre, ours),
                                    (np.polynomial.legendre.leggauss, theirs)):
                    start = time.perf_counter()
                    rule(count)
                    times.append(time.perf_counter() - start)
            assert np.median(ours) <= np.median(theirs) + slack, count


class TestShellConstants:
    """Shell quadrature of constant unit profiles reproduces the fixed rows."""

    CASES = {
        LawKind.HELICITY: {"L": (-2.25, 1.5, 1.5), "T": (0.0, -1.875, -0.75)},
        LawKind.MHD_ENERGY: {"L": (-2.25, 1.5, -3.0), "T": (0.0, -1.875, 1.5)},
        LawKind.CROSS_HELICITY: {"L": (-2.25, 1.5, 3.0), "T": (0.0, -1.875, -1.5)},
    }

    @pytest.mark.parametrize("law", list(CASES))
    def test_rows(self, law):
        # The oracle's rows are these six shell values, bit for bit.
        rows = coefficient_oracle(law)["rows"]
        basis = {"raw_L": (1.0, 0.0, 0.0), "raw_T": (0.0, 1.0, 0.0), "flux": (0.0, 0.0, 1.0)}
        for idx, (name, profile) in enumerate(basis.items()):
            for part in ("L", "T"):
                got = d_shell(law, part, lambda r, p=profile: p, MOL, 1.0, radial_nodes=64)
                assert abs(got - self.CASES[law][part][idx]) <= 1e-8
                assert rows[part][name] == got

    def test_oracle_solutions(self):
        expected_flux = {
            LawKind.HELICITY: (-0.4, 0.4),
            LawKind.MHD_ENERGY: (0.8, -0.8),
            LawKind.CROSS_HELICITY: (-0.8, 0.8),
        }
        for law, (c_l, c_t) in expected_flux.items():
            sol = coefficient_oracle(law)["solution"]
            assert abs(sol["factor_L"] + 1.25) <= 1e-8
            assert abs(sol["factor_T"] + 1.875) <= 1e-8
            assert abs(sol["flux_coeff_L"] - c_l) <= 1e-8
            assert abs(sol["flux_coeff_T"] - c_t) <= 1e-8
            assert abs(sol["ratio_L"] + 0.8) <= 1e-8
            assert abs(sol["ratio_T"] + 8.0 / 15.0) <= 1e-8


def small_random(n=16, kmax=4, seed=3):
    g = make_grid(n)
    return g, random_solenoidal(g, SpectrumSpec(-5.0 / 3.0, 1, kmax, 1.0, seed))


class TestBallShell:
    def test_zero_field(self):
        g = make_grid(8)
        zero = VectorField3(g, np.zeros((3, 8, 8, 8)))
        assert d_ball(LawKind.HYDRO_ENERGY, "L", zero, None, MOL, 0.4, 8, DIRS12) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_raw_array_is_rejected(self, bad):
        g = make_grid(16)
        raw = np.random.default_rng(2).standard_normal((3, 16, 16, 16))
        raw[0, 5, 6, 7] = bad
        with pytest.raises(ValueError, match="field 'v' does not match the grid"):
            dissipation_matrix(g, {"v": raw, "zero": None},
                               {"x": (LawKind.HYDRO_ENERGY, "v", "zero")}, MOL, [0.4], 4, DIRS12)

    def test_field_on_another_grid_is_rejected(self):
        # Same shape, other period: its own wavenumbers, not the engine's.
        v = random_solenoidal(make_grid(16, 4.0), SpectrumSpec(-5.0 / 3.0, 1, 4, 1.0, 3))
        with pytest.raises(ValueError, match="field 'v' does not match the grid"):
            dissipation_matrix(make_grid(16), {"v": v, "zero": None},
                               {"x": (LawKind.HYDRO_ENERGY, "v", "zero")}, MOL, [0.4], 4, DIRS12)

    def test_ball_matches_shell_at_matched_nodes(self):
        g, v = small_random()
        h = random_solenoidal(g, SpectrumSpec(-5.0 / 3.0, 1, 4, 1.0, 5))
        for law, fields in (
            (LawKind.HELICITY, (v, None)),
            (LawKind.MHD_ENERGY, (v, h)),
            (LawKind.CROSS_HELICITY, (v, h)),
        ):
            for part in ("L", "T"):
                report = sweep_dissipation(law, part, fields, MOL, [0.3, 0.6], 12, DIRS12)
                for b, s in zip(report.d_ball, report.d_shell):
                    assert abs(b - s) <= 1e-10 * (abs(b) + 1e-30)

    def test_shell_from_independent_profiles(self):
        # Shell evaluated through raw_combos directly (fresh engine per radius)
        # agrees with the ball quadrature at matched nodes.
        g, v = small_random(n=8, kmax=2)
        ball = d_ball(LawKind.HYDRO_ENERGY, "L", v, None, MOL, 0.5, 8, DIRS12)
        profiles = lambda r: raw_combos(LawKind.HYDRO_ENERGY, v, None, r, DIRS12)
        shell = d_shell(LawKind.HYDRO_ENERGY, "L", profiles, MOL, 0.5, 8)
        assert abs(ball - shell) <= 1e-10 * (abs(ball) + 1e-30)

    def test_combos_of_another_law_are_rejected(self):
        # As in laws.combine: the shell form reads its own law's combos only.
        g, v = small_random(n=8, kmax=2)
        profiles = lambda r: raw_combos(LawKind.HELICITY, v, None, r, DIRS12)
        with pytest.raises(ValueError, match="law mismatch"):
            d_shell(LawKind.MHD_ENERGY, "L", profiles, MOL, 0.4, 4)

    def test_alignment_degeneracy(self):
        g, v = small_random()
        for law in (LawKind.MHD_ENERGY, LawKind.CROSS_HELICITY):
            for part in ("L", "T"):
                val = d_ball(law, part, v, v, MOL, 0.4, 8, DIRS12)
                assert abs(val) <= 1e-12 * v.rms() ** 3

    def test_beltrami_halving(self):
        g, v = small_random()
        zero = VectorField3(g, np.zeros((3, g.n, g.n, g.n)))
        for part in ("L", "T"):
            hel = d_ball(LawKind.HELICITY, part, v, v, MOL, 0.4, 8, DIRS12)
            hyd = d_ball(LawKind.MHD_ENERGY, part, v, zero, MOL, 0.4, 8, DIRS12)
            assert abs(hel - 0.5 * hyd) <= 1e-12 * max(abs(hyd), 1e-30)

    def test_cross_helicity_zero_field(self):
        g, v = small_random()
        zero = VectorField3(g, np.zeros((3, g.n, g.n, g.n)))
        for part in ("L", "T"):
            assert d_ball(LawKind.CROSS_HELICITY, part, v, zero, MOL, 0.4, 8, DIRS12) == 0.0

    def test_eps_too_large(self):
        g, v = small_random(n=8, kmax=2)
        with pytest.raises(ValueError, match="length/4"):
            d_ball(LawKind.HYDRO_ENERGY, "L", v, None, MOL, 2.0, 8, DIRS12)

    def test_too_few_nodes(self):
        g, v = small_random(n=8, kmax=2)
        with pytest.raises(ValueError, match="radial nodes"):
            d_ball(LawKind.HYDRO_ENERGY, "L", v, None, MOL, 0.4, 1, DIRS12)

    def test_bad_part(self):
        g, v = small_random(n=8, kmax=2)
        with pytest.raises(ValueError, match="part"):
            d_ball(LawKind.HYDRO_ENERGY, "X", v, None, MOL, 0.4, 8, DIRS12)


@pytest.fixture(scope="module")
def four_thirds_fields():
    g = make_grid(32)
    v = random_solenoidal(g, SpectrumSpec(-5.0 / 3.0, 2, 8, 1.0, 7))
    h = random_solenoidal(g, SpectrumSpec(-5.0 / 3.0, 2, 8, 0.7, 11))
    return g, v, h


@pytest.mark.parametrize("law", list(LawKind))
def test_four_thirds_relation(four_thirds_fields, law):
    # The shell rows have a_L = 2 a_T, b_T^L + 2 b_T^T = 0 and
    # b_F^L + 2 b_F^T = 0, so (D_L + 2 D_T)/3 is the Politano-Pouquet
    # four-thirds functional pi int_0^eps r^3 phi_eps'(r) (raw_L + raw_T) dr,
    # in ball and in shell form, at every epsilon.
    g, v, h = four_thirds_fields
    dirs, epsilons, nodes = direction_set_icosa(1), [0.2, 0.4, 0.8], 16
    second = {LawKind.HELICITY: "omega", LawKind.HYDRO_ENERGY: "zero"}.get(law, "h")
    matrix = dissipation_matrix(g, {"v": v, "omega": CurlOf("v"), "h": h, "zero": None},
                                {"x": (law, "v", second)}, MOL, epsilons, nodes, dirs)["x"]
    w = h if second == "h" else None

    def profile(r):
        rc = raw_combos(law, v, w, r, dirs)
        return rc.raw_L + rc.raw_T

    for i, eps in enumerate(epsilons):
        four_thirds = dr_dissipation_profile(profile, MOL, eps, nodes)
        if law is LawKind.HYDRO_ENERGY:
            full = dr_dissipation(v, MOL, eps, "full", nodes, dirs)
            assert abs(full - four_thirds) <= 1e-13 * abs(four_thirds)
        for form in ("ball", "shell"):
            got = (matrix[form]["L"][i] + 2.0 * matrix[form]["T"][i]) / 3.0
            assert abs(got - four_thirds) <= 1e-13 * abs(four_thirds)


class TestThirdOrderEnergyFunctional:
    def test_zero_field(self):
        g = make_grid(8)
        zero = VectorField3(g, np.zeros((3, 8, 8, 8)))
        assert dr_dissipation(zero, MOL, 0.4, "full", 8, DIRS12) == 0.0

    def test_constant_profile_oracle(self):
        got = dr_dissipation_profile(lambda r: 1.0, MOL, 1.0, radial_nodes=64)
        assert abs(got + 0.75) <= 1e-8

    def test_full_kernel_matches_profile_form(self):
        g, v = small_random(n=16, kmax=4)
        eps = 0.5
        ball = dr_dissipation(v, MOL, eps, "full", 12, DIRS12)
        shell = dr_dissipation_profile(
            lambda r: dr_fourthirds(v, r, DIRS12), MOL, eps, radial_nodes=12
        )
        assert abs(ball - shell) <= 1e-10 * (abs(ball) + 1e-30)

    def test_long_kernel_differs_from_full(self):
        g, v = small_random(n=16, kmax=4)
        long_val = dr_dissipation(v, MOL, 0.5, "long", 8, DIRS12)
        full_val = dr_dissipation(v, MOL, 0.5, "full", 8, DIRS12)
        assert long_val != full_val

    def test_bad_kernel_name(self):
        g, v = small_random(n=8, kmax=2)
        with pytest.raises(ValueError, match="kernel"):
            dr_dissipation(v, MOL, 0.4, "other", 8, DIRS12)


SHELL_FORMS = {
    "d_shell": lambda eps: d_shell(LawKind.HELICITY, "L", lambda r: (1.0, 0.0, 0.0), MOL, eps, 8),
    "dr_dissipation_profile": lambda eps: dr_dissipation_profile(lambda r: 1.0, MOL, eps, 8),
    "mollifier_moments": lambda eps: mollifier_moments(MOL, eps, 8),
}


@pytest.mark.parametrize("form", list(SHELL_FORMS))
@pytest.mark.parametrize("eps", [-0.5, 0.0, np.nan, np.inf])
def test_shell_forms_reject_unusable_eps(form, eps):
    # The radial rule on (0, eps] is what these forms integrate over; a
    # negative eps used to return plausible-looking wrong values.
    with pytest.raises(ValueError, match="eps must be positive and finite"):
        SHELL_FORMS[form](eps)


class TestSweepDissipation:
    def test_report_fields(self):
        g, v = small_random()
        report = sweep_dissipation(LawKind.HELICITY, "L", (v, None), MOL, [0.2, 0.4, 0.8], 8, DIRS12)
        assert report.epsilons == (0.2, 0.4, 0.8)
        assert len(report.d_ball) == 3
        assert len(report.d_shell) == 3
        assert report.mollifier == "bump"
        assert "value" in report.extrapolation

    def test_smooth_field_order(self):
        # Quadratic vanishing of the functionals for a smooth random field.
        g = make_grid(32)
        v = random_solenoidal(g, SpectrumSpec(-5.0 / 3.0, 2, 5, 1.0, 7))
        ladder = list(np.geomspace(0.025, 0.1, 4))
        report = sweep_dissipation(
            LawKind.HELICITY, "L", (v, None), MOL, ladder, 12, direction_set_icosa(1)
        )
        assert report.extrapolation["order"] >= 1.9

    def test_epsilons_must_ascend(self):
        g, v = small_random(n=8, kmax=2)
        with pytest.raises(ValueError, match="ascending"):
            sweep_dissipation(LawKind.HELICITY, "L", (v, None), MOL, [0.4, 0.2], 8, DIRS12)

    def test_zero_field_all_zero(self):
        g = make_grid(8)
        zero = VectorField3(g, np.zeros((3, 8, 8, 8)))
        report = sweep_dissipation(LawKind.HYDRO_ENERGY, "L", zero, MOL, [0.2, 0.4], 8, DIRS12)
        assert all(b == 0.0 for b in report.d_ball)
        assert all(s == 0.0 for s in report.d_shell)


class TestExtrapolation:
    def test_exact_quadratic(self):
        eps = np.array([0.1, 0.2, 0.4])
        vals = 5.0 + 2.0 * eps**2
        ext = extrapolate_to_zero(eps, vals)
        assert abs(ext["value"] - 5.0) <= 1e-12
        assert abs(ext["curvature"] - 2.0) <= 1e-10

    @pytest.mark.parametrize("eps", [[0.2], [0.2, 0.4]])
    def test_short_ladder_gives_no_fit(self, eps):
        # One point or an exact two-point line is no extrapolation.
        ext = extrapolate_to_zero(eps, [1.0 - 0.05 * e for e in eps])
        assert ext == {"value": None, "curvature": None, "r_squared": None, "order": None}

    def test_order_fit(self):
        eps = np.geomspace(0.05, 0.4, 5)
        ext = extrapolate_to_zero(eps, -3.0 * eps**2)
        assert abs(ext["order"] - 2.0) <= 1e-8
