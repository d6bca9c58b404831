"""Acceptance criteria, one test per criterion, with printed verdict lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they execute.
"""

import time

import numpy as np
import pytest

import exactlaws as ex
from exactlaws._kernels import LawKind
from exactlaws.cli import _BALL_FLOOR, _band_limited
from exactlaws.cli import main as cli_main
from exactlaws.geometry import identity227_batch
from exactlaws.mollifier import bump_mollifier, dissipation_matrix, extrapolate_to_zero
from exactlaws.report import canonical_hash

from oracles import naive_raw_combos

MOL = bump_mollifier()


def record(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_1_identity_suite():
    start = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(key=[0, 101]))
    m = 100_000
    ells = rng.standard_normal((m, 3))
    ells /= np.linalg.norm(ells, axis=1)[:, None]
    ells *= rng.uniform(0.05, 2.0, m)[:, None]
    A, B, C = (rng.standard_normal((m, 3)) for _ in range(3))
    lhs, rhs = identity227_batch(ells, A, B, C)
    err = float(np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs))))
    lhs_eq, _ = identity227_batch(ells, A, A, A)
    err_eq = float(np.max(np.abs(lhs_eq)))
    elapsed = time.perf_counter() - start
    ok = err <= 1e-10 and err_eq <= 1e-12 and elapsed < 5.0
    record(1, "identity suite", ok,
           f"residual {err:.2e} (tol 1e-10), equal-vector {err_eq:.2e} (tol 1e-12), {elapsed:.1f}s")
    assert err <= 1e-10
    assert err_eq <= 1e-12
    assert elapsed < 5.0


def test_criterion_2_coefficient_oracle():
    start = time.perf_counter()
    expected = {
        LawKind.HELICITY: ({"raw_L": -2.25, "raw_T": 1.5, "flux": 1.5},
                           {"raw_L": 0.0, "raw_T": -1.875, "flux": -0.75}, -0.4),
        LawKind.MHD_ENERGY: ({"raw_L": -2.25, "raw_T": 1.5, "flux": -3.0},
                             {"raw_L": 0.0, "raw_T": -1.875, "flux": 1.5}, 0.8),
        LawKind.CROSS_HELICITY: ({"raw_L": -2.25, "raw_T": 1.5, "flux": 3.0},
                                 {"raw_L": 0.0, "raw_T": -1.875, "flux": -1.5}, -0.8),
    }
    worst = 0.0
    for law, (row_l, row_t, flux_l) in expected.items():
        oracle = ex.coefficient_oracle(law)
        for key, val in row_l.items():
            worst = max(worst, abs(oracle["rows"]["L"][key] - val))
        for key, val in row_t.items():
            worst = max(worst, abs(oracle["rows"]["T"][key] - val))
        sol = oracle["solution"]
        worst = max(worst, abs(sol["factor_L"] + 1.25))
        worst = max(worst, abs(sol["flux_coeff_L"] - flux_l))
        worst = max(worst, abs(sol["ratio_L"] + 0.8))
        worst = max(worst, abs(sol["ratio_T"] + 8.0 / 15.0))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 1.0
    record(2, "coefficient oracle", ok, f"max deviation {worst:.2e} (tol 1e-8), {elapsed:.2f}s")
    assert worst <= 1e-8
    assert elapsed < 1.0


def _abc_suite_fields(n=64):
    g = ex.make_grid(n)
    v = ex.abc_flow(g)
    omega = ex.curl(v)
    _, h = ex.mhd_test_pair(g, 0)
    return g, v, omega, h


REQUESTS = {
    "helicity": (LawKind.HELICITY, "v", "omega"),
    "mhd-energy": (LawKind.MHD_ENERGY, "v", "h"),
    "cross-helicity": (LawKind.CROSS_HELICITY, "v", "h"),
}


def test_criterion_3_ball_shell_equivalence():
    # The ballshell suite's pair: band-limited fields with wavevector triads,
    # whose ball values stand well above round-off (on the ABC flow they are
    # exactly 0.0, and ball and shell agree trivially).
    start = time.perf_counter()
    g = ex.make_grid(64)
    v, h = _band_limited(g, 0), _band_limited(g, 9001)
    omega = ex.curl(v)
    dirs = ex.direction_set_icosa(2)
    matrix = dissipation_matrix(
        g, {"v": v, "omega": omega, "h": h}, REQUESTS, MOL, [0.2, 0.4, 0.8], 32, dirs
    )
    worst = 0.0
    smallest = np.inf
    for label in REQUESTS:
        for part in ("L", "T"):
            ball = np.array(matrix[label]["ball"][part])
            shell = np.array(matrix[label]["shell"][part])
            worst = max(worst, float(np.max(np.abs(ball - shell) / (np.abs(ball) + 1e-30))))
            smallest = min(smallest, float(np.min(np.abs(ball))) / v.rms() ** 3)
    # Tie the batched evaluation to the standalone ball quadrature.
    standalone = ex.d_ball(LawKind.HELICITY, "L", v, omega, MOL, 0.4, 32, dirs)
    batched = matrix["helicity"]["ball"]["L"][1]
    tie = abs(standalone - batched) / (abs(batched) + 1e-30)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and tie <= 1e-10 and smallest > _BALL_FLOOR and elapsed < 600.0
    record(3, "ball/shell equivalence", ok,
           f"max rel mismatch {worst:.2e} (tol 1e-10), standalone tie {tie:.2e}, "
           f"smallest |ball|/rms^3 {smallest:.2e} (floor {_BALL_FLOOR:g}), {elapsed:.1f}s")
    assert smallest > _BALL_FLOOR
    assert worst <= 1e-10
    assert tie <= 1e-10
    assert elapsed < 600.0


def test_criterion_4_degeneracies():
    start = time.perf_counter()
    g, v, omega, h = _abc_suite_fields(64)
    zero = ex.VectorField3(g, np.zeros((3, g.n, g.n, g.n)))
    dirs = ex.direction_set_icosa(2)
    eps = 0.4
    rms3 = v.rms() ** 3
    d_el_vv = ex.d_ball(LawKind.MHD_ENERGY, "L", v, v, MOL, eps, 32, dirs)
    d_chl_vv = ex.d_ball(LawKind.CROSS_HELICITY, "L", v, v, MOL, eps, 32, dirs)
    d_hl_vv = ex.d_ball(LawKind.HELICITY, "L", v, v, MOL, eps, 32, dirs)
    d_el_v0 = ex.d_ball(LawKind.MHD_ENERGY, "L", v, zero, MOL, eps, 32, dirs)
    d_chl_v0 = ex.d_ball(LawKind.CROSS_HELICITY, "L", v, zero, MOL, eps, 32, dirs)
    rc = ex.raw_combos(LawKind.HELICITY, v, v, 0.3, dirs)
    beltrami_rel = abs(d_hl_vv - 0.5 * d_el_v0) / max(abs(0.5 * d_el_v0), 1e-300)
    elapsed = time.perf_counter() - start
    ok = (
        abs(d_el_vv) <= 1e-12 * rms3
        and abs(d_chl_vv) <= 1e-12 * rms3
        and beltrami_rel <= 1e-12
        and d_chl_v0 == 0.0
        and abs(rc.raw_flux) <= 1e-13
        and elapsed < 300.0
    )
    record(4, "degeneracies", ok,
           f"alignment ({abs(d_el_vv):.1e}, {abs(d_chl_vv):.1e}) <= {1e-12 * rms3:.1e}, "
           f"halving rel {beltrami_rel:.1e}, zero-field {d_chl_v0!r}, "
           f"flux {abs(rc.raw_flux):.1e}, {elapsed:.1f}s")
    assert abs(d_el_vv) <= 1e-12 * rms3
    assert abs(d_chl_vv) <= 1e-12 * rms3
    assert beltrami_rel <= 1e-12
    assert d_chl_v0 == 0.0
    assert abs(rc.raw_flux) <= 1e-13
    assert elapsed < 300.0


def _criterion5_measurements():
    g, v, omega, h = _abc_suite_fields(64)
    dirs = ex.direction_set_icosa(2)
    scales = list(np.geomspace(0.1, 0.5, 12))
    rep_h = ex.sweep_structure(LawKind.HELICITY, (v, omega), scales, dirs)
    rep_e = ex.sweep_structure(LawKind.MHD_ENERGY, (v, h), scales, dirs)
    fit_h = ex.power_law_fit(rep_h, (0.1, 0.5))
    fit_e = ex.power_law_fit(rep_e, (0.1, 0.5))
    ladder = list(np.geomspace(0.1, 0.8, 4))
    matrix = dissipation_matrix(
        g, {"v": v, "omega": omega, "h": h},
        {"helicity": REQUESTS["helicity"], "mhd-energy": REQUESTS["mhd-energy"]},
        MOL, ladder, 32, dirs,
    )
    orders = {
        label: extrapolate_to_zero(ladder, matrix[label]["ball"]["L"])["order"]
        for label in ("helicity", "mhd-energy")
    }
    diffs = np.abs(
        np.array(matrix["helicity"]["ball"]["L"]) - np.array(matrix["helicity"]["ball"]["T"])
    )
    monotone = bool(np.all(np.diff(diffs) > 0))
    peak = float(np.max(np.abs(rep_h.values_L())))
    return fit_h, fit_e, orders, monotone, peak


def test_criterion_5_smooth_field_limits_as_stated():
    """Vanishing-order checks on the single-wavenumber test flow, as stated.

    Every wavevector of this flow is a unit axis vector, so no triple of its
    wavevectors can sum to zero and every third-order volume average
    vanishes identically; what the fits see is round-off at the 1e-19 scale
    rather than an O(r^2) signal, and the slope/order/monotonicity
    assertions below fail.  The companion test on a band-limited random
    field exercises the same protocol on input with generic cubic
    statistics, where it passes.
    """
    start = time.perf_counter()
    fit_h, fit_e, orders, monotone, peak = _criterion5_measurements()
    elapsed = time.perf_counter() - start
    ok = (
        fit_h.slope >= 1.9
        and fit_e.slope >= 1.9
        and all(o is not None and o >= 1.9 for o in orders.values())
        and monotone
        and elapsed < 600.0
    )
    record(5, "smooth-field limits (single-mode flow)", ok,
           f"slopes ({fit_h.slope:.2f}, {fit_e.slope:.2f}), orders "
           f"({orders['helicity']}, {orders['mhd-energy']}), monotone={monotone}; "
           f"peak |S_HL| = {peak:.1e} (round-off scale), {elapsed:.1f}s")
    assert fit_h.slope >= 1.9, (
        f"slope {fit_h.slope:.3f}: the flow has no closed wavevector triads, its "
        f"third-order statistics are identically zero (peak |S_HL| = {peak:.1e}), "
        "so the fit sees only round-off noise"
    )
    assert fit_e.slope >= 1.9
    assert all(o is not None and o >= 1.9 for o in orders.values())
    assert monotone
    assert elapsed < 600.0


def test_criterion_5_companion_smooth_field_limits_random():
    """Same protocol on a triad-rich band-limited field: the law machinery
    does exhibit the quadratic smooth-field vanishing the criterion targets."""
    start = time.perf_counter()
    g = ex.make_grid(64)
    kmax = 5
    v = ex.random_solenoidal(g, ex.SpectrumSpec(-5.0 / 3.0, 2, kmax, 1.0, 7))
    h = ex.random_solenoidal(g, ex.SpectrumSpec(-5.0 / 3.0, 2, kmax, 1.0, 9007))
    omega = ex.curl(v)
    dirs = ex.direction_set_icosa(2)
    r_hi = 0.35 / kmax
    scales = list(np.geomspace(r_hi / 8.0, r_hi, 12))
    rep_h = ex.sweep_structure(LawKind.HELICITY, (v, omega), scales, dirs)
    rep_e = ex.sweep_structure(LawKind.MHD_ENERGY, (v, h), scales, dirs)
    fit_h = ex.power_law_fit(rep_h, (scales[0], scales[-1]))
    fit_e = ex.power_law_fit(rep_e, (scales[0], scales[-1]))
    ladder = list(np.geomspace(0.125 / kmax, 0.5 / kmax, 4))
    matrix = dissipation_matrix(
        g, {"v": v, "omega": omega, "h": h},
        {"helicity": REQUESTS["helicity"], "mhd-energy": REQUESTS["mhd-energy"]},
        MOL, ladder, 32, dirs,
    )
    orders = {
        label: extrapolate_to_zero(ladder, matrix[label]["ball"]["L"])["order"]
        for label in ("helicity", "mhd-energy")
    }
    diffs = np.abs(
        np.array(matrix["helicity"]["ball"]["L"]) - np.array(matrix["helicity"]["ball"]["T"])
    )
    monotone = bool(np.all(np.diff(diffs) > 0))
    elapsed = time.perf_counter() - start
    ok = (
        fit_h.slope >= 1.9 and fit_e.slope >= 1.9
        and all(o >= 1.9 for o in orders.values()) and monotone and elapsed < 600.0
    )
    record(5, "smooth-field limits (random band-limited field)", ok,
           f"slopes ({fit_h.slope:.3f}, {fit_e.slope:.3f}), orders "
           f"({orders['helicity']:.3f}, {orders['mhd-energy']:.3f}), "
           f"monotone={monotone}, {elapsed:.1f}s")
    assert fit_h.slope >= 1.9
    assert fit_e.slope >= 1.9
    assert all(o >= 1.9 for o in orders.values())
    assert monotone
    assert elapsed < 600.0


def test_criterion_6_brute_force_oracle():
    start = time.perf_counter()
    g = ex.make_grid(8)
    v = ex.random_solenoidal(g, ex.SpectrumSpec(-5.0 / 3.0, 1, 2, 1.0, 3))
    h = ex.random_solenoidal(g, ex.SpectrumSpec(-5.0 / 3.0, 1, 2, 1.0, 4))
    omega = ex.curl(v)
    dirs = ex.direction_set_icosa(0)
    worst = 0.0
    for law in (LawKind.HYDRO_ENERGY, LawKind.HELICITY, LawKind.MHD_ENERGY, LawKind.CROSS_HELICITY):
        if law is LawKind.HELICITY:
            w = omega
        elif law is LawKind.HYDRO_ENERGY:
            w = None
        else:
            w = h
        rc = ex.raw_combos(law, v, w, 0.3, dirs)
        ref = naive_raw_combos(law.value, v, w, 0.3, dirs)
        got = np.array([rc.raw_L, rc.raw_T, rc.raw_flux])
        exp = np.array(ref)
        rel = np.max(np.abs(got - exp) / (np.abs(exp) + 1e-13))
        worst = max(worst, float(rel))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 30.0
    record(6, "brute-force oracle", ok, f"max rel deviation {worst:.2e} (tol 1e-10), {elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed < 30.0


def test_criterion_7_kinematic_reductions():
    g = ex.make_grid(64)
    v = ex.abc_flow(g)
    dirs = ex.direction_set_icosa(2)
    worst = 0.0
    for r in (0.1, 0.3):
        y = ex.yaglom_helicity(v, v, r, dirs)
        d = ex.dr_fourthirds(v, r, dirs)
        worst = max(worst, abs(y - 0.5 * d))
    rng = np.random.default_rng(5)
    h = ex.VectorField3(g, rng.standard_normal((3, 64, 64, 64)))
    zp, zm = ex.elsasser(v, h)
    v2, h2 = ex.elsasser_inverse(zp, zm)
    round_trip = max(
        float(np.max(np.abs(v2.values - v.values))),
        float(np.max(np.abs(h2.values - h.values))),
    )
    ok = worst <= 1e-12 and round_trip <= 1e-15
    record(7, "kinematic reductions", ok,
           f"four-thirds halving residual {worst:.2e} (tol 1e-12), "
           f"characteristic-variable round trip {round_trip:.2e} (tol 1e-15)")
    assert worst <= 1e-12
    assert round_trip <= 1e-15


def test_criterion_8_quadrature_and_mollifier_constants():
    dirs = ex.direction_set_icosa(2)
    second = dirs.second_moment_error()
    m2, m3 = ex.mollifier_moments(MOL)
    h = 1e-6
    grad_worst = 0.0
    for r in (0.3, 0.5, 0.8):
        grad = (ex.phi_L(MOL, r + h) - ex.phi_L(MOL, r - h)) / (2 * h)
        expected = MOL.dphi(r) + 2.0 * MOL.phi(r) / r
        grad_worst = max(grad_worst, abs(grad - expected))
    ok = second <= 1e-3 and abs(m2 - 1.0) <= 1e-10 and abs(m3 + 3.0) <= 1e-8 and grad_worst <= 1e-7
    record(8, "quadrature and mollifier constants", ok,
           f"second moment {second:.1e} (tol 1e-3), mass {abs(m2 - 1):.1e} (tol 1e-10), "
           f"third moment {abs(m3 + 3):.1e} (tol 1e-8), gradient identity {grad_worst:.1e} (tol 1e-7)")
    assert second <= 1e-3
    assert abs(m2 - 1.0) <= 1e-10
    assert abs(m3 + 3.0) <= 1e-8
    assert grad_worst <= 1e-7


def test_criterion_9_determinism_and_runtime(tmp_path):
    import json

    hashes = []
    elapsed = []
    for run in range(2):
        out = tmp_path / f"verify_{run}.json"
        start = time.perf_counter()
        rc = cli_main([
            "verify", "--suite", "all", "--n", "32", "--seed", "7",
            "--out", str(out),
        ])
        elapsed.append(time.perf_counter() - start)
        assert rc == 0
        payload = json.loads(out.read_text())
        hashes.append(canonical_hash(payload))
    ok = hashes[0] == hashes[1] and max(elapsed) < 600.0
    record(9, "determinism and runtime", ok,
           f"canonical hashes {'match' if hashes[0] == hashes[1] else 'differ'} "
           f"({hashes[0][:12]}...), runtimes {elapsed[0]:.0f}s/{elapsed[1]:.0f}s (< 600s)")
    assert hashes[0] == hashes[1]
    assert max(elapsed) < 600.0
