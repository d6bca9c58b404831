"""Command-line orchestration: generation, sweeps, verification, self-tests.

Verbs:
  gen          write a synthetic solenoidal field as an EXL1 file
  analyze      structure-function sweep -> JSON + CSV report
  dissipation  dissipation-functional sweep (ball/shell/both) -> JSON report
  verify       run the exact-law verification suite, exit 0 iff it passes
  selftest     fast built-in consistency checks, no input files

All reports are canonical JSON (sorted keys, 17-significant-digit floats);
volatile data sits under "provenance", which the canonical hash excludes.
Every random draw is keyed by the --seed flag.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import report as rep
from ._kernels import COMBINE_COEFFS, LawKind
from .geometry import (
    direction_set_icosa,
    identity227_batch,
    parse_direction_spec,
    split_long_trans,
    triple_product_check,
)
from .grid import VectorField3, curl, make_grid, read_field, write_field
from .laws import power_law_fit, sweep_structure
from .mollifier import (
    bump_mollifier,
    d_ball,
    dissipation_matrix,
    extrapolate_to_zero,
    mollifier_moments,
    phi_L,
    phi_T,
    radial_quadrature,
    sweep_dissipation,
)
from .synth import SpectrumSpec, abc_flow, mhd_test_pair, random_solenoidal, taylor_green

__all__ = ["main", "VerifyConfig", "Verdict", "CheckResult", "combine_consistency_checks"]


# ----------------------------------------------------------------------------
# Verdict machinery


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: float
    threshold: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "measured": self.measured,
            "threshold": self.threshold,
            "pass": self.passed,
        }


@dataclass
class Verdict:
    checks: list[CheckResult] = field(default_factory=list)

    def add(self, name: str, measured: float, threshold: float, larger_ok: bool = False):
        """Record a check; by default measured <= threshold passes."""
        measured = float(measured)
        ok = measured >= threshold if larger_ok else measured <= threshold
        self.checks.append(CheckResult(name, measured, float(threshold), bool(ok)))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {"pass": self.passed, "checks": [c.to_json_dict() for c in self.checks]}

    def print_lines(self, out=sys.stdout) -> None:
        for c in self.checks:
            tag = "PASS" if c.passed else "FAIL"
            print(f"[{tag}] {c.name}: measured={c.measured:.6e} threshold={c.threshold:.6e}", file=out)
        print(f"overall: {'PASS' if self.passed else 'FAIL'}", file=out)


def _check_tolerance(name: str, value: float) -> float:
    """Return ``value`` as a float if it is a usable gate tolerance.

    NaN and infinity would switch the gate off; zero or a negative value asks
    for more than round-off agreement, so all of them are refused."""
    value = float(value)
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value:g}")
    return value


@dataclass(frozen=True)
class VerifyConfig:
    """Inputs and tolerances for the verification suite."""

    suite: str = "all"
    n: int = 32
    length: float = 2.0 * np.pi
    seed: int = 0
    dirs: str = "icosa:2"
    radial_nodes: int = 32
    eps_ladder: tuple[float, ...] = (0.2, 0.4, 0.8)
    identity_tol: float = 1e-10
    quad_match_tol: float = 1e-10
    degeneracy_tol: float = 1e-12
    slope_min: float = 1.9

    def __post_init__(self):
        for name in ("identity_tol", "quad_match_tol", "degeneracy_tol"):
            _check_tolerance(name.replace("_", "-"), getattr(self, name))
        for e in self.eps_ladder:
            if not 0 < e <= self.length / 4.0:
                raise ValueError("epsilon ladder must lie in (0, length/4]")

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "n": self.n,
            "length": self.length,
            "seed": self.seed,
            "dirs": self.dirs,
            "radial_nodes": self.radial_nodes,
            "eps_ladder": list(self.eps_ladder),
            "identity_tol": self.identity_tol,
            "quad_match_tol": self.quad_match_tol,
            "degeneracy_tol": self.degeneracy_tol,
            "slope_min": self.slope_min,
        }


_SUITES = ("identity", "oracle", "ballshell", "degeneracy", "smooth", "combine")

_EXPECTED_ROWS = {
    LawKind.HELICITY: {"L": (-2.25, 1.5, 1.5), "T": (0.0, -1.875, -0.75)},
    LawKind.MHD_ENERGY: {"L": (-2.25, 1.5, -3.0), "T": (0.0, -1.875, 1.5)},
    LawKind.CROSS_HELICITY: {"L": (-2.25, 1.5, 3.0), "T": (0.0, -1.875, -1.5)},
}
_LAW_RATIOS = (-0.8, -8.0 / 15.0)  # combined-to-D ratios for the L and T parts


def _identity_checks(cfg: VerifyConfig, verdict: Verdict, samples: int = 100_000) -> None:
    rng = np.random.Generator(np.random.Philox(key=[cfg.seed & (2**64 - 1), 101]))
    ells = rng.standard_normal((samples, 3))
    ells /= np.linalg.norm(ells, axis=1)[:, None]
    ells *= rng.uniform(0.05, 2.0, samples)[:, None]
    A = rng.standard_normal((samples, 3))
    B = rng.standard_normal((samples, 3))
    C = rng.standard_normal((samples, 3))
    lhs, rhs = identity227_batch(ells, A, B, C)
    err = np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs)))
    verdict.add("identity/random-samples", err, cfg.identity_tol)
    lhs2, _ = identity227_batch(ells, A, A, A)
    verdict.add("identity/equal-vectors", np.max(np.abs(lhs2)), 1e-12)


def _oracle_checks(cfg: VerifyConfig, verdict: Verdict) -> None:
    from .mollifier import coefficient_oracle

    for law, expected in _EXPECTED_ROWS.items():
        oracle = coefficient_oracle(law)
        worst = 0.0
        for part in ("L", "T"):
            got = oracle["rows"][part]
            exp = dict(zip(("raw_L", "raw_T", "flux"), expected[part]))
            worst = max(worst, max(abs(got[k] - exp[k]) for k in exp))
        sol = oracle["solution"]
        worst = max(worst, abs(sol["factor_L"] + 1.25), abs(sol["factor_T"] + 1.875))
        worst = max(worst, abs(sol["ratio_L"] - _LAW_RATIOS[0]))
        worst = max(worst, abs(sol["ratio_T"] - _LAW_RATIOS[1]))
        verdict.add(f"oracle/{law.value}", worst, 1e-8)


def _verify_fields(cfg: VerifyConfig):
    grid = make_grid(cfg.n, cfg.length)
    v = abc_flow(grid)
    omega = curl(v)
    _, h = mhd_test_pair(grid, cfg.seed)
    return grid, v, omega, h


def _ballshell_checks(cfg: VerifyConfig, verdict: Verdict) -> None:
    grid, v, omega, h = _verify_fields(cfg)
    dirs = parse_direction_spec(cfg.dirs)
    mol = bump_mollifier()
    requests = {
        "helicity": (LawKind.HELICITY, "v", "omega"),
        "mhd-energy": (LawKind.MHD_ENERGY, "v", "h"),
        "cross-helicity": (LawKind.CROSS_HELICITY, "v", "h"),
    }
    matrix = dissipation_matrix(
        grid, {"v": v, "omega": omega, "h": h}, requests, mol,
        list(cfg.eps_ladder), cfg.radial_nodes, dirs,
    )
    for label in requests:
        for part in ("L", "T"):
            ball = np.array(matrix[label]["ball"][part])
            shell = np.array(matrix[label]["shell"][part])
            rel = np.max(np.abs(ball - shell) / (np.abs(ball) + 1e-30))
            verdict.add(f"ballshell/{label}/{part}", rel, cfg.quad_match_tol)


def _degeneracy_checks(cfg: VerifyConfig, verdict: Verdict) -> None:
    grid = make_grid(cfg.n, cfg.length)
    v = abc_flow(grid)
    zero = VectorField3(grid, np.zeros((3, grid.n, grid.n, grid.n)))
    dirs = parse_direction_spec(cfg.dirs)
    mol = bump_mollifier()
    eps = min(0.4, grid.length / 8.0)
    rms3 = v.rms() ** 3
    d_el_vv = d_ball(LawKind.MHD_ENERGY, "L", v, v, mol, eps, 16, dirs)
    d_chl_vv = d_ball(LawKind.CROSS_HELICITY, "L", v, v, mol, eps, 16, dirs)
    verdict.add("degeneracy/alignment-energy", abs(d_el_vv), cfg.degeneracy_tol * rms3)
    verdict.add("degeneracy/alignment-cross", abs(d_chl_vv), cfg.degeneracy_tol * rms3)
    d_hl_vv = d_ball(LawKind.HELICITY, "L", v, v, mol, eps, 16, dirs)
    d_el_v0 = d_ball(LawKind.MHD_ENERGY, "L", v, zero, mol, eps, 16, dirs)
    rel = abs(d_hl_vv - 0.5 * d_el_v0) / max(abs(0.5 * d_el_v0), 1e-300)
    verdict.add("degeneracy/beltrami-halving", rel, 1e-12)
    d_chl_v0 = d_ball(LawKind.CROSS_HELICITY, "L", v, zero, mol, eps, 16, dirs)
    verdict.add("degeneracy/cross-zero-field", abs(d_chl_v0), 0.0)
    from .laws import raw_combos

    rc = raw_combos(LawKind.HELICITY, v, v, min(0.3, grid.length / 8.0), dirs)
    verdict.add("degeneracy/helicity-flux", abs(rc.raw_flux), 1e-13)


def _smooth_checks(cfg: VerifyConfig, verdict: Verdict) -> None:
    # The vanishing-order checks need a smooth field with generic third-order
    # statistics; single-wavenumber test flows have none (no wavevector triads),
    # so a band-limited random field is used here.
    grid = make_grid(cfg.n, cfg.length)
    kmax = min(5, grid.n // 3)
    unit = cfg.length / (2.0 * np.pi)
    u = random_solenoidal(grid, SpectrumSpec(-5.0 / 3.0, 2, kmax, 1.0, cfg.seed))
    u2 = random_solenoidal(grid, SpectrumSpec(-5.0 / 3.0, 2, kmax, 1.0, cfg.seed + 9001))
    omega = curl(u)
    dirs = parse_direction_spec(cfg.dirs)
    mol = bump_mollifier()

    r_hi = 0.35 / kmax * unit
    scales = list(np.geomspace(r_hi / 8.0, r_hi, 8))
    rep_h = sweep_structure(LawKind.HELICITY, (u, omega), scales, dirs)
    rep_e = sweep_structure(LawKind.MHD_ENERGY, (u, u2), scales, dirs)
    fit_h = power_law_fit(rep_h, (scales[0], scales[-1]))
    fit_e = power_law_fit(rep_e, (scales[0], scales[-1]))
    verdict.add("smooth/helicity-slope", fit_h.slope, cfg.slope_min, larger_ok=True)
    verdict.add("smooth/mhd-energy-slope", fit_e.slope, cfg.slope_min, larger_ok=True)

    eps_hi = 0.5 / kmax * unit
    ladder = list(np.geomspace(eps_hi / 4.0, eps_hi, 4))
    matrix = dissipation_matrix(
        grid, {"v": u, "omega": omega, "h": u2},
        {
            "helicity": (LawKind.HELICITY, "v", "omega"),
            "mhd-energy": (LawKind.MHD_ENERGY, "v", "h"),
        },
        mol, ladder, 16, dirs,
    )
    for label in ("helicity", "mhd-energy"):
        ball_l = matrix[label]["ball"]["L"]
        ext = extrapolate_to_zero(ladder, ball_l)
        order = ext["order"] if ext["order"] is not None else 0.0
        verdict.add(f"smooth/{label}-order", order, cfg.slope_min, larger_ok=True)
    diffs = np.abs(
        np.array(matrix["helicity"]["ball"]["L"]) - np.array(matrix["helicity"]["ball"]["T"])
    )
    ratios = diffs[:-1] / np.where(diffs[1:] == 0.0, 1e-300, diffs[1:])
    verdict.add("smooth/LT-difference-monotone", float(np.max(ratios)), 1.0)


def combine_consistency_checks(combine_coeffs=None) -> Verdict:
    """Cross-check the combined-value flux coefficients against the solved
    coefficient systems; an alternate sign convention fails here."""
    from .mollifier import coefficient_oracle

    coeffs = combine_coeffs if combine_coeffs is not None else COMBINE_COEFFS
    verdict = Verdict()
    for law in (LawKind.HELICITY, LawKind.MHD_ENERGY, LawKind.CROSS_HELICITY):
        oracle = coefficient_oracle(law)
        sol = oracle["solution"]
        c_l, c_t = coeffs[law]
        worst = max(abs(sol["flux_coeff_L"] - c_l), abs(sol["flux_coeff_T"] - c_t))
        verdict.add(f"combine/{law.value}", worst, 1e-8)
    return verdict


def run_verify(cfg: VerifyConfig) -> Verdict:
    if cfg.suite != "all" and cfg.suite not in _SUITES:
        raise ValueError(f"unknown suite {cfg.suite!r}; choose from {('all',) + _SUITES}")
    active = _SUITES if cfg.suite == "all" else (cfg.suite,)
    verdict = Verdict()
    if "identity" in active:
        _identity_checks(cfg, verdict)
    if "oracle" in active:
        _oracle_checks(cfg, verdict)
    if "ballshell" in active:
        _ballshell_checks(cfg, verdict)
    if "degeneracy" in active:
        _degeneracy_checks(cfg, verdict)
    if "smooth" in active:
        _smooth_checks(cfg, verdict)
    if "combine" in active:
        verdict.checks.extend(combine_consistency_checks().checks)
    return verdict


def run_selftest() -> Verdict:
    """Built-in checks on small grids; no input files, runs in seconds."""
    verdict = Verdict()
    mol = bump_mollifier()
    m2, m3 = mollifier_moments(mol)
    verdict.add("selftest/mollifier-mass", abs(m2 - 1.0), 1e-10)
    verdict.add("selftest/mollifier-third-moment", abs(m3 + 3.0), 1e-8)
    r0 = 0.5
    h = 1e-6
    grad = (phi_L(mol, r0 + h) - phi_L(mol, r0 - h)) / (2.0 * h)
    expected = mol.dphi(r0) + 2.0 * mol.phi(r0) / r0
    verdict.add("selftest/longitudinal-profile-gradient", abs(grad - expected), 1e-7)

    dirs = direction_set_icosa(2)
    verdict.add("selftest/direction-first-moment", np.max(np.abs(dirs.first_moment())), 1e-14)
    verdict.add("selftest/direction-second-moment", dirs.second_moment_error(), 1e-3)

    rng = np.random.Generator(np.random.Philox(key=[2024, 7]))
    ells = rng.standard_normal((10_000, 3))
    ells /= np.linalg.norm(ells, axis=1)[:, None]
    A, B, C = (rng.standard_normal((10_000, 3)) for _ in range(3))
    lhs, rhs = identity227_batch(ells, A, B, C)
    verdict.add("selftest/identity", np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs))), 1e-10)
    worst = max(
        triple_product_check(rng.standard_normal(3), rng.standard_normal(3))
        for _ in range(1000)
    )
    verdict.add("selftest/triple-product", worst, 1e-13)

    grid = make_grid(8)
    u = VectorField3(grid, rng.standard_normal((3, 8, 8, 8)))
    nhat = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    pair = split_long_trans(u, nhat)
    total = pair.longitudinal.values + pair.transverse.values
    verdict.add("selftest/projection-completeness", np.max(np.abs(total - u.values)), 1e-13)
    ortho = np.max(
        np.abs(np.einsum("cxyz,cxyz->xyz", pair.longitudinal.values, pair.transverse.values))
    )
    verdict.add("selftest/projection-orthogonality", ortho, 1e-12)
    return verdict


# ----------------------------------------------------------------------------
# Ladders and shared argument plumbing


def parse_ladder(text: str) -> list[float]:
    """Parse "lo:hi:count" into a geometric ladder (count >= 1, hi >= lo > 0)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"ladder must be lo:hi:count, got {text!r}")
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    if not (0 < lo <= hi) or count < 1:
        raise ValueError(f"invalid ladder {text!r}")
    if count == 1:
        return [lo]
    return [float(x) for x in np.geomspace(lo, hi, count)]


def _apply_config_file(args: argparse.Namespace) -> None:
    path = getattr(args, "config", None)
    if not path:
        return
    with open(path, "r", encoding="utf-8") as fh:
        overrides = json.load(fh)
    if not isinstance(overrides, dict):
        raise ValueError("config file must contain a JSON object")
    for key, value in overrides.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            raise ValueError(f"config key {key!r} does not match any flag")
        setattr(args, attr, value)


def _load_vector(path) -> VectorField3:
    fld = read_field(path)
    if not isinstance(fld, VectorField3):
        raise ValueError(f"{path} holds a scalar field; a 3-component field is required")
    return fld


def _file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ----------------------------------------------------------------------------
# Commands


def cmd_gen(args) -> int:
    grid = make_grid(args.n, args.length)
    params: dict = {}
    if args.kind == "abc":
        fld = abc_flow(grid, args.A, args.B, args.C)
        params = {"A": args.A, "B": args.B, "C": args.C}
    elif args.kind == "taylor-green":
        fld = taylor_green(grid)
    elif args.kind == "random":
        spec = SpectrumSpec(args.slope, args.kmin, args.kmax, args.rms, args.seed)
        fld = random_solenoidal(grid, spec)
        params = {
            "slope": args.slope,
            "kmin": args.kmin,
            "kmax": args.kmax,
            "rms": args.rms,
            "seed": args.seed,
        }
    else:
        raise ValueError(f"unknown generator kind {args.kind!r}")
    write_field(fld, args.out)
    sidecar = {
        "kind": args.kind,
        "parameters": params,
        "grid": {"n": grid.n, "length": grid.length},
        "file": str(args.out),
        "payload_sha256": _file_sha256(args.out),
        "provenance": rep.provenance(),
    }
    rep.write_report(str(args.out) + ".json", sidecar)
    print(f"wrote {args.out} ({args.kind}, n={grid.n})")
    return 0


def _second_field_for(args, law: LawKind, grid):
    if law is LawKind.HELICITY:
        return _load_vector(args.omega) if args.omega else None
    if law is LawKind.HYDRO_ENERGY:
        return None
    if not args.h:
        raise ValueError(f"magnetic field required for the {law.value} law (--h)")
    return _load_vector(args.h)


def cmd_analyze(args) -> int:
    law = LawKind(args.law)
    v = _load_vector(args.v)
    w = _second_field_for(args, law, v.grid)
    scales = parse_ladder(args.scales)
    dirs = parse_direction_spec(args.dirs)
    provenance_info = {"v": str(args.v)}
    if args.omega:
        provenance_info["omega"] = str(args.omega)
    if args.h:
        provenance_info["h"] = str(args.h)
    report = sweep_structure(law, (v, w), scales, dirs, provenance=provenance_info)
    payload = report.to_json_dict()
    payload["provenance"] = {**rep.provenance(), "engine": report.engine}
    out = args.out or "structure"
    digest = rep.write_report(out + ".json", payload)
    rep.write_csv(out + ".csv", report.csv_rows())
    print(f"wrote {out}.json and {out}.csv (canonical hash {digest})")
    return 0


def cmd_dissipation(args) -> int:
    law = LawKind(args.law)
    tol = _check_tolerance("quad-match-tol", args.quad_match_tol)
    v = _load_vector(args.v)
    w = _second_field_for(args, law, v.grid)
    epsilons = parse_ladder(args.eps)
    dirs = parse_direction_spec(args.dirs)
    report = sweep_dissipation(
        law, args.part, (v, w), bump_mollifier(), epsilons, args.radial_nodes, dirs
    )
    failures = []
    if args.method == "both":
        for eps, b, s in zip(report.epsilons, report.d_ball, report.d_shell):
            rel = abs(b - s) / (abs(b) + 1e-30)
            if rel > tol:
                failures.append((eps, rel))
    payload = report.to_json_dict()
    if args.method == "ball":
        payload["d_shell"] = None
    elif args.method == "shell":
        payload["d_ball"] = None
    payload["method"] = args.method
    payload["provenance"] = {**rep.provenance(), "engine": report.engine}
    out = args.out or "dissipation"
    digest = rep.write_report(out + ".json", payload)
    print(f"wrote {out}.json (canonical hash {digest})")
    if failures:
        for eps, rel in failures:
            print(
                f"ball/shell mismatch at eps={eps:g}: relative {rel:.3e} exceeds "
                f"{tol:g}",
                file=sys.stderr,
            )
        return 1
    return 0


def cmd_verify(args) -> int:
    cfg = VerifyConfig(
        suite=args.suite,
        n=args.n,
        length=args.length,
        seed=args.seed,
        dirs=args.dirs,
        radial_nodes=args.radial_nodes,
        eps_ladder=tuple(parse_ladder(args.eps)),
        identity_tol=args.identity_tol,
        quad_match_tol=args.quad_match_tol,
        degeneracy_tol=args.degeneracy_tol,
        slope_min=args.slope_min,
    )
    start = time.perf_counter()
    verdict = run_verify(cfg)
    elapsed = time.perf_counter() - start
    verdict.print_lines()
    payload = {
        "verdict": verdict.to_json_dict(),
        "config": cfg.to_json_dict(),
        "provenance": {**rep.provenance(), "elapsed_seconds": elapsed},
    }
    digest = rep.write_report(args.out, payload)
    print(f"wrote {args.out} (canonical hash {digest}, {elapsed:.1f}s)")
    return 0 if verdict.passed else 1


def cmd_selftest(args) -> int:
    start = time.perf_counter()
    verdict = run_selftest()
    elapsed = time.perf_counter() - start
    verdict.print_lines()
    payload = {
        "verdict": verdict.to_json_dict(),
        "provenance": {**rep.provenance(), "elapsed_seconds": elapsed},
    }
    if args.out:
        rep.write_report(args.out, payload)
    print(f"selftest finished in {elapsed:.1f}s")
    return 0 if verdict.passed else 1


# ----------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exactlaws",
        description="Structure-function and dissipation-functional diagnostics "
        "on periodic 3D fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON file whose keys override flags")
        p.add_argument("--seed", type=int, default=0, help="seed for all randomness")

    p = sub.add_parser("gen", help="generate a solenoidal field file")
    common(p)
    p.add_argument("--kind", required=True, choices=("abc", "taylor-green", "random"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--length", type=float, default=2.0 * np.pi)
    p.add_argument("--out", required=True)
    p.add_argument("--A", type=float, default=1.0)
    p.add_argument("--B", type=float, default=1.0)
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--slope", type=float, default=-5.0 / 3.0)
    p.add_argument("--kmin", type=int, default=2)
    p.add_argument("--kmax", type=int, default=8)
    p.add_argument("--rms", type=float, default=1.0)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("analyze", help="structure-function sweep")
    common(p)
    p.add_argument("--law", required=True, choices=[k.value for k in LawKind])
    p.add_argument("--v", required=True, help="velocity field file (EXL1)")
    p.add_argument("--omega", help="vorticity file; default curl of velocity")
    p.add_argument("--h", help="magnetic field file (EXL1)")
    p.add_argument("--scales", default="0.05:0.8:12", help="geometric ladder lo:hi:count")
    p.add_argument("--dirs", default="icosa:2")
    p.add_argument("--out", help="output prefix (JSON + CSV)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("dissipation", help="dissipation-functional sweep")
    common(p)
    p.add_argument("--law", required=True, choices=[k.value for k in LawKind])
    p.add_argument("--v", required=True)
    p.add_argument("--omega")
    p.add_argument("--h")
    p.add_argument("--part", default="L", choices=("L", "T"))
    p.add_argument("--method", default="both", choices=("ball", "shell", "both"))
    p.add_argument("--eps", default="0.2:0.8:3", help="geometric ladder lo:hi:count")
    p.add_argument("--radial-nodes", type=int, default=32)
    p.add_argument("--dirs", default="icosa:2")
    p.add_argument("--quad-match-tol", type=float, default=1e-10)
    p.add_argument("--out")
    p.set_defaults(func=cmd_dissipation)

    p = sub.add_parser("verify", help="run the exact-law verification suite")
    common(p)
    p.add_argument("--suite", default="all", choices=("all",) + _SUITES)
    p.add_argument("--n", type=int, default=32)
    p.add_argument("--length", type=float, default=2.0 * np.pi)
    p.add_argument("--dirs", default="icosa:2")
    p.add_argument("--radial-nodes", type=int, default=32)
    p.add_argument("--eps", default="0.2:0.8:3")
    p.add_argument("--identity-tol", type=float, default=1e-10)
    p.add_argument("--quad-match-tol", type=float, default=1e-10)
    p.add_argument("--degeneracy-tol", type=float, default=1e-12)
    p.add_argument("--slope-min", type=float, default=1.9)
    p.add_argument("--out", default="verify_report.json")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("selftest", help="fast built-in consistency checks")
    common(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config_file(args)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
