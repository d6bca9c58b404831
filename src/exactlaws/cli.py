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
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import report as rep
from ._kernels import COMBINE_COEFFS, CurlOf, LawKind
from .geometry import (
    direction_set_icosa,
    identity227_batch,
    parse_direction_spec,
    split_long_trans,
    triple_product_check,
)
from .grid import VectorField3, make_grid, read_field, write_field
from .laws import _check_ladder, power_law_fit, raw_combos, sweep_structure
from .mollifier import (
    bump_mollifier,
    coefficient_oracle,
    dissipation_matrix,
    extrapolate_to_zero,
    mollifier_moments,
    phi_L,
    radial_quadrature,
    sweep_dissipation,
)
from .synth import SpectrumSpec, abc_flow, random_solenoidal, taylor_green

__all__ = ["main", "VerifyConfig", "Verdict", "CheckResult", "combine_consistency_checks"]


# ----------------------------------------------------------------------------
# Verdict machinery


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: float | None  # None: nothing could be measured (a FAIL)
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
        """Record a check; by default measured <= threshold passes.

        A measurement that is not a finite number fails and is recorded as
        None, so the report can still be written.
        """
        measured = float(measured)
        if not np.isfinite(measured):
            self.checks.append(CheckResult(name, None, float(threshold), False))
            return
        ok = measured >= threshold if larger_ok else measured <= threshold
        self.checks.append(CheckResult(name, measured, float(threshold), bool(ok)))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {"pass": self.passed, "checks": [c.to_json_dict() for c in self.checks]}

    def print_lines(self, out=None) -> None:
        out = sys.stdout if out is None else out
        for c in self.checks:
            tag = "PASS" if c.passed else "FAIL"
            measured = "null" if c.measured is None else f"{c.measured:.6e}"
            print(f"[{tag}] {c.name}: measured={measured} threshold={c.threshold:.6e}", file=out)
        print(f"overall: {'PASS' if self.passed else 'FAIL'}", file=out)


def _check_tolerance(name: str, value: float) -> float:
    """Return ``value`` as a float if it is a usable gate tolerance.

    NaN and infinity would switch the gate off; zero or a negative value asks
    for more than round-off agreement, so all of them are refused."""
    value = float(value)
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value:g}")
    return value


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


def _band_limited(grid, seed: int) -> VectorField3:
    """The smooth field of the ballshell, degeneracy and smooth suites: slope
    -5/3 over shells 2..min(5, n//3).  Single-wavenumber flows such as ABC
    have no wavevector triads, so all their third-order averages vanish and
    no wrong coefficient, degeneracy or vanishing order could show on them."""
    return random_solenoidal(grid, SpectrumSpec(-5.0 / 3.0, 2, min(5, grid.n // 3), 1.0, seed))


# A ballshell check whose ball values all lie below this fraction of rms(v)^3
# compares round-off, not quadratures, and fails.
_BALL_FLOOR = 1e-12


def _ballshell_checks(cfg: VerifyConfig, verdict: Verdict) -> None:
    grid = make_grid(cfg.n, cfg.length)
    v = _band_limited(grid, cfg.seed)
    h = _band_limited(grid, cfg.seed + 9001)
    floor = _BALL_FLOOR * v.rms() ** 3
    dirs = parse_direction_spec(cfg.dirs)
    requests = {
        "helicity": (LawKind.HELICITY, "v", "omega"),
        "mhd-energy": (LawKind.MHD_ENERGY, "v", "h"),
        "cross-helicity": (LawKind.CROSS_HELICITY, "v", "h"),
    }
    matrix = dissipation_matrix(
        grid, {"v": v, "omega": CurlOf("v"), "h": h}, requests, bump_mollifier(),
        list(cfg.eps_ladder), cfg.radial_nodes, dirs,
    )
    for label in requests:
        for part in ("L", "T"):
            ball = np.array(matrix[label]["ball"][part])
            shell = np.array(matrix[label]["shell"][part])
            rel = np.max(np.abs(ball - shell) / (np.abs(ball) + 1e-30))
            rel = rel if np.any(np.abs(ball) >= floor) else np.nan
            verdict.add(f"ballshell/{label}/{part}", rel, cfg.quad_match_tol)


def _degeneracy_checks(cfg: VerifyConfig, verdict: Verdict) -> None:
    grid = make_grid(cfg.n, cfg.length)
    v = _band_limited(grid, cfg.seed)
    dirs = parse_direction_spec(cfg.dirs)
    eps = min(0.4, grid.length / 8.0)
    rms3 = v.rms() ** 3
    requests = {
        "energy-vv": (LawKind.MHD_ENERGY, "v", "v"),
        "cross-vv": (LawKind.CROSS_HELICITY, "v", "v"),
        "helicity-vv": (LawKind.HELICITY, "v", "v"),
        "energy-v0": (LawKind.MHD_ENERGY, "v", "zero"),
        "cross-v0": (LawKind.CROSS_HELICITY, "v", "zero"),
    }
    matrix = dissipation_matrix(
        grid, {"v": v, "zero": None}, requests, bump_mollifier(), [eps], 16, dirs
    )
    d = {label: matrix[label]["ball"]["L"][0] for label in requests}
    verdict.add("degeneracy/alignment-energy", abs(d["energy-vv"]), cfg.degeneracy_tol * rms3)
    verdict.add("degeneracy/alignment-cross", abs(d["cross-vv"]), cfg.degeneracy_tol * rms3)
    half = 0.5 * d["energy-v0"]
    rel = abs(d["helicity-vv"] - half) / max(abs(half), 1e-300)
    verdict.add("degeneracy/beltrami-halving", rel, 1e-12)
    verdict.add("degeneracy/cross-zero-field", abs(d["cross-v0"]), 0.0)
    rc = raw_combos(LawKind.HELICITY, v, v, min(0.3, grid.length / 8.0), dirs)
    verdict.add("degeneracy/helicity-flux", abs(rc.raw_flux), 1e-13)


def _smooth_checks(cfg: VerifyConfig, verdict: Verdict) -> None:
    grid = make_grid(cfg.n, cfg.length)
    kmax = min(5, grid.n // 3)
    unit = cfg.length / (2.0 * np.pi)
    u = _band_limited(grid, cfg.seed)
    u2 = _band_limited(grid, cfg.seed + 9001)
    dirs = parse_direction_spec(cfg.dirs)
    mol = bump_mollifier()

    r_hi = 0.35 / kmax * unit
    scales = list(np.geomspace(r_hi / 8.0, r_hi, 8))
    for label, law, second in (
        ("helicity", LawKind.HELICITY, None), ("mhd-energy", LawKind.MHD_ENERGY, u2)
    ):
        rep = sweep_structure(law, (u, second), scales, dirs)
        try:
            slope = power_law_fit(rep, (scales[0], scales[-1])).slope
        except ValueError:  # a degenerate fit (too few nonzero values) fails the check
            slope = float("nan")
        verdict.add(f"smooth/{label}-slope", slope, cfg.slope_min, larger_ok=True)

    eps_hi = 0.5 / kmax * unit
    ladder = list(np.geomspace(eps_hi / 4.0, eps_hi, 4))
    matrix = dissipation_matrix(
        grid, {"v": u, "omega": CurlOf("v"), "h": u2},
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
    coeffs = combine_coeffs if combine_coeffs is not None else COMBINE_COEFFS
    verdict = Verdict()
    for law in (LawKind.HELICITY, LawKind.MHD_ENERGY, LawKind.CROSS_HELICITY):
        oracle = coefficient_oracle(law)
        sol = oracle["solution"]
        c_l, c_t = coeffs[law]
        worst = max(abs(sol["flux_coeff_L"] - c_l), abs(sol["flux_coeff_T"] - c_t))
        verdict.add(f"combine/{law.value}", worst, 1e-8)
    return verdict


# Suite name -> checks; "all" runs every suite in this order.
_SUITES = {
    "identity": _identity_checks,
    "oracle": _oracle_checks,
    "ballshell": _ballshell_checks,
    "degeneracy": _degeneracy_checks,
    "smooth": _smooth_checks,
    "combine": lambda cfg, verdict: verdict.checks.extend(combine_consistency_checks().checks),
}


@dataclass(frozen=True)
class VerifyConfig:
    """Inputs and tolerances for the verification suite.

    The fields are also the flags of ``verify``, in this order: --name with
    dashes for underscores, of the field's type and default.  A field's
    metadata names a different flag ("flag") or overrides the keywords of
    ``add_argument``.  --seed is every verb's own flag.
    """

    suite: str = field(default="all", metadata={"choices": ("all", *_SUITES)})
    n: int = 32
    length: float = 2.0 * np.pi
    seed: int = 0
    dirs: str = "icosa:2"
    radial_nodes: int = 32
    eps_ladder: tuple[float, ...] = field(  # --eps lo:hi:count, see parse_ladder
        default=(0.2, 0.4, 0.8), metadata={"flag": "eps", "type": str, "default": "0.2:0.8:3"}
    )
    identity_tol: float = 1e-10
    quad_match_tol: float = 1e-10
    degeneracy_tol: float = 1e-12
    slope_min: float = 1.9

    def __post_init__(self):
        for name in ("identity_tol", "quad_match_tol", "degeneracy_tol"):
            _check_tolerance(name.replace("_", "-"), getattr(self, name))
        # Build what the suites build, so a bad value fails before any runs.
        make_grid(self.n, self.length)
        _check_ladder(self.length, self.eps_ladder, "epsilons")
        parse_direction_spec(self.dirs)
        radial_quadrature(self.eps_ladder[0], self.radial_nodes)


def run_verify(cfg: VerifyConfig) -> Verdict:
    if cfg.suite != "all" and cfg.suite not in _SUITES:
        raise ValueError(f"unknown suite {cfg.suite!r}; choose from {('all', *_SUITES)}")
    verdict = Verdict()
    for name, checks in _SUITES.items():
        if cfg.suite in ("all", name):
            checks(cfg, verdict)
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


def _apply_config_file(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Override flags of ``parser`` (the verb's parser) from the --config file.

    Each value is read as if it had been given on the command line: a JSON
    string or number passes through its flag's own type and choices.
    """
    path = getattr(args, "config", None)
    if not path:
        return
    with open(path, "r", encoding="utf-8") as fh:
        overrides = json.load(fh)
    if not isinstance(overrides, dict):
        raise ValueError("config file must contain a JSON object")
    flags = {a.dest: a for a in parser._actions if a.option_strings and a.dest != "help"}
    for key, value in overrides.items():
        action = flags.get(key.replace("-", "_"))
        if action is None:
            raise ValueError(f"config key {key!r} does not match any flag")
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise ValueError(f"config key {key!r} must be a string or a number")
        text = str(value)
        try:
            value = text if action.type is None else action.type(text)
        except ValueError:
            raise ValueError(f"config key {key!r}: invalid value {text!r}") from None
        if action.choices is not None and value not in action.choices:
            raise ValueError(f"config key {key!r}: {text!r} is not one of {list(action.choices)}")
        setattr(args, action.dest, value)


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


def _second_field_for(args, law: LawKind):
    """The law's second field from --omega (helicity) or --h, None if not
    given; the laws module decides what a missing or unused one means."""
    path = args.omega if law is LawKind.HELICITY else args.h
    return _load_vector(path) if path else None


def cmd_analyze(args) -> int:
    law = LawKind(args.law)
    v = _load_vector(args.v)
    w = _second_field_for(args, law)
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
    out = (args.out or "structure").removesuffix(".json")
    digest = rep.write_report(out + ".json", payload)
    rep.write_csv(out + ".csv", report.csv_rows())
    print(f"wrote {out}.json and {out}.csv (canonical hash {digest})")
    return 0


def cmd_dissipation(args) -> int:
    law = LawKind(args.law)
    tol = _check_tolerance("quad-match-tol", args.quad_match_tol)
    v = _load_vector(args.v)
    w = _second_field_for(args, law)
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
    out = (args.out or "dissipation").removesuffix(".json")
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


def _timed_verdict(run, **extra) -> tuple[Verdict, dict, float]:
    """Run ``run()``, print its verdict lines and return (verdict, report
    payload with ``extra`` keys, elapsed seconds)."""
    start = time.perf_counter()
    verdict = run()
    elapsed = time.perf_counter() - start
    verdict.print_lines()
    payload = {
        "verdict": verdict.to_json_dict(),
        **extra,
        "provenance": {**rep.provenance(), "elapsed_seconds": elapsed},
    }
    return verdict, payload, elapsed


def cmd_verify(args) -> int:
    values = {f.name: getattr(args, f.metadata.get("flag", f.name)) for f in fields(VerifyConfig)}
    cfg = VerifyConfig(**{**values, "eps_ladder": tuple(parse_ladder(values["eps_ladder"]))})
    verdict, payload, elapsed = _timed_verdict(lambda: run_verify(cfg), config=asdict(cfg))
    digest = rep.write_report(args.out, payload)
    print(f"wrote {args.out} (canonical hash {digest}, {elapsed:.1f}s)")
    return 0 if verdict.passed else 1


def cmd_selftest(args) -> int:
    verdict, payload, elapsed = _timed_verdict(run_selftest)
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
        p.set_defaults(parser=p)
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
    p.add_argument("--out", help="output prefix (JSON); a trailing .json is not doubled")
    p.set_defaults(func=cmd_dissipation)

    p = sub.add_parser("verify", help="run the exact-law verification suite")
    common(p)
    for f in fields(VerifyConfig):
        if f.name != "seed":
            opts = {"type": type(f.default), "default": f.default, **f.metadata}
            p.add_argument("--" + opts.pop("flag", f.name).replace("_", "-"), **opts)
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
        _apply_config_file(args.parser, args)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
