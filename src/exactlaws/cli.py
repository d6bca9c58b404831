"""Command-line orchestration: generation, sweeps, verification, self-tests.

Verbs:
  gen          write a synthetic solenoidal field as an EXL1 file
  analyze      structure-function sweep -> JSON + CSV report
  dissipation  dissipation-functional sweep (ball/shell/both) -> JSON report
  verify       run the exact-law verification suite, exit 0 iff it passes
  selftest     fast built-in consistency checks, no input files

All reports are canonical JSON (sorted keys, 17-significant-digit floats);
volatile data sits under "provenance", which the canonical hash excludes.
--out of analyze, dissipation, verify and selftest is a prefix (one
trailing .json is dropped); gen's is the field file's path.
gen --kind random and verify draw from --seed; analyze, dissipation and
selftest accept the flag but read no seed: a random:COUNT:SEED direction set
carries its own, and selftest uses fixed Philox keys.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import inspect
import json
import sys
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import report as rep
from ._kernels import COMBINE_COEFFS, LAWS, CurlOf, LawKind, stage_clock
from .geometry import (
    direction_set_icosa,
    identity227_batch,
    parse_direction_spec,
    split_long_trans,
    triple_product_check,
)
from .grid import VectorField3, make_grid, read_field, write_field
from .laws import (DEFAULT_DIRECTIONS, _check_ladder, _law_engine, _structure_engine,
                   _structure_report, power_law_fit, raw_combos, sweep_structure)
from .mollifier import (
    RADIAL_NODES,
    _dissipation_report,
    bump_mollifier,
    coefficient_oracle,
    dissipation_matrix,
    extrapolate_to_zero,
    mollifier_moments,
    phi_L,
    radial_quadrature,
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
    # Wall seconds per verify suite, in run order; printed and kept under
    # "provenance", not in the verdict itself.
    seconds: dict[str, float] = field(default_factory=dict)

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
        """One line per check, with its margin measured/threshold (a check
        passes at a margin of at most 1, or of at least 1 where larger values
        pass), the seconds of each suite, and the overall verdict."""
        out = sys.stdout if out is None else out
        for c in self.checks:
            tag = "PASS" if c.passed else "FAIL"
            measured = "null" if c.measured is None else f"{c.measured:.6e}"
            print(f"[{tag}] {c.name}: measured={measured} threshold={c.threshold:.6e} "
                  f"margin={_margin(c.measured, c.threshold)}", file=out)
        for name, seconds in self.seconds.items():
            print(f"suite {name}: {seconds:.3f}s", file=out)
        print(f"overall: {'PASS' if self.passed else 'FAIL'}", file=out)


def _margin(measured: float | None, threshold: float) -> str:
    """measured / threshold as printed; 0 for a zero measurement, inf for a
    nonzero one against a zero threshold."""
    if measured is None:
        return "null"
    if measured == 0.0:
        return "0"
    return f"{measured / threshold:.3g}" if threshold else "inf"


def _check_tolerance(name: str, value: float) -> float:
    """Return ``value`` as a float if it is a usable gate tolerance.

    NaN and infinity would switch the gate off; zero or a negative value asks
    for more than round-off agreement, so all of them are refused."""
    value = float(value)
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value:g}")
    return value


def parse_ladder(text: str) -> list[float]:
    """Parse "lo:hi:count" into a geometric ladder (count >= 1, finite hi >= lo > 0)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"ladder must be lo:hi:count, got {text!r}")
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    if not (0 < lo <= hi < np.inf) or count < 1:
        raise ValueError(f"invalid ladder {text!r}")
    if count == 1:
        return [lo]
    return [float(x) for x in np.geomspace(lo, hi, count)]


# The defaults of dissipation's --eps and --quad-match-tol, and of verify's.
EPS_LADDER = "0.2:0.8:3"
QUAD_MATCH_TOL = 1e-10
# The help of every verb's --dirs (argparse text: %% prints %).
_DIRS_HELP = ("icosa:LEVEL (equal weights: exact to degree 5 only, no convergence to the "
              "sphere average; hydro-energy on the README's n=64 field is 0.50-9.2%% off at "
              "2, 0.40-7.8%% at 4) or random:COUNT:SEED")


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


def _band(grid) -> tuple[int, int]:
    """The shells (kmin, kmax) of the suites' band-limited fields: 2..min(5, n//3)."""
    return 2, min(5, grid.n // 3)


def _band_limited(grid, seed: int) -> VectorField3:
    """The smooth field of the ballshell, degeneracy and smooth suites: slope
    -5/3 over the shells ``_band(grid)``.  Single-wavenumber flows such as ABC
    have no wavevector triads, so all their third-order averages vanish and
    no wrong coefficient, degeneracy or vanishing order could show on them."""
    return random_solenoidal(grid, SpectrumSpec(-5.0 / 3.0, *_band(grid), 1.0, seed))


def _ballshell_gap(ball, shell) -> np.ndarray:
    """Relative gap |ball - shell| / |ball| per epsilon (1e-30 guards a zero ball)."""
    ball = np.asarray(ball)
    return np.abs(ball - np.asarray(shell)) / (np.abs(ball) + 1e-30)


# A ballshell check whose ball values all lie below this fraction of rms(v)^3
# compares round-off, not quadratures, and fails.
_BALL_FLOOR = 1e-12


# The laws whose row pairs v with a second field, as dissipation_matrix
# requests over the fields {"v": v, "omega": CurlOf("v"), "h": h}, named as the
# rows name them; the suites check them in the order of LAWS.
_COUPLED = {law.value: (law, "v", row.pair) for law, row in LAWS.items() if row.pair}


def _ballshell_checks(cfg: VerifyConfig, verdict: Verdict) -> None:
    grid, dirs, v = cfg.grid, cfg.directions, cfg.v
    floor = _BALL_FLOOR * v.rms() ** 3
    matrix = dissipation_matrix(
        grid, {"v": v, "omega": CurlOf("v"), "h": cfg.h}, _COUPLED, bump_mollifier(),
        list(cfg.eps_ladder), cfg.radial_nodes, dirs,
    )
    for label in _COUPLED:
        for part in ("L", "T"):
            ball = np.array(matrix[label]["ball"][part])
            rel = np.max(_ballshell_gap(ball, matrix[label]["shell"][part]))
            rel = rel if np.any(np.abs(ball) >= floor) else np.nan
            verdict.add(f"ballshell/{label}/{part}", rel, cfg.quad_match_tol)


def _degeneracy_checks(cfg: VerifyConfig, verdict: Verdict) -> None:
    grid, dirs, v = cfg.grid, cfg.directions, cfg.v
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
    grid, dirs = cfg.grid, cfg.directions
    kmax = _band(grid)[1]
    unit = cfg.length / (2.0 * np.pi)

    r_hi = 0.35 / kmax * unit
    scales = list(np.geomspace(r_hi / 8.0, r_hi, 8))
    requests = {label: _COUPLED[label] for label in ("helicity", "mhd-energy")}
    for label, (law, _, second) in requests.items():
        rep = sweep_structure(law, (cfg.v, cfg.h if second == "h" else None), scales, dirs)
        try:
            slope = power_law_fit(rep, (scales[0], scales[-1])).slope
        except ValueError:  # a degenerate fit (too few nonzero values) fails the check
            slope = float("nan")
        verdict.add(f"smooth/{label}-slope", slope, cfg.slope_min, larger_ok=True)

    eps_hi = 0.5 / kmax * unit
    ladder = list(np.geomspace(eps_hi / 4.0, eps_hi, 4))
    matrix = dissipation_matrix(grid, {"v": cfg.v, "omega": CurlOf("v"), "h": cfg.h}, requests,
                                bump_mollifier(), ladder, 16, dirs)
    for label in requests:
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
    for law, _, _ in _COUPLED.values():
        oracle = coefficient_oracle(law)
        sol = oracle["solution"]
        c_l, c_t = coeffs[law]
        worst = max(abs(sol["flux_coeff_L"] - c_l), abs(sol["flux_coeff_T"] - c_t))
        verdict.add(f"combine/{law.value}", worst, 1e-8)
    return verdict


def _default(func, name: str):
    """The default of the parameter ``name`` of ``func``, for a flag that
    restates a library default."""
    return inspect.signature(func).parameters[name].default


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
    ``add_argument``.  --seed is every verb's own flag.  The grid and the
    direction set the suites use are built once, when the config is made,
    and kept as the attributes ``grid`` and ``directions``; the band-limited
    fields ``v`` and ``h`` (at ``seed`` and ``seed + 9001``) are drawn once,
    on first use.  None is a field, so none is a flag or in the reported config.
    """

    suite: str = field(default="all", metadata={
        "choices": ("all", *_SUITES), "help": "the suite to run, or all of them"})
    n: int = field(default=32, metadata={
        "help": "grid points per axis of the suites' fields (even)"})
    length: float = field(default=_default(make_grid, "length"), metadata={
        "help": "side of the periodic box"})
    seed: int = 0
    dirs: str = field(default=DEFAULT_DIRECTIONS, metadata={"help": _DIRS_HELP})
    radial_nodes: int = field(default=RADIAL_NODES, metadata={
        "help": "radial quadrature nodes of the ballshell suite"})
    eps_ladder: tuple[float, ...] = field(  # --eps lo:hi:count, see parse_ladder
        default=tuple(parse_ladder(EPS_LADDER)),
        metadata={"flag": "eps", "type": str, "default": EPS_LADDER,
                  "help": "geometric ladder lo:hi:count of the ballshell suite's epsilons"},
    )
    identity_tol: float = field(default=1e-10, metadata={
        "help": "largest relative error of the identity suite's random samples"})
    quad_match_tol: float = field(default=QUAD_MATCH_TOL, metadata={
        "help": "largest relative ball/shell gap of the ballshell suite"})
    degeneracy_tol: float = field(default=1e-12, metadata={
        "help": "largest alignment residual of the degeneracy suite, in units of rms(v)^3"})
    slope_min: float = field(default=1.9, metadata={
        "help": "smallest slope and extrapolation order the smooth suite's fits must reach"})

    def __post_init__(self):
        for name in ("identity_tol", "quad_match_tol", "degeneracy_tol"):
            _check_tolerance(name.replace("_", "-"), getattr(self, name))
        # Build what the suites use, so a bad value fails before any runs.
        object.__setattr__(self, "grid", make_grid(self.n, self.length))
        _check_ladder(self.length, self.eps_ladder, "epsilons")
        object.__setattr__(self, "directions", parse_direction_spec(self.dirs))
        radial_quadrature(self.eps_ladder[0], self.radial_nodes)

    v = functools.cached_property(lambda self: _band_limited(self.grid, self.seed))
    h = functools.cached_property(lambda self: _band_limited(self.grid, self.seed + 9001))


def run_verify(cfg: VerifyConfig) -> Verdict:
    if cfg.suite != "all" and cfg.suite not in _SUITES:
        raise ValueError(f"unknown suite {cfg.suite!r}; choose from {('all', *_SUITES)}")
    verdict = Verdict()
    for name, checks in _SUITES.items():
        if cfg.suite in ("all", name):
            start = time.perf_counter()
            checks(cfg, verdict)
            verdict.seconds[name] = time.perf_counter() - start
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
# Shared argument plumbing


def _apply_config_file(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Override flags of ``parser`` (the verb's parser) from the --config file.

    Each value is read as if it had been given on the command line: a JSON
    string or number passes through its flag's own argparse action, which
    converts and checks it as the command line would.
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
        try:
            setattr(args, action.dest, parser._get_values(action, [str(value)]))
        except argparse.ArgumentError as exc:
            raise ValueError(f"config key {key!r}: {exc.message}") from None


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


# gen --kind -> (generator, the flags it reads as keywords after the grid);
# the sidecar records those flags as the field's "parameters".
_GENERATORS = {
    "abc": (abc_flow, ("A", "B", "C")),
    "taylor-green": (taylor_green, ()),
    "random": (lambda grid, **spec: random_solenoidal(grid, SpectrumSpec(**spec)),
               ("slope", "kmin", "kmax", "rms", "seed")),
}


def cmd_gen(args) -> int:
    grid = make_grid(args.n, args.length)
    generate, flags = _GENERATORS[args.kind]
    params = {flag: getattr(args, flag) for flag in flags}
    write_field(generate(grid, **params), args.out)
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


def _engine_stage(args, stage, ladder, *extra) -> tuple:
    """({flag: path} of the files read, ``stage(law, (v, w), ladder,
    direction set, *extra)``) from --law, --v, --omega or --h, and --dirs.

    The second field comes from the flag the law's row pairs with, --omega
    or --h, None if not given, and the laws module decides what a missing
    one means; a law without a paired field reads no second file.  ``stage``
    builds the engine; the fields live in this frame only, so none outlives
    the engine build."""
    law = LawKind(args.law)
    second = LAWS[law].pair
    paths = {name: str(getattr(args, name)) for name in ("v", second)
             if name and getattr(args, name)}
    fields = (_load_vector(args.v), _load_vector(paths[second]) if second in paths else None)
    return paths, stage(law, fields, ladder, parse_direction_spec(args.dirs), *extra)


def _write_report(out: str, payload: dict, csv_rows=None, **provenance) -> None:
    """Write ``payload`` to <out>.json and ``csv_rows``, if given, to <out>.csv,
    one trailing .json dropped from ``out``; ``provenance`` adds keys under
    "provenance"."""
    out = out.removesuffix(".json")
    payload = {**payload, "provenance": {**rep.provenance(), **provenance}}
    digest = rep.write_report(out + ".json", payload)
    written = out + ".json"
    if csv_rows is not None:
        rep.write_csv(out + ".csv", csv_rows)
        written += f" and {out}.csv"
    print(f"wrote {written} (canonical hash {digest})")


def cmd_analyze(args) -> int:
    with stage_clock() as seconds:
        paths, built = _engine_stage(args, _structure_engine, parse_ladder(args.scales))
        report = _structure_report(*built)
    _write_report(args.out, report.to_json_dict(), report.csv_rows(), engine=report.engine,
                  fields=paths, stage_seconds=seconds)
    return 0


def cmd_dissipation(args) -> int:
    tol = _check_tolerance("quad-match-tol", args.quad_match_tol)
    with stage_clock() as seconds:
        paths, built = _engine_stage(args, _law_engine, parse_ladder(args.eps), "epsilons")
        report = _dissipation_report(args.part, bump_mollifier(), args.radial_nodes, *built)
    payload = {**report.to_json_dict(), "method": args.method}
    if args.method != "both":
        payload["d_shell" if args.method == "ball" else "d_ball"] = None
    # The eps -> 0 extrapolation assumes the eps^2 regime, kmax * eps << 1.
    engine = built[-1]
    kmax = 2.0 * np.pi / engine.grid.length * engine.kmax
    _write_report(args.out, payload, engine=report.engine, fields=paths,
                  kmax_eps_min=kmax * min(report.epsilons), stage_seconds=seconds)
    gap = _ballshell_gap(report.d_ball, report.d_shell) if args.method == "both" else []
    failures = [(eps, rel) for eps, rel in zip(report.epsilons, gap) if rel > tol]
    for eps, rel in failures:
        print(f"ball/shell mismatch at eps={eps:g}: relative {rel:.3e} exceeds {tol:g}",
              file=sys.stderr)
    return 1 if failures else 0


def _run_verdict(run, out, **extra) -> int:
    """Run ``run()``, print its verdict lines and the time taken, and write the
    verdict with ``extra`` keys to the --out prefix if one is given; the
    seconds, in total, per suite and per engine stage, go under
    "provenance"."""
    start = time.perf_counter()
    with stage_clock() as seconds:
        verdict = run()
    elapsed = time.perf_counter() - start
    verdict.print_lines()
    print(f"finished in {elapsed:.1f}s")
    if out:
        _write_report(out, {"verdict": verdict.to_json_dict(), **extra}, elapsed_seconds=elapsed,
                      suite_seconds=verdict.seconds, stage_seconds=seconds)
    return 0 if verdict.passed else 1


def cmd_verify(args) -> int:
    values = {f.name: getattr(args, f.metadata.get("flag", f.name)) for f in fields(VerifyConfig)}
    cfg = VerifyConfig(**{**values, "eps_ladder": tuple(parse_ladder(values["eps_ladder"]))})
    return _run_verdict(lambda: run_verify(cfg), args.out, config=asdict(cfg))


def cmd_selftest(args) -> int:
    return _run_verdict(run_selftest, args.out)


# ----------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exactlaws",
        description="Structure-function and dissipation-functional diagnostics "
        "on periodic 3D fields.",
    )
    add_parser = parser.add_subparsers(dest="command", required=True).add_parser

    def common(p, seed_help):
        p.set_defaults(parser=p)
        p.add_argument("--config", help="JSON file whose keys override flags")
        p.add_argument("--seed", type=int, default=0, help=seed_help)

    def report_out(p, default=None):
        p.add_argument("--out", default=default,
                       help="output prefix: writes PREFIX.json (one trailing .json is dropped)")

    no_seed = "accepted, not read: a random:COUNT:SEED direction set carries its own seed"

    def inputs(p, out):
        """The flags analyze and dissipation share."""
        common(p, no_seed)
        p.add_argument("--law", required=True, choices=[k.value for k in LawKind])
        p.add_argument("--v", required=True, help="velocity field file (EXL1)")
        p.add_argument("--omega", help="vorticity file; default curl of velocity")
        p.add_argument("--h", help="magnetic field file (EXL1)")
        p.add_argument("--dirs", default=DEFAULT_DIRECTIONS, help=_DIRS_HELP)
        report_out(p, out)

    p = add_parser("gen", help="generate a solenoidal field file")
    common(p, "seed of the random field (--kind random)")
    p.add_argument("--kind", required=True, choices=tuple(_GENERATORS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--length", type=float, default=_default(make_grid, "length"))
    p.add_argument("--out", required=True)
    for flag in ("A", "B", "C"):
        p.add_argument("--" + flag, type=float, default=_default(abc_flow, flag))
    p.add_argument("--slope", type=float, default=-5.0 / 3.0)
    p.add_argument("--kmin", type=int, default=2)
    p.add_argument("--kmax", type=int, default=8)
    p.add_argument("--rms", type=float, default=_default(SpectrumSpec, "rms"))
    p.set_defaults(func=cmd_gen)

    p = add_parser("analyze", help="structure-function sweep -> PREFIX.json + PREFIX.csv")
    inputs(p, "structure")
    p.add_argument("--scales", default="0.05:0.8:12", help="geometric ladder lo:hi:count")
    p.set_defaults(func=cmd_analyze)

    p = add_parser("dissipation", help="dissipation-functional sweep")
    inputs(p, "dissipation")
    p.add_argument("--part", default="L", choices=("L", "T"))
    p.add_argument("--method", default="both", choices=("ball", "shell", "both"))
    p.add_argument("--eps", default=EPS_LADDER, help="geometric ladder lo:hi:count")
    p.add_argument("--radial-nodes", type=int, default=RADIAL_NODES)
    p.add_argument("--quad-match-tol", type=float, default=QUAD_MATCH_TOL)
    p.set_defaults(func=cmd_dissipation)

    p = add_parser("verify", help="run the exact-law verification suite")
    common(p, "seed of the suites' random samples and fields")
    for f in fields(VerifyConfig):
        if f.name != "seed":
            opts = {"type": type(f.default), "default": f.default, **f.metadata}
            p.add_argument("--" + opts.pop("flag", f.name).replace("_", "-"), **opts)
    report_out(p, "verify_report")
    p.set_defaults(func=cmd_verify)

    p = add_parser("selftest", help="fast built-in consistency checks")
    common(p, "accepted, not read: the checks use fixed Philox keys")
    report_out(p)
    p.set_defaults(func=cmd_selftest)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reads, built on its first call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _apply_config_file(args.parser, args)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
