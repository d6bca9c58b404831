"""Radial mollifier and the mollified dissipation functionals.

The dissipation functional of each law integrates cubic increment kernels
against a rescaled radial mollifier over the ball |l| <= eps.  Two
quadratures are provided: a direct 3D ball quadrature of the displayed
integrands (Gauss-Legendre radii times a direction set) and a radial shell
form obtained by carrying out the angular integral first.  With matched
nodes the two differ only by the regrouping of terms, which is the
computable content of the reduction from ball to shell; their agreement is
asserted by the verification suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from ._kernels import LawKind, StatsEngine, check_part
from .geometry import DirectionSet
from .grid import VectorField3
from .laws import RawCombos, _check_ladder, _law_engine, _term_sums, default_directions

__all__ = [
    "Mollifier",
    "DissipationReport",
    "bump_mollifier",
    "phi_T",
    "phi_L",
    "mollifier_moments",
    "radial_quadrature",
    "d_ball",
    "d_shell",
    "coefficient_oracle",
    "dr_dissipation",
    "dr_dissipation_profile",
    "sweep_dissipation",
    "dissipation_matrix",
    "extrapolate_to_zero",
]


@dataclass(frozen=True)
class Mollifier:
    """Smooth nonnegative radial bump supported on [0, 1] with unit mass.

    phi(r) = amplitude * exp(-1/(1 - r^2)) for r < 1, zero outside, with the
    amplitude fixed so that 4*pi * integral(r^2 phi) = 1.  The derivative is
    analytic:  phi'(r) = -2 r / (1 - r^2)^2 * phi(r).  The rescaled family is
    phi_eps(l) = eps^-3 phi(|l|/eps).
    """

    amplitude: float
    name: str = "bump"

    def phi(self, r):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        inside = np.abs(r) < 1.0
        ri = r[inside]
        out[inside] = self.amplitude * np.exp(-1.0 / (1.0 - ri * ri))
        return out if out.ndim else float(out)

    def dphi(self, r):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        inside = np.abs(r) < 1.0
        ri = r[inside]
        one = 1.0 - ri * ri
        out[inside] = self.amplitude * np.exp(-1.0 / one) * (-2.0 * ri / (one * one))
        return out if out.ndim else float(out)

    def phi_scaled(self, r, eps: float):
        return self.phi(np.asarray(r, dtype=float) / eps) / eps**3

    def dphi_scaled(self, r, eps: float):
        return self.dphi(np.asarray(r, dtype=float) / eps) / eps**4


# integral_0^1 r^2 exp(-1/(1 - r^2)) dr, as adaptive quadrature gives it
# (scipy.integrate.quad, epsabs=1e-15, epsrel=1e-14); a test recomputes it.
_BUMP_MASS = 0.0351007383764877


def bump_mollifier() -> Mollifier:
    """Construct the bump profile, normalized by its tabulated mass."""
    return Mollifier(amplitude=1.0 / (4.0 * np.pi * _BUMP_MASS))


def phi_T(m: Mollifier, r: float) -> float:
    """Transverse companion profile 2*integral_r^1 phi(s)/s ds (zero past the support).

    Logarithmically singular at r = 0, which is excluded.
    """
    r = float(r)
    if r <= 0.0:
        raise ValueError("phi_T is singular at zero separation")
    if r >= 1.0:
        return 0.0
    from scipy import integrate

    val, _ = integrate.quad(lambda s: m.phi(s) / s, r, 1.0, epsabs=1e-13, epsrel=1e-12)
    return 2.0 * val


def phi_L(m: Mollifier, r: float) -> float:
    """Longitudinal companion profile phi - phi_T."""
    return float(m.phi(r)) - phi_T(m, r)


def radial_quadrature(eps: float, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on (0, eps]; the open rule avoids r = 0."""
    if count < 2:
        raise ValueError("need at least 2 radial nodes")
    if not 0.0 < eps < np.inf:
        raise ValueError(f"eps must be positive and finite, got {eps:g}")
    x, w = np.polynomial.legendre.leggauss(count)
    return (x + 1.0) * (eps / 2.0), w * (eps / 2.0)


def _radial_nodes(m: Mollifier, eps: float, count: int) -> list[tuple]:
    """(r, weight, phi_eps(r), phi_eps'(r)) at each radial node in (0, eps]."""
    radii, weights = radial_quadrature(eps, count)
    return [(r, wq, float(m.phi_scaled(r, eps)), float(m.dphi_scaled(r, eps)))
            for r, wq in zip(radii, weights)]


def _shell(law: LawKind, part: str, nodes, raws) -> float:
    """Shell form of the dissipation functional over ``nodes``, from the raw
    combos (raw_L, raw_T, raw_flux) at each node."""
    total = 0.0
    for (r, wq, phi, dphi), raw in zip(nodes, raws):
        total += wq * _kernels.shell_node(law, part, *raw, phi, dphi, r)
    return 4.0 * np.pi * total


def mollifier_moments(m: Mollifier, eps: float = 1.0, count: int = 64) -> tuple[float, float]:
    """(4*pi int r^2 phi_eps, 4*pi int r^3 phi_eps') — must be (1, -3) at any eps."""
    r, w = radial_quadrature(eps, count)
    m2 = 4.0 * np.pi * float(np.sum(w * r * r * m.phi_scaled(r, eps)))
    m3 = 4.0 * np.pi * float(np.sum(w * r**3 * m.dphi_scaled(r, eps)))
    return m2, m3


def d_ball(
    law: LawKind,
    part: str,
    v: VectorField3,
    w,
    m: Mollifier,
    eps: float,
    radial_nodes: int = 32,
    dirs: DirectionSet | None = None,
) -> float:
    """Ball quadrature of the dissipation functional over |l| <= eps.

    The integrand follows the displayed form of the functional: gradient
    terms carry phi_eps'(r) n-components, the 2/|l| terms carry phi_eps, and
    the triple-product term enters with the law's own weight.
    """
    part = check_part(part)
    law, epsilons, _, dirs, engine = _law_engine(law, (v, w), [eps], dirs, "epsilons")
    matrix = _engine_matrix(engine, {"x": (law, "a", "b")}, m, epsilons, radial_nodes, dirs)
    return matrix["x"]["ball"][part][0]


def d_shell(
    law: LawKind,
    part: str,
    profiles,
    m: Mollifier,
    eps: float,
    radial_nodes: int = 32,
) -> float:
    """Radial shell form of the dissipation functional.

    ``profiles`` is called at each Gauss-Legendre radius in (0, eps] and must
    return the raw combos (raw_L, raw_T, raw_flux) there, either as a tuple
    or as a RawCombos.
    """
    law = LawKind(law)
    part = check_part(part)
    nodes = _radial_nodes(m, eps, radial_nodes)
    raws = [(p.raw_L, p.raw_T, p.raw_flux) if isinstance(p, RawCombos) else tuple(map(float, p))
            for p in (profiles(node[0]) for node in nodes)]
    return _shell(law, part, nodes, raws)


def coefficient_oracle(
    law: LawKind,
    m: Mollifier | None = None,
    radial_nodes: int = 64,
) -> dict:
    """Shell values on constant unit profiles and the solved combined relation.

    Evaluating the shell form on the profile basis vectors reproduces the
    coefficient rows of the two radial reductions; eliminating the
    transverse combination solves them into
        D = factor_L * (raw_L + flux_coeff_L * flux)
          = factor_T * (raw_T + flux_coeff_T * flux),
    whose factors must come out as -5/4 and -15/8, i.e. combined-to-D ratios
    of -4/5 and -8/15, with the flux coefficients matching ``combine``.
    """
    law = LawKind(law)
    m = m if m is not None else bump_mollifier()
    basis = {
        "raw_L": (1.0, 0.0, 0.0),
        "raw_T": (0.0, 1.0, 0.0),
        "flux": (0.0, 0.0, 1.0),
    }
    rows = {}
    for part in ("L", "T"):
        rows[part] = {
            name: d_shell(law, part, lambda r, p=p: p, m, 1.0, radial_nodes)
            for name, p in basis.items()
        }
    alpha = rows["L"]["raw_L"]
    beta = rows["L"]["raw_T"]
    gamma_l = rows["L"]["flux"]
    tau = rows["T"]["raw_T"]
    gamma_t = rows["T"]["flux"]
    factor_l = alpha / (1.0 - beta / tau)
    flux_l = (gamma_l - beta * gamma_t / tau) / alpha
    return {
        "law": law.value,
        "rows": rows,
        "solution": {
            "factor_L": factor_l,
            "flux_coeff_L": flux_l,
            "factor_T": tau,
            "flux_coeff_T": gamma_t / tau,
            "ratio_L": 1.0 / factor_l,
            "ratio_T": 1.0 / tau,
        },
    }


def dr_dissipation(
    v: VectorField3,
    m: Mollifier,
    eps: float,
    kernel: str = "long",
    radial_nodes: int = 32,
    dirs: DirectionSet | None = None,
) -> float:
    """Mollified third-order energy functional (1/4) int grad(phi_eps).dv K dl.

    kernel "long" uses K = |dv_L|^2 (the longitudinal form); "full" uses the
    classical K = |dv|^2.
    """
    if kernel not in ("long", "full"):
        raise ValueError("kernel must be 'long' or 'full'")
    law, (eps,), _, dirs, engine = _law_engine(LawKind.HYDRO_ENERGY, v, [eps], dirs, "epsilons")
    nodes = _radial_nodes(m, eps, radial_nodes)
    sums = _term_sums(engine, {"x": (law, "a", "b")}, [node[0] for node in nodes], dirs)
    total = 0.0
    for (r, wq, _, dphi), s in zip(nodes, sums):
        l1, _, t1, _, _ = s["x"]
        total += wq * r * r * dphi * (l1 if kernel == "long" else l1 + t1)
    return np.pi * total  # (1/4) * 4*pi


def dr_dissipation_profile(
    profile,
    m: Mollifier,
    eps: float,
    radial_nodes: int = 32,
) -> float:
    """Shell form of the third-order energy functional for a given radial profile.

    ``profile(r)`` supplies the direction-averaged combination with its 1/r
    prefactor; a constant profile J = 1 yields -3/4 by the third-moment
    identity of the mollifier.
    """
    total = 0.0
    for r, wq, _, dphi in _radial_nodes(m, eps, radial_nodes):
        total += wq * r**3 * dphi * float(profile(r))
    return np.pi * total


@dataclass(frozen=True)
class DissipationReport:
    """Per-epsilon dissipation values from the ball and shell quadratures."""

    law: LawKind
    part: str
    epsilons: tuple[float, ...]
    d_ball: tuple[float, ...] | None
    d_shell: tuple[float, ...] | None
    mollifier: str
    radial_nodes: int
    directions: str
    extrapolation: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)
    engine: dict = field(default_factory=dict)  # StatsEngine.describe(); not in to_json_dict

    def to_json_dict(self) -> dict:
        return {
            "law": self.law.value,
            "part": self.part,
            "mollifier": self.mollifier,
            "epsilons": list(self.epsilons),
            "d_ball": None if self.d_ball is None else list(self.d_ball),
            "d_shell": None if self.d_shell is None else list(self.d_shell),
            "radial_nodes": self.radial_nodes,
            "directions": self.directions,
            "extrapolation": self.extrapolation,
            "metadata": self.metadata,
        }


def extrapolate_to_zero(epsilons, values) -> dict:
    """Small-eps behavior: linear-in-eps^2 extrapolation plus a log-log order fit.

    The extrapolation uses the three smallest epsilons (smooth fields vanish
    quadratically); the order is the slope of log|D| against log eps over
    the whole ladder, None when values vanish exactly.  With fewer than three
    epsilons nothing can be fitted, and every entry is None.
    """
    eps = np.asarray(epsilons, dtype=float)
    vals = np.asarray(values, dtype=float)
    if eps.size < 3:
        return {"value": None, "curvature": None, "r_squared": None, "order": None}
    order = np.argsort(eps)
    eps, vals = eps[order], vals[order]
    e3, v3 = eps[:3], vals[:3]
    design = np.column_stack([np.ones_like(e3), e3 * e3])
    coef, *_ = np.linalg.lstsq(design, v3, rcond=None)
    resid = v3 - design @ coef
    total = v3 - v3.mean()
    denom = float(total @ total)
    r_squared = 1.0 if denom == 0.0 else 1.0 - float(resid @ resid) / denom
    usable = vals != 0.0
    fit_order = None
    if int(usable.sum()) >= 3:
        slope, _ = np.polyfit(np.log(eps[usable]), np.log(np.abs(vals[usable])), 1)
        fit_order = float(slope)
    return {
        "value": float(coef[0]),
        "curvature": float(coef[1]),
        "r_squared": r_squared,
        "order": fit_order,
    }


def dissipation_matrix(
    grid,
    fields: dict,
    requests: dict,
    m: Mollifier,
    epsilons,
    radial_nodes: int = 32,
    dirs: DirectionSet | None = None,
) -> dict:
    """Ball and shell values for several laws over an epsilon ladder, sharing
    one pass of increment statistics per radial node.

    ``requests`` maps labels to (law, first_name, second_name) into
    ``fields``; returns {label: {"ball": {part: [per-eps]}, "shell": ...}}.
    """
    epsilons = _check_ladder(grid.length, epsilons, "epsilons")
    dirs = dirs if dirs is not None else default_directions()
    return _engine_matrix(StatsEngine(grid, fields), requests, m, epsilons, radial_nodes, dirs)


def _engine_matrix(engine, requests, m, epsilons, radial_nodes, dirs) -> dict:
    """``dissipation_matrix`` on an engine that is already built, with checked
    epsilons and a direction set."""
    out = {
        label: {"ball": {"L": [], "T": []}, "shell": {"L": [], "T": []}}
        for label in requests
    }
    for eps in epsilons:
        nodes = _radial_nodes(m, eps, radial_nodes)
        sums = _term_sums(engine, requests, [node[0] for node in nodes], dirs)
        for label, (law, _, _) in requests.items():
            terms = [s[label] for s in sums]
            raws = [_kernels.raw_from_terms(law, t, node[0]) for t, node in zip(terms, nodes)]
            for part in ("L", "T"):
                ball = 0.0
                for t, (r, wq, phi, dphi) in zip(terms, nodes):
                    ball += wq * r * r * _kernels.ball_node(law, part, t, phi, dphi, r)
                out[label]["ball"][part].append(4.0 * np.pi * ball)
                out[label]["shell"][part].append(_shell(law, part, nodes, raws))
    return out


def sweep_dissipation(
    law: LawKind,
    part: str,
    fields,
    m: Mollifier,
    epsilons,
    radial_nodes: int = 32,
    dirs: DirectionSet | None = None,
) -> DissipationReport:
    """Ball and shell dissipation values over an ascending epsilon ladder.

    The shell profiles are the raw combos evaluated at the shared radial
    nodes, so matched quadratures make ball and shell agree to round-off.
    """
    part = check_part(part)
    law, epsilons, _, dirs, engine = _law_engine(law, fields, epsilons, dirs, "epsilons")
    matrix = _engine_matrix(engine, {"x": (law, "a", "b")}, m, epsilons, radial_nodes, dirs)["x"]
    ball = tuple(matrix["ball"][part])
    return DissipationReport(
        law=law,
        part=part,
        epsilons=tuple(epsilons),
        d_ball=ball,
        d_shell=tuple(matrix["shell"][part]),
        mollifier=m.name,
        radial_nodes=radial_nodes,
        directions=dirs.descriptor or f"custom:{len(dirs)}",
        extrapolation=extrapolate_to_zero(epsilons, ball),
        engine=engine.describe(),
    )
