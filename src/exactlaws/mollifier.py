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

from dataclasses import dataclass, field, fields

import numpy as np

from . import _kernels
from ._kernels import LawKind, StatsEngine, _stage, check_part
from .geometry import DirectionSet
from .grid import VectorField3
from .laws import RawCombos, _check_ladder, _law_engine, _line_fit, default_directions

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

    def _on_support(self, r, factor):
        """amplitude * exp(-1/(1 - r^2)) * factor(r, 1 - r^2) for |r| < 1, zero outside."""
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        inside = np.abs(r) < 1.0
        ri = r[inside]
        one = 1.0 - ri * ri
        out[inside] = self.amplitude * np.exp(-1.0 / one) * factor(ri, one)
        return out if out.ndim else float(out)

    def phi(self, r):
        return self._on_support(r, lambda ri, one: 1.0)

    def dphi(self, r):
        return self._on_support(r, lambda ri, one: -2.0 * ri / (one * one))


# integral_0^1 r^2 exp(-1/(1 - r^2)) dr, as adaptive quadrature gives it
# (scipy.integrate.quad, epsabs=1e-15, epsrel=1e-14); a test recomputes it.
_BUMP_MASS = 0.0351007383764877


def bump_mollifier() -> Mollifier:
    """Construct the bump profile, normalized by its tabulated mass."""
    return Mollifier(amplitude=1.0 / (4.0 * np.pi * _BUMP_MASS))


# Gauss-Legendre nodes of phi_T's rule on (r, 1); against 30-digit mpmath
# quadrature the rule is within 8.9e-16 for r in [0.01, 0.99], and tests
# check it (to 2e-15 there, and to 1e-12 against scipy.integrate.quad, whose
# own error at epsabs=1e-13, epsrel=1e-12 reaches 6.6e-13).
_PHI_T_NODES = 128


def phi_T(m: Mollifier, r: float) -> float:
    """Transverse companion profile 2*integral_r^1 phi(s)/s ds (zero past the support).

    Logarithmically singular at r = 0, which is excluded.
    """
    r = float(r)
    if r <= 0.0:
        raise ValueError("phi_T is singular at zero separation")
    if r >= 1.0:
        return 0.0
    s, w = radial_quadrature(1.0 - r, _PHI_T_NODES)
    s += r
    return 2.0 * float(np.sum(w * m.phi(s) / s))


def phi_L(m: Mollifier, r: float) -> float:
    """Longitudinal companion profile phi - phi_T."""
    return float(m.phi(r)) - phi_T(m, r)


# Radial Gauss-Legendre nodes of every dissipation functional unless overridden.
RADIAL_NODES = 32


def radial_quadrature(eps: float, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on (0, eps]; the open rule avoids r = 0."""
    if count < 2:
        raise ValueError("need at least 2 radial nodes")
    if not 0.0 < eps < np.inf:
        raise ValueError(f"eps must be positive and finite, got {eps:g}")
    x, w = _gauss_legendre(count)
    return (x + 1.0) * (eps / 2.0), w * (eps / 2.0)


def _legendre(count: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P_count(x), P_count'(x)) by the three-term recurrence, in the precision of x."""
    k = np.arange(1, count, dtype=x.dtype)
    p0, p1 = np.ones_like(x), x
    for c in k / (k + 1):  # P_{k+1} = x P_k + k/(k+1) (x P_k - P_{k-1})
        t = x * p1
        p0, p1 = p1, t + c * (t - p0)
    return p1, count * (x * p1 - p0) / ((x - 1.0) * (x + 1.0))


def _gauss_legendre(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton's method on the three-term recurrence (Hale & Townsend, SIAM J.
    Sci. Comput. 35, A652 (2013)) from Tricomi's asymptotic nodes, run on the
    nodes x <= 0 and mirrored, so x == -x[::-1] and w == w[::-1] bitwise.
    After a step dx the error is about c dx^2 with c = |x| / (1 - x^2), and
    the double steps stop, within a fixed bound, once one more step would
    leave c^3 dx^4 <= eps |x| / 16.  That last step runs in np.longdouble:
    where it is wider than double (the x87 format on x86-64) the nodes come
    out correctly rounded, within 0.5002 ulp of the roots for 2-200 nodes.
    The weights are 2 / ((1 - x^2) P'(x)^2) at the roots, P' taken there from
    the Legendre equation, normalised to sum to 2.
    """
    k = np.arange(1, count // 2 + 1)
    theta = np.pi * (4 * k - 1) / (4 * count + 2)
    x = -np.cos(theta) * (1.0 - (count - 1) / (8.0 * count**3)
                          - (39.0 - 28.0 / np.sin(theta) ** 2) / (384.0 * count**4))
    if count % 2:
        x = np.append(x, 0.0)
    for _ in range(8):
        p, dp = _legendre(count, x)
        dx = p / dp
        x = x - dx
        if np.all(16.0 * x * x * dx**4 <= np.finfo(float).eps * ((1.0 - x) * (1.0 + x)) ** 3):
            break
    x = x.astype(np.longdouble)
    p, dp = _legendre(count, x)
    dx = p / dp
    dp -= dx * (2.0 * x * dp - count * (count + 1) * p) / ((1.0 - x) * (1.0 + x))
    x -= dx
    w = (2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)).astype(float)
    x = x.astype(float)
    half = count // 2
    x = np.concatenate([x, -x[half - 1::-1]])
    w = np.concatenate([w, w[half - 1::-1]])
    return x, w * (2.0 / w.sum())


def _radial_nodes(m: Mollifier, eps: float, count: int) -> tuple[np.ndarray, ...]:
    """Arrays (r, weight, phi_eps(r), phi_eps'(r)) over the radial nodes in (0, eps]."""
    r, w = radial_quadrature(eps, count)
    return r, w, m.phi(r / eps) / eps**3, m.dphi(r / eps) / eps**4


def _node_sum(x):
    """Running sum over the radial nodes (last axis) from 0.0, in node order;
    np.sum's pairwise grouping would move values whose nodes cancel strongly."""
    return np.cumsum(np.insert(x, 0, 0.0, axis=-1), axis=-1)[..., -1]


def _ball(law: LawKind, part: str, nodes, terms):
    """Ball quadrature of the dissipation functional over ``nodes`` (radial
    nodes on the last axis), from the direction-summed term means there."""
    r, w, phi, dphi = nodes
    return 4.0 * np.pi * _node_sum(w * r * r * _kernels.ball_node(law, part, terms, phi, dphi, r))


def _shell(law: LawKind, part: str, nodes, raws):
    """Shell form of the dissipation functional over ``nodes`` (radial nodes
    on the last axis), from the raw combos (raw_L, raw_T, raw_flux) there."""
    r, w, phi, dphi = nodes
    return 4.0 * np.pi * _node_sum(w * _kernels.shell_node(law, part, *raws, phi, dphi, r))


def mollifier_moments(m: Mollifier, eps: float = 1.0, count: int = 64) -> tuple[float, float]:
    """(4*pi int r^2 phi_eps, 4*pi int r^3 phi_eps') — must be (1, -3) at any eps."""
    r, w, phi, dphi = _radial_nodes(m, eps, count)
    m2 = 4.0 * np.pi * float(np.sum(w * r * r * phi))
    m3 = 4.0 * np.pi * float(np.sum(w * r**3 * dphi))
    return m2, m3


def d_ball(
    law: LawKind,
    part: str,
    v: VectorField3,
    w,
    m: Mollifier,
    eps: float,
    radial_nodes: int = RADIAL_NODES,
    dirs: DirectionSet | None = None,
) -> float:
    """Ball quadrature of the dissipation functional over |l| <= eps.

    The integrand follows the displayed form of the functional: gradient
    terms carry phi_eps'(r) n-components, the 2/|l| terms carry phi_eps, and
    the triple-product term enters with the law's own weight.
    """
    return sweep_dissipation(law, part, (v, w), m, [eps], radial_nodes, dirs).d_ball[0]


def d_shell(
    law: LawKind,
    part: str,
    profiles,
    m: Mollifier,
    eps: float,
    radial_nodes: int = RADIAL_NODES,
) -> float:
    """Radial shell form of the dissipation functional.

    ``profiles`` is called at each Gauss-Legendre radius in (0, eps] and must
    return the raw combos (raw_L, raw_T, raw_flux) there, either as a tuple
    or as a RawCombos of ``law`` (those of another law raise, as in
    ``laws.combine``).
    """
    law = LawKind(law)
    part = check_part(part)
    nodes = _radial_nodes(m, eps, radial_nodes)
    raws = np.array([_raw_triple(law, profiles(r)) for r in nodes[0]]).T
    return float(_shell(law, part, nodes, raws))


def _raw_triple(law: LawKind, p) -> tuple[float, float, float]:
    """(raw_L, raw_T, raw_flux) of a profile value: a RawCombos of ``law`` or a triple."""
    return p.raws(law) if isinstance(p, RawCombos) else tuple(map(float, p))


def coefficient_oracle(law: LawKind) -> dict:
    """Shell values on constant unit profiles and the solved combined relation,
    for the bump mollifier at 64 radial nodes.

    Evaluating the shell form on the profile basis vectors reproduces the
    coefficient rows of the two radial reductions; eliminating the
    transverse combination solves them into
        D = factor_L * (raw_L + flux_coeff_L * flux)
          = factor_T * (raw_T + flux_coeff_T * flux),
    whose factors must come out as -5/4 and -15/8, i.e. combined-to-D ratios
    of -4/5 and -8/15, with the flux coefficients matching ``combine``.
    """
    law = LawKind(law)
    nodes = _radial_nodes(bump_mollifier(), 1.0, 64)
    basis = np.eye(3)[:, :, None]  # (raw_L, raw_T, raw_flux) of each unit profile
    rows = {
        part: dict(zip(("raw_L", "raw_T", "flux"), _shell(law, part, nodes, basis).tolist()))
        for part in ("L", "T")
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
    radial_nodes: int = RADIAL_NODES,
    dirs: DirectionSet | None = None,
) -> float:
    """Mollified third-order energy functional (1/4) int grad(phi_eps).dv K dl.

    kernel "long" uses K = |dv_L|^2 (the longitudinal form); "full" uses the
    classical K = |dv|^2.
    """
    if kernel not in ("long", "full"):
        raise ValueError("kernel must be 'long' or 'full'")
    law, (eps,), dirs, engine = _law_engine(LawKind.HYDRO_ENERGY, v, [eps], dirs, "epsilons")
    r, w, _, dphi = _radial_nodes(m, eps, radial_nodes)
    l1, _, t1, _, _ = _kernels.angular_term_sums(engine, {"x": (law, "a", "b")}, r, dirs)["x"].T
    return np.pi * float(_node_sum(w * r * r * dphi * (l1 if kernel == "long" else l1 + t1)))


def dr_dissipation_profile(
    profile,
    m: Mollifier,
    eps: float,
    radial_nodes: int = RADIAL_NODES,
) -> float:
    """Shell form of the third-order energy functional for a given radial profile.

    ``profile(r)`` supplies the direction-averaged combination with its 1/r
    prefactor; a constant profile J = 1 yields -3/4 by the third-moment
    identity of the mollifier.
    """
    r, w, _, dphi = _radial_nodes(m, eps, radial_nodes)
    values = np.array(list(map(profile, r)), dtype=float)
    return np.pi * float(_node_sum(w * np.float_power(r, 3) * dphi * values))  # (1/4) * 4*pi


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
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "engine"}
        return {**out, "law": self.law.value}


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
    curvature, value, r_squared = _line_fit(eps[:3] ** 2, vals[:3])
    usable = vals != 0.0
    fit_order = None
    if int(usable.sum()) >= 3:
        fit_order = _line_fit(np.log(eps[usable]), np.log(np.abs(vals[usable])))[0]
    return {"value": value, "curvature": curvature, "r_squared": r_squared, "order": fit_order}


def dissipation_matrix(
    grid,
    fields: dict,
    requests: dict,
    m: Mollifier,
    epsilons,
    radial_nodes: int = RADIAL_NODES,
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


@_stage("radial_assembly")
def _engine_matrix(engine, requests, m, epsilons, radial_nodes, dirs) -> dict:
    """``dissipation_matrix`` on an engine that is already built, with checked
    epsilons and a direction set."""
    # (r, weight, phi_eps, phi_eps') of shape (epsilons, radial nodes): one
    # ladder for the engine, and one sum over the last axis per value.
    nodes = np.stack([_radial_nodes(m, eps, radial_nodes) for eps in epsilons], axis=1)
    r = nodes[0]
    sums = _kernels.angular_term_sums(engine, requests, r.ravel(), dirs)
    out = {}
    for label, (law, _, _) in requests.items():
        terms = sums[label].reshape(r.shape + (5,))
        raws = _kernels.raw_from_terms(law, terms, r)
        out[label] = {
            "ball": {part: _ball(law, part, nodes, terms).tolist() for part in ("L", "T")},
            "shell": {part: _shell(law, part, nodes, raws).tolist() for part in ("L", "T")},
        }
    return out


def sweep_dissipation(
    law: LawKind,
    part: str,
    fields,
    m: Mollifier,
    epsilons,
    radial_nodes: int = RADIAL_NODES,
    dirs: DirectionSet | None = None,
) -> DissipationReport:
    """Ball and shell dissipation values over an ascending epsilon ladder.

    The shell profiles are the raw combos evaluated at the shared radial
    nodes, so matched quadratures make ball and shell agree to round-off.
    """
    part = check_part(part)
    built = _law_engine(law, fields, epsilons, dirs, "epsilons")
    return _dissipation_report(part, m, radial_nodes, *built)


def _dissipation_report(part: str, m: Mollifier, radial_nodes: int, law: LawKind, epsilons,
                        dirs: DirectionSet, engine: StatsEngine) -> DissipationReport:
    """The evaluation stage of ``sweep_dissipation``, on the engine and the
    checked inputs ``laws._law_engine`` returns."""
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
