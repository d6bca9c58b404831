"""Sphere-and-volume-averaged third-order structure-function combinations.

Each law pairs a primary velocity-like field with a second field (vorticity
for the helicity law, the magnetic field for the coupled laws) and averages
a cubic increment kernel over a direction set and the periodic volume.  The
combined values add the flux (lagged triple product) combination with the
law's fixed coefficient; their small-separation limits are what the exact
relations constrain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import _kernels
from ._kernels import COMBINE_COEFFS, CurlOf, LawKind, StatsEngine
from .geometry import DirectionSet, direction_set_icosa
from .grid import VectorField3, _require_same_grid, curl

__all__ = [
    "LawKind",
    "RawCombos",
    "StructureReport",
    "FitResult",
    "COMBINE_COEFFS",
    "default_directions",
    "raw_combos",
    "combine",
    "sweep_structure",
    "yaglom_helicity",
    "dr_fourthirds",
    "elsasser",
    "elsasser_inverse",
    "power_law_fit",
    "fit_power_law",
]


def default_directions() -> DirectionSet:
    """Direction set used by sweeps unless overridden (162 icosahedral nodes)."""
    return direction_set_icosa(2)


@dataclass(frozen=True)
class RawCombos:
    """Direction/volume-averaged kernel combinations at one separation.

    raw_L and raw_T carry the longitudinal and transverse kernels, raw_flux
    the triple-product combination; each includes the 1/r prefactor.
    """

    law: LawKind
    r: float
    raw_L: float
    raw_T: float
    raw_flux: float


def _resolve_pair(law: LawKind, v: VectorField3, w) -> tuple[VectorField3, object]:
    """Apply the law's convention for the second field.  The helicity law's
    default vorticity is ``CurlOf("a")``: the engine takes it from the
    spectrum of v, the engine's field "a"."""
    if law is LawKind.HELICITY:
        w = CurlOf("a") if w is None else w
    elif law is LawKind.HYDRO_ENERGY:
        w = None
    elif w is None:
        raise ValueError(f"magnetic field required for the {law.value} law")
    if isinstance(w, VectorField3):
        _require_same_grid(v, w)
    return v, w


# Error texts per ladder kind: (name of one value, remark on exceeding length/4).
_LADDER_TEXT = {
    "scales": ("separation", "; periodic wrap-around would contaminate increments"),
    "epsilons": ("eps", ""),
}


def _check_ladder(length: float, values, kind: str = "scales") -> list:
    """``values`` as a nonempty, strictly ascending list of floats, each in
    (0, length/4] for the period ``length``; ``kind`` ("scales" or
    "epsilons") names them in the errors."""
    name, remark = _LADDER_TEXT[kind]
    values = [float(x) for x in values]
    if not values:
        raise ValueError(f"{kind} must not be empty")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError(f"{kind} must be strictly ascending")
    for x in values:
        if not x > 0.0:
            raise ValueError(f"{name} must be positive")
        if x > length / 4.0:
            raise ValueError(f"{name} {x} exceeds length/4 = {length / 4.0}{remark}")
    return values


def _law_engine(law: LawKind, fields, ladder, dirs, kind: str = "scales"):
    """The input path of every evaluator: (law, checked ladder, (v, w),
    direction set, engine).

    ``fields`` is the primary field or a (primary, second) pair; the second
    field follows ``_resolve_pair``, and the engine holds the pair as the
    fields "a" and "b".  ``dirs`` defaults to ``default_directions()``.
    """
    law = LawKind(law)
    v, w = (fields, None) if isinstance(fields, VectorField3) else fields
    ladder = _check_ladder(v.grid.length, ladder, kind)
    v, w = _resolve_pair(law, v, w)
    dirs = dirs if dirs is not None else default_directions()
    return law, ladder, (v, w), dirs, StatsEngine(v.grid, {"a": v, "b": w})


def _combos(law: LawKind, engine: StatsEngine, scales, dirs) -> list[RawCombos]:
    sums = _kernels.angular_term_sums(engine, {"x": (law, "a", "b")}, scales, dirs)["x"]
    raws = np.array(_kernels.raw_from_terms(law, sums, np.asarray(scales))).tolist()
    return list(map(partial(RawCombos, law), scales, *raws))


def raw_combos(
    law: LawKind,
    v: VectorField3,
    w,
    r: float,
    dirs: DirectionSet | None = None,
) -> RawCombos:
    """Raw longitudinal/transverse/flux combinations at separation r.

    The second field is the vorticity for the helicity law (computed from v
    when None), the magnetic field for the coupled laws, and ignored for the
    hydrodynamic energy law.
    """
    law, scales, _, dirs, engine = _law_engine(law, (v, w), [r], dirs)
    return _combos(law, engine, scales, dirs)[0]


def combine(law: LawKind, rc: RawCombos) -> tuple[float, float]:
    """Combined (S_L, S_T) values: raw parts plus the weighted flux term."""
    law = LawKind(law)
    if rc.law != law:
        raise ValueError(f"law mismatch: combos are for {rc.law.value}, not {law.value}")
    c_l, c_t = COMBINE_COEFFS[law]
    return rc.raw_L + c_l * rc.raw_flux, rc.raw_T + c_t * rc.raw_flux


@dataclass(frozen=True)
class StructureReport:
    """Per-scale raw combos and combined values for one law."""

    law: LawKind
    scales: tuple[float, ...]
    combos: tuple[RawCombos, ...]
    combined: tuple[tuple[float, float], ...]
    metadata: dict = field(default_factory=dict)
    engine: dict = field(default_factory=dict)  # StatsEngine.describe(); not in to_json_dict

    def to_json_dict(self) -> dict:
        header, *rows = self.csv_rows()
        rows = [dict(zip(header, row)) for row in rows]
        return {"law": self.law.value, "metadata": self.metadata, "rows": rows}

    def csv_rows(self):
        yield ("r", "raw_L", "raw_T", "raw_flux", "S_L", "S_T")
        for rc, (sl, st) in zip(self.combos, self.combined):
            yield (rc.r, rc.raw_L, rc.raw_T, rc.raw_flux, sl, st)

    def values_L(self) -> np.ndarray:
        return np.array([sl for sl, _ in self.combined])


_OMEGA_MISMATCH_RTOL = 1e-6


def sweep_structure(
    law: LawKind,
    fields,
    scales,
    dirs: DirectionSet | None = None,
    provenance: dict | None = None,
) -> StructureReport:
    """Evaluate raw and combined values over an ascending ladder of scales.

    ``fields`` is either the primary field or a (primary, second) pair.  For
    the helicity law with an explicitly supplied vorticity, a mismatch
    against the spectral curl beyond 1e-6 relative is flagged in the report
    metadata rather than raised.
    """
    explicit_w = not isinstance(fields, VectorField3) and fields[1] is not None
    law, scales, (v, w), dirs, engine = _law_engine(law, fields, scales, dirs)

    metadata = {
        "law": law.value,
        "grid": {"n": v.grid.n, "length": v.grid.length},
        "directions": dirs.descriptor or f"custom:{len(dirs)}",
        "flux_coefficients": list(COMBINE_COEFFS[law]),
    }
    if law in (LawKind.MHD_ENERGY, LawKind.CROSS_HELICITY):
        # The opposite sign convention for the flux term circulates; record
        # both so reports are unambiguous.
        c_l, c_t = COMBINE_COEFFS[law]
        metadata["alternate_flux_coefficients"] = [-c_l, -c_t]
    if provenance:
        metadata["fields"] = provenance
    if law is LawKind.HELICITY and explicit_w:
        ref = curl(v)
        rms = ref.rms()
        mismatch = float(np.max(np.abs(w.values - ref.values)))
        metadata["omega_supplied"] = True
        metadata["omega_curl_mismatch"] = mismatch
        if rms > 0 and mismatch > _OMEGA_MISMATCH_RTOL * rms:
            metadata["warning"] = "supplied vorticity differs from curl of velocity"

    combos = _combos(law, engine, scales, dirs)
    combined = tuple(combine(law, rc) for rc in combos)
    return StructureReport(
        law, tuple(scales), tuple(combos), combined, metadata, engine.describe()
    )


def yaglom_helicity(
    v: VectorField3,
    w,
    r: float,
    dirs: DirectionSet | None = None,
) -> float:
    """Four-thirds-type helicity combination at separation r.

    Kernel (n.dv)(dv.dw) - (1/2)(n.dw)|dv|^2 with dw the vorticity increment
    (computed from v when w is None), averaged over directions and volume
    with the 1/r prefactor: raw_L + raw_T of the helicity law.
    """
    rc = raw_combos(LawKind.HELICITY, v, w, r, dirs)
    return rc.raw_L + rc.raw_T


def dr_fourthirds(v: VectorField3, r: float, dirs: DirectionSet | None = None) -> float:
    """Four-thirds energy combination: (1/r) <(n.dv)|dv|^2> over directions and volume.

    That is raw_L + raw_T of the hydrodynamic energy law, whose L2 and T2
    vanish with the second field.
    """
    rc = raw_combos(LawKind.HYDRO_ENERGY, v, None, r, dirs)
    return rc.raw_L + rc.raw_T


def elsasser(v: VectorField3, h: VectorField3) -> tuple[VectorField3, VectorField3]:
    """Characteristic variables Z+ = (v + h)/2 and Z- = (v - h)/2."""
    _require_same_grid(v, h)
    zp = VectorField3(v.grid, (v.values + h.values) / 2.0)
    zm = VectorField3(v.grid, (v.values - h.values) / 2.0)
    return zp, zm


def elsasser_inverse(zp: VectorField3, zm: VectorField3) -> tuple[VectorField3, VectorField3]:
    """Reconstruct (v, h) = (Z+ + Z-, Z+ - Z-)."""
    _require_same_grid(zp, zm)
    v = VectorField3(zp.grid, zp.values + zm.values)
    h = VectorField3(zp.grid, zp.values - zm.values)
    return v, h


@dataclass(frozen=True)
class FitResult:
    """Least-squares power-law fit of |values| against the abscissa."""

    slope: float
    prefactor: float
    r_squared: float
    sign_consistent: bool
    n_points: int


def fit_power_law(xs, values) -> FitResult:
    """Fit log|values| vs log xs; sign changes are flagged, zeros dropped."""
    xs = np.asarray(xs, dtype=float)
    values = np.asarray(values, dtype=float)
    usable = values != 0.0
    sign_consistent = bool(usable.all()) and (
        bool(np.all(values > 0)) or bool(np.all(values < 0))
    )
    xs, values = xs[usable], values[usable]
    if xs.size < 3:
        raise ValueError("fewer than 3 usable points for a power-law fit")
    lx = np.log(xs)
    ly = np.log(np.abs(values))
    design = np.column_stack([lx, np.ones_like(lx)])
    coef, *_ = np.linalg.lstsq(design, ly, rcond=None)
    resid = ly - design @ coef
    total = ly - ly.mean()
    denom = float(total @ total)
    r_squared = 1.0 if denom == 0.0 else 1.0 - float(resid @ resid) / denom
    return FitResult(
        slope=float(coef[0]),
        prefactor=float(np.exp(coef[1])),
        r_squared=r_squared,
        sign_consistent=sign_consistent,
        n_points=int(xs.size),
    )


def power_law_fit(report: StructureReport, window: tuple[float, float]) -> FitResult:
    """Power-law fit of the combined longitudinal values inside a scale window."""
    lo, hi = window
    scales = np.array(report.scales)
    values = report.values_L()
    mask = (scales >= lo) & (scales <= hi)
    if int(mask.sum()) < 3:
        raise ValueError("fewer than 3 scales inside the fit window")
    return fit_power_law(scales[mask], values[mask])
