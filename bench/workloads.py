"""The benchmark's workloads: inputs from a seed, one operation, and its checks.

Each operation is one or more ``exactlaws`` command lines run in-process
through ``exactlaws.cli.main``; the program sees only the generated files and
the flags.  Why each workload exists, and which layer metrics it should
move, is recorded in README.md next to this file.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference

ICOSA_COUNTS = (12, 42, 162)


def _digest(paths) -> str:
    """SHA-256 over the outputs; JSON is re-serialized without its provenance."""
    h = hashlib.sha256()
    for path in paths:
        if path.suffix == ".json":
            doc = json.loads(path.read_text(encoding="utf-8"))
            doc.pop("provenance", None)
            h.update(json.dumps(doc, sort_keys=True).encode())
        else:
            h.update(path.read_bytes())
    return h.hexdigest()


@dataclass(frozen=True)
class Sweep:
    """``analyze`` over a scale ladder and an icosahedral direction set."""

    name: str
    law: str
    n: int
    kmax: int | None  # band-limited `gen` field; None: benchmark-written white noise
    scales: tuple[float, float, int]
    icosa: int

    @property
    def separations(self) -> int:
        return self.scales[2] * ICOSA_COUNTS[self.icosa]

    def setup(self, work: Path, seed: int, cli) -> dict:
        path = work / "v.fld"
        if self.kmax is not None:
            argv = ["gen", "--kind", "random", "--n", str(self.n), "--kmin", "2",
                    "--kmax", str(self.kmax), "--seed", str(seed), "--out", str(path)]
            if cli.main(argv) != 0:
                raise RuntimeError(f"set-up failed: exactlaws {' '.join(argv)}")
            return {"path": path}
        from exactlaws import VectorField3, make_grid, write_field

        rng = np.random.Generator(np.random.Philox(key=[seed, self.n]))
        values = rng.standard_normal((3, self.n, self.n, self.n))
        write_field(VectorField3(make_grid(self.n), values), path)
        return {"path": path, "values": values}

    def argvs(self, inputs: dict, work: Path) -> list[list[str]]:
        lo, hi, count = self.scales
        return [["analyze", "--law", self.law, "--v", str(inputs["path"]),
                 "--scales", f"{lo}:{hi}:{count}", "--dirs", f"icosa:{self.icosa}",
                 "--out", str(work / "out")]]

    def output_paths(self, work: Path) -> list[Path]:
        return [work / "out.json", work / "out.csv"]

    def outputs(self, work: Path):
        paths = self.output_paths(work)
        rows = json.loads(paths[0].read_text(encoding="utf-8"))["rows"]
        table = np.array([[row["r"]] + [row[c] for c in reference.COLUMNS] for row in rows])
        return _digest(paths), table

    def reference(self, inputs: dict) -> dict:
        """Per-direction reference terms; band-limited inputs use the sine series."""
        if "values" in inputs:
            values, length = inputs["values"], 2.0 * np.pi
            method = reference.moments_brute_force
        else:
            values, length = reference.read_exl1(inputs["path"])
            method = reference.moments_sine_series
        if self.law == "helicity":
            values = np.concatenate([values, reference.spectral_curl(values, length)])
        lo, hi, count = self.scales
        scales = np.geomspace(lo, hi, count)
        dirs = reference.icosa_directions(self.icosa)
        terms = reference.direction_terms(self.law, values, length, scales, dirs, method)
        return {"scales": scales, "terms": terms, "flux": reference.FLUX_COEFFS[self.law]}

    def check(self, table: np.ndarray, ref: dict) -> list[str]:
        rows = reference.sweep_rows(self.law, ref["terms"], ref["flux"])
        if table.shape[0] != len(ref["scales"]):
            return [f"report has {table.shape[0]} scales, expected {len(ref['scales'])}"]
        problems = []
        if np.max(np.abs(table[:, 0] - ref["scales"]) / ref["scales"]) > 1e-12:
            problems.append("report scales differ from the requested ladder")
        return problems + reference.compare_rows(table[:, 1:], rows)

    def perturbed(self, ref: dict) -> list[tuple[str, dict]]:
        out = [("dropped direction", {**ref, "terms": ref["terms"][:, 1:]})]
        c_l, c_t = ref["flux"]
        if np.any(ref["terms"][..., 2] != 0.0):
            out.append(("negated flux coefficients", {**ref, "flux": (-c_l, -c_t)}))
        return out


@dataclass(frozen=True)
class Verify:
    """``verify`` suites (and ``selftest``) run for their verdicts."""

    name: str
    commands: tuple[tuple[str, ...], ...]  # argv tails; each writes <label>.json
    labels: tuple[str, ...]
    expected: tuple[tuple[str, ...], ...]  # check names per command, in order
    separations: int
    seed_offset: int = 0

    def setup(self, work: Path, seed: int, cli) -> dict:
        return {"seed": seed + self.seed_offset}

    def argvs(self, inputs: dict, work: Path) -> list[list[str]]:
        return [[*tail, "--seed", str(inputs["seed"]), "--out", str(work / f"{label}.json")]
                for tail, label in zip(self.commands, self.labels)]

    def output_paths(self, work: Path) -> list[Path]:
        return [work / f"{label}.json" for label in self.labels]

    def outputs(self, work: Path):
        paths = self.output_paths(work)
        verdicts = [json.loads(p.read_text(encoding="utf-8"))["verdict"] for p in paths]
        return _digest(paths), verdicts

    def reference(self, inputs: dict) -> dict:
        return {"names": self.expected}

    def check(self, verdicts, ref: dict) -> list[str]:
        problems = []
        for label, verdict, names in zip(self.labels, verdicts, ref["names"]):
            got = tuple(c["name"] for c in verdict["checks"])
            if got != names:
                problems.append(f"{label}: checks {got} differ from the expected {names}")
            failed = [c["name"] for c in verdict["checks"] if not c["pass"]]
            if failed or not verdict["pass"]:
                problems.append(f"{label}: FAIL verdict ({failed})")
        return problems

    def perturbed(self, ref: dict) -> list[tuple[str, dict]]:
        names = [list(group) for group in ref["names"]]
        names[0][0] += "-renamed"
        return [("renamed check", {"names": tuple(tuple(g) for g in names)})]


_SELFTEST = tuple(f"selftest/{c}" for c in (
    "mollifier-mass", "mollifier-third-moment", "longitudinal-profile-gradient",
    "direction-first-moment", "direction-second-moment", "identity", "triple-product",
    "projection-completeness", "projection-orthogonality"))
_LAWS = ("helicity", "mhd-energy", "cross-helicity")
_DEGENERACY = tuple(f"degeneracy/{c}" for c in (
    "alignment-energy", "alignment-cross", "beltrami-halving", "cross-zero-field",
    "helicity-flux"))


def _ballshell(n: int, icosa: int, nodes: int) -> Verify:
    return Verify(
        name="ballshell-multilaw",
        commands=(("verify", "--suite", "ballshell", "--n", str(n), "--dirs", f"icosa:{icosa}",
                   "--radial-nodes", str(nodes), "--eps", "0.4:0.4:1"),),
        labels=("ballshell",),
        expected=(tuple(f"ballshell/{law}/{part}" for law in _LAWS for part in "LT"),),
        separations=nodes * ICOSA_COUNTS[icosa],
        seed_offset=1,  # seed 0 would select the deterministic ABC pair
    )


def _gates(n: int, icosa: int) -> Verify:
    suite = lambda s: ("verify", "--suite", s, "--n", str(n), "--dirs", f"icosa:{icosa}")
    return Verify(
        name="exact-gates-abc",
        commands=(("selftest",), suite("identity"), suite("oracle"), suite("degeneracy"),
                  suite("combine")),
        labels=("selftest", "identity", "oracle", "degeneracy", "combine"),
        expected=(_SELFTEST, ("identity/random-samples", "identity/equal-vectors"),
                  tuple(f"oracle/{law}" for law in _LAWS), _DEGENERACY,
                  tuple(f"combine/{law}" for law in _LAWS)),
        # The degeneracy suite evaluates five ball functionals at 16 radial
        # nodes and one raw-combos sweep, each over every direction.
        separations=(5 * 16 + 1) * ICOSA_COUNTS[icosa],
    )


SIZES = ("standard", "smoke", "full")


def make_workloads(size: str = "standard") -> dict:
    """The four workloads at one size.  ``standard`` is what the benchmark
    times: operations of 1.5-3 s, so that a run holds ten or more.  ``full``
    is a full study (4 scales x icosa:2; 8 radial nodes x 162 directions),
    10-20 s per operation, for checking that the layer shares carry over."""
    scales, icosa, nodes = {"smoke": (2, 0, 2), "standard": (2, 1, 6), "full": (4, 2, 8)}[size]
    if size == "smoke":
        items = [
            Sweep("sweep-bandlimited", "helicity", 32, 8, (0.2, 0.8, scales), icosa),
            _ballshell(16, icosa, nodes),
            _gates(16, 0),
            Sweep("sweep-fullspectrum", "hydro-energy", 16, None, (0.2, 0.8, scales), icosa),
        ]
    else:
        items = [
            Sweep("sweep-bandlimited", "helicity", 64, 16, (0.2, 0.8, scales), icosa),
            _ballshell(32, icosa, nodes),
            _gates(32, 2),
            Sweep("sweep-fullspectrum", "hydro-energy", 48, None, (0.2, 0.8, scales), icosa),
        ]
    return {w.name: w for w in items}
