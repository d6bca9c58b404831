"""Report hashes of a fixed matrix of ``exactlaws`` runs, for bit-identity checks.

    python tools/report_hashes.py run TREE OUT     # TREE holds src/exactlaws
    python tools/report_hashes.py compare OUT_A OUT_B
    python tools/report_hashes.py run . OUT --matrix golden   # then copy
        # OUT/values.json to tests/golden/reports.json to record the golden file

``run`` starts a fresh interpreter on TREE's package, with one OpenMP and
one OpenBLAS thread and no bytecode written, and runs the matrix below
in-process through ``exactlaws.cli.main``.  The inputs come from TREE itself:
its ``gen`` writes the band-limited fields, its ``write_field`` the white
noise.  Every file goes under OUT: the inputs, the reports, the runs' output
in ``log.txt`` and ``hashes.json``, which maps each run to its exit code, the
canonical hash of its report, the SHA-256 of its CSV (``analyze``) and its
``provenance.engine``; a field file's record holds the SHA-256 of its bytes
and, for ``gen``, the canonical hash of its sidecar.  Its ``reports`` entry
maps each run with a report to the report's path prefix under OUT.
``values.json`` maps each run to its exit code and the numeric columns of
its output (below): for a report its JSON outside provenance and its CSV,
for ``gen`` its sidecar outside provenance and the payload hash, and the
field's values on a 4^3 subgrid.

``compare`` prints the runs whose records differ between two outputs, or are
missing from one, and exits 1 if there are any.  For a run whose report or
CSV bytes differ it also prints the largest difference of its numbers,
relative to the largest magnitude of their column in the first output: a
JSON column holds the numbers at one key path (list indices dropped), a CSV
column the values under one header.

The matrix:

* the n=64 field, ``gen --kind random --n 64 --kmin 2 --kmax 16 --seed 3``,
  with h from seed 11 at ``--rms 0.7``; white noise at n=48 from Philox keys
  [3, 48] (v) and [4, 48] (h);
* ``analyze --scales 0.05:0.8:6`` for the four laws at ``--dirs icosa:2`` and
  ``--dirs random:2:5``, and ``dissipation --radial-nodes 8 --eps 0.2:0.8:3``
  for the four laws, on both inputs, and ``dissipation --law helicity`` at its
  defaults (32 radial nodes, ``--dirs icosa:2``) on the n=64 field;
* runs that reach the engine's other input paths, at ``--scales 0.05:0.8:6``
  and, for ``dissipation``, the flags above:
  - ``analyze --law hydro-energy --dirs icosa:1`` on the same shells at n=48
    (``--n 48 --kmin 2 --kmax 16 --seed 3``): no reduction (m = n = 48), so
    the field is transformed on its lines, then again whole, and the
    per-shift path evaluates it;
  - ``analyze --dirs icosa:2`` and ``dissipation`` of mhd-energy on the n=64
    v with an h of shells 2..8 (seed 11, ``--rms 0.7``): the union of the two
    masks reaches lines h's transform skipped, so h's components are
    transformed again whole;
  - ``analyze --law hydro-energy --dirs icosa:2`` on the n=64 v with an
    ``--h``, which the law does not read;
* ``gen --kind abc`` at A, B, C = 0.5, 2, 1.5 and ``gen --kind taylor-green``,
  both at n=32;
* ``verify --suite all`` at (n, seed) = (16, 5), (32, 3) and (16, 18), and
  one ``verify`` whose flags all come from a ``--config`` file;
* the benchmark's ``ballshell-multilaw`` command at seed 1, and ``selftest``.

``--matrix golden`` runs the same table at the sizes of ``MATRICES["golden"]``:
``analyze`` of the four laws on an n=32 pair of shells 2..8 at ``--dirs
icosa:1``, their ``dissipation --radial-nodes 8``, one n=16 white-noise
hydro-energy ``analyze``, ``gen abc`` and ``gen taylor-green`` at n=16, ``verify
--suite all --n 16 --seed 5`` and ``selftest``.  ``tests/test_golden.py`` runs
it and compares its ``values.json`` with ``tests/golden/reports.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

LAWS = ("hydro-energy", "helicity", "mhd-energy", "cross-helicity")
DIRS = ("icosa:2", "random:2:5")
# The flags of the --config run: strings, integers and floats, as verify reads them.
CONFIG = {"suite": "all", "n": 16, "seed": 7, "dirs": "icosa:1", "radial-nodes": 12,
          "eps": "0.3:0.6:2", "quad-match-tol": 1e-9, "slope-min": 1.8}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read(path: Path):
    """The JSON document at ``path``, None if there is none."""
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else None


class Matrix(NamedTuple):
    """The sizes of one run matrix; ``_matrix`` builds its runs from them."""

    n: int  # grid of the band-limited pair v, h (shells 2..kmax)
    kmax: int
    dirs: tuple  # the direction sets of every analyze
    white: int  # grid of the white-noise pair
    white_laws: tuple  # the laws analyzed on white noise
    gen: int  # grid of gen abc and gen taylor-green
    verify: tuple  # (n, seed) of each verify --suite all
    extras: bool  # the other input paths, white dissipation, --config, the benchmark command


MATRICES = {
    "full": Matrix(64, 16, DIRS, 48, LAWS, 32, ((16, 5), (32, 3), (16, 18)), True),
    "golden": Matrix(32, 8, ("icosa:1",), 16, ("hydro-energy",), 16, ((16, 5),), False),
}


def _matrix(m: Matrix) -> dict[str, list[str]]:
    """Run name -> argv, with paths relative to the output directory, the
    working directory; the white-noise inputs and the config file are
    written first.  Reports record their input paths only under provenance,
    outside the canonical hash, but ``gen`` sidecars record the output path,
    so relative ones keep two outputs comparable."""
    import numpy as np

    from exactlaws import VectorField3, make_grid, write_field

    fields = {"band": {}, "white": {}}
    runs = {}
    band = [("v", m.n, m.kmax, 3, "1.0"), ("h", m.n, m.kmax, 11, "0.7")]
    if m.extras:
        band += [("h8", 64, 8, 11, "0.7"), ("v48", 48, 16, 3, "1.0")]
    for name, n, kmax, seed, rms in band:
        path = Path(f"band-{name}.fld")
        runs[f"gen/band-{name}"] = ["gen", "--kind", "random", "--n", str(n), "--kmin", "2",
                                    "--kmax", str(kmax), "--seed", str(seed), "--rms", rms,
                                    "--out", str(path)]
        fields["band"][name] = path
    runs["gen/abc"] = ["gen", "--kind", "abc", "--n", str(m.gen), "--A", "0.5", "--B", "2",
                       "--C", "1.5", "--out", "abc.fld"]
    runs["gen/taylor-green"] = ["gen", "--kind", "taylor-green", "--n", str(m.gen),
                                "--out", "taylor-green.fld"]
    for name, key in (("v", 3), ("h", 4)):
        path = Path(f"white-{name}.fld")
        rng = np.random.Generator(np.random.Philox(key=[key, m.white]))
        write_field(VectorField3(make_grid(m.white), rng.standard_normal((3,) + (m.white,) * 3)),
                    path)
        fields["white"][name] = path
    for source, paths in fields.items():
        for law in LAWS if source == "band" else m.white_laws:
            flags = ["--law", law, "--v", str(paths["v"])]
            if law.startswith(("mhd", "cross")):
                flags += ["--h", str(paths["h"])]
            for dirs in m.dirs:
                label = f"analyze/{source}/{law}/{dirs}"
                runs[label] = ["analyze", *flags, "--scales", "0.05:0.8:6", "--dirs", dirs,
                               "--out", label.replace("/", "-").replace(":", "_")]
            if source == "band" or m.extras:
                label = f"dissipation/{source}/{law}"
                runs[label] = ["dissipation", *flags, "--radial-nodes", "8",
                               "--eps", "0.2:0.8:3", "--out", label.replace("/", "-")]
    band = fields["band"]
    if m.extras:
        runs["dissipation/band/helicity-defaults"] = [
            "dissipation", "--law", "helicity", "--v", str(band["v"]),
            "--out", "dissipation-band-helicity-defaults"]
        runs["analyze/band48/hydro-energy/icosa:1"] = [
            "analyze", "--law", "hydro-energy", "--v", str(band["v48"]),
            "--scales", "0.05:0.8:6", "--dirs", "icosa:1", "--out", "analyze-band48-hydro-energy"]
        mhd = ["--law", "mhd-energy", "--v", str(band["v"]), "--h", str(band["h8"])]
        runs["analyze/band/mhd-energy-h8/icosa:2"] = [
            "analyze", *mhd, "--scales", "0.05:0.8:6", "--dirs", "icosa:2",
            "--out", "analyze-band-mhd-energy-h8"]
        runs["dissipation/band/mhd-energy-h8"] = [
            "dissipation", *mhd, "--radial-nodes", "8", "--eps", "0.2:0.8:3",
            "--out", "dissipation-band-mhd-energy-h8"]
        runs["analyze/band/hydro-energy-with-h/icosa:2"] = [
            "analyze", "--law", "hydro-energy", "--v", str(band["v"]), "--h", str(band["h"]),
            "--scales", "0.05:0.8:6", "--dirs", "icosa:2",
            "--out", "analyze-band-hydro-energy-with-h"]
    for n, seed in m.verify:
        runs[f"verify/n{n}-seed{seed}"] = ["verify", "--suite", "all", "--n", str(n),
                                           "--seed", str(seed),
                                           "--out", f"verify-n{n}-seed{seed}"]
    if m.extras:
        Path("verify-flags.json").write_text(json.dumps(CONFIG))
        runs["verify/config"] = ["verify", "--config", "verify-flags.json",
                                 "--out", "verify-config"]
        runs["ballshell-multilaw"] = ["verify", "--suite", "ballshell", "--n", "32",
                                      "--dirs", "icosa:1", "--radial-nodes", "6",
                                      "--eps", "0.4:0.4:1", "--seed", "1",
                                      "--out", "ballshell-multilaw"]
    runs["selftest"] = ["selftest", "--out", "selftest"]
    return runs


def worker(out: Path, matrix: str) -> None:
    """Run a matrix with the ``exactlaws`` on the path; write hashes.json and
    values.json."""
    import exactlaws
    from exactlaws.cli import main
    from exactlaws.report import canonical_hash

    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    runs = _matrix(MATRICES[matrix])
    records = {"package": str(Path(exactlaws.__file__).parent), "reports": {}}
    values = {}
    with open("log.txt", "w", encoding="utf-8") as log:
        for label, argv in runs.items():
            print(f"$ exactlaws {' '.join(argv)}", file=log, flush=True)
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse rejected the command line
                    code = exc.code
            path = argv[argv.index("--out") + 1]
            if argv[0] == "gen":
                written, sidecar = Path(path), _read(Path(path + ".json"))
                records[label] = {"exit": code,
                                  "file": _sha256(written) if written.exists() else None,
                                  "sidecar": None if sidecar is None else canonical_hash(sidecar)}
                values[label] = {"exit": code, "columns": _field_columns(written)}
                continue
            table, doc = Path(path + ".csv"), _read(Path(path + ".json"))
            records["reports"][label] = path
            records[label] = {
                "exit": code,
                "hash": None if doc is None else canonical_hash(doc),
                "csv": _sha256(table) if table.exists() else None,
                "engine": None if doc is None else doc.get("provenance", {}).get("engine"),
            }
            values[label] = {"exit": code, "columns": _report_columns(Path(), path)}
        for path in sorted(Path().glob("white-*.fld")):
            records[f"file/{path.name}"] = {"file": _sha256(path)}
    Path("hashes.json").write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    Path("values.json").write_text(json.dumps(values, indent=1, sort_keys=True) + "\n")


def run(tree: Path, out: Path, matrix: str = "full") -> int:
    env = {**os.environ, "PYTHONPATH": str(tree.resolve() / "src"), "OMP_NUM_THREADS": "1",
           "OPENBLAS_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, __file__, "worker", str(out.resolve()), matrix],
                          env=env)
    if proc.returncode == 0:
        print(f"wrote {out / 'hashes.json'} and {out / 'values.json'}")
    return proc.returncode


def _json_columns(doc, path="", out=None) -> dict:
    """{column: [leaf, ...]} of a JSON document, a column being the key path
    of its leaves with list indices dropped; a list entry with a "name" (a
    verify check) keeps it in the path."""
    out = {} if out is None else out
    if isinstance(doc, dict):
        for key, value in doc.items():
            _json_columns(value, f"{path}.{key}" if path else key, out)
    elif isinstance(doc, list):
        for value in doc:
            named = isinstance(value, dict) and "name" in value
            _json_columns(value, path + (f"[{value['name']}]" if named else "[]"), out)
    else:
        out.setdefault(path, []).append(doc)
    return out


def _csv_columns(path: Path) -> dict:
    """{header: [value, ...]} of a CSV file, numbers read as floats."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    columns = {name: [] for name in rows[0]} if rows else {}
    for row in rows[1:]:
        for name, cell in zip(rows[0], row):
            try:
                columns[name].append(float(cell))
            except ValueError:
                columns[name].append(cell)
    return columns


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _largest_difference(first: dict, second: dict):
    """(relative difference, column) of the column pair that differs most;
    inf where a column's shape, a non-number or a zero column differs."""
    worst = (0.0, None)
    for name in first.keys() | second.keys():
        a, b = first.get(name), second.get(name)
        if a is None or b is None or len(a) != len(b):
            return math.inf, name
        if a == b:
            continue
        if not all(_is_number(x) and _is_number(y) for x, y in zip(a, b)):
            return math.inf, name
        scale = max(abs(x) for x in a)
        diff = max(abs(x - y) for x, y in zip(a, b))
        worst = max(worst, (diff / scale if scale else math.inf, name), key=lambda w: w[0])
    return worst


def _report_columns(out: Path, prefix: str) -> dict:
    """The numeric columns of the report at ``prefix`` under ``out``: its
    JSON outside provenance, and its CSV's under "csv:" + header."""
    doc, table = _read(out / (prefix + ".json")), out / (prefix + ".csv")
    columns = {}
    if doc is not None:
        doc.pop("provenance", None)
        columns = _json_columns(doc)
    if table.exists():
        columns.update({f"csv:{name}": cells for name, cells in _csv_columns(table).items()})
    return columns


def _field_columns(path: Path) -> dict:
    """The columns of a ``gen`` output: its sidecar outside provenance and the
    payload's hash, and the field's values on the 4^3 subgrid of every
    (n/4)-th point."""
    from exactlaws import read_field

    if not path.exists():
        return {}
    sidecar = _read(Path(f"{path}.json")) or {}
    for key in ("provenance", "payload_sha256"):
        sidecar.pop(key, None)
    columns = _json_columns(sidecar)
    field = read_field(path)
    step = field.grid.n // 4
    columns["values"] = field.values[..., ::step, ::step, ::step].ravel().tolist()
    return columns


def _numeric_report(label: str, a: Path, b: Path, reports: dict) -> str | None:
    """The largest relative difference of ``label``'s report and CSV between
    the outputs ``a`` and ``b``, as a line, or None for a run without a report."""
    prefix = reports.get(label)
    if prefix is None:
        return None
    rel, name = _largest_difference(_report_columns(a, prefix), _report_columns(b, prefix))
    return f"  largest difference {rel:.3g} of the column maximum ({prefix}: {name})"


def compare(a: Path, b: Path) -> int:
    first, second = (json.loads((p / "hashes.json").read_text()) for p in (a, b))
    labels = (first.keys() | second.keys()) - {"package", "reports"}
    differ = sorted(label for label in labels if first.get(label) != second.get(label))
    reports = {**first.get("reports", {}), **second.get("reports", {})}
    for label in differ:
        print(f"{label}:\n  {first.get(label)}\n  {second.get(label)}")
        one, two = first.get(label) or {}, second.get(label) or {}
        if any(one.get(key) != two.get(key) for key in ("hash", "csv")):
            line = _numeric_report(label, a, b, reports)
            if line:
                print(line)
    print(f"{len(differ)} of {len(labels)} records differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("run", help="run the matrix on a source tree")
    p.add_argument("tree", type=Path, help="a tree holding src/exactlaws")
    p.add_argument("out", type=Path, help="output directory")
    p.add_argument("--matrix", choices=sorted(MATRICES), default="full",
                   help="the full matrix, or the small one of tests/golden/reports.json")
    p = sub.add_parser("compare", help="list the records that differ between two outputs")
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    p = sub.add_parser("worker", help=argparse.SUPPRESS)
    p.add_argument("out", type=Path)
    p.add_argument("matrix")
    args = parser.parse_args(argv)
    if args.mode == "run":
        return run(args.tree, args.out, args.matrix)
    if args.mode == "compare":
        return compare(args.a, args.b)
    worker(args.out, args.matrix)
    return 0


if __name__ == "__main__":
    sys.exit(main())
