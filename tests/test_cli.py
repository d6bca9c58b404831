"""End-to-end command-line tests (in-process, except where a test needs a
fresh interpreter)."""

import dataclasses
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from exactlaws import _kernels, cli, mollifier
from exactlaws.cli import combine_consistency_checks, main, parse_ladder
from exactlaws.geometry import parse_direction_spec
from exactlaws.grid import VectorField3, curl, make_grid, read_field, write_field
from exactlaws.laws import DEFAULT_DIRECTIONS, LawKind, default_directions
from exactlaws.report import canonical_hash
from exactlaws.synth import SpectrumSpec, abc_flow


def run(args):
    return main([str(a) for a in args])


def subparser(verb):
    parser = cli.build_parser()
    return next(a for a in parser._actions if a.dest == "command").choices[verb]


class TestLadders:
    def test_geometric(self):
        ladder = parse_ladder("0.1:0.8:4")
        assert len(ladder) == 4
        assert abs(ladder[0] - 0.1) <= 1e-15
        assert abs(ladder[-1] - 0.8) <= 1e-15
        ratios = np.diff(np.log(ladder))
        assert np.allclose(ratios, ratios[0])

    def test_single_point(self):
        assert parse_ladder("0.3:0.3:1") == [0.3]

    def test_invalid(self):
        with pytest.raises(ValueError):
            parse_ladder("0.8:0.1:4")
        with pytest.raises(ValueError):
            parse_ladder("0.1:0.8")


class TestGen:
    def test_abc(self, tmp_path):
        out = tmp_path / "v.fld"
        assert run(["gen", "--kind", "abc", "--n", 16, "--out", out]) == 0
        fld = read_field(out)
        assert fld.grid.n == 16
        sidecar = json.loads((tmp_path / "v.fld.json").read_text())
        assert sidecar["kind"] == "abc"

    def test_odd_n_rejected(self, tmp_path, capsys):
        rc = run(["gen", "--kind", "abc", "--n", 7, "--out", tmp_path / "v.fld"])
        assert rc == 2
        assert "even" in capsys.readouterr().err

    def test_random_deterministic(self, tmp_path):
        a = tmp_path / "a.fld"
        b = tmp_path / "b.fld"
        base = ["gen", "--kind", "random", "--n", 16, "--slope", -1.6667,
                "--kmin", 2, "--kmax", 5, "--seed", 7]
        assert run(base + ["--out", a]) == 0
        assert run(base + ["--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_flag_defaults_are_the_library_defaults(self):
        # gen's flags that restate a library default read it from the
        # library's signature, and so does VerifyConfig's length.
        gen = subparser("gen")
        library = {"length": make_grid, "A": abc_flow, "B": abc_flow, "C": abc_flow,
                   "rms": SpectrumSpec}
        for flag, source in library.items():
            default = inspect.signature(source).parameters[flag].default
            assert gen.get_default(flag) == default, flag
        length = inspect.signature(make_grid).parameters["length"].default
        assert cli.VerifyConfig().length == subparser("verify").get_default("length") == length

    def test_kind_choices_are_the_generator_table(self):
        kind = next(a for a in subparser("gen")._actions if a.dest == "kind")
        assert tuple(kind.choices) == tuple(cli._GENERATORS)

    # A value other than the default for each generator flag of gen.
    OTHER = {"A": 2.0, "B": 0.5, "C": 3.0, "slope": -1.0, "kmin": 1, "kmax": 6, "rms": 2.0,
             "seed": 5}

    @pytest.mark.parametrize("kind", list(cli._GENERATORS))
    def test_sidecar_names_exactly_the_flags_the_generator_reads(self, tmp_path, kind):
        # A flag is read when changing it alone changes the field's bytes.
        flags = {a.dest for a in subparser("gen")._actions if a.option_strings}
        assert flags - {"help", "config", "kind", "n", "length", "out"} == set(self.OTHER)
        base = ["gen", "--kind", kind, "--n", 24]
        assert run(base + ["--out", tmp_path / "base.fld"]) == 0
        reference = (tmp_path / "base.fld").read_bytes()
        read = set()
        for flag, value in self.OTHER.items():
            out = tmp_path / f"{flag}.fld"
            assert run(base + [f"--{flag}", value, "--out", out]) == 0
            if out.read_bytes() != reference:
                read.add(flag)
        sidecar = json.loads((tmp_path / "base.fld.json").read_text())
        assert set(sidecar["parameters"]) == read


@pytest.fixture
def field_files(tmp_path):
    v = tmp_path / "v.fld"
    h = tmp_path / "h.fld"
    run(["gen", "--kind", "random", "--n", 16, "--kmin", 1, "--kmax", 4,
         "--seed", 3, "--out", v])
    run(["gen", "--kind", "random", "--n", 16, "--kmin", 1, "--kmax", 4,
         "--seed", 4, "--out", h])
    return v, h


@pytest.mark.parametrize("verb", [
    ["analyze", "--law", "helicity", "--scales", "0.1:0.4:2"],
    ["analyze", "--law", "helicity", "--omega", "w.fld", "--scales", "0.1:0.4:2"],
    ["dissipation", "--law", "mhd-energy", "--h", "h.fld", "--eps", "0.3:0.3:1",
     "--radial-nodes", 4],
], ids=["analyze", "analyze-omega", "dissipation"])
def test_no_input_field_outlives_the_engine_build(tmp_path, field_files, monkeypatch, verb):
    # Every field read from a file is freed once the engine holds what it
    # reads of it, before any row is built (no collector run: refcounts).
    import weakref

    v, h = field_files
    write_field(curl(read_field(v)), tmp_path / "w.fld")
    refs, alive = [], []

    def read(path):
        fld = read_field(path)
        refs.extend([weakref.ref(fld), weakref.ref(fld.values)])
        return fld

    def build_rows(engine, triples):
        alive.append(sum(ref() is not None for ref in refs))
        return build(engine, triples)

    build = _kernels.StatsEngine._build_rows
    monkeypatch.setattr(cli, "read_field", read)
    monkeypatch.setattr(_kernels.StatsEngine, "_build_rows", build_rows)
    monkeypatch.chdir(tmp_path)
    assert run(verb + ["--v", v, "--dirs", "icosa:0", "--out", "out"]) == 0
    assert len(refs) == (4 if "--omega" in verb or "--h" in verb else 2)
    assert alive and set(alive) == {0}


def test_stage_seconds_outside_hash(tmp_path, field_files):
    v, _ = field_files
    stages = {"engine_build", "row_build", "evaluation", "radial_assembly"}
    for name, argv in (
        ("a", ["analyze", "--law", "helicity", "--v", v, "--scales", "0.1:0.4:2"]),
        ("d", ["dissipation", "--law", "helicity", "--v", v, "--eps", "0.3:0.3:1",
               "--radial-nodes", 4]),
        ("v", ["verify", "--suite", "ballshell", "--n", 16]),
    ):
        assert run(argv + ["--dirs", "icosa:0", "--out", tmp_path / name]) == 0
        payload = json.loads((tmp_path / f"{name}.json").read_text())
        seconds = payload["provenance"]["stage_seconds"]
        assert set(seconds) == stages
        assert all(s >= 0.0 for s in seconds.values())
        provenance = {k: x for k, x in payload["provenance"].items() if k != "stage_seconds"}
        assert canonical_hash({**payload, "provenance": provenance}) == canonical_hash(payload)


def test_peak_rss_tool_traces_the_stage_clock(tmp_path, field_files):
    # The tool charges the traced peak to the stages of ``stage_seconds``
    # (radial assembly included, see test_stage_seconds_outside_hash) and
    # the time outside them to ``rest``.
    v, _ = field_files
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(root / "tools" / "peak_rss.py"), str(root), "--", "dissipation",
         "--law", "helicity", "--v", str(v), "--eps", "0.3:0.3:1", "--radial-nodes", "4",
         "--dirs", "icosa:0", "--out", str(tmp_path / "d")],
        stdout=subprocess.PIPE, text=True, timeout=300)
    runs = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode == 0
    assert runs["untraced"]["exit"] == runs["traced"]["exit"] == 0
    stages = set(json.loads((tmp_path / "d.json").read_text())["provenance"]["stage_seconds"])
    assert set(runs["traced"]["traced_peak_mb"]) == stages | {"rest"}


class TestAnalyze:
    def test_helicity_report(self, tmp_path, field_files):
        v, _ = field_files
        out = tmp_path / "rep"
        rc = run(["analyze", "--law", "helicity", "--v", v,
                  "--scales", "0.05:0.8:12", "--dirs", "icosa:1", "--out", out])
        assert rc == 0
        payload = json.loads((tmp_path / "rep.json").read_text())
        assert payload["law"] == "helicity"
        assert len(payload["rows"]) == 12
        csv_lines = (tmp_path / "rep.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "r,raw_L,raw_T,raw_flux,S_L,S_T"
        assert len(csv_lines) == 13

    def test_mhd_requires_h(self, tmp_path, field_files, capsys):
        v, _ = field_files
        rc = run(["analyze", "--law", "mhd-energy", "--v", v, "--out", tmp_path / "rep"])
        assert rc == 2
        assert "magnetic field required" in capsys.readouterr().err

    def test_rerun_identical_canonical_hash(self, tmp_path, field_files):
        v, h = field_files
        args = ["analyze", "--law", "cross-helicity", "--v", v, "--h", h,
                "--scales", "0.1:0.4:4", "--dirs", "icosa:0"]
        run(args + ["--out", tmp_path / "r1"])
        run(args + ["--out", tmp_path / "r2"])
        p1 = json.loads((tmp_path / "r1.json").read_text())
        p2 = json.loads((tmp_path / "r2.json").read_text())
        assert p1["provenance"]["timestamp"] != "" and "timestamp" in p2["provenance"]
        assert canonical_hash(p1) == canonical_hash(p2)

    def test_hash_does_not_depend_on_how_the_paths_are_spelled(
        self, tmp_path, field_files, monkeypatch
    ):
        # The paths read go under provenance.fields, as given, outside the hash.
        v, h = field_files
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        spellings = (v, "v.fld", "./sub/../v.fld")
        payloads = []
        for name, spelled in zip("abc", spellings):
            assert run(["analyze", "--law", "helicity", "--v", spelled, "--h", h,
                        "--scales", "0.1:0.4:2", "--dirs", "icosa:0", "--out", name]) == 0
            payloads.append(json.loads((tmp_path / f"{name}.json").read_text()))
        assert len({canonical_hash(payload) for payload in payloads}) == 1
        for payload, spelled in zip(payloads, spellings):
            assert payload["provenance"]["fields"] == {"v": str(spelled)}
        assert run(["dissipation", "--law", "mhd-energy", "--v", "v.fld", "--h", h,
                    "--eps", "0.3:0.3:1", "--radial-nodes", 4, "--dirs", "icosa:0",
                    "--out", "d"]) == 0
        provenance = json.loads((tmp_path / "d.json").read_text())["provenance"]
        assert provenance["fields"] == {"v": "v.fld", "h": str(h)}

    @pytest.mark.parametrize("verb", [["analyze", "--scales", "0.1:0.4:2"],
                                      ["dissipation", "--eps", "0.3:0.3:1", "--radial-nodes", 4]])
    def test_hydro_energy_reads_no_second_file(self, tmp_path, field_files, monkeypatch, verb):
        # The law has no second field: --h is neither read nor recorded.
        v, h = field_files
        read = []
        monkeypatch.setattr(cli, "read_field", lambda path: read.append(path) or read_field(path))
        assert run([verb[0], "--law", "hydro-energy", "--v", v, "--h", h, *verb[1:],
                    "--dirs", "icosa:0", "--out", tmp_path / "r"]) == 0
        assert read == [str(v)]
        assert json.loads((tmp_path / "r.json").read_text())["provenance"]["fields"] == {
            "v": str(v)}

    def test_engine_provenance_outside_hash(self, tmp_path, field_files):
        v, _ = field_files
        rc = run(["analyze", "--law", "helicity", "--v", v, "--scales", "0.1:0.4:2",
                  "--dirs", "icosa:0", "--out", tmp_path / "rep"])
        assert rc == 0
        payload = json.loads((tmp_path / "rep.json").read_text())
        # 2 scales x 6 antipodal pairs of icosa:0, no inverse transforms.  The
        # helicity law reads the 18 sorted triples (a, a', b) of the 56 rows
        # over 6 components, built from the 9 products ab and the 6 aa'; the
        # series sums over the field's 228 active modes.  Three transforms:
        # the field's forward one, the 6 band components in one batch and the
        # 15 products in another; each radius takes one column-sum pass.
        assert payload["provenance"]["engine"] == {
            "n": 16, "m": 16, "kmax": 4, "alias_free": True, "evaluation": "sine-series",
            "modes": 228, "separations": 12, "inverse_passes": {"x": 0, "xy": 0, "z": 0},
            "series_rows": 18, "pair_products": 15, "transform_calls": 3, "column_passes": 2,
        }
        provenance = {k: x for k, x in payload["provenance"].items() if k != "engine"}
        assert canonical_hash({**payload, "provenance": provenance}) == canonical_hash(payload)


class TestDissipation:
    def test_both_methods_match(self, tmp_path, field_files):
        v, _ = field_files
        out = tmp_path / "diss"
        rc = run(["dissipation", "--law", "helicity", "--v", v, "--part", "L",
                  "--method", "both", "--eps", "0.2:0.8:3", "--radial-nodes", 8,
                  "--dirs", "icosa:0", "--out", out])
        assert rc == 0
        payload = json.loads((tmp_path / "diss.json").read_text())
        assert len(payload["d_ball"]) == 3
        assert len(payload["d_shell"]) == 3
        for b, s in zip(payload["d_ball"], payload["d_shell"]):
            assert abs(b - s) <= 1e-10 * (abs(b) + 1e-30)

    def test_ball_only(self, tmp_path, field_files):
        v, _ = field_files
        out = tmp_path / "diss"
        rc = run(["dissipation", "--law", "hydro-energy", "--v", v,
                  "--method", "ball", "--eps", "0.3:0.3:1", "--radial-nodes", 8,
                  "--dirs", "icosa:0", "--out", out])
        assert rc == 0
        payload = json.loads((tmp_path / "diss.json").read_text())
        assert payload["d_shell"] is None
        assert len(payload["d_ball"]) == 1

    def test_engine_provenance(self, tmp_path):
        rng = np.random.default_rng(2)
        noise = tmp_path / "noise.fld"
        write_field(VectorField3(make_grid(8), rng.standard_normal((3, 8, 8, 8))), noise)
        rc = run(["dissipation", "--law", "hydro-energy", "--v", noise, "--part", "L",
                  "--eps", "0.3:0.3:1", "--radial-nodes", 4, "--dirs", "icosa:0",
                  "--out", tmp_path / "diss"])
        assert rc == 0
        payload = json.loads((tmp_path / "diss.json").read_text())
        # 4 radial nodes x 12 directions; icosa:0 has 5 distinct x and 8
        # distinct (x, y) components per radius.  The one 3-D transform is the
        # field's forward one; the separations run per-axis passes.
        assert payload["provenance"]["engine"] == {
            "n": 8, "m": 8, "kmax": 4, "alias_free": False, "evaluation": "per-shift-fft",
            "modes": 0, "separations": 48, "inverse_passes": {"x": 20, "xy": 32, "z": 48},
            "series_rows": 0, "pair_products": 0, "transform_calls": 1, "column_passes": 0,
        }

    def test_kmax_eps_min_in_provenance_outside_hash(self, tmp_path, capsys):
        # The n=64 field (shells 2..16) at the default ladder 0.2:0.8:3: kmax
        # times the smallest epsilon is 16 * 0.2, far outside the eps^2 regime.
        v = tmp_path / "v.fld"
        run(["gen", "--kind", "random", "--n", 64, "--kmin", 2, "--kmax", 16,
             "--seed", 3, "--out", v])
        capsys.readouterr()
        rc = run(["dissipation", "--law", "hydro-energy", "--v", v, "--radial-nodes", 4,
                  "--dirs", "icosa:0", "--out", tmp_path / "diss"])
        assert rc == 0
        payload = json.loads((tmp_path / "diss.json").read_text())
        assert payload["provenance"]["kmax_eps_min"] == pytest.approx(3.2, rel=1e-12)
        assert "kmax_eps_min" not in payload
        provenance = {k: x for k, x in payload["provenance"].items() if k != "kmax_eps_min"}
        digest = canonical_hash(payload)
        assert canonical_hash({**payload, "provenance": provenance}) == digest
        assert f"(canonical hash {digest})" in capsys.readouterr().out

    def test_zero_field_passes(self, tmp_path):
        v = tmp_path / "z.fld"
        run(["gen", "--kind", "abc", "--n", 16, "--A", 0, "--B", 0, "--C", 0, "--out", v])
        rc = run(["dissipation", "--law", "hydro-energy", "--v", v,
                  "--method", "both", "--eps", "0.2:0.4:2", "--radial-nodes", 8,
                  "--dirs", "icosa:0", "--out", tmp_path / "diss"])
        assert rc == 0
        payload = json.loads((tmp_path / "diss.json").read_text())
        assert all(b == 0.0 for b in payload["d_ball"])

    def test_mismatch_beyond_tolerance_exits_nonzero(
        self, tmp_path, field_files, capsys, monkeypatch
    ):
        # Matched ball and shell quadratures agree to round-off, which may be
        # exactly zero, so a real mismatch is injected: every shell node is
        # scaled by (1 + 1e-6) while the rest of the path stays as it is. The
        # gap then exceeds the default tolerance; the failing epsilon must be
        # named and the report kept.
        shell_node = _kernels.shell_node
        monkeypatch.setattr(
            _kernels, "shell_node", lambda *a: shell_node(*a) * (1.0 + 1e-6)
        )
        v, h = field_files
        rc = run(["dissipation", "--law", "cross-helicity", "--v", v, "--h", h,
                  "--method", "both", "--eps", "0.3:0.3:1", "--radial-nodes", 8,
                  "--dirs", "icosa:0", "--out", tmp_path / "diss"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "eps=0.3" in err
        assert (tmp_path / "diss.json").exists()

    def test_out_with_json_suffix_is_not_doubled(self, tmp_path, field_files):
        v, _ = field_files
        out = tmp_path / "out"
        out.mkdir()
        common = ["--v", v, "--dirs", "icosa:0"]
        assert run(["dissipation", "--law", "hydro-energy", *common, "--eps", "0.3:0.3:1",
                    "--radial-nodes", 4, "--out", out / "d.json"]) == 0
        assert run(["analyze", "--law", "hydro-energy", *common, "--scales", "0.1:0.4:2",
                    "--out", out / "a.json"]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["a.csv", "a.json", "d.json"]
        assert json.loads((out / "d.json").read_text())["law"] == "hydro-energy"
        assert len(json.loads((out / "a.json").read_text())["rows"]) == 2

    @pytest.mark.parametrize("verb", [["verify", "--suite", "identity"], ["selftest"]])
    @pytest.mark.parametrize("name", ["x", "x.json"])
    def test_verdict_out_is_a_prefix(self, tmp_path, verb, name):
        assert run([*verb, "--out", tmp_path / name]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["x.json"]
        assert json.loads((tmp_path / "x.json").read_text())["verdict"]["pass"] is True

    @pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf"])
    def test_unusable_tolerance_rejected(self, tmp_path, field_files, capsys, tol):
        v, _ = field_files
        rc = run(["dissipation", "--law", "hydro-energy", "--v", v,
                  "--eps", "0.3:0.3:1", "--radial-nodes", 8, "--dirs", "icosa:0",
                  "--quad-match-tol", tol, "--out", tmp_path / "diss"])
        assert rc == 2
        assert "quad-match-tol" in capsys.readouterr().err
        assert not (tmp_path / "diss.json").exists()


class TestVerify:
    def test_every_flag_has_help(self):
        # VerifyConfig's fields become flags with their "help" metadata.
        verify = subparser("verify")
        assert [a.dest for a in verify._actions if a.option_strings and not a.help] == []
        dirs = {verb: next(a.help for a in subparser(verb)._actions if a.dest == "dirs")
                for verb in ("analyze", "dissipation", "verify")}
        assert len(set(dirs.values())) == 1
        assert "degree 5" in dirs["verify"]

    def test_identity_suite(self, tmp_path):
        rc = run(["verify", "--suite", "identity", "--out", tmp_path / "r.json"])
        assert rc == 0
        payload = json.loads((tmp_path / "r.json").read_text())
        assert payload["verdict"]["pass"] is True
        names = [c["name"] for c in payload["verdict"]["checks"]]
        assert "identity/random-samples" in names

    def test_degenerate_fit_fails_and_writes_report(self, tmp_path, monkeypatch):
        def degenerate(report, window):
            raise ValueError("fewer than 3 usable points for a power-law fit")

        monkeypatch.setattr(cli, "power_law_fit", degenerate)
        rc = run(["verify", "--suite", "smooth", "--n", 16, "--dirs", "icosa:0",
                  "--out", tmp_path / "r.json"])
        assert rc == 1
        checks = {c["name"]: c for c in json.loads((tmp_path / "r.json").read_text())["verdict"]["checks"]}
        for name in ("smooth/helicity-slope", "smooth/mhd-energy-slope"):
            assert checks[name]["measured"] is None and checks[name]["pass"] is False
        assert checks["smooth/helicity-order"]["measured"] is not None

    def test_nan_measurement_fails_and_writes_report(self, tmp_path, monkeypatch, capsys):
        real = cli.identity227_batch

        def with_nan(*args):
            lhs, rhs = real(*args)
            lhs[0] = np.nan
            return lhs, rhs

        monkeypatch.setattr(cli, "identity227_batch", with_nan)
        rc = run(["verify", "--suite", "identity", "--out", tmp_path / "r.json"])
        assert rc == 1
        assert "[FAIL] identity/random-samples: measured=null" in capsys.readouterr().out
        verdict = json.loads((tmp_path / "r.json").read_text())["verdict"]
        assert verdict["pass"] is False
        assert verdict["checks"][0] == {
            "name": "identity/random-samples", "measured": None, "threshold": 1e-10, "pass": False,
        }

    def test_degeneracy_suite_catches_a_wrong_helicity_row(self, tmp_path, monkeypatch):
        # With the raw weight q of the helicity law off by 0.1, the helicity
        # functional on equal fields is no longer half the energy one.  The
        # suite's field has generic third-order statistics, so it shows.
        row = _kernels.LAWS[LawKind.HELICITY]
        monkeypatch.setitem(
            _kernels.LAWS, LawKind.HELICITY, dataclasses.replace(row, raw=(1.0, -0.4))
        )
        rc = run(["verify", "--suite", "degeneracy", "--n", 16, "--dirs", "icosa:1",
                  "--out", tmp_path / "r.json"])
        assert rc == 1
        checks = {c["name"]: c for c in json.loads((tmp_path / "r.json").read_text())["verdict"]["checks"]}
        assert checks["degeneracy/beltrami-halving"]["pass"] is False
        assert checks["degeneracy/beltrami-halving"]["measured"] > 0.1

    def test_ballshell_suite_catches_a_wrong_mhd_flux_coefficient(self, monkeypatch):
        # The ball integrand takes the flux weight from the raw weights, not
        # from the shell row, so a wrong shell b_F of the MHD law shows.
        row = _kernels.LAWS[LawKind.MHD_ENERGY]
        shell = {**row.shell, "L": (0.75, 1.5, -2.0)}
        monkeypatch.setitem(
            _kernels.LAWS, LawKind.MHD_ENERGY, dataclasses.replace(row, shell=shell)
        )
        cfg = cli.VerifyConfig(suite="ballshell", n=16, dirs="icosa:1", radial_nodes=8, seed=3)
        checks = {c.name: c for c in cli.run_verify(cfg).checks}
        assert checks["ballshell/mhd-energy/L"].passed is False
        assert checks["ballshell/mhd-energy/L"].measured > 0.1
        assert checks["ballshell/helicity/L"].passed is True

    @pytest.mark.parametrize("seed", [0, 3])
    def test_ballshell_suite_fails_on_fields_without_triads(self, tmp_path, monkeypatch, seed):
        # ABC flows have no wavevector triads: their ball values are round-off
        # (exactly 0.0 at seed 0), so there is nothing to compare and the
        # checks fail with nothing measured.
        monkeypatch.setattr(cli, "_band_limited", lambda grid, seed: abc_flow(grid))
        rc = run(["verify", "--suite", "ballshell", "--n", 16, "--dirs", "icosa:1",
                  "--radial-nodes", 8, "--seed", seed, "--out", tmp_path / "r.json"])
        assert rc == 1
        checks = {c["name"]: c for c in json.loads((tmp_path / "r.json").read_text())["verdict"]["checks"]}
        for part in ("L", "T"):
            assert checks[f"ballshell/helicity/{part}"] == {
                "name": f"ballshell/helicity/{part}", "measured": None, "threshold": 1e-10,
                "pass": False,
            }

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--n", "7", "n must be even"),
         ("--dirs", "bogus", "unrecognized direction-set spec"),
         ("--radial-nodes", "1", "need at least 2 radial nodes")],
    )
    def test_bad_config_exits_2_before_any_suite(self, tmp_path, capsys, flag, value, message):
        # The identity suite reads none of these; they are checked anyway.
        rc = run(["verify", "--suite", "identity", flag, value, "--out", tmp_path / "r.json"])
        assert rc == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "identity/" not in captured.out
        assert not (tmp_path / "r.json").exists()

    def test_degeneracy_suite_builds_two_engines(self, tmp_path, monkeypatch):
        # One engine for the five ball functionals, one for the helicity flux.
        built = []
        init = _kernels.StatsEngine.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(_kernels.StatsEngine, "__init__", counting)
        rc = run(["verify", "--suite", "degeneracy", "--n", 16, "--dirs", "icosa:0",
                  "--out", tmp_path / "r.json"])
        assert rc == 0
        assert len(built) == 2

    def test_fields_drawn_once_and_only_when_read(self, tmp_path, monkeypatch):
        # v and h belong to the config: --suite all draws each once for the
        # ballshell, degeneracy and smooth suites; identity reads neither.
        seeds = []

        def counting(grid, seed, _real=cli._band_limited):
            seeds.append(seed)
            return _real(grid, seed)

        monkeypatch.setattr(cli, "_band_limited", counting)
        assert run(["verify", "--suite", "all", "--n", 32, "--seed", 4,
                    "--out", tmp_path / "all"]) == 0
        assert sorted(seeds) == [4, 4 + 9001]
        seeds.clear()
        assert run(["verify", "--suite", "identity", "--out", tmp_path / "identity"]) == 0
        assert seeds == []

    @pytest.mark.parametrize("n, length", [(12, 2.0 * np.pi), (32, 4.0)])
    def test_smooth_windows_follow_the_band_of_the_fields(self, monkeypatch, n, length):
        # The smooth suite's r window ends at 0.35 and its epsilon window at
        # 0.5 over the largest active wavenumber of the fields it reads.
        seen = {}

        def spy(name, real, key):
            def wrapped(*args, **kwargs):
                seen[name] = args[key]
                return real(*args, **kwargs)
            monkeypatch.setattr(cli, name, wrapped)

        spy("sweep_structure", cli.sweep_structure, 2)
        spy("dissipation_matrix", cli.dissipation_matrix, 4)
        cfg = cli.VerifyConfig(n=n, length=length, dirs="icosa:0")
        cli._smooth_checks(cfg, cli.Verdict())
        fields = {"v": cfg.v, "h": cfg.h}
        kmax = _kernels.StatsEngine(cfg.grid, fields).kmax * 2.0 * np.pi / length
        assert _kernels.StatsEngine(cfg.grid, {"v": cfg.v}).kmax == cli._band(cfg.grid)[1]
        assert max(seen["sweep_structure"]) * kmax == pytest.approx(0.35, rel=1e-14)
        assert max(seen["dissipation_matrix"]) * kmax == pytest.approx(0.5, rel=1e-14)

    def test_suite_choices_are_the_suite_table(self):
        parser = cli.build_parser()
        suite = next(f for f in dataclasses.fields(cli.VerifyConfig) if f.name == "suite")
        assert suite.metadata["choices"] == ("all", *cli._SUITES)
        for name in suite.metadata["choices"]:
            assert parser.parse_args(["verify", "--suite", name]).suite == name
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["verify", "--suite", "nope"])
        assert exc.value.code == 2
        with pytest.raises(ValueError, match="unknown suite"):
            cli.run_verify(cli.VerifyConfig(suite="nope"))

    def test_empty_eps_ladder_rejected(self):
        with pytest.raises(ValueError, match="epsilons must not be empty"):
            cli.VerifyConfig(suite="ballshell", eps_ladder=())

    def test_combine_suite(self, tmp_path):
        rc = run(["verify", "--suite", "combine", "--out", tmp_path / "r.json"])
        assert rc == 0

    def test_flipped_flux_sign_fails(self):
        # Forcing the opposite sign convention on the coupled-energy flux
        # coefficients must be caught by the coefficient-system cross-check.
        flipped = {
            LawKind.HELICITY: (-0.4, 0.4),
            LawKind.MHD_ENERGY: (-0.8, 0.8),
            LawKind.CROSS_HELICITY: (-0.8, 0.8),
        }
        verdict = combine_consistency_checks(flipped)
        failed = {c.name: c.passed for c in verdict.checks}
        assert failed["combine/mhd-energy"] is False
        assert failed["combine/helicity"] is True
        assert verdict.passed is False

    def test_config_file_overrides(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"suite": "identity", "seed": 11}))
        rc = run(["verify", "--suite", "combine", "--config", cfg,
                  "--out", tmp_path / "r.json"])
        assert rc == 0
        payload = json.loads((tmp_path / "r.json").read_text())
        assert payload["config"]["suite"] == "identity"
        assert payload["config"]["seed"] == 11

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nonsense": 1}))
        rc = run(["verify", "--suite", "identity", "--config", cfg,
                  "--out", tmp_path / "r.json"])
        assert rc == 2

    def test_config_values_pass_through_flag_types(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"radial-nodes": "8"}))
        common = ["verify", "--suite", "ballshell", "--n", "16"]
        assert run(common + ["--config", cfg, "--out", tmp_path / "a.json"]) == 0
        assert run(common + ["--radial-nodes", "8", "--out", tmp_path / "b.json"]) == 0
        a, b = (json.loads((tmp_path / f).read_text()) for f in ("a.json", "b.json"))
        assert a["config"]["radial_nodes"] == 8
        assert (a["config"], a["verdict"]) == (b["config"], b["verdict"])

    @pytest.mark.parametrize(
        "overrides", [{"eps": 0.4}, {"radial-nodes": 8.5}, {"seed": [1]}, {"suite": "nope"}]
    )
    def test_config_value_of_wrong_type_exits_2(self, tmp_path, capsys, overrides):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(overrides))
        rc = run(["verify", "--suite", "ballshell", "--n", "16", "--config", cfg,
                  "--out", tmp_path / "r.json"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf"])
    def test_unusable_tolerance_rejected(self, tmp_path, capsys, tol):
        rc = run(["verify", "--suite", "identity", "--quad-match-tol", tol,
                  "--out", tmp_path / "r.json"])
        assert rc == 2
        assert "quad-match-tol" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_suites_share_the_config_grid_and_directions(self, tmp_path, monkeypatch):
        # The config builds its grid and direction set once; the suites read
        # them, and neither is a flag or part of the reported config.
        calls = {"make_grid": 0, "parse_direction_spec": 0}
        for name in calls:
            def counting(*args, _real=getattr(cli, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(cli, name, counting)
        rc = run(["verify", "--suite", "ballshell", "--n", 16, "--dirs", "icosa:1",
                  "--radial-nodes", 4, "--seed", 3, "--out", tmp_path / "r.json"])
        assert rc == 0
        assert calls == {"make_grid": 1, "parse_direction_spec": 1}
        config = json.loads((tmp_path / "r.json").read_text())["config"]
        assert set(config) == {f.name for f in dataclasses.fields(cli.VerifyConfig)}
        cfg = cli.VerifyConfig(n=16, dirs="icosa:1")
        assert cfg.grid == make_grid(16) and len(cfg.directions) == 42

    def test_margins_and_suite_seconds_printed_outside_the_hash(self, tmp_path, capsys):
        # Each check line ends in its margin measured/threshold and each suite
        # prints its seconds; the seconds go under "provenance", so two runs
        # keep one canonical hash and the verdict keeps its keys.
        digests = []
        for name in ("a", "b"):
            assert run(["verify", "--suite", "oracle", "--out", tmp_path / name]) == 0
            payload = json.loads((tmp_path / f"{name}.json").read_text())
            assert set(payload["provenance"]["suite_seconds"]) == {"oracle"}
            assert set(payload) == {"verdict", "config", "provenance"}
            for check in payload["verdict"]["checks"]:
                assert set(check) == {"name", "measured", "threshold", "pass"}
            digests.append(canonical_hash(payload))
        assert digests[0] == digests[1]
        out = capsys.readouterr().out
        assert f"(canonical hash {digests[0]})" in out
        for check in payload["verdict"]["checks"]:
            margin = f"{check['measured'] / check['threshold']:.3g}"
            assert f"threshold={check['threshold']:.6e} margin={margin}\n" in out
        assert "suite oracle: " in out

    @pytest.mark.parametrize("seed", range(21))
    def test_seed_sweep_of_every_suite(self, tmp_path, capsys, seed):
        # The random fields are keyed by the seed, so a gate that passed on one
        # lucky field would show here as a FAIL on another.
        run(["verify", "--suite", "all", "--n", 16, "--seed", seed, "--out", tmp_path / "r"])
        out = capsys.readouterr().out
        assert [line for line in out.splitlines() if line.startswith("[FAIL]")] == []

    def test_failing_check_still_writes_report(self, tmp_path):
        rc = run(["verify", "--suite", "identity", "--identity-tol", "1e-30",
                  "--out", tmp_path / "r.json"])
        assert rc == 1
        payload = json.loads((tmp_path / "r.json").read_text())
        assert payload["verdict"]["pass"] is False


class TestSelftest:
    def test_passes(self, tmp_path):
        rc = run(["selftest", "--out", tmp_path / "self.json"])
        assert rc == 0
        payload = json.loads((tmp_path / "self.json").read_text())
        assert payload["verdict"]["pass"] is True
        assert all("measured" in c for c in payload["verdict"]["checks"])


def test_per_shift_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    # White noise takes the per-shift path, whose kernel contractions make no
    # BLAS call.  Each report runs in a fresh interpreter, as the BLAS reads
    # its thread count at load.  Band-limited input stays out: the sine
    # series' per-plane products still go through the BLAS.
    for name, key in (("v", 3), ("h", 4)):
        rng = np.random.Generator(np.random.Philox(key=[key, 16]))
        write_field(VectorField3(make_grid(16), rng.standard_normal((3, 16, 16, 16))),
                    tmp_path / f"{name}.fld")
    v, h = tmp_path / "v.fld", tmp_path / "h.fld"
    reports = {
        "analyze": ["analyze", "--law", "mhd-energy", "--v", v, "--h", h,
                    "--scales", "0.1:0.8:3", "--dirs", "icosa:1"],
        "dissipation": ["dissipation", "--law", "helicity", "--v", v,
                        "--dirs", "icosa:1", "--radial-nodes", 8],
    }
    path = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]),
                                         os.environ.get("PYTHONPATH")]))
    hashes = {}
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": path}
        for label, args in reports.items():
            out = tmp_path / f"{label}-{threads}"
            subprocess.run([sys.executable, "-m", "exactlaws.cli", *map(str, args),
                            "--out", str(out)],
                           env=env, check=True, capture_output=True, timeout=120)
            hashes[label, threads] = canonical_hash(json.loads(Path(f"{out}.json").read_text()))
    for label in reports:
        assert hashes[label, "1"] == hashes[label, "2"], label


def test_main_builds_one_parser_per_process(monkeypatch, tmp_path):
    # Every main call in a process parses with the parser the first one built.
    build_parser, built = cli.build_parser, []

    def counting():
        built.append(build_parser())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        assert run(["selftest", "--out", tmp_path / "a"]) == 0
        assert run(["selftest", "--out", tmp_path / "b"]) == 0
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    subparsers = next(a for a in built[0]._actions if a.dest == "command").choices
    assert set(subparsers) == {"gen", "analyze", "dissipation", "verify", "selftest"}


def test_defaults_agree_across_library_cli_and_config():
    # Each default has one home, which the library, the flags and
    # VerifyConfig read: laws (directions), mollifier (radial nodes) and cli
    # (the epsilon ladder and the ball/shell tolerance).
    analyze, dissipation, verify = map(subparser, ("analyze", "dissipation", "verify"))
    config = cli.VerifyConfig()
    assert analyze.get_default("dirs") == dissipation.get_default("dirs") == DEFAULT_DIRECTIONS
    assert verify.get_default("dirs") == config.dirs == DEFAULT_DIRECTIONS
    assert default_directions() == parse_direction_spec(DEFAULT_DIRECTIONS)
    for fn in (mollifier.d_ball, mollifier.d_shell, mollifier.dr_dissipation,
               mollifier.dr_dissipation_profile, mollifier.dissipation_matrix,
               mollifier.sweep_dissipation):
        assert inspect.signature(fn).parameters["radial_nodes"].default == mollifier.RADIAL_NODES
    assert dissipation.get_default("radial_nodes") == verify.get_default("radial_nodes")
    assert config.radial_nodes == dissipation.get_default("radial_nodes") == mollifier.RADIAL_NODES
    assert dissipation.get_default("eps") == verify.get_default("eps") == cli.EPS_LADDER
    assert config.eps_ladder == tuple(parse_ladder(cli.EPS_LADDER))
    assert dissipation.get_default("quad_match_tol") == verify.get_default("quad_match_tol")
    assert config.quad_match_tol == verify.get_default("quad_match_tol") == cli.QUAD_MATCH_TOL
