"""End-to-end command-line tests (in-process)."""

import dataclasses
import json

import numpy as np
import pytest

from exactlaws import _kernels, cli
from exactlaws.cli import combine_consistency_checks, main, parse_ladder
from exactlaws.grid import VectorField3, make_grid, read_field, write_field
from exactlaws.laws import LawKind
from exactlaws.report import canonical_hash
from exactlaws.synth import abc_flow


def run(args):
    return main([str(a) for a in args])


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


@pytest.fixture
def field_files(tmp_path):
    v = tmp_path / "v.fld"
    h = tmp_path / "h.fld"
    run(["gen", "--kind", "random", "--n", 16, "--kmin", 1, "--kmax", 4,
         "--seed", 3, "--out", v])
    run(["gen", "--kind", "random", "--n", 16, "--kmin", 1, "--kmax", 4,
         "--seed", 4, "--out", h])
    return v, h


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

    def test_engine_provenance_outside_hash(self, tmp_path, field_files):
        v, _ = field_files
        rc = run(["analyze", "--law", "helicity", "--v", v, "--scales", "0.1:0.4:2",
                  "--dirs", "icosa:0", "--out", tmp_path / "rep"])
        assert rc == 0
        payload = json.loads((tmp_path / "rep.json").read_text())
        # 2 scales x 6 antipodal pairs of icosa:0, no inverse transforms.  The
        # helicity law reads the 18 sorted triples (a, a', b) of the 56 rows
        # over 6 components, built from the 9 products ab and the 6 aa'.
        assert payload["provenance"]["engine"] == {
            "n": 16, "m": 16, "kmax": 4, "alias_free": True, "evaluation": "sine-series",
            "separations": 12, "inverse_passes": {"x": 0, "xy": 0, "z": 0},
            "series_rows": 18, "pair_products": 15,
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
        # distinct (x, y) components per radius.
        assert payload["provenance"]["engine"] == {
            "n": 8, "m": 8, "kmax": 4, "alias_free": False, "evaluation": "per-shift-fft",
            "separations": 48, "inverse_passes": {"x": 20, "xy": 32, "z": 48},
            "series_rows": 0, "pair_products": 0,
        }

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
