import json

import pytest

from diskdyn import cli, presets
from diskdyn.selfmap import CompositeMap, FiniteBlaschkeProduct, evaluate


def read_summary(out_dir):
    with open(out_dir / "summary.json") as fh:
        return json.load(fh)


class TestWireFormat:
    def test_preset_round_trip(self):
        f = presets.map_from_dict({"preset": "example61", "alpha": 0.6})
        assert evaluate(f, 0) == pytest.approx(0.36, abs=1e-15)

    def test_stage_round_trip(self):
        f = presets.example61(0.5)
        again = presets.map_from_dict(presets.map_to_dict(f))
        assert isinstance(again, FiniteBlaschkeProduct)
        for z in (0.0, 0.3 - 0.2j):
            assert evaluate(again, z) == evaluate(f, z)

    def test_composite_round_trip(self):
        from diskdyn.selfmap import compose

        c = compose(presets.example61(0.5), presets.power_map(2))
        again = presets.map_from_dict(presets.map_to_dict(c))
        assert isinstance(again, CompositeMap)
        assert again.degree == 4

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown fields"):
            presets.map_from_dict({"preset": "example62", "beta": 1})
        with pytest.raises(ValueError, match="unknown fields"):
            presets.map_from_dict(
                {"stages": [{"gamma": [1, 0], "zeros": [[0, 0, 1]], "extra": 2}]}
            )

    def test_malformed_stage_rejected(self):
        with pytest.raises(ValueError):
            presets.map_from_dict({"stages": [{"gamma": [1, 0]}]})
        with pytest.raises(ValueError):
            presets.map_from_dict({"stages": []})

    def test_alpha_only_for_the_parametric_preset(self):
        with pytest.raises(ValueError, match="no alpha"):
            presets.map_from_dict({"preset": "example62", "alpha": 0.4})


class TestConfig:
    def test_unknown_config_field_rejected(self):
        with pytest.raises(ValueError, match="unknown config fields"):
            cli.config_from_dict({"command": "classify", "bogus": 1})

    def test_unknown_command_rejected(self):
        with pytest.raises(ValueError, match="unknown command"):
            cli.config_from_dict({"command": "meow"})

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            cli.config_from_dict({"command": "classify", "format": "xml"})

    def test_map_validated_early(self):
        with pytest.raises(ValueError):
            cli.config_from_dict({"command": "classify", "map": {"preset": "nope"}})


class TestCommands:
    def test_classify_json(self, tmp_path):
        out = tmp_path / "o"
        code = cli.main([
            "classify", "--preset", "example61", "--alpha", "0.6",
            "--out-dir", str(out),
        ])
        assert code == 0
        result = read_summary(out)["result"]
        assert result["kind"] == "hyperbolic"
        assert abs(result["angular_derivative"] - 0.5) < 1e-6
        assert abs(result["dw_point"]["re"] - 1.0) < 1e-9

    def test_abel_classifies_its_map_once(self, tmp_path, monkeypatch):
        from diskdyn import dynamics

        calls = []
        original = dynamics.denjoy_wolff

        def counting(f, *args, **kwargs):
            calls.append(f)
            return original(f, *args, **kwargs)

        monkeypatch.setattr(dynamics, "denjoy_wolff", counting)
        code = cli.main([
            "abel", "--preset", "example62", "--n-max", "200",
            "--out-dir", str(tmp_path / "o"),
        ])
        assert code == 0
        assert len(calls) == 1

    def test_step_verdict_zero(self, tmp_path):
        out = tmp_path / "o"
        code = cli.main([
            "step", "--preset", "example62", "--n-max", "10000",
            "--out-dir", str(out),
        ])
        assert code == 0
        assert read_summary(out)["result"]["verdict"] == "zero"
        assert (out / "step_sequence.csv").exists()

    def test_eigen_summary(self, tmp_path):
        out = tmp_path / "o"
        code = cli.main([
            "eigen", "--preset", "example61", "--alpha", "0.5",
            "--depth", "8", "--out-dir", str(out),
        ])
        assert code == 0
        result = read_summary(out)["result"]
        assert abs(result["tau_re"] - (-1.0)) < 0.1
        assert abs(result["tau_im"]) < 0.05
        lines = (out / "eigen_depths.csv").read_text().strip().splitlines()
        assert lines[0] == "depth,nodes,tau_re,tau_im,dispersion,residual"
        assert len(lines) == 5

    def test_julia_check(self, tmp_path):
        out = tmp_path / "o"
        code = cli.main([
            "julia-check", "--preset", "example61", "--alpha", "0.5",
            "--samples", "200", "--out-dir", str(out),
        ])
        assert code == 0
        assert read_summary(out)["result"]["passed"] is True

    def test_orbit_table(self, tmp_path):
        out = tmp_path / "o"
        code = cli.main([
            "orbit", "--preset", "example61", "--alpha", "0.5",
            "--n-max", "50", "--out-dir", str(out),
        ])
        assert code == 0
        lines = (out / "orbit.csv").read_text().strip().splitlines()
        assert lines[0] == "n,re,im,one_minus_abs,rho_step"
        assert len(lines) == 52

    def test_abel_zero_step(self, tmp_path):
        out = tmp_path / "o"
        code = cli.main([
            "abel", "--preset", "example62", "--n-max", "200",
            "--out-dir", str(out),
        ])
        assert code == 0
        result = read_summary(out)["result"]
        assert result["step_verdict"] == "zero"
        assert result["kind"] == "baker_pommerenke_h"
        assert (out / "abel_residuals.csv").exists()

    def test_abel_positive_step(self, tmp_path):
        out = tmp_path / "o"
        code = cli.main([
            "abel", "--preset", "translation", "--n-max", "100",
            "--out-dir", str(out),
        ])
        assert code == 0
        result = read_summary(out)["result"]
        assert result["semiconjugacy"]["parabolic"] is True

    def test_nevanlinna_scan(self, tmp_path):
        out = tmp_path / "o"
        code = cli.main([
            "nevanlinna", "--preset", "example61", "--alpha", "0.5",
            "--out-dir", str(out),
        ])
        assert code == 0
        result = read_summary(out)["result"]
        assert 0.8 < result["ratio_min"] <= result["ratio_max"] < 0.9
        assert (out / "nevanlinna_scan.csv").exists()

    def test_paper_suite_end_to_end(self, tmp_path):
        out = tmp_path / "o"
        code = cli.main(["paper-suite", "--out-dir", str(out)])
        assert code == 0
        summary = read_summary(out)["result"]
        assert summary["passed"] is True
        assert len(summary["criteria"]) == 12
        assert (out / "paper_suite.csv").exists()

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch):
        from diskdyn.selfmap import RootFindingError

        def boom(cfg):
            raise RootFindingError("fiber solve diverged", 0.5)

        monkeypatch.setitem(cli._RUNNERS, "classify", boom)
        code = cli.main(["classify", "--preset", "example62",
                         "--out-dir", str(tmp_path / "o")])
        assert code == 3
        summary = read_summary(tmp_path / "o")["result"]
        assert summary["error_class"] == "numerical"

    def test_elliptic_step_rejected(self, tmp_path):
        code = cli.main(["step", "--preset", "power2",
                         "--out-dir", str(tmp_path / "o")])
        assert code == 2

    def test_validation_exit_codes(self, tmp_path):
        assert cli.main(["classify", "--out-dir", str(tmp_path / "a")]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text('{"preset": "nope"}')
        assert cli.main([
            "classify", "--map-file", str(bad), "--out-dir", str(tmp_path / "b")
        ]) == 2

    def test_preset_and_map_file_conflict(self, tmp_path):
        mf = tmp_path / "m.json"
        mf.write_text('{"preset": "example62"}')
        code = cli.main([
            "classify", "--preset", "example62", "--map-file", str(mf),
            "--out-dir", str(tmp_path / "o"),
        ])
        assert code == 2


class TestDeterminism:
    def test_repeated_runs_identical(self, tmp_path):
        args = ["step", "--preset", "example62", "--n-max", "1500"]
        cli.main(args + ["--out-dir", str(tmp_path / "r1")])
        cli.main(args + ["--out-dir", str(tmp_path / "r2")])
        a = (tmp_path / "r1" / "step_sequence.csv").read_bytes()
        b = (tmp_path / "r2" / "step_sequence.csv").read_bytes()
        assert a == b

    def test_seeded_sampling_identical(self, tmp_path):
        args = ["julia-check", "--preset", "example62", "--samples", "300",
                "--seed", "9"]
        cli.main(args + ["--out-dir", str(tmp_path / "r1")])
        cli.main(args + ["--out-dir", str(tmp_path / "r2")])
        a = read_summary(tmp_path / "r1")["result"]
        b = read_summary(tmp_path / "r2")["result"]
        assert a == b

    def test_paper_suite_files_ignore_wall_time(self, tmp_path, monkeypatch):
        from diskdyn.acceptance import CriterionResult

        out = tmp_path / "o"
        written = []
        for elapsed in (0.25, 7.5):
            results = [CriterionResult(1, "first", True, "ok", elapsed),
                       CriterionResult(2, "second", True, "fine", 2 * elapsed)]
            monkeypatch.setattr(cli.acceptance, "run_all", lambda r=results: r)
            assert cli.main(["paper-suite", "--out-dir", str(out)]) == 0
            written.append(((out / "paper_suite.csv").read_bytes(),
                            (out / "summary.json").read_bytes()))
        assert written[0] == written[1]

    def test_embedded_config_reproduces_run(self, tmp_path):
        cli.main(["grand-orbit", "--preset", "example61", "--alpha", "0.5",
                  "--depth", "4", "--out-dir", str(tmp_path / "r1")])
        cfg = read_summary(tmp_path / "r1")["config"]
        cfg["out_dir"] = str(tmp_path / "r2")
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(cfg))
        assert cli.main(["run", "--config", str(cfg_file)]) == 0
        a = (tmp_path / "r1" / "grand_orbit.csv").read_bytes()
        b = (tmp_path / "r2" / "grand_orbit.csv").read_bytes()
        assert a == b


class TestPaperSuiteExit:
    def test_failing_criterion_is_named(self, tmp_path, monkeypatch, capsys):
        from diskdyn.acceptance import CriterionResult

        def fake_run_all():
            return [
                CriterionResult(1, "good", True, "ok", 0.0),
                CriterionResult(2, "bad", False, "broken", 0.0),
            ]

        monkeypatch.setattr(cli.acceptance, "run_all", fake_run_all)
        code = cli.main(["paper-suite", "--out-dir", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "[2]" in err
        out = capsys.readouterr().out
        summary = read_summary(tmp_path / "o")["result"]
        assert summary["passed"] is False
