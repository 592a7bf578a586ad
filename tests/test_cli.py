import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from diskdyn import cli, dynamics, presets
from diskdyn.geometry import pseudo_hyperbolic
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
        # complex("1", 0) raises TypeError
        with pytest.raises(ValueError, match="malformed map stage"):
            presets.map_from_dict({"stages": [{"gamma": ["1", 0], "zeros": [[0.3, 0, 2]]}]})

    def test_out_of_range_presets_rejected(self):
        with pytest.raises(ValueError, match="must be an object"):
            presets.map_from_dict([])
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
            presets.example61(1.5)
        with pytest.raises(ValueError, match="power must be >= 1"):
            presets.power_map(0)

    @pytest.mark.parametrize("slot", range(5))
    @pytest.mark.parametrize("flag", [True, False, np.True_])
    def test_bool_in_a_numeric_slot_rejected(self, slot, flag):
        # complex() and int() read a bool as 1 or 0
        numbers = [1.0, 0.0, 0.3, 0.0, 1]
        numbers[slot] = flag
        stage = {"gamma": numbers[:2], "zeros": [numbers[2:], [0.3, 0.2, 2]]}
        with pytest.raises(ValueError, match="malformed map stage"):
            presets.map_from_dict({"stages": [stage]})

    def test_fractional_multiplicity_rejected(self):
        stage = {"gamma": [1, 0], "zeros": [[0.3, 0.0, 2.5]]}
        with pytest.raises(ValueError, match="multiplicity must be an integer, got 2.5"):
            presets.map_from_dict({"stages": [stage]})
        # JSON's integral floats stay multiplicities
        stage["zeros"] = [[0.3, 0.0, 2.0]]
        assert presets.map_from_dict({"stages": [stage]}).zeros == ((0.3 + 0j, 2),)

    def test_alpha_only_for_the_parametric_preset(self):
        with pytest.raises(ValueError, match="no alpha"):
            presets.map_from_dict({"preset": "example62", "alpha": 0.4})

    @pytest.mark.parametrize("alpha", ["0.6", True, np.True_, [0.6], 0.6j])
    def test_alpha_must_be_a_real_number(self, alpha):
        # float() would read "0.6" as 0.6, where a stage refuses a string
        with pytest.raises(ValueError, match="alpha must be a real number"):
            presets.map_from_dict({"preset": "example61", "alpha": alpha})
        assert presets.from_preset("example61", np.float64(0.6)).zeros == ((-0.6 + 0j, 2),)


class TestConfig:
    def test_unknown_config_field_rejected(self):
        with pytest.raises(ValueError, match="unknown config fields"):
            cli.config_from_dict({"command": "classify", "bogus": 1})

    def test_unknown_command_rejected(self):
        with pytest.raises(ValueError, match="unknown command"):
            cli.config_from_dict({"command": "meow"})

    def test_negative_depth_exits_2(self, tmp_path, capsys):
        code = cli.main(["grand-orbit", "--preset", "example61", "--depth", "-1",
                         "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert "depth must be nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("cfg, message", [([], "config must be a JSON object"),
                                              ({}, "config needs a 'command' field")])
    def test_replayed_config_without_a_command_exits_2(self, tmp_path, capsys, cfg, message):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(cfg))
        assert cli.main(["run", "--config", str(cfg_file)]) == 2
        assert message in capsys.readouterr().err

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            cli.config_from_dict({"command": "classify", "format": "xml"})

    def test_map_validated_early(self):
        with pytest.raises(ValueError):
            cli.config_from_dict({"command": "classify", "map": {"preset": "nope"}})

    def test_each_job_builds_its_map_once(self, tmp_path, monkeypatch):
        # the map that validates the config is the one the job runs on
        calls = []
        real = presets.map_from_dict

        def counted(obj):
            calls.append(obj)
            return real(obj)

        monkeypatch.setattr(presets, "map_from_dict", counted)
        code = cli.main([
            "eigen", "--preset", "example61", "--alpha", "0.6",
            "--depth", "2", "--out-dir", str(tmp_path / "o"),
        ])
        assert code == 0
        assert calls == [{"preset": "example61", "alpha": 0.6}]
        # the built map is no config field, so the written config has none
        assert set(read_summary(tmp_path / "o")["config"]) == {
            f.name for f in dataclasses.fields(cli.ExperimentConfig)}

    def test_every_flag_is_a_config_field_with_its_default(self):
        parser = cli.build_parser()
        flags = [f for f in dataclasses.fields(cli.ExperimentConfig)
                 if f.name not in ("command", "map")]
        assert len(flags) == 7
        defaults = parser.parse_args(["classify"])
        for f in flags:
            assert getattr(defaults, f.name) == f.default
            flag = "--" + f.name.replace("_", "-")
            given = parser.parse_args(["classify", flag, str(f.default)])
            assert getattr(given, f.name) == f.default

    @pytest.mark.parametrize("command, field, value", [
        ("eigen", "depth", 2.5),
        ("classify", "out_dir", 5),
        ("classify", "n_max", "100"),
        ("classify", "samples", True),
    ])
    def test_wrong_typed_replay_field_exits_2(self, tmp_path, command, field, value):
        cfg = {"command": command, "map": {"preset": "example61", "alpha": 0.5},
               "out_dir": str(tmp_path / "o"), field: value}
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(cfg))
        assert cli.main(["run", "--config", str(cfg_file)]) == 2
        with pytest.raises(ValueError, match=field):
            cli.config_from_dict(cfg)

    def test_replayed_string_alpha_exits_2(self, tmp_path):
        cfg = {"command": "classify", "map": {"preset": "example61", "alpha": "0.6"},
               "out_dir": str(tmp_path / "o")}
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(cfg))
        assert cli.main(["run", "--config", str(cfg_file)]) == 2
        assert not (tmp_path / "o").exists()

    def test_replayed_tol_is_an_unknown_field(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"command": "classify", "tol": 1e-9}))
        assert cli.main(["run", "--config", str(cfg_file)]) == 2
        with pytest.raises(ValueError, match=r"unknown config fields: \['tol'\]"):
            cli.config_from_dict({"command": "classify", "tol": 1e-9})


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
        assert result["step"] == "positive"
        assert abs(result["shift"]["re"] + 0.25) < 1e-12

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
        assert set(result) == {"depth", "tau_re", "tau_im", "residual",
                               "sample_count", "map_preset"}
        assert result["depth"] == 8
        assert result["map_preset"] == "example61"
        assert 0 < result["sample_count"] <= 16
        assert abs(result["tau_re"] - (-1.0)) < 0.1
        assert abs(result["tau_im"]) < 0.05
        lines = (out / "eigen_depths.csv").read_text().strip().splitlines()
        assert lines[0] == "depth,nodes,tau_re,tau_im,dispersion,residual"
        assert len(lines) == 5

    def test_eigen_odd_depth_reports_it(self, tmp_path):
        out = tmp_path / "o"
        code = cli.main([
            "eigen", "--preset", "example61", "--alpha", "0.6",
            "--depth", "7", "--out-dir", str(out),
        ])
        assert code == 0
        assert read_summary(out)["result"]["depth"] == 7
        lines = (out / "eigen_depths.csv").read_text().strip().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["2", "4", "6", "7"]

    def test_eigen_builds_one_grand_orbit(self, tmp_path, monkeypatch):
        calls = []
        real = cli.orbits.grand_orbit

        def counted(*args, **kwargs):
            calls.append(kwargs["backward_depth"])
            return real(*args, **kwargs)

        monkeypatch.setattr(cli.orbits, "grand_orbit", counted)
        code = cli.main([
            "eigen", "--preset", "example61", "--alpha", "0.6",
            "--depth", "6", "--out-dir", str(tmp_path / "o"),
        ])
        assert code == 0
        assert calls == [6]

    @pytest.mark.parametrize("alpha, kept", [("0.6", 15), ("0.7", 16)])
    def test_eigen_keeps_the_admissible_samples(self, tmp_path, alpha, kept):
        out = tmp_path / "o"
        code = cli.main([
            "eigen", "--preset", "example61", "--alpha", alpha,
            "--depth", "8", "--out-dir", str(out),
        ])
        assert code == 0
        assert read_summary(out)["result"]["sample_count"] == kept
        # at alpha 0.6 the sample 0.4 lies 0.0467 from a zero and its image
        # 0.0456, inside the 0.05 radius; at 0.7 no sample comes near one
        f = presets.example61(float(alpha))
        nodes = cli.orbits.grand_orbit(f, 0.0, 12, 8).nodes
        near = [min(pseudo_hyperbolic(p, n.point) for n in nodes)
                for p in (0.4, evaluate(f, 0.4))]
        assert (max(near) < 0.047) if kept == 15 else (min(near) > 0.05)

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

    def test_abel_final_residual_keeps_a_nan(self, tmp_path, monkeypatch):
        # max() dropped a NaN residual unless it came first
        real = cli.abel.residual_table

        def with_nan(hm, kind, ns, probes):
            rows = real(hm, kind, ns, probes)
            last = [k for k, row in enumerate(rows) if row[0] == ns[-1]]
            n, pid, _, diff = rows[last[1]]
            rows[last[1]] = (n, pid, math.nan, diff)
            return rows

        monkeypatch.setattr(cli.abel, "residual_table", with_nan)
        out = tmp_path / "o"
        code = cli.main([
            "abel", "--preset", "example62", "--n-max", "200",
            "--out-dir", str(out),
        ])
        assert code == 0
        assert math.isnan(read_summary(out)["result"]["final_residual"])

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

    def test_nevanlinna_solves_each_fiber_once(self, tmp_path, monkeypatch):
        from diskdyn import counting

        calls = []
        original = counting._fiber_table

        def solve(f, targets):
            calls.append(list(targets))
            return original(f, targets)

        monkeypatch.setattr(counting, "_fiber_table", solve)
        code = cli.main([
            "nevanlinna", "--preset", "example61", "--alpha", "0.5",
            "--out-dir", str(tmp_path / "o"),
        ])
        assert code == 0
        (radii,) = calls
        assert len(radii) == 25
        assert len(set(radii)) == 25

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

    def test_julia_check_without_samples_rejected(self, tmp_path):
        code = cli.main(["julia-check", "--preset", "example62", "--samples", "0",
                         "--out-dir", str(tmp_path / "o")])
        assert code == 2
        summary = read_summary(tmp_path / "o")["result"]
        assert summary["error_class"] == "validation"
        assert "passed" not in summary

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
            monkeypatch.setattr("diskdyn.acceptance.run_all", lambda r=results: r)
            assert cli.main(["paper-suite", "--out-dir", str(out)]) == 0
            written.append(((out / "paper_suite.csv").read_bytes(),
                            (out / "summary.json").read_bytes()))
        assert written[0] == written[1]

    def test_one_parser_serves_every_call(self, tmp_path):
        # the parser is built once per process; later calls with another
        # command and other flags report what a fresh process reports
        assert cli.build_parser() is cli.build_parser()
        runs = [["step", "--preset", "example61", "--alpha", "0.6", "--n-max", "40"],
                ["julia-check", "--preset", "example62", "--samples", "30", "--seed", "3"],
                ["step", "--preset", "example62", "--n-max", "20"]]
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        for k, args in enumerate(runs):
            assert cli.main(args + ["--out-dir", str(tmp_path / f"in{k}")]) == 0
            subprocess.run([sys.executable, "-m", "diskdyn.cli", *args,
                            "--out-dir", str(tmp_path / f"fresh{k}")], check=True, env=env)
        for k in range(len(runs)):
            summaries = [read_summary(tmp_path / f"{kind}{k}") for kind in ("in", "fresh")]
            for summary in summaries:
                del summary["config"]["out_dir"]
            assert summaries[0] == summaries[1]

    def test_import_leaves_the_criteria_out(self):
        # only paper-suite imports acceptance (and with it properties)
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        probe = ("import sys, diskdyn.cli; "
                 "print(sorted({'diskdyn.acceptance', 'diskdyn.properties'} & set(sys.modules)))")
        out = subprocess.run([sys.executable, "-c", probe], check=True, env=env,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"

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


def reference_csv(header, rows) -> bytes:
    """The per-value rule: every value through cli._fmt."""
    lines = [",".join(header)] + [",".join(cli._fmt(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


class TestCsvWriter:
    """_write_csv formats rows with one %-format taken from the first row;
    its bytes must equal the per-value rule on every table."""

    MIXED = [
        (1, 0.5, np.float64(1 / 3), math.nan, True, None, "a b"),
        (2, 1e-300, np.float64(-0.0), math.inf, False, None, "x"),
        (0.1, 0.1, np.float64(2.0), -math.nan, True, None, ""),  # float where int began
        (4, True, np.float64(7.0), 1.0, False, None, "y"),  # bool where float began
        [5, 2.0 ** 0.5, np.float64(1e308), math.nan, True, None, "list row"],
    ]
    HEADER = ("i", "f", "np", "nan", "flag", "none", "text")

    # every value that floatcsv leaves to %.17g itself
    FALLBACK = np.array([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
                         5e-324, -5e-324, 1.7976931348623157e308, 1e-6, -1e-6,
                         1e17, 99999999999999999.0, 1e-300])

    @pytest.mark.parametrize("header, rows", [
        (HEADER, MIXED),
        (HEADER, []),
        (("x",), [(1.5,), (2,), (0.1,)]),
        (("n", "rho"), ((n, 1.0 / (n + 1)) for n in range(5))),
        (("n", "rho"), FALLBACK),
        (("n", "rho"), np.array([], dtype=float)),
    ], ids=["mixed", "empty", "one-column", "generator", "array-fallback", "array-empty"])
    def test_matches_per_value_rule(self, tmp_path, header, rows):
        if isinstance(rows, np.ndarray):
            table, rows = rows, list(enumerate(rows.tolist()))
        else:
            rows = list(rows)
            table = iter(rows)
        cli._write_csv(tmp_path / "t.csv", header, table)
        assert (tmp_path / "t.csv").read_bytes() == reference_csv(header, rows)

    def test_array_values_match_percent_g(self, tmp_path):
        # floatcsv makes the digits from an error-free product; each
        # value must read as '%.17g' % v does
        rng = np.random.default_rng(20261019)
        sign = rng.choice([-1.0, 1.0], 100_000)
        powers = 10.0 ** np.arange(-8, 19)
        near = [powers]
        for direction in (math.inf, -math.inf):
            step = powers
            for _ in range(40):
                step = np.nextafter(step, direction)
                near.append(step)
        near = np.concatenate(near)
        # odd m / 4 in [1e15, 2.25e15) is a tie at the 17th digit
        ties = np.arange(4 * 10**15 + 1, 9 * 10**15, 10**11 + 2).astype(float) / 4
        dyadic = rng.integers(1, 2**53, 20_000).astype(float) / 2.0 ** rng.integers(0, 80, 20_000)
        values = np.concatenate([
            rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64),
            sign * 10.0 ** rng.uniform(-7, 18, 100_000),
            near, -near, ties, -ties, dyadic,
            0.99999999999999999 * powers,
            self.FALLBACK,
        ])
        cli._write_csv(tmp_path / "t.csv", ("n", "rho"), values)
        written = (tmp_path / "t.csv").read_text().splitlines()
        expected = ["n,rho", *map("%d,%.17g".__mod__, enumerate(values.tolist()))]
        assert len(written) == len(expected)
        # the first few mismatches, not a diff of 330,000 lines
        assert [(w, x) for w, x in zip(written, expected) if w != x][:5] == []

    def test_step_table_is_written_in_blocks(self, tmp_path):
        seq = dynamics.hyperbolic_step(presets.example62(), 0.0, 100000).sequence
        tracemalloc.start()
        try:
            cli._write_csv(tmp_path / "t.csv", ("n", "rho"), seq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 2,048-row blocks read 0.45 MB with floatcsv's import (0.36 MB
        # without); 4,096-row blocks 0.71 MB without it
        assert peak < 8e5

    @staticmethod
    def written_against_percent_g(tmp_path, values):
        """The written table's bytes and those of '%d,%.17g' row by row."""
        cli._write_csv(tmp_path / "t.csv", ("n", "rho"), values)
        rows = "".join(map("%d,%.17g\n".__mod__, enumerate(values.tolist())))
        return (tmp_path / "t.csv").read_bytes(), ("n,rho\n" + rows).encode()

    @pytest.mark.parametrize("count", [10, 11, 100, 101, 10_001, 100_001])
    def test_index_width_splits(self, tmp_path, count):
        # blocks split at powers of ten, where the index gains a digit
        values = 1.0 / np.arange(1, count + 1) ** 1.5
        written, expected = self.written_against_percent_g(tmp_path, values)
        assert written == expected

    def test_layout_changes_row_to_row(self, tmp_path):
        # one block takes one layout (sign, fixed e or exponent notation);
        # here nearly every row has another, and the block's rows interleave
        # exponent notation, every fixed e from -4 to 16, both signs, one-
        # digit mantissas, and the values that %.17g formats itself
        fixed = 10.0 ** np.arange(-4, 17) * np.array([1.2345678901234567, 3.0, 7.25] * 7)
        values = np.array([
            *fixed, *-fixed, 5e-06, 2e-05, -5e-06, 1.5e-05, 1.0000000000000002e-06,
            0.0, -0.0, math.nan, math.inf, -math.inf, 1e-6, 1e17, -1e17, 5e-324, -2.2e-308,
            0.1, 0.25, 9.999999999999999e-05, 99999999999999984.0, 1.0, 10.0, 1e16,
        ])
        values = np.random.default_rng(27).permutation(np.concatenate([values, values[::-1]]))
        written, expected = self.written_against_percent_g(tmp_path, values)
        assert written == expected

    def test_every_layout_to_a_block(self, tmp_path):
        # a _ROWS-row block of each layout, both signs and e from -6 to 16,
        # its mantissas of 1 to 17 digits: trailing zeros, and the point
        # with nothing after it, are the NULs a block removes
        mantissas = ["1", "1.5", "2.25", "9", "1.2345678901234567", "5.000000000000001", "3.14"]
        rng = np.random.default_rng(2027)
        values = np.concatenate([
            sign * np.array([f"{m}e{e}" for m in mantissas] * 293, dtype=float)[:2048]
            * rng.choice([1.0, 1.0, 1.0 + 2.0 ** -52], 2048)
            for sign in (1.0, -1.0) for e in range(-6, 17)])
        written, expected = self.written_against_percent_g(tmp_path, values)
        assert written == expected

    @pytest.mark.parametrize("f", [presets.example61(0.6), presets.translation()],
                             ids=["example61", "translation"])
    def test_positive_step_tables(self, tmp_path, f):
        # fixed notation at e = -1, one layout to a block
        values = dynamics.hyperbolic_step(f, 0.0, 100000).sequence
        written, expected = self.written_against_percent_g(tmp_path, values)
        assert written == expected

    @pytest.mark.parametrize("values", [
        np.zeros((2, 3)), np.arange(5), np.zeros(4, dtype=np.float32), np.zeros(3, dtype=complex),
    ], ids=["2-d", "int", "float32", "complex"])
    def test_refuses_other_arrays(self, tmp_path, values):
        with pytest.raises(TypeError, match=rf"{values.dtype} of shape \({values.shape[0]},"):
            cli._write_csv(tmp_path / "t.csv", ("n", "rho"), values)
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("n_max", [0, 2047, 2048, 2049, 4095, 4096, 4097])
    def test_step_rows_across_chunk_edges(self, tmp_path, n_max):
        out = tmp_path / "o"
        assert cli.main(["step", "--preset", "example62", "--n-max", str(n_max),
                         "--out-dir", str(out)]) == 0
        seq = dynamics.hyperbolic_step(presets.example62(), 0.0, n_max).sequence
        written = (out / "step_sequence.csv").read_bytes()
        assert written.count(b"\n") == n_max + 2
        assert written == reference_csv(("n", "rho"), enumerate(seq))


def orbit_reference_rows(f, n_max):
    """orbit.csv rows built one per step, as a list."""
    rows, z, prev = [], 0j, None
    for n in range(n_max + 1):
        if prev is not None and z == prev:
            break
        step = math.nan if prev is None else abs((z - prev) / (1.0 - z.conjugate() * prev))
        rows.append((n, z.real, z.imag, 1.0 - abs(z), step))
        prev, z = z, evaluate(f, z)
    return rows


class TestOrbitTable:
    HEADER = ("n", "re", "im", "one_minus_abs", "rho_step")

    @pytest.mark.parametrize("preset, n_max", [
        ("example62", 0), ("example62", 4095), ("example62", 4096), ("example62", 4097),
        ("example61", 4097),
    ])
    def test_rows_across_chunk_edges(self, tmp_path, preset, n_max):
        out = tmp_path / "o"
        assert cli.main(["orbit", "--preset", preset, "--n-max", str(n_max),
                         "--out-dir", str(out)]) == 0
        rows = orbit_reference_rows(presets.from_preset(preset), n_max)
        if preset == "example61":
            # the orbit from 0 turns stationary and the table stops there
            assert len(rows) < 100
        else:
            assert len(rows) == n_max + 1
        assert (out / "orbit.csv").read_bytes() == reference_csv(self.HEADER, rows)
        assert read_summary(out)["result"] == {
            "steps": len(rows) - 1, "final": {"re": rows[-1][1], "im": rows[-1][2]},
        }

    @pytest.mark.parametrize("n_max", [32, 4096])
    def test_step_table_of_a_freezing_orbit(self, tmp_path, n_max):
        # the orbit of 0 under example61(0.6) freezes at n = 32, as the
        # 50-digit sequence of the float map does, and the table repeats the
        # frozen value to n_max
        out = tmp_path / "o"
        assert cli.main(["step", "--preset", "example61", "--alpha", "0.6",
                         "--n-max", str(n_max), "--out-dir", str(out)]) == 0
        rep = dynamics.hyperbolic_step(presets.example61(0.6), 0.0, n_max)
        assert rep.frozen_at == 32
        assert read_summary(out)["result"]["frozen_at"] == 32
        assert np.all(rep.sequence[32:] == rep.sequence[32])
        assert (out / "step_sequence.csv").read_bytes() == reference_csv(
            ("n", "rho"), enumerate(rep.sequence.tolist()))

    def test_rows_are_streamed(self, tmp_path):
        out = str(tmp_path / "o")
        cli.main(["orbit", "--preset", "example62", "--n-max", "10", "--out-dir", out])
        tracemalloc.start()
        try:
            assert cli.main(["orbit", "--preset", "example62", "--n-max", "100000",
                             "--out-dir", out]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 100,001 points in one complex array (1.6 MB) and a 4,096-point
        # chunk of rows; the table held as tuples peaked at 21.9 MB
        assert peak < 4e6


class TestPaperSuiteExit:
    def test_failing_criterion_is_named(self, tmp_path, monkeypatch, capsys):
        from diskdyn.acceptance import CriterionResult

        def fake_run_all():
            return [
                CriterionResult(1, "good", True, "ok", 0.0),
                CriterionResult(2, "bad", False, "broken", 0.0),
            ]

        monkeypatch.setattr("diskdyn.acceptance.run_all", fake_run_all)
        code = cli.main(["paper-suite", "--out-dir", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "[2]" in err
        out = capsys.readouterr().out
        summary = read_summary(tmp_path / "o")["result"]
        assert summary["passed"] is False
