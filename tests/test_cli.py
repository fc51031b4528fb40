import json
import math
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from dixlab import cli, models, sequences


def _cfg(**overrides):
    base = {
        "schema_version": 1,
        "seed": 3,
        "experiments": [
            {
                "label": "h",
                "model": {"kind": "harmonic", "horizon": 65536},
                "methods": ["dixmier", "zeta", "heat_raw"],
            }
        ],
    }
    base.update(overrides)
    return base


class TestParseConfig:
    def test_example_config_round_trips(self):
        parsed = cli.parse_config(cli.example_config())
        assert parsed.seed == 7
        assert len(parsed.experiments) == 2
        assert parsed.experiments[0].kind == "harmonic"

    def test_unknown_keys_collected_with_paths(self):
        bad = _cfg(extra=1)
        bad["experiments"][0]["model"]["bogus"] = True
        bad["experiments"][0]["surprise"] = 2
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config(bad)
        text = str(err.value)
        assert "extra: unknown key" in text
        assert "experiments[0].model.bogus" in text
        assert "experiments[0].surprise" in text

    def test_schema_version_enforced(self):
        with pytest.raises(cli.ConfigError, match="schema_version"):
            cli.parse_config(_cfg(schema_version=2))

    def test_all_violations_reported_at_once(self):
        bad = {
            "schema_version": 9,
            "seed": -1,
            "experiments": [
                {"model": {"kind": "nonsense"}},
                {"model": {"kind": "torus", "dimension": 2}},
            ],
        }
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config(bad)
        text = str(err.value)
        assert "schema_version" in text
        assert "seed" in text
        assert "experiments[0].model.kind" in text
        assert "experiments[1].model.cutoff_radius" in text

    def test_schedule_validation(self):
        bad = _cfg()
        bad["experiments"][0]["zeta_schedule"] = [50, 25]
        with pytest.raises(cli.ConfigError, match="increase"):
            cli.parse_config(bad)
        bad = _cfg()
        bad["experiments"][0]["methods"] = ["dixmier", "heat_cesaro"]
        bad["experiments"][0]["heat_schedule"] = [0.5, 10, 100]
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config(bad)
        assert err.value.problems == (
            "experiments[0].heat_schedule: heat_cesaro needs every entry "
            "> 1",
        )
        bad["experiments"][0]["methods"] = ["dixmier", "heat_raw"]
        cli.parse_config(bad)

    def test_matrix_coefficients_parsed(self):
        cfg = _cfg(experiments=[{
            "label": "m",
            "model": {
                "kind": "matrix", "dimension": 1, "halfwidth": 8,
                "coefficients": {"0": 2.0, "1": [0.5, 0.0],
                                 "-1": [0.5, 0.0]},
            },
            "methods": ["dixmier"],
        }])
        parsed = cli.parse_config(cfg)
        coeffs = dict(parsed.experiments[0].param_dict()["coefficients"])
        assert coeffs[(0,)] == 2.0 + 0j
        assert coeffs[(1,)] == 0.5 + 0j

    def test_out_of_range_values_reported_with_paths(self):
        bad = _cfg(experiments=[
            {"model": {"kind": "nc_torus", "cutoff_radius": 10,
                       "theta": 5.0}},
            {"model": {"kind": "matrix", "dimension": 1, "halfwidth": 8,
                       "coefficients": {"0": 2.0}, "max_checkpoint": -3}},
            {"model": {"kind": "matrix", "dimension": 1, "halfwidth": 8,
                       "coefficients": {"0": 2.0}, "operator_power": -1.0}},
            {"model": {"kind": "torus", "dimension": 2, "cutoff_radius": 10,
                       "operator_power": math.inf}},
            {"model": {"kind": "torus", "dimension": 2, "cutoff_radius": 10,
                       "operator_power": 0.5}, "methods": ["dixmier", "zeta"]},
            {"model": {"kind": "nc_torus", "cutoff_radius": 10,
                       "operator_power": 0.99},
             "methods": ["zeta"], "zeta_schedule": [10, 200]},
            # converges: p*s = 0.999 * 1.005 > 1, and p = n/2 by default
            {"model": {"kind": "nc_torus", "cutoff_radius": 10,
                       "operator_power": 0.999},
             "methods": ["zeta"], "zeta_schedule": [10, 200]},
            {"model": {"kind": "torus", "dimension": 1, "cutoff_radius": 10},
             "methods": ["zeta"]},
        ])
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config(bad)
        assert err.value.problems == (
            "experiments[0].model.theta: expected a number in [0, 1)",
            "experiments[1].model.max_checkpoint: expected an integer >= 1",
            "experiments[2].model.operator_power: expected a positive "
            "finite number",
            "experiments[3].model.operator_power: expected a positive "
            "finite number",
            "experiments[4].model.operator_power: zeta sum diverges at "
            "s=1.005 (needs operator_power > 0.995025)",
            "experiments[5].model.operator_power: zeta sum diverges at "
            "s=1.005 (needs operator_power > 0.995025)",
        )

    @pytest.mark.parametrize("key,value", [
        ("heat_schedule", float("inf")), ("heat_schedule", float("nan")),
        ("zeta_schedule", float("inf")), ("heat_schedule", 0),
    ])
    def test_schedule_entries_must_be_positive_and_finite(self, key, value):
        bad = _cfg()
        bad["experiments"][0][key] = [50, value]
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config(bad)
        assert err.value.problems == (
            "experiments[0].%s[1]: expected a positive finite number" % key,
        )

    def test_missing_file_is_config_error(self):
        with pytest.raises(cli.ConfigError, match="config"):
            cli.parse_config("/nonexistent/path.json")


class TestRunAndEmit:
    def test_rows_follow_config_order(self):
        rows, _ = cli.run_experiment(cli.parse_config(_cfg()))
        assert [r["method"] for r in rows] == [
            "dixmier_alpha", "zeta_residue", "heat_raw"
        ]
        assert all(r["model"] == "h" for r in rows)

    def test_model_build_is_timed_on_stderr(self, capsys):
        cli.run_experiment(cli.parse_config(_cfg()))
        lines = capsys.readouterr().err.splitlines()
        assert [line.split(": ")[0] for line in lines] == [
            "# h/build", "# h/dixmier", "# h/zeta", "# h/heat_raw"
        ]
        assert re.fullmatch(r"# h/build: \d+\.\d\ds", lines[0])

    def test_csv_layout_and_digits(self):
        rows, _ = cli.run_experiment(cli.parse_config(_cfg()))
        text = cli.emit_report(rows, "csv")
        lines = text.splitlines()
        assert lines[0] == ",".join(cli.ROW_FIELDS)
        first = lines[1].split(",")
        assert first[0] == "dixmier_alpha"
        assert first[3] == "%.12g" % rows[0]["value"]
        assert "\r" not in text

    def test_json_mirrors_csv_digit_strings(self):
        rows, _ = cli.run_experiment(cli.parse_config(_cfg()))
        csv_text = cli.emit_report(rows, "csv")
        json_text = cli.emit_report(rows, "json")
        parsed = json.loads(json_text)
        assert parsed["schema_version"] == 1
        for row in parsed["rows"]:
            assert "%.12g" % row["value"] in csv_text

    def test_torus_runs_never_expand_the_lattice(self, monkeypatch):
        # the spectra stay shells and counts on every estimator path
        def refuse(head, counts):
            raise AssertionError("lattice runs expanded")

        monkeypatch.setattr(sequences, "_expand_runs", refuse)
        methods = ["dixmier", "zeta", "heat_raw", "heat_cesaro"]
        config = cli.parse_config(_cfg(experiments=[
            {"label": "t3", "methods": methods,
             "model": {"kind": "torus", "dimension": 3, "cutoff_radius": 40},
             "heat_schedule": [1e4, 1e5, 1e6]},
            {"label": "nc", "methods": methods,
             "model": {"kind": "nc_torus", "cutoff_radius": 300,
                       "theta": 0.25},
             "heat_schedule": [1e4, 1e5, 1e6]},
        ]))
        rows, _ = cli.run_experiment(config)
        assert [(r["model"], r["method"]) for r in rows] == [
            (label, m) for label in ("t3", "nc")
            for m in ("dixmier_alpha", "zeta_residue", "heat_raw",
                      "heat_cesaro")]
        converged = {(r["model"], r["method"]): r["value"] for r in rows
                     if r["status"] == "Converged"}
        assert converged[("nc", "zeta_residue")] == pytest.approx(
            math.pi, rel=1e-3)
        assert converged[("t3", "dixmier_alpha")] == pytest.approx(
            4.0 * math.pi / 3.0, rel=1e-2)

    def test_nan_renders_as_null_in_json(self):
        row = {
            "method": "zeta_residue", "model": "x", "param": "",
            "value": float("nan"), "status": "Undetermined",
            "oscillation": 0.0, "extrapolated": False, "notes": "",
        }
        text = cli.emit_report([row], "json")
        assert json.loads(text)["rows"][0]["value"] is None
        assert "nan" in cli.emit_report([row], "csv")


class TestMainExitCodes:
    def _write(self, tmp_path, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        return str(path)

    def test_all_converged_exits_zero(self, tmp_path, capsys):
        code = cli.main(["--config", self._write(tmp_path, _cfg())])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith(",".join(cli.ROW_FIELDS)[: len("method")])

    def test_non_converged_exits_two(self, tmp_path, capsys):
        cfg = _cfg(experiments=[{
            "label": "osc",
            "model": {"kind": "oscillator", "horizon": 1048576},
            "methods": ["dixmier"],
        }])
        code = cli.main(["--config", self._write(tmp_path, cfg)])
        capsys.readouterr()
        assert code == 2

    def test_zeta_runs_where_the_tail_power_underflows(self, tmp_path,
                                                       capsys):
        # (1e-320)^s is 0 or subnormal on the zeta schedule; the tail sum
        # exited 4 with "tail coeff must be positive and finite"
        cfg = _cfg(experiments=[{
            "label": "h",
            "model": {"kind": "harmonic", "horizon": 1024, "coeff": 1e-320},
            "methods": ["zeta"],
        }])
        code = cli.main(["--config", self._write(tmp_path, cfg)])
        captured = capsys.readouterr()
        assert code in (0, 2)
        assert "error:" not in captured.err
        assert captured.out.splitlines()[1].startswith("zeta_residue,h,")

    def test_bad_config_exits_four(self, tmp_path, capsys):
        code = cli.main(["--config",
                         self._write(tmp_path, _cfg(schema_version=3))])
        capsys.readouterr()
        assert code == 4

    def test_zeta_divergence_exits_four_before_any_experiment(self, tmp_path,
                                                              capsys):
        cfg = _cfg(experiments=[
            {"label": "h", "model": {"kind": "harmonic", "horizon": 1000}},
            {"label": "t", "model": {"kind": "torus", "dimension": 2,
                                     "cutoff_radius": 50,
                                     "operator_power": 0.5},
             "methods": ["dixmier", "zeta"]},
        ])
        code = cli.main(["--config", self._write(tmp_path, cfg)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert "# " not in captured.err
        assert ("experiments[1].model.operator_power: zeta sum diverges at "
                "s=1.005 (needs operator_power > 0.995025)") in captured.err

    def test_short_oscillator_horizon_names_its_path(self, tmp_path,
                                                     capsys):
        cfg = _cfg(experiments=[
            {"model": {"kind": "oscillator", "horizon": 2}}])
        code = cli.main(["--config", self._write(tmp_path, cfg)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert ("experiments[0].model.horizon: oscillator horizon must be "
                "an integer from 3 to 2^63 - 1" in captured.err)

    @pytest.mark.parametrize("horizon", [0, -5])
    def test_short_harmonic_horizon_names_its_path(self, tmp_path, capsys,
                                                   horizon):
        cfg = _cfg(experiments=[
            {"model": {"kind": "harmonic", "horizon": horizon}}])
        code = cli.main(["--config", self._write(tmp_path, cfg)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert ("experiments[0].model.horizon: harmonic horizon must be "
                "an integer from 1 to 2^63 - 1" in captured.err)

    @pytest.mark.parametrize("model,problem", [
        ({"kind": "torus", "dimension": 4, "cutoff_radius": 10},
         "dimension: lattice dimension must be 1, 2 or 3"),
        ({"kind": "torus", "dimension": 2, "cutoff_radius": 0},
         "cutoff_radius: cutoff radius must be >= 1"),
        ({"kind": "harmonic", "horizon": 0},
         "horizon: harmonic horizon must be an integer from 1 to 2^63 - 1"),
        ({"kind": "power_log", "coeff": 1.0, "power": 1.0, "log_power": 0.0,
          "horizon": 8},
         "horizon: power-log horizon must be an integer from 16 to "
         "2^63 - 1"),
        ({"kind": "oscillator", "horizon": 2},
         "horizon: oscillator horizon must be an integer from 3 to "
         "2^63 - 1"),
        ({"kind": "power_log", "coeff": -1.0, "power": 1.0,
          "log_power": 0.0},
         "coeff: tail coeff must be positive and finite"),
        ({"kind": "matrix", "dimension": 4, "halfwidth": 2,
          "coefficients": {"0,0,0,0": 2.0}},
         "dimension: lattice dimension must be 1, 2 or 3"),
    ])
    def test_constructor_refusals_name_their_field(self, tmp_path, capsys,
                                                   model, problem):
        cfg = _cfg(experiments=[{"model": model}])
        code = cli.main(["--config", self._write(tmp_path, cfg)])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        assert captured.err == "error:\nexperiments[0].model.%s\n" % problem

    @staticmethod
    def _power_log(power):
        # coeff**s passes the float range at the schedule's s = 1.04
        return _cfg(experiments=[{
            "label": "pl",
            "model": {"kind": "power_log", "coeff": 1e300, "power": power,
                      "log_power": 0.0, "horizon": 100},
            "methods": ["zeta"],
        }])

    def test_power_log_tail_past_the_float_range_still_sums(self, tmp_path,
                                                           capsys):
        # n^-50 brings every sum back into range: about 2e296 at s = 1.04
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["--config",
                             self._write(tmp_path, self._power_log(50.0))])
        captured = capsys.readouterr()
        assert code == 2
        value = captured.out.splitlines()[1].split(",")[3]
        assert 1e294 < float(value) < math.inf

    def test_overflowing_power_sum_exits_four(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["--config",
                             self._write(tmp_path, self._power_log(1.5))])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines()
                  if not line.startswith("# ")]
        assert errors == ["error: zeta evaluation divergent or past the "
                          "float64 range at s=1.04"]

    def test_missing_config_exits_four(self, capsys):
        assert cli.main([]) == 4
        capsys.readouterr()

    def test_negative_seed_with_check_exits_four(self, capsys):
        assert cli.main(["--check", "--seed", "-1"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: argument --seed: expected a "
                                "nonnegative integer, got '-1'\n")

    def test_negative_seed_override_exits_four(self, tmp_path, capsys):
        code = cli.main(["--config", self._write(tmp_path, _cfg()),
                         "--seed", "-1"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: argument --seed: expected a nonnegative integer, "
            "got '-1'"]

    def test_unwritable_out_exits_four(self, tmp_path, capsys):
        out = tmp_path / "missing" / "r.csv"
        code = cli.main(["--config", self._write(tmp_path, _cfg()),
                         "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines()
                  if not line.startswith("# ")]
        assert errors == ["error: --out: [Errno 2] No such file or "
                          "directory: %r" % str(out)]

    def test_check_passes(self, capsys):
        code = cli.main(["--check"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("ok  ") == len(out.strip().splitlines())

    def test_check_failure_exits_three(self, capsys, monkeypatch):
        def broken(seed):
            yield False, "synthetic failure", "detail"

        monkeypatch.setattr(cli, "_check_lines", broken)
        assert cli.main(["--check"]) == 3
        capsys.readouterr()

    def test_list_models(self, capsys):
        assert cli.main(["--list-models"]) == 0
        out = capsys.readouterr().out
        for kind in ("harmonic", "oscillator", "torus", "nc_torus",
                     "matrix", "sequence_file"):
            assert kind in out

    def test_list_models_text(self, capsys):
        assert cli.main(["--list-models"]) == 0
        assert capsys.readouterr().out == (
            "harmonic\n  fields: coeff, horizon\n  required: none\n"
            "matrix\n  fields: coefficients, dimension, halfwidth, "
            "max_checkpoint, operator_power, real\n"
            "  required: dimension, halfwidth, coefficients\n"
            "nc_torus\n  fields: cutoff_radius, operator_power, theta\n"
            "  required: cutoff_radius\n"
            "oscillator\n  fields: horizon\n  required: none\n"
            "power_log\n  fields: coeff, horizon, log_power, power\n"
            "  required: coeff, power, log_power\n"
            "sequence_file\n  fields: path\n  required: path\n"
            "torus\n  fields: cutoff_radius, dimension, operator_power\n"
            "  required: dimension, cutoff_radius\n"
        )

    @pytest.mark.parametrize("kind,extra", [
        ("harmonic", {}),
        ("power_log", {"coeff": 1.0, "power": 1.0, "log_power": 0.0}),
    ])
    def test_huge_horizon_exits_four(self, tmp_path, capsys, kind, extra):
        model = dict(kind=kind, horizon=10**15, **extra)
        cfg = _cfg(experiments=[{"model": model}])
        code = cli.main(["--config", self._write(tmp_path, cfg)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and "DIXLAB_BUDGET_MB" in lines[0]

    @pytest.mark.parametrize("model,what", [
        ({"kind": "torus", "dimension": 3, "cutoff_radius": 10**5},
         "lattice shell table (radius 100000)"),
    ])
    def test_lazy_spectrum_is_charged_before_any_run(self, tmp_path, capsys,
                                                     model, what):
        # the spectrum builds when its own experiment starts, but its
        # constructor charges it, so the harmonic experiment never runs;
        # the refusal names the experiment whose model it is
        cfg = _cfg(experiments=[
            {"label": "h", "model": {"kind": "harmonic", "horizon": 1024}},
            {"label": "big", "model": model},
        ])
        code = cli.main(["--config", self._write(tmp_path, cfg)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: experiments[1].model: " + what)
        assert "DIXLAB_BUDGET_MB" in lines[0]

    def test_oscillator_horizon_past_the_head_is_not_charged(
            self, tmp_path, capsys, monkeypatch):
        # 2^16 values are stored whatever the horizon; the scan to 10^11
        # reads the tail, so every method runs under 64 MB
        monkeypatch.setenv("DIXLAB_BUDGET_MB", "64")
        cfg = _cfg(experiments=[{
            "label": "osc",
            "model": {"kind": "oscillator", "horizon": 10**11},
            "methods": ["dixmier", "zeta", "heat_raw", "heat_cesaro"],
        }])
        code = cli.main(["--config", self._write(tmp_path, cfg)])
        captured = capsys.readouterr()
        assert code in (0, 2)
        assert "error" not in captured.err
        assert captured.out.count("\n") == 5

    def test_oscillator_horizon_past_2_63_exits_four(self, tmp_path,
                                                     capsys):
        cfg = _cfg(experiments=[{"model": {"kind": "oscillator",
                                           "horizon": 2**63}}])
        code = cli.main(["--config", self._write(tmp_path, cfg)])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        assert ("experiments[0].model.horizon: oscillator horizon must be "
                "an integer" in captured.err)

    def test_matrix_kind_caps_at_quarter_dimension(self, capsys):
        cfg = _cfg(experiments=[{
            "label": "cosine",
            "model": {
                "kind": "matrix", "dimension": 1, "halfwidth": 300,
                "coefficients": {"0": 2.0, "1": 0.5, "-1": 0.5},
            },
            "methods": ["dixmier"],
        }])
        spec = cli.parse_config(cfg).experiments[0]
        model = cli._build_model(spec)
        assert model.horizon == 150
        rows, _ = cli.run_experiment(cli.parse_config(cfg))
        assert rows[0]["method"] == "dixmier_alpha"
        assert rows[0]["status"] == "Converged"

    def test_a_cap_at_or_past_the_matrix_size_is_no_cap(self):
        # size 601: caps 601 and 602 used to classify (601: "classification
        # undetermined") or gate at the cap (602: "minimum 602"); a cap
        # below the size still lowers the gate to 64
        cfg = _cfg(experiments=[{
            "label": "cap%d" % cap,
            "model": {
                "kind": "matrix", "dimension": 1, "halfwidth": 300,
                "coefficients": {"0": 2.0, "1": 0.5, "-1": 0.5},
                "max_checkpoint": cap,
            },
            "methods": ["dixmier"],
        } for cap in (601, 602, 5000, 63)])
        rows, _ = cli.run_experiment(cli.parse_config(cfg))
        assert [(r["status"], r["notes"]) for r in rows] == [
            ("Undetermined", "head only; horizon 601 below policy "
             "minimum 1024")] * 3 + [
            ("Undetermined", "head only; horizon 63 below policy minimum 64")]

    def test_failed_certificate_exits_five(self, tmp_path, capsys,
                                           monkeypatch):
        def uncertified(op):
            raise models.CertificateError("residual 1e-3 exceeds bound")

        monkeypatch.setattr(models, "singular_values", uncertified)
        cfg = _cfg(experiments=[{
            "label": "cosine",
            "model": {
                "kind": "matrix", "dimension": 1, "halfwidth": 8,
                "coefficients": {"0": 2.0, "1": 0.5, "-1": 0.5},
            },
            "methods": ["dixmier"],
        }])
        code = cli.main(["--config", self._write(tmp_path, cfg)])
        captured = capsys.readouterr()
        assert code == 5
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert captured.err.strip().splitlines() == [
            "error: numerical certificate failed: "
            "residual 1e-3 exceeds bound"
        ]

    def test_band_certificate_failure_exits_five(self, tmp_path, capsys,
                                                  monkeypatch):
        eig_banded = models.linalg.eig_banded

        def corrupted(*args, **kwargs):
            lam = eig_banded(*args, **kwargs)
            lam[-3] += 1e-6 * lam[-1]
            return lam

        monkeypatch.setattr(models.linalg, "eig_banded", corrupted)
        cfg = _cfg(experiments=[{
            "label": "cosine",
            "model": {
                "kind": "matrix", "dimension": 1, "halfwidth": 300,
                "coefficients": {"0": 2.0, "1": 0.5, "-1": 0.5},
            },
            "methods": ["dixmier"],
        }])
        code = cli.main(["--config", self._write(tmp_path, cfg)])
        captured = capsys.readouterr()
        assert code == 5
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: numerical certificate failed: "
                                   "singular value residual")

    def test_sequence_file_kind(self, tmp_path, capsys):
        data = 1.0 / np.arange(1.0, 4097.0)
        seq_path = tmp_path / "seq.txt"
        np.savetxt(seq_path, data)
        cfg = _cfg(experiments=[{
            "label": "fromfile",
            "model": {"kind": "sequence_file", "path": str(seq_path)},
            "methods": ["dixmier"],
        }])
        code = cli.main(["--config", self._write(tmp_path, cfg)])
        out = capsys.readouterr().out
        assert code == 0
        assert "fromfile" in out

    @pytest.mark.parametrize("name,text", [
        ("empty", ""),
        ("nan", "1.0\nnan\n0.5\n"),
        ("inf", "inf\n1.0\n"),
        ("increasing", "0.5\n1.0\n"),
        ("negative", "1.0\n-0.5\n"),
        ("non-numeric", "1.0\nabc\n"),
        ("two-column", "1.0 0.5\n0.5 0.25\n"),
        ("missing", None),
    ])
    def test_bad_sequence_file_exits_four(self, tmp_path, capsys, name,
                                          text):
        seq_path = tmp_path / ("%s.txt" % name)
        if text is not None:
            seq_path.write_text(text, encoding="utf-8")
        cfg = _cfg(experiments=[
            {"label": "fine", "model": {"kind": "harmonic",
                                        "horizon": 1024}},
            {"label": "fromfile",
             "model": {"kind": "sequence_file", "path": str(seq_path)}},
        ])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["--config", self._write(tmp_path, cfg)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert "experiments[1].model.path: %s" % seq_path in captured.err
        # every model is built before the harmonic one runs a method
        assert "# fine/" not in captured.err
        assert [str(w.message) for w in caught] == []


class TestDeterminism:
    def test_double_runs_are_byte_identical(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(_cfg()), encoding="utf-8")
        outs = []
        for i in range(2):
            out = tmp_path / ("r%d.csv" % i)
            r = subprocess.run(
                [sys.executable, "-m", "dixlab", "--config", str(cfg),
                 "--out", str(out)],
                capture_output=True, text=True,
            )
            assert r.returncode == 0, r.stderr
            assert "RuntimeWarning" not in r.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert b"\r" not in outs[0]
        outs[0].decode("utf-8")

    @pytest.mark.parametrize("model,problem", [
        ({"kind": "power_log", "coeff": 1.0, "power": 1.0,
          "log_power": 500}, "values must be finite"),
        ({"kind": "torus", "dimension": 2, "cutoff_radius": 50,
          "operator_power": math.inf}, "experiments[0].model.operator_power"),
        ({"kind": "matrix", "dimension": 1, "halfwidth": 8,
          "coefficients": {"0": 2.0, "1": 0.5, "-1": 0.5},
          "operator_power": -1.0}, "experiments[0].model.operator_power"),
        ({"kind": "harmonic", "coeff": -1},
         "experiments[0].model.coeff: tail coeff must be positive"),
        ({"kind": "power_log", "coeff": 1.0, "power": math.inf,
          "log_power": 0.0},
         "experiments[0].model.power: tail power must be positive and finite"),
    ])
    def test_rejected_numbers_exit_four_without_warnings(self, tmp_path,
                                                         model, problem):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(_cfg(experiments=[{"model": model}])),
                       encoding="utf-8")
        r = subprocess.run(
            [sys.executable, "-m", "dixlab", "--config", str(cfg)],
            capture_output=True, text=True,
        )
        assert r.returncode == 4
        assert r.stdout == ""
        assert "Warning" not in r.stderr and "Traceback" not in r.stderr
        lines = r.stderr.splitlines()
        assert [line for line in lines if line.startswith("error:")] == (
            lines[:1])
        assert problem in r.stderr

    def test_json_and_csv_agree_across_runs(self, tmp_path):
        cfg = cli.parse_config(_cfg())
        rows1, _ = cli.run_experiment(cfg)
        rows2, _ = cli.run_experiment(cfg)
        assert cli.emit_report(rows1, "json") == cli.emit_report(rows2,
                                                                 "json")


# run in a fresh interpreter: pytest itself has loaded scipy.integrate
# (tests/oracles.py reads it), so only a subprocess sees what the package
# loads
_NO_INTEGRATE = """
import contextlib, io, json, sys
import dixlab
from dixlab import cli

def integrate_modules():
    return [m for m in sys.modules
            if m.split(".")[:2] == ["scipy", "integrate"]]

seen = {"import": integrate_modules()}
out = io.StringIO()
with contextlib.redirect_stdout(out), \
        contextlib.redirect_stderr(io.StringIO()):
    seen["code"] = cli.main(["--config", sys.argv[1]])
seen["rows"] = out.getvalue().count("\\n") - 1
seen["run"] = integrate_modules()
print(json.dumps(seen))
"""


def test_no_run_loads_scipy_integrate(tmp_path):
    # one model per kind whose tail closures reach the quadrature: a log
    # factor in the power-log tail, the oscillator's continuum
    models = [
        {"kind": "harmonic", "horizon": 1024},
        {"kind": "power_log", "coeff": 1.0, "power": 1.2, "log_power": 0.5,
         "horizon": 64},
        {"kind": "oscillator", "horizon": 1024},
        {"kind": "torus", "dimension": 2, "cutoff_radius": 20},
        {"kind": "matrix", "dimension": 1, "halfwidth": 32,
         "coefficients": {"0": 2.0, "1": 0.5, "-1": 0.5}},
    ]
    methods = ["dixmier", "zeta", "heat_raw", "heat_cesaro"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_cfg(experiments=[
        {"label": m["kind"], "model": m, "methods": methods}
        for m in models])), encoding="utf-8")
    r = subprocess.run([sys.executable, "-c", _NO_INTEGRATE, str(cfg)],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    seen = json.loads(r.stdout)
    assert seen["code"] in (0, 2)
    assert seen["rows"] == len(models) * len(methods)
    assert seen["import"] == [] and seen["run"] == []
