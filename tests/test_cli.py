import json
import time

import numpy as np
import pytest

from scatterlab import born, cli, diagnostics, partialwave


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


class TestValidation:
    def test_unknown_top_level_key(self, tmp_path, capsys):
        path = write_config(tmp_path, {"experiment": "phaseshift",
                                       "potentail": {"kind": "zero"}})
        assert cli.run(path) == 2
        assert "potentail" in capsys.readouterr().err

    def test_unknown_param_key(self, tmp_path, capsys):
        path = write_config(tmp_path, {"experiment": "phaseshift",
                                       "params": {"l_mx": 3}})
        assert cli.run(path) == 2
        assert "l_mx" in capsys.readouterr().err

    def test_bad_experiment(self, tmp_path):
        path = write_config(tmp_path, {"experiment": "teleport"})
        assert cli.run(path) == 2

    def test_missing_file(self, tmp_path):
        assert cli.run(str(tmp_path / "nope.json")) == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.run(str(path)) == 2

    def test_potential_value_beyond_float_range(self, tmp_path, capsys):
        # JSON integers are unbounded; float() of this one overflows
        path = tmp_path / "config.json"
        path.write_text('{"experiment": "phaseshift", "potential": '
                        '{"kind": "gaussian_well", "v0": -1' + "0" * 400 + '}}')
        assert cli.run(str(path), out_dir=str(tmp_path / "out")) == 2
        assert "config error at potential" in capsys.readouterr().err

    def test_schema_is_valid_jsonschema(self):
        import jsonschema
        jsonschema.Draft202012Validator.check_schema(cli.SCHEMA)


class TestRun:
    def test_phaseshift_zero_potential(self, tmp_path):
        path = write_config(tmp_path, {
            "experiment": "phaseshift",
            "potential": {"kind": "zero"},
            "params": {"k": 1.0, "l_max": 4}})
        out = tmp_path / "out"
        assert cli.run(path, out_dir=str(out)) == 0
        lines = (out / "result.csv").read_text().splitlines()
        assert lines[0].startswith("# scatterlab phaseshift config_sha256=")
        assert lines[1] == "k,l,delta,re_s,im_s"
        data = np.array([[float(v) for v in ln.split(",")]
                         for ln in lines[2:]])
        assert np.all(data[:, 2] == 0.0)      # all shifts zero
        assert np.all(data[:, 3] == 1.0)      # S = 1

    def test_reproducible_csv(self, tmp_path):
        cfg = {"experiment": "born",
               "potential": {"kind": "yukawa", "v0": 0.1, "width": 1.0},
               "params": {"k_values": [1.0, 2.0], "theta": 1.0},
               "seed": 11}
        path = write_config(tmp_path, cfg)
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.run(path, out_dir=str(a)) == 0
        assert cli.run(path, out_dir=str(b)) == 0
        assert (a / "result.csv").read_bytes() == (b / "result.csv").read_bytes()

    def test_provenance_block(self, tmp_path):
        path = write_config(tmp_path, {
            "experiment": "diagnose",
            "potential": {"kind": "gaussian_well", "v0": -1.0},
            "params": {"check": "hs", "c": 1.0}})
        out = tmp_path / "out"
        assert cli.run(path, out_dir=str(out)) == 0
        record = json.loads((out / "result.json").read_text())
        prov = record["provenance"]
        assert prov["package"] == "scatterlab"
        assert "config_sha256" in prov and "flags" in prov

    def test_strict_mode_flags_exit_3(self, tmp_path):
        # r = 0.25 LAP probe raises the not-stable flag
        path = write_config(tmp_path, {
            "experiment": "diagnose",
            "potential": {"kind": "zero"},
            "params": {"check": "lap", "lam": 1.0, "r": 0.25,
                       "epsilons": [1e-1, 3e-2, 1e-2]}})
        out = tmp_path / "out"
        assert cli.run(path, out_dir=str(out)) == 0
        assert cli.run(path, strict=True, out_dir=str(out)) == 3
        record = json.loads((out / "result.json").read_text())
        assert "lap_not_stable" in record["provenance"]["flags"]

    def test_amplitude_angle_out_of_range(self, tmp_path):
        path = write_config(tmp_path, {
            "experiment": "amplitude",
            "potential": {"kind": "gaussian_well", "v0": -1.0},
            "params": {"k": 1.0, "l_max": 5, "thetas": [4.0]}})
        out = tmp_path / "out"
        assert cli.run(path, out_dir=str(out)) == 2
        assert not (out / "result.json").exists()

    def test_non_radial_model_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "experiment": "phaseshift",
            "potential": {"kind": "gaussian_well", "v0": -1.0,
                          "radial": False}})
        out = tmp_path / "out"
        assert cli.run(path, out_dir=str(out)) == 2
        assert "radial" in capsys.readouterr().err
        assert not (out / "result.json").exists()

    def test_acceptance_subset(self, tmp_path):
        path = write_config(tmp_path, {
            "experiment": "acceptance",
            "params": {"criteria": [1, 11]}})
        out = tmp_path / "out"
        assert cli.run(path, out_dir=str(out)) == 0
        record = json.loads((out / "result.json").read_text())
        assert all(r["passed"] for r in record["extra"]["results"])

    def test_main_schema_command(self, capsys):
        assert cli.main(["schema"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["properties"]["experiment"]["enum"][0] == "phaseshift"


class TestReflection:
    """A packet that reaches the grid edge ends in exit 2, not a traceback."""

    def _assert_reflection(self, tmp_path, capsys, config):
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert cli.run(path, out_dir=str(out)) == 2
        assert "config error: reflection:" in capsys.readouterr().err
        assert not (out / "result.json").exists()

    def test_moller_small_grid(self, tmp_path, capsys):
        self._assert_reflection(tmp_path, capsys, {
            "experiment": "moller",
            "potential": {"kind": "gaussian_well", "v0": -1.0},
            "params": {"n": 64}})

    def test_kato_small_grid(self, tmp_path, capsys):
        self._assert_reflection(tmp_path, capsys, {
            "experiment": "diagnose",
            "params": {"check": "kato", "n": 64, "T_values": [25.0, 50.0]}})


class TestTypedErrors:
    """Numerical failures on inputs the schema admits end in exit 2 with a
    typed message, not a traceback."""

    def _assert_typed(self, tmp_path, capsys, config, prefix):
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert cli.run(path, out_dir=str(out)) == 2
        assert f"config error: {prefix}" in capsys.readouterr().err
        assert not (out / "result.json").exists()

    def test_born_long_range_tail(self, tmp_path, capsys):
        self._assert_typed(tmp_path, capsys, {
            "experiment": "born",
            "potential": {"kind": "power_tail", "v0": 0.5, "rho": 0.5},
            "params": {"k": 2.0}}, "convergence: ")

    @pytest.mark.parametrize("error,prefix", [
        (partialwave.NumericalError, "numerical: "),
        (born.ConvergenceError, "convergence: "),
        (diagnostics.WindowError, "window: "),
        (diagnostics.ResonanceProximityError, "resonance proximity: "),
    ])
    def test_error_type_named(self, tmp_path, capsys, monkeypatch, error, prefix):
        def fail(model, params, seed):
            raise error("injected")

        monkeypatch.setitem(cli.RUNNERS, "phaseshift", fail)
        self._assert_typed(tmp_path, capsys, {"experiment": "phaseshift"},
                           prefix + "injected")

    def test_phaseshift_long_range_tail_rejected_at_once(self, tmp_path, capsys):
        start = time.perf_counter()
        self._assert_typed(tmp_path, capsys, {
            "experiment": "phaseshift",
            "potential": {"kind": "power_tail", "v0": 0.5, "rho": 0.9}}, "")
        assert time.perf_counter() - start < 1.0
