import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from scatterlab import (acceptance, born, cli, diagnostics, eikonal, entry,
                        partialwave, propagator)

ROOT = Path(__file__).resolve().parents[1]


def _no_constant(name):
    raise ValueError(f"result.json holds {name}, which strict JSON rejects")


@pytest.fixture(autouse=True)
def strict_result_json(monkeypatch):
    """Every result.json a CLI run here writes parses as strict JSON."""
    write = cli._write_outputs

    def checked(*args, **kwargs):
        csv_path, json_path = write(*args, **kwargs)
        with open(json_path, encoding="utf-8") as fh:
            json.load(fh, parse_constant=_no_constant)
        return csv_path, json_path

    monkeypatch.setattr(cli, "_write_outputs", checked)


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

    def test_highenergy_floor_slope_is_null(self, tmp_path):
        # every error lies under the floor at N = 0, so no slope is fitted
        path = write_config(tmp_path, {
            "experiment": "highenergy",
            "potential": {"kind": "gaussian_well"},
            "params": {"N": 0}})
        out = tmp_path / "out"
        assert cli.run(path, out_dir=str(out)) == 0
        record = json.loads((out / "result.json").read_text())
        assert record["provenance"]["flags"] == ["error_floor"]
        assert record["extra"]["floor_warning"] is True
        assert record["extra"]["slope"] is None

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

    def test_acceptance_values_at_full_precision(self, tmp_path):
        path = write_config(tmp_path, {
            "experiment": "acceptance", "params": {"criteria": [4]}})
        out = tmp_path / "out"
        assert cli.run(path, out_dir=str(out)) == 0

        def refuse(token):   # NaN must be written as null
            raise AssertionError(f"non-JSON constant {token}")

        record = json.loads((out / "result.json").read_text(),
                            parse_constant=refuse)
        [c4] = record["extra"]["results"]
        values, measured = c4["values"], c4["measured"]
        assert set(values) == {"errors_N0", "errors_N1", "slope_N0", "slope_N1"}
        for key in ("errors_N0", "errors_N1"):
            assert len(values[key]) == 4
            assert np.array2string(np.array(values[key]), precision=2) == measured[key]
        for key in ("slope_N0", "slope_N1"):
            slope = np.nan if values[key] is None else values[key]
            assert f"{slope:.3g}" == measured[key]

    def test_acceptance_complex_values_as_pairs(self, tmp_path):
        path = write_config(tmp_path, {
            "experiment": "acceptance", "params": {"criteria": [10]}})
        out = tmp_path / "out"
        assert cli.run(path, out_dir=str(out)) == 0
        [c10] = json.loads((out / "result.json").read_text())["extra"]["results"]
        values, measured = c10["values"], c10["measured"]
        assert set(values) == {"s_time", "s_stat", "diff"}
        for key in ("s_time", "s_stat"):
            re, im = values[key]
            assert acceptance._fmt(complex(re, im)) == measured[key]
        assert f"{values['diff']:.3g}" == measured["diff"]

    def test_main_schema_command(self, capsys):
        assert cli.main(["schema"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["properties"]["experiment"]["enum"][0] == "phaseshift"

    @pytest.mark.parametrize("reliable,flags", [
        ((True, False), ["criterion_15_unreliable"]),
        ((True, True), []),
    ])
    def test_acceptance_flags_unreliable_probe(self, tmp_path, monkeypatch,
                                               reliable, flags):
        # a stub in place of the 36 s C15 probe
        monkeypatch.setitem(acceptance.CRITERIA, 15, lambda: acceptance.CriterionResult(
            15, "diagonal-singularity probe", True, "informational",
            {"reliable_rho0.75": reliable[0], "reliable_rho1.0": reliable[1]}))
        path = write_config(tmp_path, {
            "experiment": "acceptance", "params": {"criteria": [15]}})
        out = tmp_path / "out"
        assert cli.run(path, out_dir=str(out)) == 0
        record = json.loads((out / "result.json").read_text())
        assert record["provenance"]["flags"] == flags


class TestThreadCap:
    """SCATTERLAB_THREADS reaches the BLAS/OpenMP variables before numpy
    loads, which is when the thread pools read them."""

    SPY = (
        "import json, os, sys\n"
        "seen = {}\n"
        "class Spy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy' and not seen:\n"
        "            seen.update({v: os.environ.get(v) for v in VARS})\n"
        "sys.meta_path.insert(0, Spy())\n"
        "from scatterlab import entry\n"
        "VARS = entry.THREAD_VARS\n"
        "assert 'numpy' not in sys.modules\n"
        "assert entry.main(['schema']) == 0\n"
        "sys.stderr.write(json.dumps(seen))\n")

    def test_variables_set_before_numpy_loads(self):
        env = {k: v for k, v in os.environ.items() if k not in entry.THREAD_VARS}
        env["SCATTERLAB_THREADS"] = "3"
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        proc = subprocess.run([sys.executable, "-c", self.SPY], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stderr) == {v: "3" for v in entry.THREAD_VARS}

    def test_console_script_uses_entry(self):
        tomllib = pytest.importorskip("tomllib")
        meta = tomllib.loads((ROOT / "pyproject.toml").read_text())
        assert meta["project"]["scripts"]["scatterlab"] == "scatterlab.entry:main"


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

    @pytest.mark.parametrize("params", [
        {"check": "lap", "epsilons": [0.1]},
        {"check": "kato", "T_values": [5.0]},
    ], ids=["lap", "kato"])
    def test_single_entry_list_rejected(self, tmp_path, capsys, params):
        # the schema admits one entry; both verdicts compare the last two
        self._assert_typed(tmp_path, capsys, {
            "experiment": "diagnose", "params": params}, "")

    @pytest.mark.parametrize("params", [
        '"check": "lap", "lam": 1e309',
        '"check": "lap", "epsilons": [1e309, 0.1]',
        '"check": "kato", "T_values": [5.0, 1e309]',
    ], ids=["lap-lam", "lap-eps", "kato"])
    def test_overflowing_number_rejected(self, tmp_path, capsys, params):
        # JSON 1e309 parses to inf, which the schema admits as a number
        path = tmp_path / "config.json"
        path.write_text('{"experiment": "diagnose", "params": {' + params + '}}')
        out = tmp_path / "out"
        assert cli.run(str(path), out_dir=str(out)) == 2
        assert "finite" in capsys.readouterr().err
        assert not (out / "result.json").exists()

    @pytest.mark.parametrize("config", [
        {"experiment": "diagnose",
         "params": {"check": "kato", "T_values": [10.0, 1e10]}},
        {"experiment": "propagate",
         "potential": {"kind": "gaussian_well", "v0": -1.0},
         "params": {"T": 1e9}},
    ], ids=["kato", "propagate"])
    def test_work_bounded_before_any_transform(self, tmp_path, capsys,
                                               monkeypatch, config):
        # 1e10 Kato samples or 5e10 Strang steps of 8192 points each
        def no_dft(*args, **kwargs):
            raise AssertionError("transformed a packet for a refused run")

        monkeypatch.setattr(propagator, "dft", no_dft)
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert cli.run(path, out_dir=str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "MAX_POINT_STEPS" in err
        assert not (out / "result.json").exists()

    def test_s0_outside_cap_rejected_before_tables(self, tmp_path, capsys,
                                                   monkeypatch):
        def no_tables(*args, **kwargs):
            raise AssertionError("s0 tables built for a rejected pair")

        monkeypatch.setattr(eikonal, "s0_solutions", no_tables)
        self._assert_typed(tmp_path, capsys, {
            "experiment": "s0",
            "potential": {"kind": "gaussian_well", "v0": -1.0},
            "params": {"lam": 64.0, "N": 1, "thetas": [np.deg2rad(130.0)]}},
            "directions must lie in the cap around omega0")

    def test_eikonal_on_yukawa_rejected(self, tmp_path, capsys):
        # the phi_1 anchor's reference ray int_0^inf v runs through the core
        self._assert_typed(tmp_path, capsys, {
            "experiment": "eikonal",
            "potential": {"kind": "yukawa", "v0": 0.5, "width": 0.3},
            "params": {"N0": 1, "N": 1}}, "the line passes through the yukawa")

    def test_modified_moller_on_yukawa_rejected(self, tmp_path, capsys):
        # int_0 v dr diverges for the 1/r core, so the Dollard phase does too
        self._assert_typed(tmp_path, capsys, {
            "experiment": "moller",
            "potential": {"kind": "yukawa", "v0": 0.5, "width": 0.3},
            "params": {"n": 512, "times": [5.0, 10.0, 20.0],
                       "modified": True}}, "Xi term diverges")

    def test_phaseshift_long_range_tail_rejected_at_once(self, tmp_path, capsys):
        start = time.perf_counter()
        self._assert_typed(tmp_path, capsys, {
            "experiment": "phaseshift",
            "potential": {"kind": "power_tail", "v0": 0.5, "rho": 0.9}}, "")
        assert time.perf_counter() - start < 1.0
