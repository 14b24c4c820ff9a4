import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from scatterlab import (_cyl, acceptance, born, cli, diagnostics, eikonal,
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
        err = capsys.readouterr().err
        assert "config error: at potential: " in err and err.count("config error") == 1

    def test_param_l_refused(self, tmp_path, capsys):
        # no runner reads a single channel l; phaseshift takes l_max
        path = write_config(tmp_path, {"experiment": "phaseshift",
                                       "params": {"l": 2}})
        assert cli.run(path) == 2
        assert "'l'" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment", ["propagate", "moller"])
    def test_param_dt_refused(self, tmp_path, capsys, experiment):
        # both evolve by chebyshev_evolve, which is exact in time and takes
        # no step size
        path = write_config(tmp_path, {"experiment": experiment,
                                       "params": {"dt": 0.02}})
        out = tmp_path / "out"
        assert cli.run(path, out_dir=str(out)) == 2
        assert ("config error: at params: Additional properties are not "
                "allowed ('dt' was unexpected)") in capsys.readouterr().err
        assert not (out / "result.json").exists()

    @pytest.mark.parametrize("experiment,params,message", [
        ("phaseshift", {"k": 1.0, "k_values": [1.0, 2.0]},
         "k and k_values exclude each other"),
        ("born", {"k": 1.0, "k_values": [1.0]}, "k and k_values exclude each other"),
        ("born", {"theta": 1.0, "thetas": [1.0, 2.0]},
         "theta and thetas exclude each other"),
        # s0 reads thetas only, so theta is a foreign key there
        ("s0", {"theta": 0.2, "thetas": [0.3]},
         "Additional properties are not allowed ('theta' was unexpected)"),
    ], ids=["phaseshift-k", "born-k", "born-theta", "s0-theta"])
    def test_value_beside_its_list_refused(self, tmp_path, capsys, experiment,
                                           params, message):
        # the runners read the list, so the single value would be dropped
        path = write_config(tmp_path, {"experiment": experiment, "params": params})
        out = tmp_path / "out"
        assert cli.run(path, out_dir=str(out)) == 2
        err = capsys.readouterr().err
        assert f"config error: at params: {message}" in err
        assert not (out / "result.json").exists()

    def test_schema_is_valid_jsonschema(self):
        import jsonschema
        jsonschema.Draft202012Validator.check_schema(cli.SCHEMA)

    @pytest.mark.parametrize("config", [
        {"experiment": "phaseshift", "potential": {"kind": "teleport"},
         "seed": -1, "params": {"l_max": "x"}},
        {"experiment": "diagnose", "params": {"check": "kato", "r": -1.0,
                                              "c": 1.0}},
        {"experiment": "s0", "params": [0.3]},
        [],
    ], ids=["params-first", "diagnose-check", "params-not-object", "not-object"])
    def test_first_error_is_the_whole_schemas(self, config):
        # params are validated apart from the rest of the config; the error
        # reported is still the first by path against the whole SCHEMA
        import jsonschema
        errors = jsonschema.Draft202012Validator(cli.SCHEMA).iter_errors(config)
        first = min(errors, key=lambda e: list(e.path))
        where = "/".join(str(p) for p in first.path) or "<root>"
        with pytest.raises(cli.ConfigError) as exc:
            cli.validate_config(config)
        assert str(exc.value) == f"at {where}: {first.message}"


def _entries():
    """(experiment, check or None, parameters) of each entry of the table."""
    for name, entry in cli.EXPERIMENTS.items():
        if name == "diagnose":
            for check, (_, props) in entry.items():
                yield name, check, props
        else:
            yield name, None, entry[1]


ENTRIES = list(_entries())
ENTRY_IDS = [check or name for name, check, _ in ENTRIES]

# the parameters each experiment and check runs with when a config gives none
# (moller, for one, runs for 320 time units on 8192 points)
DEFAULTS = {
    "phaseshift": {"k_values": [1.0], "l_max": 10},
    "amplitude": {"k": 1.0, "l_max": 20,
                  "thetas": list(np.linspace(0.1, np.pi, 30))},
    "born": {"k_values": [1.0], "thetas": [np.pi / 2]},
    "highenergy": {"lambdas": [25.0, 50.0, 100.0, 200.0], "theta": np.pi / 2,
                   "N": 0},
    "eikonal": {"xi_norm": 5.0, "N": 2},
    "s0": {"lam": 100.0, "N": 3, "thetas": list(np.deg2rad([10, 20, 30]))},
    "propagate": {"n": 8192, "dx": 0.65, "sigma": 6.0, "k": 2.0,
                  "center": 0.0, "T": 10.0},
    "moller": {"times": [20.0, 40.0, 80.0, 160.0, 320.0], "sigma": 6.0,
               "k": 2.0, "n": 8192, "dx": 0.65, "modified": False},
    "hs": {"check": "hs", "c": 1.0},
    "kato": {"check": "kato", "r": 1.0, "T_values": [25.0, 50.0, 100.0, 200.0],
             "n": 8192, "dx": 0.65, "k": 2.0, "sigma": 1.0},
    "mourre": {"check": "mourre", "window": [1.0, 2.0], "n": 1024},
    "lap": {"check": "lap", "lam": 1.0, "r": 1.0,
            "epsilons": [0.1, 0.03, 0.01, 0.003]},
    "acceptance": {"criteria": list(range(1, 16))},
}


def _named_check(check):
    """The params that select a check: none for hs, which runs by default."""
    return {"check": check} if check not in (None, "hs") else {}


def _sample(key):
    """A value that an entry reading `key` admits: a default, or else 1."""
    return next((props[key]["default"] for _, _, props in ENTRIES
                 if "default" in props.get(key, {})), 1)


class TestExperimentTable:
    """Each experiment (and diagnose check) admits the keys its entry lists,
    runs with that entry's defaults and records them in result.json."""

    @pytest.mark.parametrize("experiment,check,props", ENTRIES, ids=ENTRY_IDS)
    def test_foreign_keys_refused(self, tmp_path, capsys, experiment, check,
                                  props):
        # each key that another entry reads, one at a time
        foreign = sorted({key for _, _, other in ENTRIES for key in other}
                         - set(props))
        assert foreign
        for key in foreign:
            params = {**({"check": check} if check else {}), key: _sample(key)}
            path = write_config(tmp_path, {"experiment": experiment,
                                           "params": params})
            out = tmp_path / key
            assert cli.run(path, out_dir=str(out)) == 2, key
            err = capsys.readouterr().err
            assert err.startswith("config error: at params: ") and f"'{key}'" in err
            assert not (out / "result.json").exists()

    @pytest.mark.parametrize("experiment,params,foreign", [
        ("phaseshift", {"times": [1.0, 2.0], "N": 2, "window": [1.0, 2.0],
                        "check": "hs"}, ["times", "N", "window", "check"]),
        ("diagnose", {"T_values": [1.0, 2.0]}, ["T_values"]),
        ("diagnose", {"check": "mourre", "r": 1.0}, ["r"]),
    ], ids=["phaseshift", "diagnose-default-check", "mourre"])
    def test_keys_the_run_never_reads_refused(self, tmp_path, capsys,
                                              experiment, params, foreign):
        path = write_config(tmp_path, {"experiment": experiment, "params": params})
        out = tmp_path / "out"
        assert cli.run(path, out_dir=str(out)) == 2
        err = capsys.readouterr().err
        assert all(f"'{key}'" in err for key in foreign)
        assert not (out / "result.json").exists()

    def test_unknown_check_refused(self, tmp_path, capsys):
        path = write_config(tmp_path, {"experiment": "diagnose",
                                       "params": {"check": "weyl"}})
        assert cli.run(path, out_dir=str(tmp_path / "out")) == 2
        assert "at params/check: 'weyl' is not one of" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment,check,props", ENTRIES, ids=ENTRY_IDS)
    def test_resolver_fills_the_defaults(self, experiment, check, props):
        runner, params = cli.resolve(experiment, _named_check(check))
        assert params == DEFAULTS[check or experiment]
        assert runner.__name__.startswith("_run_")

    def test_resolver_casts_numbers_and_lists_a_lone_value(self):
        _, params = cli.resolve("born", {"k": 2, "thetas": [1, 0.5]})
        assert params == {"k_values": [2.0], "thetas": [1.0, 0.5]}
        assert all(type(x) is float for x in params["k_values"] + params["thetas"])
        _, params = cli.resolve("diagnose", {"check": "mourre", "n": 64,
                                             "window": [1, 2]})
        assert params == {"check": "mourre", "n": 64, "window": [1.0, 2.0]}
        assert type(params["n"]) is int

    def test_schema_command_shows_every_default(self, capsys):
        assert cli.main(["schema"]) == 0
        printed = json.loads(capsys.readouterr().out)
        for experiment, check, props in ENTRIES:
            [shown] = [b["then"]["properties"]["params"] for b in printed["allOf"]
                       if b["if"]["properties"]["experiment"]["const"] == experiment]
            if check:
                [shown] = [b["then"] for b in shown["allOf"]
                           if b["if"]["properties"]["check"]["const"] == check]
            assert set(shown["properties"]) == set(props)
            given = _named_check(check)
            _, params = cli.resolve(experiment, given)
            for key in params.keys() - given.keys():
                assert shown["properties"][key]["default"] == params[key], key

    @pytest.mark.parametrize("config,params", [
        ({"experiment": "phaseshift", "params": {"k": 2, "l_max": 3}},
         {"k_values": [2.0], "l_max": 3}),
        ({"experiment": "diagnose",
          "potential": {"kind": "gaussian_well", "v0": -1.0}},
         {"check": "hs", "c": 1.0}),
    ], ids=["phaseshift", "diagnose"])
    def test_result_json_records_resolved_params(self, tmp_path, config, params):
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert cli.run(path, out_dir=str(out)) == 0
        record = json.loads((out / "result.json").read_text())
        assert record["input"] == config
        assert record["params"] == params
        assert record["extra"] == {}


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

    def test_propagate_state_is_the_chebyshev_evolution(self):
        # bit for bit chebyshev_evolve(f0, model, T), at the benchmark's
        # gaussian_well setting (n 4096, T 2)
        model = cli._model({"potential": {"kind": "gaussian_well", "v0": -1.0}})
        runner, params = cli.resolve("propagate", {"n": 4096, "T": 2.0})
        _, rows, extra, flags = runner(model, params, 0)
        f0 = propagator.gaussian_packet(n=4096, dx=0.65, center=0.0, k0=2.0,
                                        sigma=6.0)
        out = propagator.chebyshev_evolve(f0, model, 2.0)
        assert rows == [[x, v.real, v.imag]
                        for x, v in zip(out.grid[::4], out.values[::4])]
        assert extra == {"norm": out.norm(), "edge_mass": out.edge_mass()}
        assert flags == []

    def test_default_moller_increments_vanish(self):
        # the default config has no potential, so H = H0 and every gap of
        # the probe is the exact free multiply: the increments are roundoff
        model = cli._model({})
        runner, params = cli.resolve("moller", {})
        _, rows, extra, flags = runner(model, params, 0)
        assert len(rows) == 4 and max(inc for _, inc in rows) < 1e-14
        assert extra["verdict"] == "converging" and flags == []

    def test_default_born_on_a_kind_is_zero(self, tmp_path):
        # v0 defaults to 0, so the amplitude is 0 on every kind; a
        # gaussian_well exited 2 with a convergence error
        path = write_config(tmp_path, {"experiment": "born",
                                       "potential": {"kind": "gaussian_well"}})
        out = tmp_path / "out"
        assert cli.run(path, out_dir=str(out)) == 0
        lines = (out / "result.csv").read_text().splitlines()
        assert lines[1:] == ["k,theta,re_a_born,im_a_born",
                             f"1.0,{np.pi / 2!r},0.0,0.0"]

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

    def test_lap_step_cap_flags_exit_3(self, tmp_path, monkeypatch):
        # a power iteration cut at the step cap is reported, not hidden
        path = write_config(tmp_path, {
            "experiment": "diagnose",
            "potential": {"kind": "zero"},
            "params": {"check": "lap", "lam": 1.0, "r": 1.0,
                       "epsilons": [3e-3, 1e-3]}})
        out = tmp_path / "out"
        assert cli.run(path, strict=True, out_dir=str(out)) == 0
        record = json.loads((out / "result.json").read_text())
        assert record["extra"]["converged"] is True
        assert record["provenance"]["flags"] == []
        monkeypatch.setattr(diagnostics, "_POWER_STEPS", 2)
        assert cli.run(path, out_dir=str(out)) == 0
        assert cli.run(path, strict=True, out_dir=str(out)) == 3
        record = json.loads((out / "result.json").read_text())
        assert "lap_not_converged" in record["provenance"]["flags"]
        assert record["extra"]["converged"] is False
        assert record["extra"]["solves"] == 2 * 2 * 2 * 2

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

    @pytest.mark.parametrize("lambdas", [[32.0, 16.0, 8.0, 4.0],
                                         [4.0, 32.0, 8.0, 16.0]],
                             ids=["descending", "shuffled"])
    def test_highenergy_energies_in_any_order(self, tmp_path, lambdas):
        # the span is max / min and the fit does not depend on the order:
        # the same rows, slope and floor flag as the ascending run
        def run(lams, name):
            path = write_config(tmp_path, {
                "experiment": "highenergy",
                "potential": {"kind": "gaussian_well", "v0": -1.0},
                "params": {"lambdas": lams, "N": 1}}, f"{name}.json")
            out = tmp_path / name
            assert cli.run(path, out_dir=str(out)) == 0
            rows = (out / "result.csv").read_text().splitlines()[2:]
            return json.loads((out / "result.json").read_text()), rows

        (want, want_rows), (got, got_rows) = (run(sorted(lambdas), "ascending"),
                                              run(lambdas, "given"))
        assert sorted(got_rows) == sorted(want_rows)
        assert got["provenance"]["flags"] == want["provenance"]["flags"] == []
        assert got["extra"]["floor_warning"] is want["extra"]["floor_warning"] is False
        assert got["extra"]["slope"] == pytest.approx(want["extra"]["slope"], rel=1e-12)

    def test_s0_at_an_energy_off_its_square_root(self, tmp_path):
        # sqrt(63)^2 != 63 in floating point: the S0 solutions carry
        # sqrt(lam), and the kernel reads it from them
        assert np.sqrt(63.0) ** 2 != 63.0
        path = write_config(tmp_path, {
            "experiment": "s0",
            "potential": {"kind": "gaussian_well", "v0": -1.0},
            "params": {"lam": 63.0, "N": 1, "thetas": [0.2, 0.4]}})
        out = tmp_path / "out"
        assert cli.run(path, out_dir=str(out)) == 0
        lines = (out / "result.csv").read_text().splitlines()
        assert lines[1] == "theta,re_s0,im_s0,sensitivity,converged"
        data = np.array([[float(v) for v in ln.split(",")] for ln in lines[2:]])
        assert data.shape == (2, 5) and np.all(np.isfinite(data))

    def test_amplitude_integer_and_forward_angles(self, tmp_path):
        # integer angles are written as floats; theta = 0 is the forward
        # amplitude
        path = write_config(tmp_path, {
            "experiment": "amplitude",
            "potential": {"kind": "gaussian_well", "v0": -1.0},
            "params": {"k": 1.0, "l_max": 5, "thetas": [1, 0]}})
        out = tmp_path / "out"
        assert cli.run(path, out_dir=str(out)) == 0
        rows = (out / "result.csv").read_text().splitlines()[2:]
        assert [row.split(",")[0] for row in rows] == ["1.0", "0.0"]

    @pytest.mark.parametrize("experiment,params", [
        ("phaseshift", {"k_values": [1, 2], "l_max": 2}),
        ("phaseshift", {"k": 1, "l_max": 2}),
        ("born", {"k_values": [1, 2], "thetas": [1, 2]}),
        ("born", {"k": 2, "theta": 1}),
        ("s0", {"lam": 25, "N": 1, "thetas": [1]}),
        ("diagnose", {"check": "hs", "c": 1}),
        ("diagnose", {"check": "mourre", "window": [1, 2]}),
        ("amplitude", {"k": 1, "l_max": 4, "thetas": [1]}),
        ("diagnose", {"check": "kato", "r": 1, "n": 1024, "dx": 0.5,
                      "T_values": [2, 4]}),
        ("diagnose", {"check": "lap", "lam": 1, "r": 1,
                      "epsilons": [0.1, 0.03]}),
    ], ids=["phaseshift-k_values", "phaseshift-k", "born-lists", "born-values",
            "s0", "hs", "mourre", "amplitude", "kato", "lap"])
    def test_integer_spelling_writes_the_same_rows(self, tmp_path, experiment,
                                                   params):
        # the rows, the extra block and the resolved params hold floats however
        # the config spells them; only the header line (the config's hash)
        # differs
        floats = {key: ([float(x) for x in value] if isinstance(value, list)
                        else value if key in ("l_max", "N", "n", "check")
                        else float(value))
                  for key, value in params.items()}
        rows = []
        for name, given in (("int", params), ("float", floats)):
            path = write_config(tmp_path, {
                "experiment": experiment,
                "potential": {"kind": "gaussian_well", "v0": -1.0},
                "params": given}, f"{name}.json")
            assert cli.run(path, out_dir=str(tmp_path / name)) == 0
            rows.append((tmp_path / name / "result.csv").read_text().splitlines()[1:])
            record = json.loads((tmp_path / name / "result.json").read_text())
            rows[-1].append(json.dumps(record["extra"], sort_keys=True))
            rows[-1].append(json.dumps(record["params"], sort_keys=True))
        assert rows[0] == rows[1]

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

    def test_acceptance_failure_exits_3_under_strict(self, tmp_path, capsys):
        # C4 is a standing failure; the suite runs only as an experiment,
        # and a failed criterion is a flag like any other
        path = write_config(tmp_path, {
            "experiment": "acceptance", "params": {"criteria": [4]}})
        out = tmp_path / "out"
        assert cli.run(path, strict=True, out_dir=str(out)) == 3
        assert "flag: criterion_4_failed" in capsys.readouterr().out
        record = json.loads((out / "result.json").read_text())
        assert record["provenance"]["flags"] == ["criterion_4_failed"]
        assert record["provenance"]["config_sha256"]
        assert "[FAIL] criterion  4" in record["extra"]["report"]
        [c4] = record["extra"]["results"]
        assert c4["cid"] == 4 and c4["passed"] is False
        assert sorted(p.name for p in out.iterdir()) == ["result.csv", "result.json"]

    def test_no_acceptance_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["acceptance"])
        assert exc.value.code == 2
        assert "invalid choice: 'acceptance'" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        assert "{run,schema}" in capsys.readouterr().out

    @pytest.mark.parametrize("criteria,message", [
        ([], "should be non-empty"), ([1, 1], "has non-unique elements")])
    def test_acceptance_empty_or_repeated_criteria_refused(
            self, tmp_path, monkeypatch, capsys, criteria, message):
        ran = []
        for cid in acceptance.CRITERIA:
            monkeypatch.setitem(acceptance.CRITERIA, cid,
                                lambda cid=cid: ran.append(cid))
        path = write_config(tmp_path, {
            "experiment": "acceptance", "params": {"criteria": criteria}})
        out = tmp_path / "out"
        assert cli.run(path, out_dir=str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: at params/criteria: ")
        assert message in err
        assert ran == []
        assert not (out / "result.json").exists()

    def test_acceptance_values_at_full_precision(self, tmp_path):
        path = write_config(tmp_path, {
            "experiment": "acceptance", "params": {"criteria": [1, 4]}})
        out = tmp_path / "out"
        assert cli.run(path, out_dir=str(out)) == 0

        def refuse(token):   # NaN must be written as null
            raise AssertionError(f"non-JSON constant {token}")

        record = json.loads((out / "result.json").read_text(),
                            parse_constant=refuse)
        [c1, c4] = record["extra"]["results"]
        assert c1["reference"] == acceptance.REFERENCES[1]
        assert c4["reference"] == acceptance.REFERENCES[4]
        values, measured = c4["values"], c4["measured"]
        assert set(values) == {"errors_N0", "errors_N1", "slope_N0", "slope_N1",
                               "floor_N0", "floor_N1"}
        for key in ("errors_N0", "errors_N1"):
            assert len(values[key]) == 4
            assert np.array2string(np.array(values[key]), precision=2) == measured[key]
        for key in ("slope_N0", "slope_N1"):
            slope = np.nan if values[key] is None else values[key]
            assert f"{slope:.3g}" == measured[key]
        for key in ("floor_N0", "floor_N1"):
            assert values[key] is measured[key]
        values, measured = c1["values"], c1["measured"]
        assert set(values) == set(measured) == {"delta", "oracle", "err"}
        assert f"{values['delta']:.6g}" == measured["delta"]
        assert f"{values['oracle']:.6g}" == measured["oracle"]
        assert f"{values['err']:.3g}" == measured["err"]
        assert values["err"] == abs(values["delta"] - values["oracle"])

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

    def test_json_converter(self, tmp_path):
        record = {"nested": {"z": 1 + 2j, "a": np.array([[1.5, np.nan]]),
                             "c": np.array([3j])},
                  "nan": float("nan"), "inf": np.float64(-np.inf),
                  "flag": np.bool_(False), "count": np.int64(7), "n": 3,
                  "t": (True, None, "s")}
        converted = cli._full(record)
        assert converted == {"nested": {"z": [1.0, 2.0], "a": [[1.5, None]],
                                        "c": [[0.0, 3.0]]},
                             "nan": None, "inf": None, "flag": False,
                             "count": 7, "n": 3, "t": [True, None, "s"]}
        assert type(converted["flag"]) is bool
        assert type(converted["count"]) is int and type(converted["n"]) is int
        path = tmp_path / "record.json"
        cli._write_json(str(path), record)
        assert json.loads(path.read_text(), parse_constant=_no_constant) == converted

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
    """The thread pools follow the standard BLAS/OpenMP variables, set before
    the process starts, and result.json records them as the run saw them."""

    VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

    @pytest.mark.parametrize("value", ["2", None], ids=["set", "unset"])
    def test_provenance_records_the_thread_variables(self, tmp_path, value):
        path = write_config(tmp_path, {"experiment": "born"})
        env = {k: v for k, v in os.environ.items() if k not in self.VARS}
        env.update({var: value for var in self.VARS if value is not None})
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        code = f"from scatterlab import cli; raise SystemExit(cli.run({path!r}))"
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        record = json.loads((tmp_path / "result.json").read_text())
        assert record["provenance"]["threads"] == {var: value for var in self.VARS}

    def test_console_script_uses_entry(self):
        tomllib = pytest.importorskip("tomllib")
        meta = tomllib.loads((ROOT / "pyproject.toml").read_text())
        assert meta["project"]["scripts"]["scatterlab"] == "scatterlab.cli:main"


class TestImportGraph:
    """scipy.integrate and scipy.interpolate back only the names the
    benchmark tracer wraps and the amplitudes' scipy oracle, which import
    them when first read; neither the CLI module nor a run loads them."""

    LAZY = ("scipy.integrate", "scipy.interpolate")

    def test_cli_import_and_kato_run_leave_them_unloaded(self, tmp_path):
        path = write_config(tmp_path, {"experiment": "diagnose",
                                       "params": {"check": "kato"}})
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        code = (
            "import json, sys\n"
            "import scatterlab.cli\n"
            f"lazy = {self.LAZY!r}\n"
            "loaded = [[m for m in lazy if m in sys.modules]]\n"
            f"status = scatterlab.cli.run({path!r}, out_dir={str(tmp_path)!r})\n"
            "loaded.append([m for m in lazy if m in sys.modules])\n"
            "print(json.dumps([status, loaded]))\n")
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        status, (after_import, after_run) = json.loads(proc.stdout.splitlines()[-1])
        assert status == 0
        assert after_import == [] and after_run == []


class TestReflection:
    """A packet that reaches the grid edge ends in exit 2, not a traceback."""

    def _assert_reflection(self, tmp_path, capsys, config):
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert cli.run(path, out_dir=str(out)) == 2
        err = capsys.readouterr().err
        assert "config error: reflection: edge mass " in err
        assert " exceeds 1.0e-06 at span " in err
        assert not (out / "result.json").exists()

    def test_moller_small_grid(self, tmp_path, capsys):
        self._assert_reflection(tmp_path, capsys, {
            "experiment": "moller",
            "potential": {"kind": "gaussian_well", "v0": -1.0},
            "params": {"n": 64}})

    def test_propagate_small_grid(self, tmp_path, capsys):
        self._assert_reflection(tmp_path, capsys, {
            "experiment": "propagate",
            "potential": {"kind": "gaussian_well", "v0": -1.0},
            "params": {"n": 64}})

    @pytest.mark.parametrize("params", [
        {"n": 64, "T": 100.0},
        {"n": 8, "T": 1e-300},
    ], ids=["long", "tiny-grid"])
    def test_free_propagate_small_grid(self, tmp_path, capsys, params):
        # the free run is exact, and checked at the same span ends as the
        # interacting one
        self._assert_reflection(tmp_path, capsys, {
            "experiment": "propagate", "potential": {"kind": "zero"},
            "params": params})

    def test_free_propagate_work_refused_before_any_transform(
            self, tmp_path, capsys, monkeypatch):
        def no_dft(*args, **kwargs):
            raise AssertionError("transformed a packet for a refused run")

        monkeypatch.setattr(propagator, "dft", no_dft)
        path = write_config(tmp_path, {
            "experiment": "propagate", "potential": {"kind": "zero"},
            "params": {"n": 1024, "T": 1e300}})
        assert cli.run(path, out_dir=str(tmp_path / "out")) == 2
        assert "edge-check spans x 1024 points exceed MAX_POINT_STEPS" in (
            capsys.readouterr().err)

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

        props = cli.EXPERIMENTS["phaseshift"][1]
        monkeypatch.setitem(cli.EXPERIMENTS, "phaseshift", (fail, props))
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

    @pytest.mark.parametrize("experiment,params,prefix", [
        ("diagnose", '"check": "lap", "lam": 1e309', ""),
        ("diagnose", '"check": "lap", "epsilons": [1e309, 0.1]', ""),
        # finite, but the weighted resolvent norm underflows to 0
        ("diagnose", '"check": "lap", "epsilons": [1e308, 1e307]', "numerical: "),
        ("diagnose", '"check": "kato", "T_values": [5.0, 1e309]', ""),
        ("born", '"thetas": [1e309]', "at params/thetas/0: inf is not finite"),
        ("born", '"theta": NaN', "at params/theta: nan is not finite"),
        ("eikonal", '"xi_norm": 1e309', "at params/xi_norm: inf is not finite"),
        ("propagate", '"center": 1e309', "at params/center: inf is not finite"),
        ("propagate", '"center": -Infinity',
         "at params/center: -inf is not finite"),
    ], ids=["lap-lam", "lap-eps", "lap-eps-huge", "kato", "born-thetas",
            "born-nan", "eikonal", "propagate", "propagate-infinity"])
    def test_overflowing_number_rejected(self, tmp_path, capsys, experiment,
                                         params, prefix):
        # JSON 1e309 parses to inf, and Python's json reads the NaN and
        # Infinity tokens; the schema's "number" admits all three, so
        # validate_config refuses them before any runner starts
        path = tmp_path / "config.json"
        path.write_text('{"experiment": "' + experiment + '", "params": {'
                        + params + '}}')
        out = tmp_path / "out"
        assert cli.run(str(path), out_dir=str(out)) == 2
        err = capsys.readouterr().err
        assert f"config error: {prefix}" in err and "finite" in err
        assert not (out / "result.json").exists()

    @pytest.mark.parametrize("experiment,params", [
        ("propagate", {}), ("moller", {}), ("diagnose", {"check": "kato"}),
    ], ids=["propagate", "moller", "kato"])
    def test_grid_step_too_fine_for_the_float_range(self, tmp_path, capsys,
                                                    experiment, params):
        # the Chebyshev bound (pi/dx)**2 overflows the float range below
        # dx = 2.34e-154; warnings are errors here
        path = write_config(tmp_path, {"experiment": experiment, "params": {
            **params, "dx": 1e-300, "n": 64}})
        out = tmp_path / "out"
        assert cli.run(path, out_dir=str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "dx=1e-300" in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("params", [
        {"lambdas": [-1, -2, -4, -16]},
        {"lambdas": [0, 2, 4, 16]},
    ], ids=["negative", "zero"])
    def test_highenergy_nonpositive_lambda_rejected(self, tmp_path, capsys,
                                                    params):
        # warnings are errors here: no divide by zero comes first
        self._assert_typed(tmp_path, capsys, {
            "experiment": "highenergy",
            "potential": {"kind": "gaussian_well", "v0": -1.0},
            "params": params}, "lambdas must be positive")

    @pytest.mark.parametrize("params,message", [
        ({"k_values": [-1.0], "thetas": [1.0]}, "momentum must be positive"),
        ({"k_values": [1.0], "thetas": [-1.0]}, "theta must lie in [0, pi]"),
    ], ids=["k", "theta"])
    def test_born_bad_momentum_or_angle_rejected(self, tmp_path, capsys,
                                                 params, message):
        # q = 2k sin(theta/2) < 0 once fell into the forward (q -> 0) branch
        self._assert_typed(tmp_path, capsys, {
            "experiment": "born",
            "potential": {"kind": "gaussian_well", "v0": -1.0},
            "params": params}, message)

    @pytest.mark.parametrize("theta", [0.0, -0.5, 3.5])
    def test_highenergy_angle_outside_range_rejected(self, tmp_path, capsys,
                                                     monkeypatch, theta):
        # the kernel's angle lies in (0, pi], refused before any b_n table
        def no_tables(*args, **kwargs):
            raise AssertionError("b_n tables built for a refused angle")

        monkeypatch.setattr(born, "_bn_tables", no_tables)
        self._assert_typed(tmp_path, capsys, {
            "experiment": "highenergy",
            "potential": {"kind": "gaussian_well", "v0": -1.0},
            "params": {"theta": theta, "N": 1}}, "theta must lie in (0, pi]")

    def test_phaseshift_zero_momentum_rejected(self, tmp_path, capsys):
        # the default r_max holds 30 / k, so k is checked before it is sized
        self._assert_typed(tmp_path, capsys, {
            "experiment": "phaseshift",
            "potential": {"kind": "gaussian_well", "v0": -1.0},
            "params": {"k_values": [0]}}, "momentum must be positive")

    def test_born_unit_angle_unchanged(self, tmp_path):
        path = write_config(tmp_path, {
            "experiment": "born",
            "potential": {"kind": "gaussian_well", "v0": -1.0},
            "params": {"k_values": [1.0], "thetas": [1.0]}})
        out = tmp_path / "out"
        assert cli.run(path, out_dir=str(out)) == 0
        rows = (out / "result.csv").read_text().splitlines()[2:]
        # the radial rule's value, 1 ulp above the closed form
        # sqrt(pi)/4 exp(-q^2/4) = 0.3521217560719997
        assert rows == ["1.0,1.0,0.35212175607199975,0.0"]

    @pytest.mark.parametrize("eps", [[1e-20, 1e-21], [1e-299, 1e-300]],
                             ids=["1e-20", "1e-299"])
    def test_lap_guard_below_float_spacing_refused(self, tmp_path, capsys, eps):
        # the guard window (1 - 10 eps, 1 + 10 eps] rounds to a point, where
        # the resonance check could see no eigenvalue
        self._assert_typed(tmp_path, capsys, {
            "experiment": "diagnose",
            "params": {"check": "lap", "lam": 1.0, "epsilons": eps}},
            "resonance guard")

    @pytest.mark.parametrize("config", [
        {"experiment": "diagnose",
         "params": {"check": "kato", "T_values": [10.0, 1e10]}},
        {"experiment": "propagate",
         "potential": {"kind": "gaussian_well", "v0": -1.0},
         "params": {"T": 1e9}},
    ], ids=["kato", "propagate"])
    def test_work_bounded_before_any_transform(self, tmp_path, capsys,
                                               monkeypatch, config):
        # 1e10 Kato samples, or about 1.3e10 Chebyshev terms, of 8192 points
        def no_dft(*args, **kwargs):
            raise AssertionError("transformed a packet for a refused run")

        monkeypatch.setattr(propagator, "dft", no_dft)
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert cli.run(path, out_dir=str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "MAX_POINT_STEPS" in err
        assert not (out / "result.json").exists()

    @pytest.mark.parametrize("config", [
        {"experiment": "propagate", "params": {"n": 2**34}},
        {"experiment": "moller", "params": {"n": 2**34}},
        {"experiment": "diagnose", "params": {"check": "kato", "n": 2**34}},
        {"experiment": "diagnose", "params": {"check": "mourre", "n": 2**34}},
    ], ids=["propagate", "moller", "kato", "mourre"])
    def test_huge_grid_refused_before_allocation(self, tmp_path, capsys,
                                                 monkeypatch, config):
        # a 2**34-point complex packet is 256 GiB; the grid builders
        # (zeros, arange, linspace) must not be asked for anything that big
        counts = {"zeros": lambda shape, *a, **k: np.prod(shape, dtype=float),
                  "arange": lambda *a, **k: float(a[0]) if len(a) == 1 else 0.0,
                  "linspace": lambda start, stop, num=50, *a, **k: float(num)}
        for name, count in counts.items():
            def guarded(*args, _original=getattr(np, name), _count=count,
                        **kwargs):
                if _count(*args, **kwargs) > 1e8:
                    raise AssertionError("allocated a grid the schema refuses")
                return _original(*args, **kwargs)

            monkeypatch.setattr(np, name, guarded)
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert cli.run(path, out_dir=str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: at params/n: ")
        assert err.count("config error") == 1
        assert str(cli.MAX_GRID) in err
        assert not (out / "result.json").exists()

    @pytest.mark.parametrize("experiment", ["highenergy", "eikonal", "s0"])
    def test_huge_order_refused_before_allocation(self, tmp_path, capsys,
                                                  monkeypatch, experiment):
        # N = 100000 would ask high_energy_kernel for a 219 GB node stack
        # and the eikonal runs for 1.2 MB per order; no table is built
        def refuse(*args, **kwargs):
            raise AssertionError("built a table for a refused order")

        monkeypatch.setattr(born, "high_energy_kernel", refuse)
        monkeypatch.setattr(eikonal, "eikonal_iterate", refuse)
        path = write_config(tmp_path, {"experiment": experiment,
                                       "params": {"N": 100000}})
        out = tmp_path / "out"
        assert cli.run(path, out_dir=str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: at params/N: ")
        assert err.count("config error") == 1
        assert str(born.MAX_ORDER) in err
        assert not (out / "result.json").exists()

    @pytest.mark.parametrize("experiment", ["highenergy", "eikonal", "s0"])
    def test_largest_order_admitted(self, experiment):
        cli.validate_config({"experiment": experiment,
                             "params": {"N": born.MAX_ORDER}})

    @pytest.mark.parametrize("config", [
        {"experiment": "phaseshift",
         "potential": {"kind": "power_tail", "v0": 1.0, "rho": 1.5}},
        {"experiment": "amplitude",
         "potential": {"kind": "power_tail", "v0": 0.5, "rho": 1.9}},
        {"experiment": "phaseshift",
         "potential": {"kind": "gaussian_well", "v0": -1.0},
         "params": {"k": 1.0, "l_max": 10**6}},
        {"experiment": "amplitude",
         "potential": {"kind": "gaussian_well", "v0": -1.0},
         "params": {"l_max": 10**15}},
        {"experiment": "amplitude", "params": {"l_max": 10**15}},
        {"experiment": "highenergy",
         "potential": {"kind": "gaussian_well", "v0": -1.0},
         "params": {"lambdas": [1e300, 2e300, 4e300, 1e301]}},
        {"experiment": "amplitude",
         "potential": {"kind": "gaussian_well", "v0": -1.0},
         "params": {"k": 1e-300}},
    ], ids=["phaseshift-rho1.5", "amplitude-rho1.9", "phaseshift-channels",
            "amplitude-channels", "amplitude-zero-channels", "highenergy-lambda",
            "amplitude-tiny-k"])
    def test_huge_numerov_grid_refused_before_allocation(self, tmp_path, capsys,
                                                         monkeypatch, config):
        # rho < 2 puts r_max at tail_radius's 1e6 cap: 1e9 rows of dr = 1e-3;
        # lambda = 1e300 asks exact_kernel for 6e149 channels, and k = 1e-300
        # puts r_max at 3e301, where v(r_max) would overflow (a warning, an
        # error here)
        counts = {"empty": lambda shape, *a, **k: np.prod(shape, dtype=float),
                  "zeros": lambda shape, *a, **k: np.prod(shape, dtype=float),
                  "arange": lambda *a, **k: float(a[0] if len(a) == 1 else a[1] - a[0])}
        for name, count in counts.items():
            def guarded(*args, _original=getattr(np, name), _count=count,
                        **kwargs):
                if _count(*args, **kwargs) > 1e8:
                    raise AssertionError("allocated a Numerov grid over the cap")
                return _original(*args, **kwargs)

            monkeypatch.setattr(np, name, guarded)
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert cli.run(path, out_dir=str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: Numerov grid of ")
        assert f"MAX_SWEEP_FLOATS = {partialwave.MAX_SWEEP_FLOATS}" in err
        assert not (out / "result.json").exists()

    def test_huge_moller_times_refused_before_coefficients(
            self, tmp_path, capsys, monkeypatch):
        # gaps of 1e300 would take about 1e300 Chebyshev spans; the work
        # cap refuses them before any Bessel coefficient is computed
        def no_bessel(*args, **kwargs):
            raise AssertionError("computed coefficients for a refused run")

        monkeypatch.setattr(propagator, "jv", no_bessel)
        path = write_config(tmp_path, {
            "experiment": "moller",
            "potential": {"kind": "gaussian_well", "v0": -1.0},
            "params": {"times": [1e300, 2e300, 3e300]}})
        out = tmp_path / "out"
        assert cli.run(path, out_dir=str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "exceed MAX_POINT_STEPS" in err
        assert not (out / "result.json").exists()

    def test_yukawa_moller_refusal_names_its_spectral_interval(
            self, tmp_path, capsys, monkeypatch):
        self._assert_yukawa_refused(tmp_path, capsys, monkeypatch, "moller",
                                    {"n": 512, "times": [20.0, 40.0, 60.0]})

    def test_yukawa_propagate_refusal_names_its_spectral_interval(
            self, tmp_path, capsys, monkeypatch):
        self._assert_yukawa_refused(tmp_path, capsys, monkeypatch, "propagate",
                                    {"n": 512, "T": 20.0})

    def test_yukawa_short_propagate_refused(self, tmp_path, capsys, monkeypatch):
        # within the work cap, yet the core would still set the run
        self._assert_yukawa_refused(tmp_path, capsys, monkeypatch, "propagate",
                                    {"n": 512, "T": 1e-4})

    def _assert_yukawa_refused(self, tmp_path, capsys, monkeypatch,
                               experiment, params):
        # the 1/r core is clipped to about 5e7 at the grid node x = 0, the
        # top of H's spectral interval; refused however short the run, before
        # any Bessel coefficient is computed
        def no_bessel(*args, **kwargs):
            raise AssertionError("computed coefficients for a refused run")

        monkeypatch.setattr(propagator, "jv", no_bessel)
        self._assert_typed(tmp_path, capsys, {
            "experiment": experiment,
            "potential": {"kind": "yukawa", "v0": 0.5, "width": 0.3},
            "params": params},
            "yukawa is refused on the line: its 1/r core, sampled at the grid "
            "node x = 0 as v = 5e+07 (r clipped to 1e-08), would top the "
            "spectral interval")

    @pytest.mark.parametrize("experiment,params,message", [
        ("eikonal", {"xi_norm": 1e-155}, "(2 |xi|)^-N overflows"),
        ("eikonal", {"xi_norm": 1e-300}, "(2 |xi|)^-N overflows"),
    ], ids=["eikonal-1e-155", "eikonal-1e-300"])
    def test_tiny_step_or_momentum_refused(self, tmp_path, capsys, experiment,
                                           params, message):
        # the order's factor (2 |xi|)^-N overflows; it is refused before it
        # is formed
        self._assert_typed(tmp_path, capsys, {
            "experiment": experiment,
            "potential": {"kind": "gaussian_well", "v0": -1.0},
            "params": params}, message)

    @pytest.mark.parametrize("experiment,potential,params,message", [
        ("eikonal", {"kind": "power_tail", "v0": 0.5, "rho": 0.9},
         {"xi_norm": 1e-160, "N": 0}, "(2 |xi|)^-N0 overflows"),
        ("s0", {"kind": "gaussian_well", "v0": -1.0}, {"lam": 1e-300},
         "(2 |xi|)^-N overflows"),
        ("s0", {"kind": "gaussian_well", "v0": -1.0}, {"lam": 1e-300, "N": 0},
         "S0 plane panels of width 6e+150 at lambda = 1e-300 exceed the "
         "tables' s extent 20"),
    ], ids=["eikonal-phase-weight", "s0-order-weight", "s0-panels"])
    def test_tiny_energy_refused_before_tables(self, tmp_path, capsys,
                                               monkeypatch, experiment,
                                               potential, params, message):
        # rho = 0.9 takes N0 = 2, whose phase weight (2 |xi|)^-2 overflows
        # even for N = 0; at lam = 1e-300 the S0 plane nodes lie 1e150
        # apart, far outside the tables, and (2 sqrt(lam))^-3 overflows
        def no_grid(*args, **kwargs):
            raise AssertionError("tables built for a refused energy")

        monkeypatch.setattr(_cyl, "make_grid", no_grid)
        self._assert_typed(tmp_path, capsys, {
            "experiment": experiment, "potential": potential,
            "params": params}, message)

    @pytest.mark.parametrize("lam,message", [
        (1e6, "S0 plane mesh of 3.285e+09 points at lambda = 1e+06 exceeds "
         "MAX_PLANE_POINTS = 4194304"),
        (1e30, "S0 plane mesh of 3.283e+33 points at lambda = 1e+30 exceeds "
         "MAX_PLANE_POINTS = 4194304")], ids=["1e6", "1e30"])
    def test_large_energy_refused_before_tables(self, tmp_path, capsys,
                                                monkeypatch, lam, message):
        # the nested plane rule's node mesh is 57312^2 points at lam = 1e6,
        # 26 GB per complex array; at 1e30 its edge array alone would not fit
        def no_grid(*args, **kwargs):
            raise AssertionError("tables built for a refused energy")

        monkeypatch.setattr(_cyl, "make_grid", no_grid)
        self._assert_typed(tmp_path, capsys, {
            "experiment": "s0", "potential": {"kind": "gaussian_well", "v0": -1.0},
            "params": {"lam": lam, "N": 1, "thetas": [0.3]}}, message)

    def test_mourre_window_refused_before_eigenvectors(self, tmp_path, capsys,
                                                       monkeypatch):
        # [1, 100] holds 916 eigenvalues on 2**20 points: 7.7 GB of
        # eigenvectors, counted from the eigenvalues alone
        eigh_tridiagonal = diagnostics.eigh_tridiagonal

        def values_only(*args, **kwargs):
            if not kwargs.get("eigvals_only"):
                raise AssertionError("computed eigenvectors for a refused window")
            return eigh_tridiagonal(*args, **kwargs)

        monkeypatch.setattr(diagnostics, "eigh_tridiagonal", values_only)
        self._assert_typed(tmp_path, capsys, {
            "experiment": "diagnose",
            "potential": {"kind": "gaussian_well", "v0": -1.0},
            "params": {"check": "mourre", "n": 2**20, "window": [1.0, 100.0]}},
            "916 window eigenvectors x 1048576 points exceed MAX_WINDOW_FLOATS")

    def test_s0_outside_cap_rejected_before_tables(self, tmp_path, capsys,
                                                   monkeypatch):
        def no_tables(*args, **kwargs):
            raise AssertionError("s0 tables built for a rejected pair")

        monkeypatch.setattr(eikonal, "s0_solutions", no_tables)
        # -0.35 and 4 pi + 0.35 name the pair of theta = 0.35; theta = 0
        # makes omega = omega'
        for theta in (np.deg2rad(130.0), -0.35, 4 * np.pi + 0.35, 0.0):
            self._assert_typed(tmp_path, capsys, {
                "experiment": "s0",
                "potential": {"kind": "gaussian_well", "v0": -1.0},
                "params": {"lam": 64.0, "N": 1, "thetas": [theta]}},
                "directions must lie in the cap around omega0")

    def test_eikonal_on_yukawa_rejected(self, tmp_path, capsys):
        # the phi_1 anchor's reference ray int_0^inf v runs through the core
        self._assert_typed(tmp_path, capsys, {
            "experiment": "eikonal",
            "potential": {"kind": "yukawa", "v0": 0.5, "width": 0.3},
            "params": {"N0": 1, "N": 1}}, "the line passes through the yukawa")

    @pytest.mark.parametrize("experiment,params", [
        ("highenergy", {"lambdas": [4.0, 8.0, 16.0, 32.0], "N": 1}),
        ("eikonal", {"N": 2}),
        ("s0", {"lam": 25.0, "N": 1, "thetas": [0.3]}),
    ], ids=["highenergy", "eikonal", "s0"])
    def test_yukawa_transport_orders_refused(self, tmp_path, capsys,
                                             experiment, params):
        # b_1 = int v dt diverges on the axis for the 1/r core; order 0
        # needs no b_1 and runs
        config = {"experiment": experiment,
                  "potential": {"kind": "yukawa", "v0": 0.5, "width": 0.3},
                  "params": params}
        self._assert_typed(tmp_path, capsys, config,
                           "transport orders N >= 1 need a smooth potential")
        path = write_config(tmp_path, {**config, "params": {**params, "N": 0}},
                            "order0.json")
        assert cli.run(path, out_dir=str(tmp_path / "order0")) == 0

    @pytest.mark.parametrize("experiment,params,module,name,value,message", [
        ("diagnose", {"check": "hs"}, diagnostics, "hs_norm_resolvent_weight",
         lambda model, c: np.inf, "row 0, column hs_norm_sq: inf is not finite"),
        ("eikonal", {"N": 1}, eikonal, "residual_norms",
         lambda eik, N: [0.5, np.nan], "row 1, column residual_norm: nan is not finite"),
        ("s0", {"thetas": [0.3]}, eikonal, "s0_samples",
         lambda model, lam, N, thetas: [eikonal.S0Sample(complex(np.inf, 0.0), 0.0, True, N)],
         "row 0, column re_s0: inf is not finite"),
    ], ids=["hs", "eikonal", "s0"])
    def test_non_finite_output_row_refused(self, tmp_path, capsys, monkeypatch,
                                           experiment, params, module, name,
                                           value, message):
        # cli.run's last check: no known input reaches it, so the runners
        # are replaced
        monkeypatch.setattr(module, name, value)
        self._assert_typed(tmp_path, capsys, {
            "experiment": experiment,
            "potential": {"kind": "gaussian_well", "v0": -1.0},
            "params": params}, "numerical: " + message)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("experiment,params", [
        ("eikonal", {}), ("s0", {"lam": 100.0, "thetas": [0.3]})],
        ids=["eikonal", "s0"])
    def test_overflowing_q_refused_before_transport(self, tmp_path, capsys,
                                                    monkeypatch, experiment, params):
        # |grad Phi|^2 overflows in q on v0 = 1e300 while Phi itself stays
        # finite (max |Phi_z| near 1e299); no overflow warning escapes
        def no_march(*args, **kwargs):
            raise AssertionError("transport orders marched on a non-finite q")

        monkeypatch.setattr(born, "transport_orders", no_march)
        monkeypatch.setattr(eikonal, "transport_orders", no_march)
        self._assert_typed(tmp_path, capsys, {
            "experiment": experiment,
            "potential": {"kind": "power_tail", "v0": 1e300, "rho": 0.9},
            "params": params},
            "numerical: q = 2 |xi| Phi_z + |grad Phi|^2 + v is not finite")

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
