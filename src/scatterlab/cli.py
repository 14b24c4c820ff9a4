"""Command-line scenario runner and data emitter.

`scatterlab run <config.json> [--strict] [--out DIR]` executes one
experiment described by a JSON config, writing `result.json` and (for
tabular outputs) `result.csv`; `{"experiment": "acceptance"}` runs the
acceptance suite.  `scatterlab schema` prints the config schema.

`EXPERIMENTS`, the experiment table, holds each experiment's runner and its
parameters with their defaults; `SCHEMA` and `resolve` are built on it.

Exit codes: 0 success, 2 config/validation error or any other
`numerics.ScatterlabError` (a packet that reaches the grid edge, a
non-finite or ill-conditioned result, a non-finite output row, a quadrature
that does not converge, an empty eigenvalue window, an energy on a
resonance), 3 numerical-flag failure in strict mode (a failed acceptance
criterion flags `criterion_N_failed`).

Thread pools follow OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and
MKL_NUM_THREADS as set before the process starts; result.json records them.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__, born, diagnostics, eikonal, partialwave, propagator
from .numerics import NumericalError, ScatterlabError
from .potentials import KINDS, PotentialModel, model_from_config


class ConfigError(ScatterlabError, ValueError):
    """A config the schema or the potential model refuses; the message
    says where ("at params/n: ..."), and run() prints it after
    "config error: "."""


@functools.cache
def _validator(experiment: str | None = None):
    """The validator, built once, of a config without SCHEMA's per-experiment
    allOf (experiment None) or of an experiment's params."""
    import jsonschema
    return jsonschema.Draft202012Validator(
        {key: value for key, value in SCHEMA.items() if key != "allOf"}
        if experiment is None else _params_schema(EXPERIMENTS[experiment]))


def validate_config(config: dict) -> None:
    """ConfigError at the first error by path against SCHEMA, whose allOf
    is the params check of the config's experiment; then at the first
    non-finite number."""
    errors = [(list(e.path), e) for e in _validator().iter_errors(config)]
    if isinstance(config, dict) and isinstance(config.get("params"), dict):
        experiment = config.get("experiment")
        if isinstance(experiment, str) and experiment in EXPERIMENTS:
            errors += [(["params", *e.path], e) for e in
                       _validator(experiment).iter_errors(config["params"])]
    if errors:
        path, e = min(errors, key=lambda item: item[0])
        where = "/".join(str(p) for p in path) or "<root>"
        message = e.message
        if e.validator == "not":   # a list beside its single-value form
            message = " and ".join(e.validator_value["required"]) + " exclude each other"
        raise ConfigError(f"at {where}: {message}")
    # non-finite numbers (JSON 1e309, NaN, Infinity), which the schema's
    # "number" admits; breadth first, the loop visits what it appends
    todo = [((), config)]
    for path, value in todo:
        if isinstance(value, (dict, list)):
            items = value.items() if isinstance(value, dict) else enumerate(value)
            todo += [(path + (key,), item) for key, item in items]
        elif isinstance(value, float) and not math.isfinite(value):
            where = "/".join(str(p) for p in path)
            raise ConfigError(f"at {where}: {value} is not finite")


def _model(config: dict) -> PotentialModel:
    try:
        return model_from_config(config.get("potential", {"kind": "zero"}))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"at potential: {exc}") from exc


def _c(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _full(x):
    """x as JSON data at full precision: containers and arrays item by item,
    numpy scalars as Python ones, a complex number as [re, im], NaN and inf
    as null (JSON has neither); str, bool, int and None as they are."""
    if isinstance(x, (np.ndarray, np.generic)):
        return _full(x.tolist())
    if isinstance(x, dict):
        return {key: _full(value) for key, value in x.items()}
    if isinstance(x, (list, tuple)):
        return [_full(value) for value in x]
    if isinstance(x, complex):
        return [_full(x.real), _full(x.imag)]
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def _write_json(path: str, data) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_full(data), fh, indent=2, sort_keys=True)
        fh.write("\n")


# Experiment runners: each takes (model, params, seed), params the complete
# dict from resolve(), and returns (columns, rows, extra, flags).

def _run_phaseshift(model, p, seed):
    rows = []
    for k in p["k_values"]:
        table = partialwave.phase_shift_table(model, k, p["l_max"])
        eigs = partialwave.smatrix_eigenvalues(table)
        for l in range(p["l_max"] + 1):
            rows.append([k, l, table.delta[l], eigs[l].real, eigs[l].imag])
    return ["k", "l", "delta", "re_s", "im_s"], rows, {}, []


def _run_amplitude(model, p, seed):
    table = partialwave.phase_shift_table(model, p["k"], p["l_max"])
    values = partialwave.amplitude(table, p["thetas"])
    rows = [[t, v.real, v.imag, abs(v) ** 2]
            for t, v in zip(p["thetas"], values)]
    return ["theta", "re_a", "im_a", "dsigma"], rows, {}, []


def _run_born(model, p, seed):
    rows = [[k, th] + _c(born.born_first_amplitude(model, k, th))
            for k in p["k_values"] for th in p["thetas"]]
    return ["k", "theta", "re_a_born", "im_a_born"], rows, {}, []


def _run_highenergy(model, p, seed):
    fit = born.measure_error_order(model, p["lambdas"], p["theta"], p["N"])
    rows = [[lam, err] for lam, err in zip(fit.lambdas, fit.errors)]
    # the fitted slope is NaN under the error floor
    extra = {"slope": fit.slope, "theoretical": fit.theoretical,
             "floor_warning": fit.floor_warning}
    flags = ["error_floor"] if fit.floor_warning else []
    return ["lambda", "abs_error"], rows, extra, flags


def _run_eikonal(model, p, seed):
    # without N0, eikonal_iterate takes default_n0(rho)
    eik = eikonal.eikonal_iterate(model, p["xi_norm"], N0=p.get("N0"))
    rows = [[n, r] for n, r in enumerate(eikonal.residual_norms(eik, p["N"]))]
    extra = {"lambda": eik.lam, "N0": eik.N0}
    return ["N", "residual_norm"], rows, extra, []


def _run_s0(model, p, seed):
    samples = eikonal.s0_samples(model, p["lam"], p["N"], p["thetas"])
    rows, flags = [], []
    for th, s in zip(p["thetas"], samples):
        rows.append([th] + _c(s.value) + [s.sensitivity, int(s.converged)])
        if not s.converged:
            flags.append(f"s0_not_converged theta={th:.4f}")
    return (["theta", "re_s0", "im_s0", "sensitivity", "converged"],
            rows, {}, flags)


def _run_propagate(model, p, seed):
    f0 = propagator.gaussian_packet(n=p["n"], dx=p["dx"], center=p["center"],
                                    k0=p["k"], sigma=p["sigma"])
    out = propagator.chebyshev_evolve(f0, model, p["T"])
    stride = max(1, p["n"] // 1024)
    rows = [[x, v.real, v.imag]
            for x, v in zip(out.grid[::stride], out.values[::stride])]
    extra = {"norm": out.norm(), "edge_mass": out.edge_mass()}
    return ["x", "re_psi", "im_psi"], rows, extra, []


def _run_moller(model, p, seed):
    f0 = propagator.gaussian_packet(n=p["n"], dx=p["dx"], center=0.0,
                                    k0=p["k"], sigma=p["sigma"])
    probe = (propagator.modified_moller_probe if p["modified"]
             else propagator.moller_probe)
    rep = probe(model, f0, p["times"])
    rows = [[t, inc] for t, inc in zip(rep.times[1:], rep.increments)]
    extra = {"verdict": rep.verdict, "decay_factor": rep.decay_factor}
    flags = [] if rep.verdict == "converging" else [f"verdict_{rep.verdict}"]
    return ["T", "increment"], rows, extra, flags


def _run_hs(model, p, seed):
    val = diagnostics.hs_norm_resolvent_weight(model, p["c"])
    return ["c", "hs_norm_sq"], [[p["c"], val]], {}, []


def _run_kato(model, p, seed):
    f0 = propagator.gaussian_packet(n=p["n"], dx=p["dx"], center=0.0,
                                    k0=p["k"], sigma=p["sigma"])
    [rep] = diagnostics.kato_smoothness_integrals([p["r"]], f0, p["T_values"])
    rows = [[T, I] for T, I in zip(rep.T_values, rep.integrals)]
    flags = [] if rep.saturating else ["kato_not_saturating"]
    return ["T", "integral"], rows, {"saturating": rep.saturating}, flags


def _run_mourre(model, p, seed):
    lo, hi = p["window"]
    val = diagnostics.mourre_check(model, (lo, hi), n=p["n"])
    return ["window_lo", "window_hi", "min_eig"], [[lo, hi, val]], {}, []


def _run_lap(model, p, seed):
    rep = diagnostics.lap_probe(model, p["lam"], p["r"], p["epsilons"],
                                seed=seed)
    rows = [[e, nn] for e, nn in zip(rep.epsilons, rep.norms)]
    flags = [flag for flag, ok in (("lap_not_stable", rep.stable),
                                   ("lap_not_converged", rep.converged))
             if not ok]
    extra = {"stable": rep.stable, "converged": rep.converged,
             "solves": rep.solves, "residuals": rep.residuals}
    return ["epsilon", "norm"], rows, extra, flags


def _run_acceptance(model, p, seed):
    from . import acceptance
    results = acceptance.run_all(p["criteria"])
    rows = [[r.cid, int(r.passed), r.runtime] for r in results]
    extra = {"report": acceptance.format_report(results),
             "results": [asdict(r) for r in results]}
    flags = [f"criterion_{r.cid}_failed" for r in results if not r.passed]
    # an informational criterion passes but may report its probe unreliable
    flags += [f"criterion_{r.cid}_unreliable" for r in results
              if any(not v for k, v in r.measured.items()
                     if k.startswith("reliable"))]
    return ["criterion", "passed", "runtime_s"], rows, extra, flags


# Largest grid size `n` (propagate, moller, diagnose kato and mourre), held by
# the schema so that no packet or operator of n points is allocated first.
MAX_GRID = 2**20

_NUM = {"type": "number"}
_POS = {"type": "number", "exclusiveMinimum": 0}
_NUM_LIST = {"type": "array", "items": _NUM, "minItems": 1}
_COUNT = {"type": "integer", "minimum": 0}
_GRID = {"type": "integer", "minimum": 8, "maximum": MAX_GRID}
_ORDER = dict(_COUNT, maximum=born.MAX_ORDER)


# Each experiment's runner and its parameters, one JSON-Schema property each
# with its default; diagnose has one entry per check, hs first.
EXPERIMENTS = {
    "phaseshift": (_run_phaseshift, {
        "k": _POS, "k_values": dict(_NUM_LIST, default=[1.0]),
        "l_max": dict(_COUNT, default=10)}),
    "amplitude": (_run_amplitude, {
        "k": dict(_POS, default=1.0), "l_max": dict(_COUNT, default=20),
        "thetas": dict(_NUM_LIST,
                       default=np.linspace(0.1, np.pi, 30).tolist())}),
    "born": (_run_born, {
        "k": _POS, "k_values": dict(_NUM_LIST, default=[1.0]),
        "theta": _NUM, "thetas": dict(_NUM_LIST, default=[np.pi / 2])}),
    "highenergy": (_run_highenergy, {
        "lambdas": dict(_NUM_LIST, default=[25.0, 50.0, 100.0, 200.0]),
        "theta": dict(_NUM, default=np.pi / 2), "N": dict(_ORDER, default=0)}),
    "eikonal": (_run_eikonal, {
        "xi_norm": dict(_POS, default=5.0), "N0": _COUNT,
        "N": dict(_ORDER, default=2)}),
    "s0": (_run_s0, {
        "lam": dict(_POS, default=100.0), "N": dict(_ORDER, default=3),
        "thetas": dict(_NUM_LIST,
                       default=np.deg2rad([10, 20, 30]).tolist())}),
    "propagate": (_run_propagate, {
        "n": dict(_GRID, default=2**13), "dx": dict(_POS, default=0.65),
        "sigma": dict(_POS, default=6.0), "k": dict(_POS, default=2.0),
        "center": dict(_NUM, default=0.0), "T": dict(_POS, default=10.0)}),
    "moller": (_run_moller, {
        "times": dict(_NUM_LIST, default=[20.0, 40.0, 80.0, 160.0, 320.0]),
        "sigma": dict(_POS, default=6.0),
        "k": dict(_POS, default=2.0), "n": dict(_GRID, default=2**13),
        "dx": dict(_POS, default=0.65),
        "modified": dict(type="boolean", default=False)}),
    "diagnose": {
        "hs": (_run_hs, {"check": dict(const="hs", default="hs"),
                         "c": dict(_POS, default=1.0)}),
        "kato": (_run_kato, {
            "check": dict(const="kato"), "r": dict(_POS, default=1.0),
            "T_values": dict(_NUM_LIST, default=[25.0, 50.0, 100.0, 200.0]),
            "n": dict(_GRID, default=2**13), "dx": dict(_POS, default=0.65),
            "k": dict(_POS, default=2.0), "sigma": dict(_POS, default=1.0)}),
        "mourre": (_run_mourre, {
            "check": dict(const="mourre"), "n": dict(_GRID, default=1024),
            "window": dict(_NUM_LIST, minItems=2, maxItems=2,
                           default=[1.0, 2.0])}),
        "lap": (_run_lap, {
            "check": dict(const="lap"), "lam": dict(_POS, default=1.0),
            "r": dict(_POS, default=1.0),
            "epsilons": dict(_NUM_LIST, default=[1e-1, 3e-2, 1e-2, 3e-3])}),
    },
    "acceptance": (_run_acceptance, {
        "criteria": dict(type="array", default=list(range(1, 16)), items=dict(
            type="integer", minimum=1, maximum=15), minItems=1,
            uniqueItems=True)}),
}

# a value and its list: the runners read the list, which a lone value becomes
_PAIRS = (("k", "k_values"), ("theta", "thetas"))


def resolve(experiment: str, params: dict):
    """The runner of a validated config and its complete parameters: each
    key of its entry that the config gives or that has a default, numbers
    as float.  diagnose runs its check's entry, hs (the first) by default."""
    entry = EXPERIMENTS[experiment]
    if isinstance(entry, dict):
        entry = entry[params.get("check", next(iter(entry)))]
    runner, props = entry
    given = dict(params)
    for one, many in _PAIRS:
        if one in given and many in props:
            given[many] = [given.pop(one)]
    resolved = {key: given.get(key, prop.get("default"))
                for key, prop in props.items()
                if key in given or "default" in prop}
    return runner, {key: float(value) if props[key].get("type") == "number"
                    else [float(x) for x in value]
                    if props[key].get("items") == _NUM else value
                    for key, value in resolved.items()}


def _params_schema(entry) -> dict:
    """The params schema of a table entry: its keys and no other; diagnose's
    is that of the config's check, hs when it names none."""
    if isinstance(entry, dict):
        return {"properties": {"check": {"enum": list(entry)}}, "allOf": [
            {"if": {"properties": {"check": {"const": check}},
                    "required": ["check"] if i else []},
             "then": _params_schema(sub)}
            for i, (check, sub) in enumerate(entry.items())]}
    props = entry[1]
    clashes = [{"not": {"required": list(pair)}} for pair in _PAIRS
               if set(pair) <= set(props)]
    return {"type": "object", "additionalProperties": False,
            "properties": props, **({"allOf": clashes} if clashes else {})}


SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["experiment"],
    "properties": {
        "experiment": {"enum": list(EXPERIMENTS)},
        "potential": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": list(KINDS)},
                "v0": _NUM,
                "width": _POS,
                "rho": _POS,
                "radial": {"const": True},
            },
        },
        "seed": {"type": "integer", "minimum": 0},
        "params": {"type": "object"},
    },
    "allOf": [{"if": {"properties": {"experiment": {"const": name}}},
               "then": {"properties": {"params": _params_schema(entry)}}}
              for name, entry in EXPERIMENTS.items()],
}


def _write_outputs(out_dir: str, config: dict, params: dict, columns, rows,
                   extra, flags):
    os.makedirs(out_dir, exist_ok=True)
    blob = json.dumps(config, sort_keys=True).encode()
    sha = hashlib.sha256(blob).hexdigest()
    csv_path = os.path.join(out_dir, "result.csv")
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# scatterlab {config['experiment']} "
                 f"config_sha256={sha}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(
                repr(int(x)) if isinstance(x, (bool, int, np.integer))
                else repr(float(x)) for x in row) + "\n")
    record = {
        "experiment": config["experiment"],
        "input": config,
        "params": params,
        "columns": columns,
        "n_rows": len(rows),
        "extra": extra,
        "provenance": {
            "package": "scatterlab",
            "version": __version__,
            "config_sha256": sha,
            "seed": config.get("seed", 0),
            "threads": {var: os.environ.get(var) for var in (
                "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
            "flags": flags,
        },
    }
    json_path = os.path.join(out_dir, "result.json")
    _write_json(json_path, record)
    return csv_path, json_path


def run(config_path: str, strict: bool = False, out_dir: str = ".") -> int:
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        validate_config(config)
        model = _model(config)
        runner, params = resolve(config["experiment"],
                                 config.get("params", {}))
        columns, rows, extra, flags = runner(model, params,
                                             config.get("seed", 0))
        for i, row in enumerate(rows):
            for column, x in zip(columns, row):
                if not math.isfinite(x):
                    raise NumericalError(f"row {i}, column {column}: {x} is not finite")
    except ScatterlabError as exc:
        print(f"config error: {exc.prefix}{exc}", file=sys.stderr)
        return 2
    csv_path, json_path = _write_outputs(out_dir, config, params, columns,
                                         rows, extra, flags)
    for flag in flags:
        print(f"flag: {flag}")
    print(f"wrote {csv_path} and {json_path}")
    if strict and flags:
        print("strict mode: numerical flags raised", file=sys.stderr)
        return 3
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="scatterlab",
        description="Numerical laboratory for quantum scattering of "
                    "-Laplacian + v")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one experiment from a JSON config")
    p_run.add_argument("config", help="path to config JSON")
    p_run.add_argument("--strict", action="store_true",
                       help="exit 3 when any numerical flag is raised")
    p_run.add_argument("--out", default=".", help="output directory")
    sub.add_parser("schema", help="print the config JSON schema")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config, strict=args.strict, out_dir=args.out)
    print(json.dumps(SCHEMA, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
