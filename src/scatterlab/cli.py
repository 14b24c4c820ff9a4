"""Command-line scenario runner and data emitter.

`scatterlab run <config.json> [--strict] [--out DIR]` executes one
experiment described by a JSON config, writing `result.json` and (for
tabular outputs) `result.csv`.  `scatterlab acceptance [--out DIR]` runs
the full acceptance suite.  `scatterlab schema` prints the config schema.

Exit codes: 0 success, 1 acceptance failure, 2 config/validation error
(including a grid too small for the run, which trips the edge-mass
reflection monitor, and the typed numerical failures: a non-finite or
ill-conditioned partial-wave result, a quadrature that does not converge,
an empty eigenvalue window, an energy too close to a resonance), 3
numerical-flag failure in strict mode.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__, born, diagnostics, eikonal, partialwave, propagator
from .numerics import DomainError, ParameterError
from .potentials import KINDS, PotentialModel, model_from_config


class ConfigError(ValueError):
    pass


def validate_config(config: dict) -> None:
    import jsonschema
    validator = jsonschema.Draft202012Validator(SCHEMA)
    errors = sorted(validator.iter_errors(config), key=lambda e: list(e.path))
    if errors:
        e = errors[0]
        where = "/".join(str(p) for p in e.path) or "<root>"
        raise ConfigError(f"config error at {where}: {e.message}")


def _model(config: dict) -> PotentialModel:
    try:
        return model_from_config(config.get("potential", {"kind": "zero"}))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"config error at potential: {exc}") from exc


def _c(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


# ---------------------------------------------------------------------------
# experiment implementations: each takes (model, params, seed) and returns
# (columns, rows, extra, flags)
# ---------------------------------------------------------------------------

def _run_phaseshift(model, p, seed):
    ks = p.get("k_values", [p.get("k", 1.0)])
    l_max = p.get("l_max", 10)
    rows = []
    for k in ks:
        table = partialwave.phase_shift_table(model, float(k), l_max)
        eigs, _ = partialwave.smatrix_eigenvalues(table)
        for l in range(l_max + 1):
            rows.append([k, l, table.delta[l], eigs[l].real, eigs[l].imag])
    return ["k", "l", "delta", "re_s", "im_s"], rows, {}, []


def _run_amplitude(model, p, seed):
    k = p.get("k", 1.0)
    l_max = p.get("l_max", 20)
    thetas = p.get("thetas", list(np.linspace(0.1, np.pi, 30)))
    table = partialwave.phase_shift_table(model, float(k), l_max)
    kernel = partialwave.amplitude_kernel(table, thetas)
    rows = [[t, v.real, v.imag, abs(v) ** 2]
            for t, v in zip(kernel.theta, kernel.values)]
    return ["theta", "re_a", "im_a", "dsigma"], rows, {"k": k, "l_max": l_max}, []


def _run_born(model, p, seed):
    ks = p.get("k_values", [p.get("k", 1.0)])
    thetas = p.get("thetas", [p.get("theta", np.pi / 2)])
    rows = []
    for k in ks:
        for th in thetas:
            a = born.born_first_amplitude(model, float(k), float(th))
            rows.append([k, th] + _c(a))
    return ["k", "theta", "re_a_born", "im_a_born"], rows, {}, []


def _run_highenergy(model, p, seed):
    lams = p.get("lambdas", [25.0, 50.0, 100.0, 200.0])
    theta = p.get("theta", np.pi / 2)
    N = p.get("N", 0)
    omega = np.array([0.0, 0.0, 1.0])
    omega_p = np.array([np.sin(theta), 0.0, np.cos(theta)])
    fit = born.measure_error_order(model, lams, omega, omega_p, N)
    rows = [[lam, err] for lam, err in zip(fit.lambdas, fit.errors)]
    extra = {"slope": fit.slope, "theoretical": fit.theoretical,
             "floor_warning": fit.floor_warning}
    flags = ["error_floor"] if fit.floor_warning else []
    return ["lambda", "abs_error"], rows, extra, flags


def _run_eikonal(model, p, seed):
    xi_norm = p.get("xi_norm", 5.0)
    N0 = p.get("N0")
    N = p.get("N", 2)
    axis = np.array([0.0, 0.0, 1.0])
    eik = eikonal.eikonal_iterate(model, axis, float(xi_norm), N0=N0)
    rows = []
    for n in range(N + 1):
        sol = eikonal.transport_solve(model, eik, n)
        rows.append([n, sol.residual_norm])
    extra = {"lambda": eik.lam, "N0": eik.N0}
    return ["N", "residual_norm"], rows, extra, []


def _run_s0(model, p, seed):
    lam = p.get("lam", 100.0)
    N = p.get("N", 3)
    thetas = p.get("thetas", [np.deg2rad(d) for d in (10, 20, 30)])
    omega0 = np.array([0.0, 0.0, 1.0])
    e1 = np.array([1.0, 0.0, 0.0])
    pairs = [(np.cos(th / 2) * omega0 + np.sin(th / 2) * e1,
              np.cos(th / 2) * omega0 - np.sin(th / 2) * e1) for th in thetas]
    for w, wp in pairs:
        eikonal.s0_directions(w, wp, omega0)
    sols = eikonal.s0_solutions(model, float(lam), N)
    rows, flags = [], []
    for th, (w, wp) in zip(thetas, pairs):
        s = eikonal.s0_kernel(model, float(lam), w, wp, omega0, N=N,
                              solutions=sols)
        rows.append([th] + _c(s.value) + [s.sensitivity, int(s.converged)])
        if not s.converged:
            flags.append(f"s0_not_converged theta={th:.4f}")
    return (["theta", "re_s0", "im_s0", "sensitivity", "converged"],
            rows, {"lambda": lam, "N": N}, flags)


def _run_propagate(model, p, seed):
    n = p.get("n", 2**13)
    dx = p.get("dx", 0.65)
    sigma = p.get("sigma", 6.0)
    k = p.get("k", 2.0)
    center = p.get("center", 0.0)
    T = p.get("T", 10.0)
    dt = p.get("dt", 0.02)
    f0 = propagator.gaussian_packet(n=n, dx=dx, center=center, k0=k,
                                    sigma=sigma)
    flags = []
    if model.kind == "zero":
        out = propagator.free_evolve(f0, T)
    else:
        cfg = propagator.EvolutionConfig(model=model, dt=dt)
        out = propagator.split_step_evolve(f0, cfg, T)
    stride = max(1, n // 1024)
    rows = [[x, v.real, v.imag]
            for x, v in zip(out.grid[::stride], out.values[::stride])]
    extra = {"T": T, "norm": out.norm(), "edge_mass": out.edge_mass()}
    return ["x", "re_psi", "im_psi"], rows, extra, flags


def _run_moller(model, p, seed):
    times = p.get("times", [20.0, 40.0, 80.0, 160.0, 320.0])
    dt = p.get("dt", 0.02)
    sigma = p.get("sigma", 6.0)
    k = p.get("k", 2.0)
    n = p.get("n", 2**13)
    dx = p.get("dx", 0.65)
    modified = p.get("modified", False)
    f0 = propagator.gaussian_packet(n=n, dx=dx, center=0.0, k0=k, sigma=sigma)
    probe = (propagator.modified_moller_probe if modified
             else propagator.moller_probe)
    rep = probe(model, f0, times, dt=dt)
    rows = [[t, inc] for t, inc in zip(rep.times[1:], rep.increments)]
    extra = {"verdict": rep.verdict, "decay_factor": rep.decay_factor,
             "modified": rep.modified}
    flags = [] if rep.verdict == "converging" else [f"verdict_{rep.verdict}"]
    return ["T", "increment"], rows, extra, flags


def _run_diagnose(model, p, seed):
    check = p.get("check", "hs")
    flags = []
    if check == "hs":
        c = p.get("c", 1.0)
        val = diagnostics.hs_norm_resolvent_weight(model, float(c))
        return ["c", "hs_norm_sq"], [[c, val]], {}, flags
    if check == "kato":
        r = p.get("r", 1.0)
        Ts = p.get("T_values", [25.0, 50.0, 100.0, 200.0])
        f0 = propagator.gaussian_packet(
            n=p.get("n", 2**13), dx=p.get("dx", 0.65), center=0.0,
            k0=p.get("k", 2.0), sigma=p.get("sigma", 1.0))
        rep = diagnostics.kato_smoothness_integral(float(r), f0, Ts)
        rows = [[T, I] for T, I in zip(rep.T_values, rep.integrals)]
        if not rep.saturating:
            flags.append("kato_not_saturating")
        return ["T", "integral"], rows, {"r": r,
                                         "saturating": rep.saturating}, flags
    if check == "mourre":
        lo, hi = p.get("window", [1.0, 2.0])
        val = diagnostics.mourre_check(model, (float(lo), float(hi)),
                                       n=p.get("n", 1024))
        return (["window_lo", "window_hi", "min_eig"], [[lo, hi, val]],
                {}, flags)
    # lap
    lam = p.get("lam", 1.0)
    r = p.get("r", 1.0)
    eps = p.get("epsilons", [1e-1, 3e-2, 1e-2, 3e-3])
    rep = diagnostics.lap_probe(model, float(lam), float(r), eps, seed=seed)
    rows = [[e, nn] for e, nn in zip(rep.epsilons, rep.norms)]
    if not rep.stable:
        flags.append("lap_not_stable")
    return ["epsilon", "norm"], rows, {"lam": lam, "r": r,
                                       "stable": rep.stable}, flags


def _run_acceptance_experiment(model, p, seed):
    from . import acceptance
    ids = p.get("criteria")
    results = acceptance.run_all(ids)
    rows = [[r.cid, int(r.passed), r.runtime] for r in results]
    extra = {"report": acceptance.format_report(results),
             "results": [asdict(r) for r in results]}
    flags = [f"criterion_{r.cid}_failed" for r in results if not r.passed]
    # an informational criterion passes but may report its probe unreliable
    flags += [f"criterion_{r.cid}_unreliable" for r in results
              if any(not v for k, v in r.measured.items()
                     if k.startswith("reliable"))]
    return ["criterion", "passed", "runtime_s"], rows, extra, flags


# ---------------------------------------------------------------------------

RUNNERS = {
    "phaseshift": _run_phaseshift,
    "amplitude": _run_amplitude,
    "born": _run_born,
    "highenergy": _run_highenergy,
    "eikonal": _run_eikonal,
    "s0": _run_s0,
    "propagate": _run_propagate,
    "moller": _run_moller,
    "diagnose": _run_diagnose,
    "acceptance": _run_acceptance_experiment,
}
EXPERIMENTS = tuple(RUNNERS)

_NUM = {"type": "number"}
_POS = {"type": "number", "exclusiveMinimum": 0}
_NUM_LIST = {"type": "array", "items": _NUM, "minItems": 1}

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
        "params": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "k": _POS,
                "k_values": _NUM_LIST,
                "lam": _POS,
                "lambdas": _NUM_LIST,
                "l": {"type": "integer", "minimum": 0},
                "l_max": {"type": "integer", "minimum": 0},
                "theta": _NUM,
                "thetas": _NUM_LIST,
                "N": {"type": "integer", "minimum": 0},
                "N0": {"type": "integer", "minimum": 0},
                "xi_norm": _POS,
                "times": _NUM_LIST,
                "dt": _POS,
                "n": {"type": "integer", "minimum": 8},
                "dx": _POS,
                "sigma": _POS,
                "center": _NUM,
                "T": _POS,
                "modified": {"type": "boolean"},
                "check": {"enum": ["hs", "kato", "mourre", "lap"]},
                "c": _POS,
                "r": _POS,
                "window": {"type": "array", "items": _NUM,
                           "minItems": 2, "maxItems": 2},
                "epsilons": _NUM_LIST,
                "T_values": _NUM_LIST,
                "criteria": {"type": "array",
                             "items": {"type": "integer",
                                       "minimum": 1, "maximum": 15}},
            },
        },
    },
}


def _write_outputs(out_dir: str, config: dict, columns, rows, extra, flags):
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
        "columns": columns,
        "n_rows": len(rows),
        "extra": extra,
        "provenance": {
            "package": "scatterlab",
            "version": __version__,
            "config_sha256": sha,
            "seed": config.get("seed", 0),
            "threads": os.environ.get("SCATTERLAB_THREADS", "0"),
            "flags": flags,
        },
    }
    json_path = os.path.join(out_dir, "result.json")
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return csv_path, json_path


# Errors a run can end in for an input the schema admits, with the prefix
# that names them after "config error: ".
_TYPED_ERRORS = {
    propagator.ReflectionError: "reflection: ",
    partialwave.NumericalError: "numerical: ",
    born.ConvergenceError: "convergence: ",
    diagnostics.WindowError: "window: ",
    diagnostics.ResonanceProximityError: "resonance proximity: ",
}


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
        out = RUNNERS[config["experiment"]](
            model, config.get("params", {}), config.get("seed", 0))
    except (ConfigError, ParameterError, DomainError, *_TYPED_ERRORS) as exc:
        prefix = _TYPED_ERRORS.get(type(exc), "")
        print(f"config error: {prefix}{exc}", file=sys.stderr)
        return 2
    columns, rows, extra, flags = out
    csv_path, json_path = _write_outputs(out_dir, config, columns, rows,
                                         extra, flags)
    for flag in flags:
        print(f"flag: {flag}")
    print(f"wrote {csv_path} and {json_path}")
    if strict and flags:
        print("strict mode: numerical flags raised", file=sys.stderr)
        return 3
    return 0


def run_acceptance(out_dir: str = ".") -> int:
    from . import acceptance
    results = acceptance.run_all()
    report = acceptance.format_report(results)
    print(report)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "acceptance_report.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([asdict(r) for r in results], fh, indent=2, default=str)
        fh.write("\n")
    print(f"wrote {path}")
    return 0 if all(r.passed for r in results) else 1


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
    p_acc = sub.add_parser("acceptance", help="run the acceptance suite")
    p_acc.add_argument("--out", default=".", help="output directory")
    sub.add_parser("schema", help="print the config JSON schema")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config, strict=args.strict, out_dir=args.out)
    if args.command == "acceptance":
        return run_acceptance(out_dir=args.out)
    print(json.dumps(SCHEMA, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
