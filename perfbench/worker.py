"""One benchmark process: set up, run the closed loop, check outputs, report.

Started by run.py; see README.md.  Prints ``SETUP_DONE`` once imports, input
generation and the untimed warm-up pass (one task of each kind) are over,
then report lines, then ``RESULT <json>`` as its last line.
"""

from __future__ import annotations

import argparse
import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# BLAS reads its thread count when numpy is first imported
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy import special  # noqa: E402

from scatterlab import cli, eikonal, propagator  # noqa: E402
from scatterlab.potentials import PotentialModel  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Outcome, Task  # noqa: E402

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10

# The host speed probe: a fixed kernel that calls nothing of scatterlab, in
# the four kinds of work the workloads do (interpreter loop, small numpy
# calls as in a Numerov sweep, radix-2 butterflies on 8192 points as in the
# DFT, a LAPACK eigh).  The speed of this shared host drifts by +-15 % over
# tens of seconds to minutes, which a run's length cannot average out; a
# probe before every task measures that drift, and each latency is scaled by
# (PROBE_REF_S / m) ** PROBE_ELASTICITY, where m is the median probe time of
# the task and its PROBE_WINDOW neighbours on each side.  PROBE_REF_S is the
# probe's median time on the reference machine (2 vCPUs, Python 3.11.7,
# numpy 2.4.6); PROBE_ELASTICITY is the slope of log task latency against
# log m measured there (0.7-0.85 on stationary and timedep): the tasks slow
# down less than the probe when the host is busy.
PROBE_REF_S = 0.0135
PROBE_ELASTICITY = 0.8
PROBE_WINDOW = 3
PROBE_MAX_CPU_RATIO = 1.3
_PROBE_RNG = np.random.default_rng(0)
_PROBE_SMALL = _PROBE_RNG.standard_normal(10)
_PROBE_VEC = _PROBE_RNG.standard_normal(8192) + 1j * _PROBE_RNG.standard_normal(8192)
_PROBE_SYM = _PROBE_RNG.standard_normal((100, 100))
_PROBE_SYM = _PROBE_SYM + _PROBE_SYM.T


def host_probe() -> tuple[float, float]:
    """(wall, process CPU) seconds of one run of the probe kernel."""
    w0, c0 = time.perf_counter(), time.process_time()
    x = 0.0
    for i in range(40000):
        x = (x * 1.0000001 + i) % 1e6
    u = w = _PROBE_SMALL
    for _ in range(1500):
        u, w = (1.9 * u - 0.9 * w) / 1.0001, u
    for _ in range(10):
        y = _PROBE_VEC
        for _ in range(13):
            y = y.reshape(-1, 2)
            y = np.concatenate([y[:, 0] + 0.5j * y[:, 1], y[:, 0] - y[:, 1]])
    np.linalg.eigh(_PROBE_SYM)
    return time.perf_counter() - w0, time.process_time() - c0


def host_scale(probe_s: float) -> float:
    """Factor that takes a latency measured at host speed ``probe_s`` to the
    reference speed."""
    return (PROBE_REF_S / probe_s) ** PROBE_ELASTICITY


def host_scales(probes) -> list[float]:
    """Per task, the host scale of the median probe time around it."""
    walls = [w for w, _ in probes]
    return [host_scale(statistics.median(walls[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1]))
            for i in range(len(walls))]


def _direct(task: Task):
    if task.call == "time_domain_smatrix":
        model = PotentialModel(**task.args["potential"])
        return propagator.scattering_phase_from_time_domain(model, task.args["k"])
    model = PotentialModel(kind="power_tail", v0=task.args["v0"], rho=2.0)
    return [eikonal.eikonal_phase_integral(model, np.array([xn, 0.0, 0.0]),
                                           np.array([0.0, 0.0, xi]), +1)
            for xn, xi in task.args["points"]]


def _execute(task: Task, out_dir: str) -> Outcome:
    t0 = time.perf_counter()
    if task.config is None:
        try:
            value = _direct(task)
        except Exception as exc:  # an escaped error is an outcome to check
            return Outcome(time.perf_counter() - t0, error=type(exc).__name__)
        return Outcome(time.perf_counter() - t0, output=value)
    path = os.path.join(out_dir, "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(task.config, fh)
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.run(path, out_dir=out_dir)
    except Exception as exc:  # an escaped error is an outcome to check
        return Outcome(time.perf_counter() - t0, error=type(exc).__name__)
    latency = time.perf_counter() - t0
    output = None
    if rc == 0:
        with open(os.path.join(out_dir, "result.json"), encoding="utf-8") as fh:
            res = json.load(fh)
        with open(os.path.join(out_dir, "result.csv"), encoding="utf-8") as fh:
            output = (res, fh.read())
    return Outcome(latency, rc=rc, output=output)


def run_task(task: Task, out_dir: str, tracer: tracing.Tracer | None = None) -> Outcome:
    if tracer is None:
        return _execute(task, out_dir)
    return tracer.span("bench.task", _execute, task, out_dir)


def run_pass(workload: str, seed: int, index: int, out_dir: str, tracer=None, probes=None):
    """Pass ``index`` of the closed loop (one client): its (task, outcome)
    pairs and its wall time.  With a ``probes`` list, a host probe runs
    before each task, outside its latency, and is appended there."""
    done, wall = [], 0.0
    for task in workloads.make_pass(workload, seed, index):
        if probes is not None:
            probes.append(host_probe())
        start = time.perf_counter()
        done.append((task, run_task(task, out_dir, tracer)))
        wall += time.perf_counter() - start
    return done, wall


def median_pass_s(kinds, latencies, passes: int) -> float:
    """Pass time implied by each kind's median latency.  Every pass runs the
    same kinds, and a kind's median over the passes ignores a burst of
    machine noise that hits one of its tasks."""
    by_kind = defaultdict(list)
    for kind, lat in zip(kinds, latencies):
        by_kind[kind].append(lat)
    return sum(len(lat) / passes * statistics.median(lat) for lat in by_kind.values())


def timing_metrics(kinds, latencies, passes: int) -> tuple[dict, tuple]:
    """tasks_per_s, task_p50_s and task_tail_s of one timed phase, and the
    tail's (percentile, tasks beyond)."""
    tail_v, tail_p, beyond = tail(latencies)
    return {"tasks_per_s": len(latencies) / passes / median_pass_s(kinds, latencies, passes),
            "task_p50_s": quantile(latencies, 50.0),
            "task_tail_s": tail_v}, (tail_p, beyond)


def check_all(done):
    """Per-task (ok, deviation, note); oracles are computed here, after timing."""
    return [workloads.check(task, out, workloads.reference(task)) for task, out in done]


def quantile(latencies, p: float) -> float:
    """Harrell-Davis estimate of percentile ``p``: a Beta-weighted mean of all
    order statistics.  A workload's latencies form one cluster per task kind,
    so a single order statistic jumps between neighbouring kinds from run to
    run; this estimate moves smoothly and halves the run-to-run spread of
    task_p50_s on stationary.  (Same formula as
    scipy.stats.mstats.hdquantiles, which would add scipy.stats to the
    worker's imports and peak RSS.)"""
    x = np.sort(np.asarray(latencies))
    n, q = len(x), p / 100.0
    cdf = special.betainc((n + 1) * q, (n + 1) * (1 - q), np.arange(n + 1) / n)
    return float(np.diff(cdf) @ x)


def tail(latencies):
    """(value, percentile, tasks beyond): the highest ladder percentile with
    at least TAIL_MIN_BEYOND tasks above it (the median when none has)."""
    lat = np.asarray(latencies)
    for p in TAIL_LADDER:
        beyond = int(np.sum(lat > np.percentile(lat, p)))
        if beyond >= TAIL_MIN_BEYOND or p == 50.0:
            return quantile(lat, p), p, beyond


# ---------------------------------------------------------------------------
# per-layer metrics of a traced phase, per pass
# ---------------------------------------------------------------------------

def layer_metrics(tr: tracing.Tracer, passes: int, wall: float, overhead: float) -> dict:
    s = tr.summary()
    spans, layers = s["spans"], s["layers"]

    def span(name, key):
        return spans.get(name, {}).get(key, 0.0)

    def per(x):
        return x / passes

    strang_steps, strang_points = tr.child_work("propagator.strang", "propagator.kinetic")
    _, kernel_points = tr.child_work("born.kernel", "potentials.radial_values")
    builds = span("born.bn_tables", "calls")
    interp_calls = span("scipy.rgi", "calls")
    solves = span("scipy.solve_banded", "calls")
    raised = tr.counters.get("propagator.strang.raised.ReflectionError", 0.0)
    m = {
        "numerics.dft.calls": per(span("numerics.dft", "calls")),
        "numerics.dft.points": per(span("numerics.dft", "work")),
        "numerics.dft.flops_computed": per(tr.counters.get("numerics.dft.flops_computed", 0.0)),
        "numerics.dft.self_s": per(span("numerics.dft", "self_s")),
        "numerics.dft.self_share": span("numerics.dft", "self_s") / wall,
        "numerics.bessel.calls": per(span("numerics.bessel", "calls")),
        "numerics.bessel.self_s": per(span("numerics.bessel", "self_s")),
        "numerics.legendre.calls": per(span("numerics.legendre", "calls")),
        "numerics.legendre.self_s": per(span("numerics.legendre", "self_s")),
        "numerics.self_s": per(layers.get("numerics", 0.0)),
        "partialwave.numerov.steps": per(span("partialwave.numerov", "work")),
        "partialwave.numerov.self_s": per(span("partialwave.numerov", "self_s")),
        "partialwave.self_s": per(layers.get("partialwave", 0.0)),
        "born.kernel.calls": per(span("born.kernel", "calls")),
        "born.kernel.points": per(kernel_points),
        "born.bn_tables.builds": per(builds),
        "born.bn_tables.useful_ratio": len(tr.distinct["born.bn_tables"]) / builds if builds else 0.0,
        "born.self_s": per(layers.get("born", 0.0)),
        "cyl.interp.calls": per(interp_calls),
        "cyl.interp.points": per(span("scipy.rgi", "work")),
        "cyl.interp.self_s": per(span("scipy.rgi", "self_s")),
        "cyl.interp.distinct_point_sets_ratio":
            len(tr.distinct["scipy.rgi"]) / interp_calls if interp_calls else 0.0,
        "cyl.march.calls": per(span("_cyl.march", "calls")),
        "cyl.laplacian.calls": per(span("_cyl.laplacian", "calls")),
        "cyl.self_s": per(layers.get("_cyl", 0.0)),
        "eikonal.plane.points": per(span("eikonal.plane", "work")),
        "eikonal.iterate.calls": per(span("eikonal.iterate", "calls")),
        "eikonal.transport.calls": per(span("eikonal.transport", "calls")),
        "eikonal.self_s": per(layers.get("eikonal", 0.0)),
        "potentials.radial_values.calls": per(span("potentials.radial_values", "calls")),
        "potentials.radial_values.points": per(span("potentials.radial_values", "work")),
        "potentials.radial_values.self_s": per(span("potentials.radial_values", "self_s")),
        "scipy.quad.calls": per(span("scipy.quad", "calls")),
        "scipy.quad.self_s": per(span("scipy.quad", "self_s")),
        "scipy.quad.max_abserr": tr.maxima.get("scipy.quad.abserr", 0.0),
        "scipy.self_s": per(layers.get("scipy", 0.0)),
        "propagator.strang.steps": per(strang_steps),
        "propagator.strang.points": per(strang_points),
        "propagator.free_evolve.calls": per(span("propagator.free_evolve", "calls")),
        "propagator.edge_checks": per(span("propagator.edge_mass", "calls")),
        "propagator.reflection_errors": per(raised),
        "propagator.self_s": per(layers.get("propagator", 0.0)),
        "diagnostics.banded_solves": per(solves),
        "diagnostics.power_iters": per(solves / 2.0),
        "diagnostics.eigh.calls": per(span("scipy.eigh", "calls")),
        "diagnostics.self_s": per(layers.get("diagnostics", 0.0)),
        "cli.validate_s": per(span("cli.validate", "total_s")),
        "cli.write.bytes": per(tr.counters.get("cli.write.bytes", 0.0)),
        "cli.write_s": per(span("cli.write", "total_s")),
        "cli.self_s": per(layers.get("cli", 0.0)),
        "trace.tasks_per_s_ratio": overhead,
    }
    return m


# ---------------------------------------------------------------------------
# environment and provenance
# ---------------------------------------------------------------------------

def environment(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    src = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "scatterlab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_sha": sha, "src_sha256": src.hexdigest(),
    }


# ---------------------------------------------------------------------------

def _kind_table(done, checks):
    by = defaultdict(lambda: {"tasks": 0, "latencies": [], "failed": 0,
                              "max_deviation": None, "oracle": None, "outcomes": Counter()})
    for (task, out), (ok, dev, note) in zip(done, checks):
        k = by[task.kind]
        k["tasks"] += 1
        k["latencies"].append(out.latency)
        k["failed"] += not ok
        k["oracle"] = note
        if dev is not None:
            k["max_deviation"] = max(dev, k["max_deviation"] or 0.0)
        k["outcomes"][out.error and f"escaped {out.error}" or f"rc={out.rc}"] += 1
    return {kind: {"tasks": v["tasks"], "median_latency_s": statistics.median(v["latencies"]),
                   "failed": v["failed"], "max_deviation": v["max_deviation"],
                   "oracle": v["oracle"], "outcomes": dict(v["outcomes"])}
            for kind, v in by.items()}


def _print_kinds(kinds):
    print(f"{'task kind':30s} {'tasks':>5s} {'p50_s':>9s} {'failed':>6s} {'max_dev':>9s}  oracle / outcomes")
    for kind, v in kinds.items():
        dev = "-" if v["max_deviation"] is None else f"{v['max_deviation']:.2e}"
        print(f"{kind:30s} {v['tasks']:5d} {v['median_latency_s']:9.4f} {v['failed']:6d} "
              f"{dev:>9s}  {v['oracle']}; {v['outcomes']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--pauses", type=int, default=0,
                    help="print PAUSE and wait for a line on stdin this many times, "
                         "spread evenly between the timed passes")
    args = ap.parse_args(argv)

    def between(index: int, passes: int):
        # run.py times a cold set-up while this process waits, so the timed
        # passes sample the machine over a longer stretch of wall time
        if index in {round(passes * k / (args.pauses + 1)) for k in range(1, args.pauses + 1)}:
            print("PAUSE", flush=True)
            sys.stdin.readline()

    task_dir = os.path.join(args.out, "task")
    os.makedirs(task_dir, exist_ok=True)

    for task in workloads.warmup_pass(args.workload, args.seed):
        run_task(task, task_dir)
    print("SETUP_DONE", flush=True)
    # the host's speed just after set-up, for run.py to scale set-up time by
    walls = sorted(host_probe()[0] for _ in range(2 * PROBE_WINDOW + 1))
    print(f"HOST_SCALE {host_scale(walls[PROBE_WINDOW])!r}", flush=True)
    if args.setup_only:
        return 0

    env = environment(args)
    record = {"environment": env}
    passes = workloads.pass_count(args.workload, args.seconds / (2.0 if args.trace else 1.0))
    done, walls, base, base_walls, probes = [], [], [], [], []
    tracer = tracing.Tracer()
    for index in range(1, passes + 1):
        if index > 1:
            between(index - 1, passes)
        if args.trace:
            # each pass untraced, then traced: the overhead ratio compares the
            # same tasks at nearly the same moment of the host's speed drift
            pairs, wall = run_pass(args.workload, args.seed, index, task_dir)
            base += pairs
            base_walls.append(wall)
            tracer.install()
            try:
                pairs, wall = run_pass(args.workload, args.seed, index, task_dir, tracer)
            finally:
                tracer.uninstall()
        else:
            pairs, wall = run_pass(args.workload, args.seed, index, task_dir, probes=probes)
        done += pairs
        walls.append(wall)
    wall = sum(walls)
    if args.trace:
        same = [workloads.fingerprint(a[1]) == workloads.fingerprint(b[1])
                for a, b in zip(base, done)]
        base_wall = sum(base_walls)
        overhead = base_wall / wall
        metrics = layer_metrics(tracer, passes, wall, overhead)
        tracer.save(os.path.join(args.out, "spans.npz"))
        summary = tracer.summary()
        record["layers"] = summary
        print(f"traced phase: {passes} passes, {len(done)} tasks, {wall:.2f} s; "
              f"untraced {base_wall:.2f} s; traced/untraced tasks_per_s = {overhead:.4f}")
        print(f"{'layer':14s} {'self_s':>10s} {'share':>7s}")
        for layer, t in sorted(summary["layers"].items(), key=lambda kv: -kv[1]):
            print(f"{layer:14s} {t:10.4f} {t / wall:7.2%}")
    else:
        same = [True] * len(done)
        cpu_ratio = statistics.median(c / w for w, c in probes)
        if cpu_ratio > PROBE_MAX_CPU_RATIO:
            # another thread of this process was busy while the probes ran,
            # so they measured the program, not the host
            print(f"error: process CPU / wall during host probes is {cpu_ratio:.2f}",
                  file=sys.stderr)
            return 4
        kinds = [task.kind for task, _ in done]
        wall_lat = [out.latency for _, out in done]
        scales = host_scales(probes)
        metrics, (tail_p, beyond) = timing_metrics(
            kinds, [lat * s for lat, s in zip(wall_lat, scales)], passes)
        wall_metrics, _ = timing_metrics(kinds, wall_lat, passes)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record["tail"] = {"percentile": tail_p, "tasks_beyond": beyond, "tasks": len(done)}
        record["tasks"] = [[kind, lat, probe] for kind, lat, (probe, _) in
                           zip(kinds, wall_lat, probes)]
        record["host"] = {"probe_median_s": statistics.median(w for w, _ in probes),
                          "scale_min": min(scales), "scale_max": max(scales),
                          "probe_cpu_ratio": cpu_ratio, "wall_clock_metrics": wall_metrics}
        print(f"timed phase: {passes} passes, {len(done)} tasks, {wall:.2f} s; "
              f"task_tail_s is p{tail_p:g} with {beyond} of {len(done)} tasks beyond it")
        print(f"host scale {min(scales):.3f}..{max(scales):.3f}; unscaled wall clock: " +
              ", ".join(f"{k} {v:.6g}" for k, v in wall_metrics.items()))

    checks = check_all(done)
    checks = [(ok and s, dev, note if s else note + "; traced output differs")
              for (ok, dev, note), s in zip(checks, same)]
    failed = sum(not ok for ok, _, _ in checks)
    kinds = _kind_table(done, checks)
    _print_kinds(kinds)
    record.update({"passes": passes, "wall_s": wall, "kinds": kinds, "metrics": metrics})
    with open(os.path.join(args.out, "record.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True, default=str)
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print("RESULT " + json.dumps({"attempted": len(done), "failed": failed, "metrics": metrics}),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
