"""Benchmark entry point.

    python3 perfbench/run.py --workload {stationary,timedep,plane} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  The process imports nothing heavy itself: it
times SETUP_SAMPLES cold set-ups (each a fresh worker process from spawn to
the end of its warm-up pass, scaled by the host-speed probe the worker runs
just after; the first one goes on to the timed loop and waits between its
first passes while the others are timed), relays the
worker's report, and prints as its last line one JSON object with the
metrics that BENCHMARK.json declares: the end-to-end ones with --trace 0, the
per-layer ones with --trace 1.  Records and traces go to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

SETUP_SAMPLES = 3
DEADLINE_S = 170.0
HERE = os.path.dirname(os.path.abspath(__file__))


class BenchError(RuntimeError):
    pass


class _Worker:
    """One worker process, killed at the deadline; iterate for its stdout lines."""

    def __init__(self, args, out_dir: str, deadline: float, extra: list[str]):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", out_dir] + extra
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)
        self.timer = threading.Timer(max(0.0, deadline - time.perf_counter()), self.proc.kill)
        self.timer.start()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.timer.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()
        if exc[0] is None and self.proc.returncode != 0:
            raise BenchError(f"worker exited with {self.proc.returncode}")


def _setup_line(line: str, w: _Worker, setups: list[tuple[float, float]]) -> bool:
    """Take a set-up line of a worker: SETUP_DONE stops its set-up clock,
    HOST_SCALE gives the host-speed scale measured just after."""
    if line.startswith("SETUP_DONE"):
        setups.append((time.perf_counter() - w.t0, float("nan")))
    elif line.startswith("HOST_SCALE ") and setups:
        setups[-1] = (setups[-1][0], float(line.split()[1]))
    else:
        return False
    return True


def _setup_probe(args, out_dir: str, deadline: float, setups: list) -> None:
    """Time a set-up-only worker from spawn to the end of its warm-up pass."""
    before = len(setups)
    with _Worker(args, out_dir, deadline, ["--setup-only"]) as w:
        for line in w.proc.stdout:
            _setup_line(line, w, setups)
    if len(setups) == before:
        raise BenchError("set-up probe ended before its warm-up pass")


def _timed_run(args, out_dir: str, deadline: float, setups: list[float]) -> dict:
    """RESULT payload of the worker that runs the timed loop.  It pauses after
    its first passes while the other cold set-ups are timed, so its passes
    sample the machine over a longer stretch of wall time."""
    result = None
    with _Worker(args, out_dir, deadline, ["--pauses", str(SETUP_SAMPLES - 1)]) as w:
        for line in w.proc.stdout:
            if line.startswith("PAUSE"):
                _setup_probe(args, os.path.join(out_dir, "probe"), deadline, setups)
                w.proc.stdin.write("\n")
                w.proc.stdin.flush()
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            elif not _setup_line(line, w, setups):
                sys.stdout.write(line)
    if result is None:
        raise BenchError("worker printed no result")
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    deadline = time.perf_counter() + DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "scatterlab", "__init__.py")):
        print("error: src/scatterlab not found; run from the repository root", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".bench_out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(out_dir, exist_ok=True)

    setups: list[tuple[float, float]] = []      # (wall s, host scale) per cold set-up
    try:
        result = _timed_run(args, out_dir, deadline, setups)
        while len(setups) < SETUP_SAMPLES:      # a run shorter than its pauses
            _setup_probe(args, os.path.join(out_dir, "probe"), deadline, setups)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    measured = dict(result["metrics"])
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if not args.trace:
        measured["setup_s"] = statistics.median(wall * scale for wall, scale in setups)
        measured["ok_frac"] = (result["attempted"] - result["failed"]) / result["attempted"]
        print("setup_s samples (wall s x host scale): " +
              ", ".join(f"{wall:.4f} x {scale:.3f}" for wall, scale in setups))
    missing = {m["name"] for m in declared} ^ set(measured)
    if missing:
        print(f"error: metrics differ from BENCHMARK.json: {sorted(missing)}", file=sys.stderr)
        return 3
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared}
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
