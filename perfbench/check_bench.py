"""Tests of the benchmark itself (not collected by the package's test run).

    python3 -m pytest -q perfbench/check_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

from scatterlab import _cyl, eikonal, numerics, propagator  # noqa: E402
from scatterlab.potentials import PotentialModel  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def _run(workload, out_dir, tracer=None):
    tasks = workloads.make_pass(workload, seed=3, index=1)
    return [(t, worker.run_task(t, str(out_dir), tracer)) for t in tasks]


def _counts(tr: tracing.Tracer) -> dict:
    spans = tr.summary()["spans"]
    counts = {f"{n}.calls": s["calls"] for n, s in spans.items()}
    counts.update({f"{n}.work": s["work"] for n, s in spans.items()})
    counts.update(tr.counters)
    counts.update({k: len(v) for k, v in tr.distinct.items()})
    counts.update(tr.maxima)
    return counts


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_outputs_and_counts_repeat(workload, tmp_path):
    """Untraced and traced passes give identical outputs; two traced passes
    give identical layer counts."""
    plain = _run(workload, tmp_path)
    counts = []
    for _ in range(2):
        tr = tracing.Tracer()
        tr.install()
        try:
            traced = _run(workload, tmp_path, tr)
        finally:
            tr.uninstall()
        assert [workloads.fingerprint(o) for _, o in traced] == \
               [workloads.fingerprint(o) for _, o in plain]
        counts.append(_counts(tr))
    assert counts[0] == counts[1]
    assert counts[0]["bench.task.calls"] == len(plain)
    checks = worker.check_all(plain)
    assert all(ok for ok, _, _ in checks), [c for c in checks if not c[0]]


def test_trace_predictions(tmp_path):
    """DFT only on timedep; Numerov never in timedep or plane tasks."""
    seen = {}
    for workload in sorted(workloads.WORKLOADS):
        tr = tracing.Tracer()
        tr.install()
        try:
            _run(workload, tmp_path, tr)
        finally:
            tr.uninstall()
        spans = tr.summary()["spans"]
        seen[workload] = {n: spans.get(n, {}).get("calls", 0)
                          for n in ("numerics.dft", "partialwave.numerov")}
    assert seen["stationary"]["numerics.dft"] == 0
    assert seen["plane"]["numerics.dft"] == 0
    assert seen["timedep"]["numerics.dft"] > 0
    assert seen["timedep"]["partialwave.numerov"] == 0
    assert seen["plane"]["partialwave.numerov"] == 0
    assert seen["stationary"]["partialwave.numerov"] > 0


def test_seed_changes_parameters_not_kinds():
    for workload in workloads.WORKLOADS:
        for index in (0, 1, 2):
            a = workloads.make_pass(workload, 1, index)
            b = workloads.make_pass(workload, 2, index)
            assert Counter(t.kind for t in a) == Counter(t.kind for t in b)
            assert [t.kind for t in a] == [t.kind for t in b]
            assert [(t.config, t.args) for t in a] != [(t.config, t.args) for t in b]
            assert [(t.config, t.args) for t in a] == \
                   [(t.config, t.args) for t in workloads.make_pass(workload, 1, index)]


def test_interpolator_wrapper_honours_fill_value():
    """eikonal._PsiEvaluator sets fill_value = 1.0 on a built interpolator."""
    grid = _cyl.make_grid(s_max=2.0, z_max=2.0, n_s=5, n_z=9)
    outside = np.array([[5.0, 0.0], [1.0, 1.0]])
    tr = tracing.Tracer()
    tr.install()
    try:
        interp = _cyl.interpolator(grid, np.zeros((5, 9)))
        assert type(interp).__name__ == "TracedRegularGridInterpolator"
        interp.fill_value = 1.0
        assert list(interp(outside)) == [1.0, 0.0]
        model = PotentialModel(kind="gaussian_well", v0=-1.0, width=1.0)
        sols = eikonal.s0_solutions(model, 64.0, 1)
        far = np.array([[0.0, 500.0, 0.0]])
        omega = np.array([0.0, 0.0, 1.0])
        psi, _ = sols[0](far, omega, np.array([1.0, 0.0, 0.0]))
    finally:
        tr.uninstall()
    assert psi[0] == pytest.approx(1.0)       # b = 1 and Phi = 0 outside the table
    assert tr.summary()["spans"]["scipy.rgi"]["calls"] >= 10


def test_uninstall_restores_bindings():
    originals = (propagator.dft, numerics.dft, _cyl.RegularGridInterpolator,
                 PotentialModel.radial_values)
    tr = tracing.Tracer()
    tr.install()
    assert propagator.dft is not originals[0]
    tr.uninstall()
    assert (propagator.dft, numerics.dft, _cyl.RegularGridInterpolator,
            PotentialModel.radial_values) == originals


def test_checks_reject_wrong_output(tmp_path):
    task = workloads.make_pass("stationary", 3, 1)[6]
    assert task.kind == "born.yukawa"
    out = worker.run_task(task, str(tmp_path))
    assert workloads.check(task, out)[0]
    res, text = out.output
    lines = text.splitlines()
    row = lines[2].split(",")
    row[2] = repr(float(row[2]) * 1.001)
    out.output = (res, "\n".join(lines[:2] + [",".join(row)] + lines[3:]))
    assert not workloads.check(task, out)[0]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "timedep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    lines = proc.stdout.strip().splitlines()
    assert not lines or not lines[-1].startswith("{")
    with pytest.raises(json.JSONDecodeError):
        json.loads(lines[-1] if lines else "")


def test_host_probe_runs_no_package_code():
    """The probe that scales latencies for host speed must not run scatterlab
    code, or a change to the package would scale itself away."""
    tr = tracing.Tracer()
    tr.install()
    try:
        wall, cpu = worker.host_probe()
    finally:
        tr.uninstall()
    assert all(span["calls"] == 0 for span in tr.summary()["spans"].values())
    assert 0.0 < cpu <= wall * worker.PROBE_MAX_CPU_RATIO
