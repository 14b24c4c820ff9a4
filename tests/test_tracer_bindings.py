"""The benchmark's traced run wraps scipy entry points by module attribute
(perfbench/tracing.py `SCIPY`), subclasses `_cyl.RegularGridInterpolator`
in place, and its interpolator check calls the psi_plus of
`eikonal.s0_solutions` on 3D points.  A package change that breaks one of
these breaks only the traced run, which the package's tests do not collect,
so this checks each of them here, and that a traced eikonal residual series
holds its marches."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from scatterlab import _cyl, eikonal
from scatterlab.potentials import PotentialModel

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_scipy_names_still_bound():
    bindings = _tracing().SCIPY
    assert bindings
    for short, names in bindings.items():
        module = importlib.import_module(f"scatterlab.{short}")
        for name in names:
            fn = getattr(module, name, None)
            assert callable(fn), f"scatterlab.{short}.{name} is not bound"
            assert fn.__module__.startswith("scipy"), (short, name)


def test_traced_interpolator_bound():
    # Tracer.install rebinds this name to a subclass of what it holds
    rgi = getattr(_cyl, "RegularGridInterpolator", None)
    assert isinstance(rgi, type) and rgi.__module__.startswith("scipy")


def test_psi_plus_called_on_points():
    # the check's call: psi_plus(points, omega, deriv_dir) -> (psi, dpsi);
    # outside the tables b = 1 and Phi = 0
    model = PotentialModel(kind="gaussian_well", v0=-1.0, width=1.0)
    psi_plus = eikonal.s0_solutions(model, 64.0, 1)[0]
    psi, dpsi = psi_plus(np.array([[0.0, 500.0, 0.0]]),
                         np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]))
    assert psi.shape == dpsi.shape == (1,)
    assert psi[0] == pytest.approx(1.0)


def test_psi_plus_call_makes_nine_interpolator_calls():
    # the check counts at least 10 traced RegularGridInterpolator calls:
    # one of its own and those of one psi_plus(points, omega, deriv_dir)
    # call on a Gaussian, which must make 9
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        model = PotentialModel(kind="gaussian_well", v0=-1.0, width=1.0)
        psi_plus = eikonal.s0_solutions(model, 64.0, 1)[0]
        psi_plus(np.array([[0.0, 500.0, 0.0]]), np.array([0.0, 0.0, 1.0]),
                 np.array([1.0, 0.0, 0.0]))
    finally:
        tracer.uninstall()
    spans = tracer.summary()["spans"]
    assert spans.get("scipy.rgi", {"calls": 0})["calls"] >= 9


def test_residual_norms_span_holds_the_marches():
    # a span closes when its function returns: residual_norms is a plain
    # function, so the recursion's marches of b_1 and b_2 run inside it
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        model = PotentialModel(kind="gaussian_well", v0=-1.0, width=1.0)
        eikonal.residual_norms(eikonal.eikonal_iterate(model, 5.0), 2)
    finally:
        tracer.uninstall()
    nid, parent, *_ = tracer.arrays()
    names = np.array(tracer.names)[nid]
    [span] = np.nonzero(names == "eikonal.residual_norms")[0]
    marches = np.nonzero(names == "_cyl.march")[0]
    assert len(marches) == 2
    assert np.all(parent[marches] == span)
