"""Module-boundary tracing for the benchmark's traced run.

``Tracer.install`` replaces, from outside the package, every function and
method of the scatterlab layer modules, every name bound by ``from .x import
y`` to one of them, and the scipy entry points the package calls (``quad``,
``solve_banded``, ``eigh``, ``RegularGridInterpolator``) with wrappers that
record a span: name, start, end and parent span, plus a work count.  A call
between two functions of one module records nothing, except for the
functions in ``INTERNAL``, which the per-layer metrics name.  Spans stay in
flat arrays in memory until ``summary`` and ``save`` at the end of the run;
``uninstall`` restores every original binding.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
import zlib
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("numerics", "potentials", "partialwave", "born", "eikonal", "_cyl",
          "propagator", "diagnostics", "cli")

# Span names for functions whose calls from their own module are traced too.
INTERNAL = {
    "partialwave._numerov_channels": "partialwave.numerov",
    "born.high_energy_kernel": "born.kernel",
    "born._bn_tables": "born.bn_tables",
    "eikonal.eikonal_iterate": "eikonal.iterate",
    "eikonal.transport_solve": "eikonal.transport",
    "eikonal._plane_rule": "eikonal.plane",
    "eikonal._PsiEvaluator.__call__": "eikonal.psi",
    "propagator.split_step_evolve": "propagator.strang",
    "propagator._apply_kinetic": "propagator.kinetic",
    "propagator.free_evolve": "propagator.free_evolve",
    "propagator.WavePacket.edge_mass": "propagator.edge_mass",
    "cli.validate_config": "cli.validate",
    "cli._write_outputs": "cli.write",
}
RENAME = {
    "numerics.spherical_bessel": "numerics.bessel",
    "numerics.spherical_jl": "numerics.bessel",
    "numerics.legendre_p": "numerics.legendre",
    "numerics.legendre_p_all": "numerics.legendre",
    "_cyl.march_up": "_cyl.march",
    "_cyl.march_down": "_cyl.march",
    "potentials.PotentialModel.radial_values": "potentials.radial_values",
}
SCIPY = {"born": ("quad",), "eikonal": ("quad",), "propagator": ("quad",),
         "diagnostics": ("eigh", "solve_banded")}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self._stack = [-1]
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.distinct: dict[str, set] = defaultdict(set)
        self._patches: list[tuple[object, str, object]] = []

    # -- span store ------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        sid = len(self.start)
        self.span_name.append(nid)
        self.parent.append(self._stack[-1])
        self.work.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span; used for the benchmark's own task spans."""
        sid = self.open(self.name_id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(sid)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name: str, home: str | None, record=None):
        """Traced fn; calls whose caller's module is ``home`` pass straight through."""
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if home is not None and sys._getframe(1).f_globals.get("__name__") == home:
                return fn(*args, **kwargs)
            sid = tracer.open(nid)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(sid)
                tracer.counters[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            tracer.close(sid)
            if record is not None:
                record(tracer, sid, args, kwargs, out)
            return out

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        mods = {m: importlib.import_module(f"scatterlab.{m}") for m in LAYERS}
        wrapped: dict[int, object] = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    key = f"{short}.{attr}"
                    internal = key in INTERNAL
                    name = INTERNAL.get(key) or RENAME.get(key, key)
                    w = self._wrap(obj, name, None if internal else mod.__name__,
                                   RECORDERS.get(name))
                    wrapped[id(obj)] = w
                    self._set(mod, attr, w)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for mattr, meth in list(vars(obj).items()):
                        if not inspect.isfunction(meth) or (
                                mattr.startswith("__") and mattr != "__call__"):
                            continue
                        key = f"{short}.{obj.__name__}.{mattr}"
                        internal = key in INTERNAL
                        name = INTERNAL.get(key) or RENAME.get(key, key)
                        self._set(obj, mattr, self._wrap(
                            meth, name, None if internal else mod.__name__,
                            RECORDERS.get(name)))
        # names bound by `from .x import y` in another layer module
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and vars(mod)[attr] is obj:
                    self._set(mod, attr, wrapped[id(obj)])
        for short, names in SCIPY.items():
            for attr in names:
                fn = getattr(mods[short], attr)
                self._set(mods[short], attr, self._wrap(
                    fn, f"scipy.{attr}", None, RECORDERS.get(f"scipy.{attr}")))
        self._set(mods["_cyl"], "RegularGridInterpolator",
                  _traced_rgi(self, mods["_cyl"].RegularGridInterpolator))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation -------------------------------------------------------

    def arrays(self):
        nid = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        work = np.frombuffer(self.work)
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        return nid, parent, dur, dur - child, work

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, work; per layer: self seconds."""
        nid, parent, dur, self_t, work = self.arrays()
        out = {}
        for i, name in enumerate(self.names):
            sel = nid == i
            out[name] = {"calls": int(sel.sum()), "total_s": float(dur[sel].sum()),
                         "self_s": float(self_t[sel].sum()), "work": float(work[sel].sum())}
        layers = defaultdict(float)
        for name, s in out.items():
            layers[name.split(".")[0]] += s["self_s"]
        return {"spans": out, "layers": dict(layers)}

    def child_work(self, parent_name: str, child_name: str) -> tuple[int, float]:
        """(count, summed work) of child_name spans directly under parent_name spans."""
        if parent_name not in self._ids or child_name not in self._ids:
            return 0, 0.0
        nid, parent, _, _, work = self.arrays()
        pid = self._ids[parent_name]
        sel = (nid == self._ids[child_name]) & (parent >= 0)
        sel[sel] = nid[parent[sel]] == pid
        return int(sel.sum()), float(work[sel].sum())

    def save(self, path: str) -> None:
        nid, parent, _, _, work = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=nid, parent=parent,
                            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                            work=work)


def _traced_rgi(tracer: Tracer, base):
    init_id = tracer.name_id("scipy.rgi_init")
    call_id = tracer.name_id("scipy.rgi")

    class TracedRegularGridInterpolator(base):
        """RegularGridInterpolator whose construction and calls record spans."""

        def __init__(self, *args, **kwargs):
            sid = tracer.open(init_id)
            try:
                super().__init__(*args, **kwargs)
            finally:
                tracer.close(sid)

        def __call__(self, xi, *args, **kwargs):
            sid = tracer.open(call_id)
            try:
                out = super().__call__(xi, *args, **kwargs)
            finally:
                tracer.close(sid)
            tracer.work[sid] = len(xi)
            pts = np.ascontiguousarray(xi)
            tracer.distinct["scipy.rgi"].add((pts.shape, zlib.crc32(memoryview(pts).cast("B"))))
            return out

    return TracedRegularGridInterpolator


# -- per-span work recorders: (tracer, span id, args, kwargs, result) --------

def _dft(tr, sid, args, kwargs, out):
    n = out.shape[-1]
    tr.work[sid] = out.size
    tr.counters["numerics.dft.flops_computed"] += 5.0 * n * math.log2(n) * (out.size // n) if n > 1 else 0.0


def _numerov(tr, sid, args, kwargs, out):
    tr.work[sid] = out[1].size


def _radial_values(tr, sid, args, kwargs, out):
    tr.work[sid] = getattr(out, "size", 1)


def _bn_tables(tr, sid, args, kwargs, out):
    model, N, grid = args[:3]
    tr.distinct["born.bn_tables"].add(
        (model, N, len(grid.s), float(grid.s[-1]), len(grid.z), float(grid.z[0]), float(grid.z[-1])))


def _plane(tr, sid, args, kwargs, out):
    tr.work[sid] = len(out.nodes) ** 2


def _kinetic(tr, sid, args, kwargs, out):
    tr.work[sid] = len(out)


def _quad(tr, sid, args, kwargs, out):
    tr.maxima["scipy.quad.abserr"] = max(tr.maxima["scipy.quad.abserr"], float(out[1]))


def _write(tr, sid, args, kwargs, out):
    import os
    tr.counters["cli.write.bytes"] += sum(os.path.getsize(p) for p in out)


RECORDERS = {
    "numerics.dft": _dft,
    "partialwave.numerov": _numerov,
    "potentials.radial_values": _radial_values,
    "born.bn_tables": _bn_tables,
    "eikonal.plane": _plane,
    "propagator.kinetic": _kinetic,
    "scipy.quad": _quad,
    "cli.write": _write,
}
