"""The benchmark's traced run wraps scipy entry points by module attribute
(perfbench/tracing.py `SCIPY`).  A name there that a module stops binding
breaks only the traced run, which the package's tests do not collect, so
this checks every binding here."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _scipy_bindings():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.SCIPY


def test_traced_scipy_names_still_bound():
    bindings = _scipy_bindings()
    assert bindings
    for short, names in bindings.items():
        module = importlib.import_module(f"scatterlab.{short}")
        for name in names:
            fn = getattr(module, name, None)
            assert callable(fn), f"scatterlab.{short}.{name} is not bound"
            assert fn.__module__.startswith("scipy"), (short, name)
