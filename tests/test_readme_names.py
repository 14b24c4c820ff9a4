"""Every package reference README.md writes in backticks resolves.

Code blocks aside, a backticked span is a reference when it is
- `module.name` or `scatterlab.module.name` (a call's arguments dropped,
  `scatterlab.cli:main` read as `scatterlab.cli.main`) with `module` a
  package module: the imported module has the attribute, so names bound
  lazily, such as `_cyl.RegularGridInterpolator`, count;
- `scatterlab.module`: the package has the module;
- a bare upper-case constant such as `MAX_SPAN_PHASE`: some package module
  assigns it at top level.  The environment variables `*_NUM_THREADS` and
  `PYTHONPATH` are not package names.

And every error a run can end in, each numerics.ScatterlabError subclass
the package defines, is named in README.md: by its class name, or by its
non-empty prefix, the text the CLI prints after "config error: ".
"""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import scatterlab
from scatterlab.numerics import ScatterlabError

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "scatterlab"
MODULES = {info.name for info in pkgutil.iter_modules(scatterlab.__path__)}
ENVIRONMENT = re.compile(r"[A-Z]+_NUM_THREADS|PYTHONPATH")


def _spans():
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    return re.findall(r"`([^`\n]+)`", text)


def _constants():
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _references(spans):
    """(span, resolves) for each package reference among the spans."""
    constants = _constants()
    for span in spans:
        if re.fullmatch(r"_?[A-Z][A-Z0-9_]+", span):
            if not ENVIRONMENT.fullmatch(span):
                yield span, span in constants
            continue
        dotted = re.fullmatch(r"([\w.:]+)(\(.*\))?", span)
        if not dotted:
            continue
        parts = dotted.group(1).replace(":", ".").split(".")
        if parts[0] == "scatterlab":
            parts = parts[1:]
            if len(parts) == 1:
                yield span, parts[0] in MODULES
                continue
        if len(parts) == 2 and parts[0] in MODULES:
            module = importlib.import_module(f"scatterlab.{parts[0]}")
            yield span, hasattr(module, parts[1])


def test_every_reference_resolves():
    references = list(_references(_spans()))
    assert len(references) >= 20   # README names about thirty
    assert [span for span, resolves in references if not resolves] == []


def test_a_stale_name_is_caught():
    # a constant that no module assigns, and a name that its module lacks
    spans = ["MAX_SPAN_PHASE", "CHEBYSHEV_TOL", "propagator.jv",
             "_cyl.RegularGridInterpolator", "OMP_NUM_THREADS", "scatterlab.obs"]
    assert [span for span, resolves in _references(spans) if not resolves] == [
        "CHEBYSHEV_TOL", "propagator.jv", "scatterlab.obs"]


def _unnamed_errors(text):
    """The package's ScatterlabError subclasses that text names neither by
    class name nor by prefix, as module.Class."""
    unnamed = []
    for name in sorted(MODULES):
        module = importlib.import_module(f"scatterlab.{name}")
        for cls in vars(module).values():
            if (isinstance(cls, type) and issubclass(cls, ScatterlabError)
                    and cls.__module__ == module.__name__
                    and not re.search(rf"\b{cls.__name__}\b", text)
                    and not (cls.prefix and cls.prefix in text)):
                unnamed.append(f"{name}.{cls.__name__}")
    return unnamed


def test_every_typed_error_is_named():
    assert _unnamed_errors((ROOT / "README.md").read_text()) == []


def test_an_unnamed_error_is_caught():
    # ParameterError's prefix is empty, so only its class name names it;
    # NumericalError's prefix names it
    text = ("ScatterlabError DomainError ConfigError numerical: convergence: "
            "window: resonance proximity: reflection: ")
    assert _unnamed_errors(text) == ["numerics.ParameterError"]
