"""Every public module-level function and class of the package is reached,
and every parameter with a default of a public function is passed.

A name counts as reached when the source of the package or of the
benchmark (`perfbench/`) refers to it outside its own definition: through
`from .module import name` or `from scatterlab.module import name`, as
`module.name` with `module` bound by `from . import module` or
`from scatterlab import module`, or by its bare name elsewhere in its own
module.  Tests do not count, and neither do docstrings or strings.  What
only tests reach is either wired into the package or deleted; the few
exceptions are listed in ALLOWED with the reason each stays.

Every module-level import of the package is used in its module, except
the scipy names that the benchmark tracer wraps (`SCIPY` in
`perfbench/tracing.py`), which stay bound for it.

A parameter with a default counts as passed when some call in the same
sources names it as a keyword or reaches it by position.  A call resolves
through the names above, through both branches of `(f if c else g)(...)`,
and through a one-line alias `probe = f` (or `= f if c else g`) in the same
top-level definition.  A parameter no call passes is a constant in
disguise; the exceptions are listed in UNPASSED with the reason each stays.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "scatterlab"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}

ALLOWED = {
    ("born", "born_first_phase_shift"): "oracle of the partial-wave tests",
    **{("acceptance", f"criterion_{i:02d}"): "reached through CRITERIA's globals()"
       for i in range(1, 16)},
}


UNPASSED = {
    **{("diagnostics", "lap_probe", p): "tests shrink the LAP grid"
       for p in ("n", "extent")},
    **{("partialwave", fn, p): "tests vary the Numerov grid; the ROADMAP "
       "items 3 and 6 oracles vary dr"
       for fn in ("phase_shift_table", "radial_phase_shift")
       for p in ("r_max", "dr")},
    ("propagator", "scattering_phase_from_time_domain", "packet_width"):
        "the bandwidth-guard test passes a packet whose band is too wide",
    **{("propagator", "scattering_phase_from_time_domain", p):
       "no test sizes them; ROADMAP item 4 varies them (C10's error is "
       "the spatial step)"
       for p in ("n", "dx")},
    ("cli", "main", "argv"): "tests pass argv; the console script passes none",
}


def _package_module(node: ast.ImportFrom) -> str | None:
    """The package module an import names: "" for the package itself,
    None for anything outside it."""
    if node.level == 1:
        return node.module or ""
    if node.module == "scatterlab":
        return ""
    if node.module and node.module.startswith("scatterlab."):
        return node.module.split(".", 1)[1]
    return None


def references(tree: ast.Module, home: str | None = None) -> set[tuple[str, str]]:
    """(module, name) pairs that a source file refers to; home is the
    package module the file is, None for a file outside the package."""
    aliases, found = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (mod := _package_module(node)) is not None:
            for alias in node.names:
                if mod:
                    found.add((mod, alias.name))
                elif alias.name in MODULES:
                    aliases[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            found.add((aliases[node.value.id], node.attr))
    if home is not None:
        for top in tree.body:
            own = getattr(top, "name", None)
            found.update((home, node.id) for node in ast.walk(top)
                         if isinstance(node, ast.Name) and node.id != own)
    return found


def public_definitions() -> set[tuple[str, str]]:
    return {(path.stem, node.name)
            for path in PACKAGE.glob("*.py")
            for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def reached() -> set[tuple[str, str]]:
    found = set()
    for path in PACKAGE.glob("*.py"):
        found |= references(ast.parse(path.read_text()), path.stem)
    for path in (ROOT / "perfbench").rglob("*.py"):
        found |= references(ast.parse(path.read_text()))
    return found


def test_every_public_definition_is_reached():
    unreached = sorted(public_definitions() - reached() - set(ALLOWED))
    assert not unreached, f"reached only from tests, if at all: {unreached}"


def test_allowlist_is_current():
    # an entry for a deleted or since-reached name would hide nothing
    defined, found = public_definitions(), reached()
    stale = sorted(name for name in ALLOWED if name not in defined or name in found)
    assert not stale, f"ALLOWED entries to drop: {stale}"


def defaulted_parameters() -> dict[tuple[str, str], tuple[list[str], list[str]]]:
    """(module, function) -> (positional parameter names, names of the
    parameters with a default) for every public module-level function with
    at least one default."""
    found = {}
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            args = node.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            if defaulted:
                found[(path.stem, node.name)] = (positional, defaulted)
    return found


def _functions(tree: ast.Module, home: str | None) -> dict[str, tuple[str, str]]:
    """Bare names that denote a package function in this source: imported
    ones, and for a package module its own top-level functions."""
    names = {}
    if home is not None:
        names.update({node.name: (home, node.name) for node in tree.body
                      if isinstance(node, ast.FunctionDef)})
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (mod := _package_module(node)):
            for alias in node.names:
                names[alias.asname or alias.name] = (mod, alias.name)
    return names


def _modules(tree: ast.Module) -> dict[str, str]:
    """Names bound to a package module by `from . import module`."""
    return {alias.asname or alias.name: alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and _package_module(node) == ""
            for alias in node.names if alias.name in MODULES}


def passed_parameters() -> set[tuple[str, str, str]]:
    """(module, function, parameter) for every defaulted parameter that a
    call in the package or the benchmark passes."""
    signatures = defaulted_parameters()
    passed = set()
    sources = [(path, path.stem) for path in PACKAGE.glob("*.py")]
    sources += [(path, None) for path in (ROOT / "perfbench").rglob("*.py")]
    for path, home in sources:
        tree = ast.parse(path.read_text())
        functions, modules = _functions(tree, home), _modules(tree)

        def targets(expr, local):
            if isinstance(expr, ast.IfExp):
                return targets(expr.body, local) | targets(expr.orelse, local)
            if isinstance(expr, ast.Name):
                if expr.id in local:
                    return local[expr.id]
                return {functions[expr.id]} if expr.id in functions else set()
            if (isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name)
                    and expr.value.id in modules):
                return {(modules[expr.value.id], expr.attr)}
            return set()

        for top in tree.body:
            local = {}
            for node in ast.walk(top):
                if (isinstance(node, ast.Assign) and len(node.targets) == 1
                        and isinstance(node.targets[0], ast.Name)
                        and (found := targets(node.value, {}))):
                    local[node.targets[0].id] = found
            for call in ast.walk(top):
                if not isinstance(call, ast.Call):
                    continue
                for target in targets(call.func, local) & signatures.keys():
                    positional, defaulted = signatures[target]
                    if (any(isinstance(a, ast.Starred) for a in call.args)
                            or any(k.arg is None for k in call.keywords)):
                        names = set(defaulted)
                    else:
                        names = set(positional[:len(call.args)])
                        names |= {k.arg for k in call.keywords}
                    passed |= {target + (name,) for name in names
                               if name in defaulted}
    return passed


def test_every_defaulted_parameter_is_passed():
    defaulted = {key + (name,) for key, (_, names)
                 in defaulted_parameters().items() for name in names}
    unpassed = sorted(defaulted - passed_parameters() - set(UNPASSED))
    assert not unpassed, f"defaults no call in the package overrides: {unpassed}"


def test_unpassed_allowlist_is_current():
    # an entry for a deleted, default-free or since-passed parameter would
    # hide nothing
    defaulted = {key + (name,) for key, (_, names)
                 in defaulted_parameters().items() for name in names}
    passed = passed_parameters()
    stale = sorted(key for key in UNPASSED if key not in defaulted or key in passed)
    assert not stale, f"UNPASSED entries to drop: {stale}"


def _tracer_scipy_names() -> dict[str, tuple[str, ...]]:
    """SCIPY of perfbench/tracing.py: module -> the scipy names it wraps there."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None)
                                             for t in node.targets] == ["SCIPY"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py binds no SCIPY")


def test_every_import_is_used():
    exempt = _tracer_scipy_names()
    unused = []
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        bound = [alias.asname or alias.name.split(".")[0]
                 for node in tree.body
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 and getattr(node, "module", None) != "__future__"
                 for alias in node.names]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(path.stem, name) for name in bound
                   if name not in used and name not in exempt.get(path.stem, ())]
    assert not unused, f"imports nothing in their module uses: {sorted(unused)}"
