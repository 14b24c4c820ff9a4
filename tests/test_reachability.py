"""Every module-level function and class of the package, public or
private, is reached, and every parameter with a default of a public
function is passed.

A name counts as reached when the source of the package or of the
benchmark (`perfbench/`) refers to it outside its own definition: through
`from .module import name` or `from scatterlab.module import name`, as
`module.name` with `module` bound by `from . import module` or
`from scatterlab import module`, or by its bare name elsewhere in its own
module.  Tests do not count, and neither do docstrings or strings.  What
only tests reach is either wired into the package or deleted; the few
exceptions are listed in ALLOWED with the reason each stays.

Every name a package module assigns at top level, dunders excepted, is
read: loaded by its bare name in its own module, or imported or reached as
`module.name` from the package or the benchmark.

Every field of a package dataclass is read: loaded as an attribute by its
name (`x.field`) somewhere in the package or the benchmark.  The check goes
by name alone, so a field shares its reads with any attribute of the same
name: `S0Sample.N` passed as long as `_PsiEvaluator.N` was read.  A class
that the package serializes whole with `asdict` is exempt (SERIALIZED).

Every module-level import of the package is used in its module, except
the scipy names that the benchmark tracer wraps (`SCIPY` in
`perfbench/tracing.py`), which stay bound for it.

A parameter with a default counts as passed when some call in the same
sources names it as a keyword or reaches it by position, and as taken when
some call leaves it out.  A call resolves through the names above, through
both branches of `(f if c else g)(...)`, through a one-line alias
`probe = f` (or `= f if c else g`) in the same top-level definition, and
through a parameter that a call passes a package function to, such as
`transport_orders`' `march`.  A class call resolves to its `__init__`, and
`x.method(...)` to every package method of that name, unless x is bound by
a non-package import.  A public function's parameter that no call passes is
a constant in disguise; the exceptions are listed in UNPASSED.  A default
of any function or method that every call overrides is a required
parameter in disguise, whose default branch no result depends on; the
exceptions are listed in OVERRIDDEN.  Each entry gives the reason it stays.

Outside `potentials.py`, a comparison on a `.kind` attribute appears only
in a function listed in KIND_BRANCHES, with the reason it branches on the
kind there rather than asking the model.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "scatterlab"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}

ALLOWED = {
    ("born", "born_first_phase_shift"): "oracle of the partial-wave tests",
}


SERIALIZED = {
    ("acceptance", "CriterionResult"): "cli writes each result whole with asdict",
}


UNPASSED = {
    **{("diagnostics", "lap_probe", p): "tests shrink the LAP grid"
       for p in ("n", "extent")},
    ("cli", "main", "argv"): "tests pass argv; the console script passes none",
}


OVERRIDDEN = {
    ("cli", "run", "out_dir"): "an output path, set where the package is "
                               "deployed; main passes its --out",
}


KIND_BRANCHES = {
    ("born", "_radial_rule"): "the 5000 cap on power tails, which only "
                              "born_first_phase_shift reaches",
    ("born", "born_first_amplitude"): "the power tail's closed form",
    ("eikonal", "_table_extent"): "L = 40 on power tails",
    ("partialwave", "_numerov_channels"): "the square well's edge average and "
                                          "yukawa's seed at r = dr",
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


def definitions() -> set[tuple[str, str]]:
    """(module, name) of every module-level function and class."""
    return {(path.stem, node.name)
            for path in PACKAGE.glob("*.py")
            for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def reached() -> set[tuple[str, str]]:
    found = set()
    for path in PACKAGE.glob("*.py"):
        found |= references(ast.parse(path.read_text()), path.stem)
    for path in (ROOT / "perfbench").rglob("*.py"):
        found |= references(ast.parse(path.read_text()))
    return found


def test_every_public_definition_is_reached():
    unreached = sorted(name for name in definitions() - reached() - set(ALLOWED)
                       if not name[1].startswith("_"))
    assert not unreached, f"reached only from tests, if at all: {unreached}"


def test_every_private_definition_is_reached():
    # a private helper that only tests call is a test helper in the package
    unreached = sorted(name for name in definitions() - reached() - set(ALLOWED)
                       if name[1].startswith("_"))
    assert not unreached, f"private, and reached only from tests, if at all: {unreached}"


def test_allowlist_is_current():
    # an entry for a deleted or since-reached name would hide nothing
    defined, found = definitions(), reached()
    stale = sorted(name for name in ALLOWED if name not in defined or name in found)
    assert not stale, f"ALLOWED entries to drop: {stale}"


def constants() -> set[tuple[str, str]]:
    """(module, name) of every name a package module assigns at top level,
    dunders excepted."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            found.update((path.stem, name.id) for target in targets
                         for name in ast.walk(target)
                         if isinstance(name, ast.Name)
                         and not (name.id.startswith("__") and name.id.endswith("__")))
    return found


def read_constants() -> set[tuple[str, str]]:
    """(module, name) pairs the package or the benchmark reads: a bare name
    loaded in its own module, or an import or `module.name` elsewhere."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        found |= references(tree)
        found.update((path.stem, node.id) for node in ast.walk(tree)
                     if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
    for path in (ROOT / "perfbench").rglob("*.py"):
        found |= references(ast.parse(path.read_text()))
    return found


def test_every_constant_is_read():
    # a constant left behind by a deleted path is assigned and never read
    unread = sorted(constants() - read_constants())
    assert not unread, f"module-level names nothing reads: {unread}"


def signatures() -> dict[tuple[str, str], tuple[list[str], list[str]]]:
    """(module, function) -> (positional parameter names, names of the
    parameters with a default) for every function of the package: a
    module-level one by its name, a method as `Class.method`, whose
    positional names leave out self.  Properties take no arguments and are
    left out."""
    found = {}
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        defs = [(node.name, node, 0) for node in tree.body
                if isinstance(node, ast.FunctionDef)]
        defs += [(f"{cls.name}.{node.name}", node, 1) for cls in tree.body
                 if isinstance(cls, ast.ClassDef) for node in cls.body
                 if isinstance(node, ast.FunctionDef)
                 and not any(getattr(d, "id", None) == "property"
                             for d in node.decorator_list)]
        for name, node, bound in defs:
            args = node.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            found[(path.stem, name)] = (positional[bound:], defaulted)
    return found


def defaults(public: bool = False) -> set[tuple[str, str, str]]:
    """(module, function, parameter) for every parameter with a default;
    with public, of public module-level functions only."""
    return {key + (name,) for key, (_, names) in signatures().items()
            for name in names
            if not public or not (key[1].startswith("_") or "." in key[1])}


def _functions(tree: ast.Module, home: str | None) -> dict[str, tuple[str, str]]:
    """Bare names that denote a package function or class in this source:
    imported ones, and for a package module its own top-level ones."""
    names = {}
    if home is not None:
        names.update({node.name: (home, node.name) for node in tree.body
                      if isinstance(node, (ast.FunctionDef, ast.ClassDef))})
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


def _calls(tree, home, sigs, methods, passed_in) -> list:
    """The resolved calls of one source (see resolved_calls); each function
    passed as an argument to a package function is added to passed_in."""
    functions, modules = _functions(tree, home), _modules(tree)
    foreign = {alias.asname or alias.name.split(".")[0]
               for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
               for alias in node.names} - functions.keys() - modules.keys()

    def targets(expr, local):
        if isinstance(expr, ast.IfExp):
            return targets(expr.body, local) | targets(expr.orelse, local)
        if isinstance(expr, ast.Name):
            if expr.id in local:
                return local[expr.id]
            found = {functions[expr.id]} if expr.id in functions else set()
        elif (isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name)
                and expr.value.id in modules):
            found = {(modules[expr.value.id], expr.attr)}
        elif isinstance(expr, ast.Attribute):
            base = expr.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in foreign:
                return set()
            return methods.get(expr.attr, set())
        else:
            return set()
        # a class stands for its __init__
        return {(mod, f"{name}.__init__") if (mod, f"{name}.__init__") in sigs
                else (mod, name) for mod, name in found}

    found = []
    for top in tree.body:
        scopes = ([top.name] if isinstance(top, ast.FunctionDef) else
                  [f"{top.name}.{node.name}" for node in top.body
                   if isinstance(node, ast.FunctionDef)]
                  if isinstance(top, ast.ClassDef) else [])
        local = {}
        for (mod, name, param), passed in passed_in.items():
            if mod == home and name in scopes:
                local.setdefault(param, set()).update(passed)
        for node in ast.walk(top):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and (aliased := targets(node.value, {}))):
                local[node.targets[0].id] = aliased
        for call in ast.walk(top):
            if not isinstance(call, ast.Call):
                continue
            for target in targets(call.func, local) & sigs.keys():
                positional, _ = sigs[target]
                if (any(isinstance(a, ast.Starred) for a in call.args)
                        or any(k.arg is None for k in call.keywords)):
                    found.append((target, None))
                    continue
                found.append((target, set(positional[:len(call.args)])
                              | {k.arg for k in call.keywords}))
                for param, arg in [*zip(positional, call.args),
                                   *((k.arg, k.value) for k in call.keywords)]:
                    passed = {f for f in targets(arg, local) if "." not in f[1]}
                    if passed:
                        passed_in.setdefault(target + (param,), set()).update(passed)
    return found


def resolved_calls() -> list[tuple[tuple[str, str], set[str] | None]]:
    """(function, the parameters the call names, or None for a call that
    spreads *args or **kwargs) for every call in the package or the
    benchmark that resolves to a package function.  Resolution repeats
    until the functions passed as arguments, which a callee calls by its
    parameter's name, stop growing."""
    sigs = signatures()
    methods = {}
    for key in sigs:
        if "." in key[1]:
            methods.setdefault(key[1].rsplit(".", 1)[1], set()).add(key)
    trees = [(ast.parse(path.read_text()), path.stem) for path in PACKAGE.glob("*.py")]
    trees += [(ast.parse(path.read_text()), None)
              for path in (ROOT / "perfbench").rglob("*.py")]
    passed_in = {}
    while True:
        before = {key: set(value) for key, value in passed_in.items()}
        found = [call for tree, home in trees
                 for call in _calls(tree, home, sigs, methods, passed_in)]
        if passed_in == before:
            return found


def passed_parameters() -> set[tuple[str, str, str]]:
    """(module, function, parameter) for every defaulted parameter that a
    call in the package or the benchmark passes."""
    sigs = signatures()
    return {target + (name,) for target, names in resolved_calls()
            for name in sigs[target][1] if names is None or name in names}


def omitted_parameters() -> set[tuple[str, str, str]]:
    """(module, function, parameter) for every defaulted parameter that a
    call in the package or the benchmark leaves out, so takes its default."""
    sigs = signatures()
    return {target + (name,) for target, names in resolved_calls()
            if names is not None for name in sigs[target][1] if name not in names}


def test_every_defaulted_parameter_is_passed():
    unpassed = sorted(defaults(public=True) - passed_parameters() - set(UNPASSED))
    assert not unpassed, f"defaults no call in the package overrides: {unpassed}"


def test_unpassed_allowlist_is_current():
    # an entry for a deleted, default-free or since-passed parameter would
    # hide nothing
    defaulted, passed = defaults(public=True), passed_parameters()
    stale = sorted(key for key in UNPASSED if key not in defaulted or key in passed)
    assert not stale, f"UNPASSED entries to drop: {stale}"


def test_every_default_is_taken():
    # a default that every call overrides is a required parameter in
    # disguise, and the branch that handles it is code no result depends on
    untaken = sorted(defaults() - omitted_parameters() - set(OVERRIDDEN))
    assert not untaken, f"defaults every call in the package overrides: {untaken}"


def test_overridden_allowlist_is_current():
    defaulted, omitted = defaults(), omitted_parameters()
    stale = sorted(key for key in OVERRIDDEN if key not in defaulted or key in omitted)
    assert not stale, f"OVERRIDDEN entries to drop: {stale}"


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


def dataclass_fields() -> dict[tuple[str, str], list[str]]:
    """(module, class) -> its field names, for every @dataclass of the package."""
    found = {}
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and any(
                    getattr(d, "id", None) == "dataclass"
                    or getattr(getattr(d, "func", None), "id", None) == "dataclass"
                    for d in node.decorator_list):
                found[(path.stem, node.name)] = [
                    item.target.id for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
    return found


def test_every_dataclass_field_is_read():
    # a field that nothing reads is carried, and computed, for no result
    read = set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").rglob("*.py")]:
        read.update(node.attr for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    fields = dataclass_fields()
    assert set(SERIALIZED) <= set(fields), "SERIALIZED names a class that is gone"
    unread = sorted((*key, name) for key, names in fields.items()
                    if key not in SERIALIZED for name in names if name not in read)
    assert not unread, f"dataclass fields nothing reads: {unread}"


def kind_branches() -> set[tuple[str, str]]:
    """(module, function) of every top-level function or method (as
    `Class.method`) outside potentials that compares a `.kind` attribute."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        if path.stem == "potentials":
            continue
        tree = ast.parse(path.read_text())
        defs = [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
        defs += [(f"{cls.name}.{node.name}", node) for cls in tree.body
                 if isinstance(cls, ast.ClassDef) for node in cls.body
                 if isinstance(node, ast.FunctionDef)]
        found.update((path.stem, name) for name, node in defs
                     for cmp in ast.walk(node) if isinstance(cmp, ast.Compare)
                     if any(isinstance(side, ast.Attribute) and side.attr == "kind"
                            for side in (cmp.left, *cmp.comparators)))
    return found


def test_kind_branches_are_listed():
    # a routine that needs a property of v asks the model (require_decay,
    # require_bounded, tail_radius) instead of naming the kinds that have it
    unlisted = sorted(kind_branches() - set(KIND_BRANCHES))
    assert not unlisted, f"branches on a model's kind outside potentials: {unlisted}"


def test_kind_branches_allowlist_is_current():
    stale = sorted(set(KIND_BRANCHES) - kind_branches())
    assert not stale, f"KIND_BRANCHES entries to drop: {stale}"
