"""Every public module-level function and class of the package is reached.

A name counts as reached when the source of the package or of the
benchmark (`perfbench/`) refers to it outside its own definition: through
`from .module import name` or `from scatterlab.module import name`, as
`module.name` with `module` bound by `from . import module` or
`from scatterlab import module`, or by its bare name elsewhere in its own
module.  Tests do not count, and neither do docstrings or strings.  What
only tests reach is either wired into the package or deleted; the few
exceptions are listed in ALLOWED with the reason each stays.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "scatterlab"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}

ALLOWED = {
    ("born", "born_first_phase_shift"): "oracle of the partial-wave tests",
    ("numerics", "gauss_legendre"): "oracle of the composite_gauss tests",
    ("propagator", "modified_free_evolution"):
        "explicit Dollard asymptotics, kept until the momentum-form modifier settles it",
    **{("acceptance", f"criterion_{i:02d}"): "reached through CRITERIA's globals()"
       for i in range(1, 16)},
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
