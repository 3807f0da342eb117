"""Every module-level function and class of the package has a use."""
from __future__ import annotations

import ast
import importlib
from pathlib import Path

import c3rig

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "c3rig"


def _boundaries() -> tuple[tuple[str, str, str], ...]:
    # the benchmark tracer's (module, public name, span) boundaries, read
    # from its source
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "BOUNDARIES" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py has no BOUNDARIES")


def _traced_names() -> set[str]:
    # the public names the benchmark's tracer wraps
    return {name for _, name, _ in _boundaries()}


def _definitions_and_uses() -> tuple[dict[str, str], dict[str, set[tuple[str, str | None]]]]:
    # each module-level function and class of the package, with its module;
    # and each name the package reads, as a variable or an attribute, with
    # the module and the module-level definition (None outside one) reading it
    defined: dict[str, str] = {}
    uses: dict[str, set[tuple[str, str | None]]] = {}
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = None
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                owner = top.name
                defined[owner] = path.name
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    uses.setdefault(node.id, set()).add((path.name, owner))
                elif isinstance(node, ast.Attribute):
                    uses.setdefault(node.attr, set()).add((path.name, owner))
    return defined, uses


def _used_outside_itself(name: str, module: str, uses) -> bool:
    return any(use != (module, name) for use in uses.get(name, ()))


def test_every_public_definition_is_used_exported_or_traced():
    defined, uses = _definitions_and_uses()
    kept = set(c3rig.__all__) | _traced_names()
    unused = sorted(
        f"{module}: {name}"
        for name, module in defined.items()
        if not name.startswith("_")
        and name not in kept
        and not _used_outside_itself(name, module, uses)
    )
    assert not unused, f"public definitions nothing uses: {unused}"


# The tracer's boundaries that name nothing in their module any more: the
# calls they wrapped were moved or removed, and the tracer skips them.
_KNOWN_MISSING_BOUNDARIES = {
    "cli.relabel_symgraph",
    "certify.relabel_symgraph",
    "certify.count_fixed",
    "cli.pebble_sparsity",
    "certify.pebble_sparsity",
    "certify.laman_check",
    "trees.pebble_sparsity",
    "cli.replay_sequence",
    "trees.apply_move",
    "cli.frame_from_partition",
    "cli.framework_from_frame",
    "geometry.generalized_rigidity_matrix",
}


def test_every_traced_boundary_resolves_but_the_known_missing():
    # The tracer wraps each boundary in the module whose code calls it, and
    # skips one that is not there without failing: a refactor that moves
    # such a call loses its span silently, unless this test fails. 17 of
    # the 29 boundaries resolve.
    missing = {
        f"{module}.{name}"
        for module, name, _ in _boundaries()
        if not hasattr(importlib.import_module(f"c3rig.{module}"), name)
    }
    assert missing == _KNOWN_MISSING_BOUNDARIES


def test_every_private_definition_is_used_in_the_package():
    # a private helper that only its own body names is dead code, even when
    # a test still calls it
    defined, uses = _definitions_and_uses()
    unused = sorted(
        f"{module}: {name}"
        for name, module in defined.items()
        if name.startswith("_") and not _used_outside_itself(name, module, uses)
    )
    assert not unused, f"private definitions nothing in the package uses: {unused}"


def test_every_import_is_read_in_its_module():
    # no linter runs here: a name a module imports and never reads is dead;
    # __init__.py imports to re-export, and __future__ imports switch features
    unread = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unread += [f"{path.name}: {name}" for name in sorted(imported - read)]
    assert not unread, f"imports nothing reads: {unread}"
