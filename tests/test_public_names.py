"""Every public module-level function and class of the package has a use."""
from __future__ import annotations

import ast
from pathlib import Path

import c3rig

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "c3rig"


def _traced_names() -> set[str]:
    # the public names the benchmark's tracer wraps, read from its source
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "BOUNDARIES" for t in node.targets
        ):
            return {name for _, name, _ in ast.literal_eval(node.value)}
    raise AssertionError("bench/spans.py has no BOUNDARIES")


def test_every_public_definition_is_used_exported_or_traced():
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined[node.name] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    kept = used | set(c3rig.__all__) | _traced_names()
    unused = sorted(f"{module}: {name}" for name, module in defined.items() if name not in kept)
    assert not unused, f"public definitions nothing uses: {unused}"
