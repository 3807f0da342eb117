"""The README's Library snippet runs as written, on the golden prism input."""
from __future__ import annotations

import re
from pathlib import Path

from c3rig.geometry import from_omega

ROOT = Path(__file__).resolve().parents[1]


def _library_snippet() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", library, re.S).group(1)


def test_readme_library_snippet_runs(monkeypatch):
    # the snippet opens "prism.json", which lives with the golden inputs
    monkeypatch.chdir(ROOT / "tests" / "golden")
    names: dict = {}
    exec(compile(_library_snippet(), "README.md", "exec"), names)
    assert names["verdict"].isostatic and names["rank"].isostatic
    assert all(type(c) is int for c in (names["a"], names["b"]))
    assert (names["x"], names["y"]) == from_omega((names["a"], names["b"]))
