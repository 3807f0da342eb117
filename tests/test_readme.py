"""The README's Library snippet runs as written, on the golden prism input."""
from __future__ import annotations

import re
from fractions import Fraction
from pathlib import Path

from c3rig.geometry import _cartesian_terms

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
    # the snippet's comment gives the point's Cartesian coordinates
    a, b = names["a"], names["b"]
    assert "x = a - b/2, y = (b/2)*sqrt(3)" in _library_snippet()
    xn, xd, yn, yd = _cartesian_terms((a, b))
    assert (Fraction(xn, xd), Fraction(yn, yd)) == (a - Fraction(b, 2), Fraction(b, 2))
