import inspect
import re
from pathlib import Path

from c3rig import errors

ROOT = Path(__file__).resolve().parent.parent


def _error_names():
    return sorted(
        name
        for name, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, errors.C3RigError) and cls is not errors.C3RigError
    )


def test_every_error_class_is_raised_and_tested():
    # An error class nothing raises is dead code, and one no test names is
    # a refusal no test reaches.
    source = "\n".join(p.read_text() for p in (ROOT / "src" / "c3rig").glob("*.py"))
    tests = "\n".join(
        p.read_text()
        for p in (ROOT / "tests").rglob("*")
        if p.is_file() and "__pycache__" not in p.parts
    )
    names = _error_names()
    assert len(names) > 20
    assert [n for n in names if not re.search(rf"\braise {n}\b", source)] == []
    assert [n for n in names if not re.search(rf"\b{n}\b", tests)] == []
