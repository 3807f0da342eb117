import ast
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


def _expected_by_tests() -> set[str]:
    # every name in the first argument of a ``pytest.raises`` call under
    # tests/, bare, as an attribute or inside a tuple
    expected = set()
    for path in (ROOT / "tests").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "raises"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "pytest"
                and node.args
            ):
                for name in ast.walk(node.args[0]):
                    if isinstance(name, ast.Name):
                        expected.add(name.id)
                    elif isinstance(name, ast.Attribute):
                        expected.add(name.attr)
    return expected


def test_every_error_class_is_raised_and_tested():
    # An error class nothing raises is dead code, and one no test expects
    # from ``pytest.raises`` is a refusal no test reaches: naming it is not
    # raising it.
    source = "\n".join(p.read_text() for p in (ROOT / "src" / "c3rig").glob("*.py"))
    names = _error_names()
    assert len(names) > 20
    assert [n for n in names if not re.search(rf"\braise {n}\b", source)] == []
    expected = _expected_by_tests()
    assert [n for n in names if n not in expected] == []
