"""Dead-name gate: every module-level function and class of the package has a
caller in the package or in ``bench/``, so code that only tests reach is seen
and deleted rather than maintained."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bihomlie"

#: name -> why it stays with no caller outside the tests
TEST_ONLY = {
    "double_adjoint_report": "acceptance criterion 6 (the form-adjoint block identity of a double) is stated on it",
}


def _definitions() -> dict[str, tuple[Path, int, int]]:
    """Each module-level function or class of the package: (its module, first line, last line)."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                out[node.name] = (path, first, node.end_lineno)
    return out


def _references() -> list[tuple[str, Path, int]]:
    """(name, module, line) of each use in the package and in bench/: a name, an attribute, or a string that is
    exactly a name (a suite step and ``__all__`` name a function by a string).  Imports are not uses."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                out.append((node.id, path, node.lineno))
            elif isinstance(node, ast.Attribute):
                out.append((node.attr, path, node.lineno))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                out.append((node.value, path, node.lineno))
    return out


def _called() -> set[str]:
    """The defined names used somewhere outside their own definition."""
    definitions, used = _definitions(), set()
    for name, path, line in _references():
        if name in definitions:
            where, first, last = definitions[name]
            if where != path or not first <= line <= last:
                used.add(name)
    return used


def test_every_module_level_name_has_a_caller_outside_tests():
    dead = sorted(set(_definitions()) - _called() - set(TEST_ONLY))
    assert dead == [], f"no caller in src/ or bench/: {dead}; delete them, or list them in TEST_ONLY with a reason"


def test_every_test_only_name_is_still_defined_and_still_uncalled():
    assert set(TEST_ONLY) <= set(_definitions())
    assert set(TEST_ONLY) & _called() == set()
