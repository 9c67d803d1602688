"""Dead-name gate: every module-level function and class of the package has a
caller in the package or in ``bench/``, so code that only tests reach is seen
and deleted rather than maintained."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "bihomlie").glob("*.py"))
USERS = PACKAGE + sorted((ROOT / "bench").glob("*.py"))

#: name -> why it stays with no caller outside the tests
TEST_ONLY = {
    "double_adjoint_report": "acceptance criterion 6 (the form-adjoint block identity of a double) is stated on it",
}


def _definitions(modules: list[Path]) -> dict[str, tuple[Path, int, int]]:
    """Each module-level function or class of the modules: (its module, first line, last line)."""
    out = {}
    for path in modules:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                out[node.name] = (path, first, node.end_lineno)
    return out


def _lookups(node: ast.AST) -> list[ast.expr]:
    """The strings that name a function by design: the checker of a ``Step(...)`` call, the entries of ``__all__``."""
    if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Step":
        return node.args[:1] + [k.value for k in node.keywords if k.arg == "check"]
    if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
        return list(getattr(node.value, "elts", []))
    return []


def _references(files: list[Path]) -> list[tuple[str, Path, int]]:
    """(name, file, line) of each use in the files: a name, an attribute, or a string that names a function by
    design (``_lookups``).  Imports are not uses, and neither is any other string."""
    out = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                out.append((node.id, path, node.lineno))
            elif isinstance(node, ast.Attribute):
                out.append((node.attr, path, node.lineno))
            for s in _lookups(node):
                if isinstance(s, ast.Constant) and isinstance(s.value, str):
                    out.append((s.value, path, s.lineno))
    return out


def _dead(modules: list[Path], users: list[Path]) -> set[str]:
    """The names the modules define that no file of users uses outside their own definition."""
    definitions, used = _definitions(modules), set()
    for name, path, line in _references(users):
        if name in definitions:
            where, first, last = definitions[name]
            if where != path or not first <= line <= last:
                used.add(name)
    return set(definitions) - used


def test_every_module_level_name_has_a_caller_outside_tests():
    dead = sorted(_dead(PACKAGE, USERS) - set(TEST_ONLY))
    assert dead == [], f"no caller in src/ or bench/: {dead}; delete them, or list them in TEST_ONLY with a reason"


def test_every_test_only_name_is_still_defined_and_still_uncalled():
    assert set(TEST_ONLY) <= set(_definitions(PACKAGE))
    assert set(TEST_ONLY) <= _dead(PACKAGE, USERS)


def test_a_name_in_a_plain_string_alone_is_reported(tmp_path):
    # a plain string equal to a name (a span table listing it, a message) keeps nothing alive; a Step's checker,
    # by position or keyword, and an entry of __all__ do
    module, user = tmp_path / "module.py", tmp_path / "user.py"
    module.write_text("def listed(): pass\ndef stepped(): pass\ndef keyed(): pass\ndef exported(): pass\n"
                      "def called(): pass\n", encoding="utf-8")
    user.write_text('SPANS = ("listed", "called")\nS = checks.Step("stepped"), Step(check="keyed")\n'
                    '__all__ = ["exported"]\ncalled()\n', encoding="utf-8")
    assert _dead([module], [module, user]) == {"listed"}
