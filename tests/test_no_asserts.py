"""Source guards on the package.

Guards on runtime paths are explicit raises: ``python -O`` strips ``assert``.
Every answer is exact, so no float arithmetic appears anywhere in it.
Every error class in ``errors.py`` is raised somewhere, so none lingers unused,
and named in some test, so none goes unexercised.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "spindex"


def _nodes():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, f"no modules found under {PACKAGE}"
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield f"{path.name}:{getattr(node, 'lineno', 0)}", node


def test_the_package_has_no_assert_statements():
    found = [where for where, node in _nodes() if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/spindex: {', '.join(found)}"


def _is_float(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name == "cmath" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.module == "cmath"
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id == "float"
    return isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))


def test_the_package_has_no_float_arithmetic():
    found = [where for where, node in _nodes() if _is_float(node)]
    assert not found, f"float arithmetic in src/spindex: {', '.join(found)}"


def _raised_name(node) -> str | None:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    if isinstance(exc, ast.Name):
        return exc.id
    return exc.attr if isinstance(exc, ast.Attribute) else None


def _error_classes() -> set[str]:
    errors = ast.parse((PACKAGE / "errors.py").read_text())
    return {node.name for node in errors.body if isinstance(node, ast.ClassDef)}


def test_every_error_class_is_raised():
    defined = _error_classes()
    raised = {_raised_name(node) for _, node in _nodes()
              if isinstance(node, ast.Raise) and node.exc is not None}
    assert defined, "no error classes found in errors.py"
    assert not defined - raised, f"error classes never raised: {sorted(defined - raised)}"


def test_every_error_class_is_named_in_a_test():
    defined = _error_classes()
    named = set()
    for path in TESTS.rglob("*.py"):
        named |= {node.id if isinstance(node, ast.Name) else node.attr
                  for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                  if isinstance(node, (ast.Name, ast.Attribute))}
    assert defined, "no error classes found in errors.py"
    assert not defined - named, f"error classes no test names: {sorted(defined - named)}"
