"""Source guards on the package.

Guards on runtime paths are explicit raises: ``python -O`` strips ``assert``.
Every answer is exact, so no float arithmetic appears anywhere in it.
Every error class in ``errors.py`` is raised somewhere, so none lingers unused.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "spindex"


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


def test_every_error_class_is_raised():
    errors = ast.parse((PACKAGE / "errors.py").read_text())
    defined = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    raised = {_raised_name(node) for _, node in _nodes()
              if isinstance(node, ast.Raise) and node.exc is not None}
    assert defined, "no error classes found in errors.py"
    assert not defined - raised, f"error classes never raised: {sorted(defined - raised)}"
