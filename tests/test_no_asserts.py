"""Source guards on the package.

Guards on runtime paths are explicit raises: ``python -O`` strips ``assert``.
Every answer is exact, so no float arithmetic appears anywhere in it.
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
