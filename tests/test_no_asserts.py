"""Guards on runtime paths are explicit raises: ``python -O`` strips ``assert``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "spindex"


def test_the_package_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert sorted(PACKAGE.glob("*.py")), f"no modules found under {PACKAGE}"
    assert not found, f"assert statements in src/spindex: {', '.join(found)}"
