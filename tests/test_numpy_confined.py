"""Only the series engine uses numpy: no other module of the package imports it."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "spindex"


def _imports_numpy(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "numpy" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.level == 0 and (node.module or "").split(".")[0] == "numpy"
    return False


def test_only_localization_imports_numpy():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, f"no modules found under {PACKAGE}"
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules if path.name != "localization.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _imports_numpy(node)
    ]
    assert not found, f"numpy imported outside localization.py: {', '.join(found)}"
