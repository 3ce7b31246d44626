"""sirnet depends on numpy alone, and its tests check it against mpmath and
brute-force oracles, so no module under src/ or tests/ may import scipy."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def scipy_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        yield from (f"{path.relative_to(ROOT)}:{node.lineno}" for name in names
                    if name == "scipy" or name.startswith("scipy."))


def test_no_module_imports_scipy():
    files = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))
    assert len(files) > 20
    assert [hit for path in files for hit in scipy_imports(path)] == []
