"""Every p_s lives in `outage`: no sirnet module imports `throughput` but the
CLI, which prints its optima, and the package, which exports them; and
`throughput` defines no p_s function, only optima. Every line sum in
`contention` takes one head-length rule and one cache of zeta tails."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "sirnet"


def imports_throughput(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name == "sirnet.throughput" for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module in ("throughput", "sirnet.throughput") or (
                    module in ("", "sirnet") and any(a.name == "throughput" for a in node.names)):
                return True
    return False


def test_only_the_cli_and_the_package_import_throughput():
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 10
    importers = [p.name for p in files if imports_throughput(ast.parse(p.read_text()))]
    assert importers == ["__init__.py", "cli.py"]


def test_throughput_defines_no_ps_function():
    tree = ast.parse((SRC / "throughput.py").read_text())
    names = [node.name for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    assert "tdma_m_opt" in names
    assert [n for n in names if "ps" in n.lower().strip("_").split("_")] == []


def callers(tree):
    """{called name: the top-level functions that call it}, for f(...) and m.f(...)."""
    found = {}
    for function in tree.body:
        if isinstance(function, ast.FunctionDef):
            for node in ast.walk(function):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "attr", getattr(node.func, "id", None))
                    found.setdefault(name, set()).add(function.name)
    return found


def test_contention_builds_line_heads_and_zeta_tails_in_one_place_each():
    """Only _line_head takes Hurwitz zetas, and only _head_log2 works out the
    length of a line head, the one place that takes a frexp or a log2."""
    found = callers(ast.parse((SRC / "contention.py").read_text()))
    assert found["hurwitz_zeta"] == {"_line_head"}
    assert found.get("frexp", set()) | found.get("log2", set()) == {"_head_log2"}
