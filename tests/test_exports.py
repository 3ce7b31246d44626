"""Every name in a sirnet module's __all__ exists in that module, and the
package imports only exported names. Tools that find a module's public
functions through __all__ (such as the benchmark's tracer) skip a stale name
without a warning, so a removed function would leave its metric reading 0."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import sirnet

MODULES = sorted(m.name for m in pkgutil.iter_modules(sirnet.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"sirnet.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), name
    assert [n for n in exported if not hasattr(module, n)] == [], name


def test_the_package_imports_only_exported_names():
    tree = ast.parse(pathlib.Path(sirnet.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    stray = [f"{node.module}.{alias.name}" for node in imports for alias in node.names
             if alias.name not in importlib.import_module(f"sirnet.{node.module}").__all__]
    assert stray == []
