"""The public surface: every exported name exists, the demos and the
README quickstart import only names the package has, and every module
attribute the benchmark scripts read exists.

Imports are read with ``ast`` so the demos (which take seconds to run) are
never executed here.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

import infodyn

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("measures", "trajectory", "rbn", "eca", "experiments", "plots", "cli")


def _infodyn_imports(source: str) -> list[str]:
    """Names imported by ``from infodyn import ...`` statements."""
    return [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "infodyn"
        for alias in node.names
    ]


def _readme_python_blocks() -> list[str]:
    text = (ROOT / "README.md").read_text()
    return re.findall(r"```python\n(.*?)```", text, flags=re.S)


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves(module):
    mod = importlib.import_module(f"infodyn.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_package_reexports_are_in_module_all():
    # every top-level name comes from some module's declared surface
    declared = set()
    for module in MODULES:
        declared |= set(importlib.import_module(f"infodyn.{module}").__all__)
    tree = ast.parse((ROOT / "src" / "infodyn" / "__init__.py").read_text())
    reexported = {
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert reexported - declared == set()


@pytest.mark.parametrize(
    "path", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name
)
def test_demo_imports_exist(path):
    names = _infodyn_imports(path.read_text())
    assert names, f"{path.name} imports nothing from infodyn"
    assert [n for n in names if not hasattr(infodyn, n)] == []


def _module_attributes(source: str) -> list[tuple[str, str]]:
    """``(module, attribute)`` for every attribute read off an infodyn module
    bound by ``from infodyn import <module>``."""
    tree = ast.parse(source)
    bound = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "infodyn"
        for alias in node.names
        if alias.name in MODULES
    }
    return [
        (bound[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in bound
    ]


@pytest.mark.parametrize(
    "path", sorted((ROOT / "perfbench").glob("*.py")), ids=lambda p: p.name
)
def test_benchmark_attributes_exist(path):
    # the benchmark's checks and traced replica call the modules directly
    used = _module_attributes(path.read_text())
    missing = [
        f"{module}.{attr}"
        for module, attr in used
        if not hasattr(importlib.import_module(f"infodyn.{module}"), attr)
    ]
    assert missing == []


def test_readme_quickstart_imports_exist():
    blocks = _readme_python_blocks()
    assert blocks
    names = [n for block in blocks for n in _infodyn_imports(block)]
    assert names
    assert [n for n in names if not hasattr(infodyn, n)] == []
