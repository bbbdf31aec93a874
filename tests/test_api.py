"""The public surface: every exported name exists, the demos and the
README quickstart import only names the package has, and every module
attribute the benchmark scripts read exists.

Imports are read with ``ast`` so the demos (which take seconds to run) are
never executed here.
"""

import argparse
import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

import infodyn
from infodyn import cli

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("measures", "trajectory", "rbn", "eca", "experiments", "cli")


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


def test_only_measures_uses_the_symbol_format():
    # the symbol dtype, grouping order and kernels stay behind measures.py
    private = {"_group_symbols", "_group_sources", "_row_counts", "_row_information",
               "_count_information", "_merge_counts", "_merge_runs", "_measure_blocks",
               "_measure_set", "_symbol_dtype"}
    used = {
        (path.name, name)
        for path in (ROOT / "src" / "infodyn").glob("*.py")
        if path.name != "measures.py"
        for node in ast.walk(ast.parse(path.read_text()))
        for name in (
            [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
            else [node.attr] if isinstance(node, ast.Attribute) else []
        )
        if name in private
    }
    assert used == set()


def test_one_function_groups_and_merges():
    # one measurement kernel: a second caller of the regrouping rule or of
    # the count merge would be a second grouping or counting loop
    tree = ast.parse((ROOT / "src" / "infodyn" / "measures.py").read_text())

    def callers(name):
        return [
            fn.name
            for fn in tree.body
            if isinstance(fn, ast.FunctionDef)
            and any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == name for node in ast.walk(fn))
        ]

    assert callers("_group_sources") == ["_measure_blocks"]
    assert callers("_merge_runs") == ["_measure_blocks"]


def test_only_trajectory_spells_the_seed_bound():
    # one seed validator: no other module writes its own 2**64 (or 1 << 64) check
    def is_bound(node):
        return (isinstance(node, ast.BinOp)
                and isinstance(node.op, (ast.Pow, ast.LShift))
                and isinstance(node.left, ast.Constant) and isinstance(node.right, ast.Constant)
                and (node.left.value, node.right.value) in ((2, 64), (1, 64)))

    spelled = {
        path.name
        for path in (ROOT / "src" / "infodyn").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if is_bound(node)
    }
    assert spelled == {"trajectory.py"}


def test_only_trajectory_checks_for_an_integer():
    # one integer validator (and the seed's): no other module tests numbers.Integral
    checked = {
        path.name
        for path in (ROOT / "src" / "infodyn").glob("*.py")
        if "numbers.Integral" in path.read_text()
    }
    assert checked == {"trajectory.py"}


def test_package_reexports_at_most_38_names():
    # one name per job: the top-level surface may not grow back unnoticed
    tree = ast.parse((ROOT / "src" / "infodyn" / "__init__.py").read_text())
    reexported = [
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert len(reexported) <= 38


def test_only_the_replica_adapter_names_itself():
    # one kernel: the per-scale adapter is defined in rbn.py and aliased in
    # eca.py for the benchmark's traced replica, and no other module calls it
    adapters = {"network_measures", "eca_measures"}
    named = {
        path.name
        for path in (ROOT / "src" / "infodyn").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        for name in (
            [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
            else [node.id] if isinstance(node, ast.Name)
            else [node.attr] if isinstance(node, ast.Attribute)
            else [node.name] if isinstance(node, ast.FunctionDef)
            else [node.value] if isinstance(node, ast.Constant) else []
        )
        if name in adapters
    }
    assert named == {"rbn.py", "eca.py"}


def test_only_trajectory_turns_bits_and_text_into_each_other():
    # one encoder and one decoder: no other module offsets characters by ord("0")
    call = ast.dump(ast.parse('ord("0")', mode="eval").body)
    offsetting = {
        path.name
        for path in (ROOT / "src" / "infodyn").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if ast.dump(node) == call
    }
    assert offsetting == {"trajectory.py"}


def test_each_shared_flag_is_declared_once():
    # a flag several commands read lives in one parent parser, not in each command
    shared = ("--seed", "--n", "--transient", "--window", "--average-h", "--dump-trajectory",
              "--threads")
    declared = [
        node.args[0].value
        for node in ast.walk(ast.parse((ROOT / "src" / "infodyn" / "cli.py").read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "add_argument" and node.args
        and isinstance(node.args[0], ast.Constant)
    ]
    assert {flag: declared.count(flag) for flag in shared} == dict.fromkeys(shared, 1)


def test_single_run_sizes_and_seed_default_to_the_config():
    # the CLI spells no default of its own: an absent flag keeps the config's
    (commands,) = [action.choices for action in cli._build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    flags = {"--n", "--k", "--transient", "--window", "--seed", "--init"}
    defaults = {
        (command, flag): action.default
        for command in ("rbn", "eca")
        for action in commands[command]._actions
        for flag in action.option_strings
        if flag in flags
    }
    assert defaults == dict.fromkeys(
        [("rbn", f) for f in ("--n", "--k", "--transient", "--window", "--seed")]
        + [("eca", f) for f in ("--n", "--transient", "--window", "--seed", "--init")]
    )


def test_only_the_run_many_functions_build_trajectories():
    # the record loop yields bare series and a sweep measures them as they
    # come: a Trajectory is built only where a caller asks for a list of runs
    def builds(node):
        return any(isinstance(call, ast.Call) and "Trajectory" in (
            getattr(call.func, "id", None), getattr(call.func, "attr", None))
            for call in ast.walk(node))

    builders = {
        (path.name, getattr(node, "name", None))
        for path in (ROOT / "src" / "infodyn").glob("*.py")
        for node in ast.parse(path.read_text()).body
        if builds(node)
    }
    assert builders == {("rbn.py", "run_rbn_many"), ("eca.py", "run_eca_many")}
    assert "Trajectory" not in (ROOT / "src" / "infodyn" / "experiments.py").read_text()


def test_importing_the_cli_loads_no_heavy_module(cli_env):
    # every command pays for what `import infodyn.cli` loads, so scipy (the
    # rejected sparse step), a process pool or a test tool must stay out
    code = "import sys, infodyn.cli; print(*sorted(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], env=cli_env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "infodyn.cli" in loaded and "numpy" in loaded
    heavy = {"scipy", "matplotlib", "multiprocessing", "hypothesis", "pytest"}
    assert loaded & heavy == set()
