"""The package needs nothing outside the standard library at runtime,
importing one route's module loads no module of another route, and importing
the CLI loads no ``dataclasses`` or ``inspect``."""

import ast
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import bpsing

ROOT = Path(__file__).resolve().parents[1]

# modules that importing the key must leave unloaded: Ext over the ring reads
# nothing of the tower or the lattices, and neither of those reads the ring
UNLOADED = {
    "singcat": {"dgcat", "twisted", "suspension", "lattice"},
    "lattice": {"singcat"},
    "suspension": {"singcat"},
}


def test_package_imports_only_the_standard_library():
    outside = []
    for path in sorted((ROOT / "src" / "bpsing").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            top = [name.split(".")[0] for name in names]
            outside += [f"{path.name}: {name}" for name in top if name not in sys.stdlib_module_names]
    assert not outside


def test_pyproject_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project.get("dependencies", []) == []
    assert "dependencies" not in project.get("dynamic", [])


def loaded_modules(module: str) -> set[str]:
    """The bpsing modules a fresh interpreter holds after ``import bpsing.<module>``.

    The child finds this checkout through the PYTHONPATH that conftest.py sets.
    """
    code = (f"import sys, bpsing.{module}; "
            "print(*sorted(m for m in sys.modules if m.startswith('bpsing.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return {name[len("bpsing."):] for name in out.stdout.split()}


@pytest.mark.parametrize("module", sorted(UNLOADED))
def test_a_route_module_loads_no_module_of_another_route(module):
    loaded = loaded_modules(module)
    assert module in loaded
    assert not loaded & UNLOADED[module], sorted(loaded)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # the records are named tuples, so every command starts without the
    # dataclasses import chain; modules a site hook loaded first do not count
    code = ("import sys; before = set(sys.modules); import bpsing.cli; "
            "print(*sorted({'dataclasses', 'inspect'} & set(sys.modules) - before))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == []


def test_the_package_namespace_binds_no_function_or_class():
    bound = [name for name, value in vars(bpsing).items()
             if inspect.isfunction(value) or inspect.isclass(value)]
    assert not bound
