"""The package needs nothing outside the standard library at runtime."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


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
