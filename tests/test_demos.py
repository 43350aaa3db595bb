"""Every script in demos/ runs to completion against this checkout."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    # conftest.py puts src on PYTHONPATH, which the child interpreter reads
    result = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
