"""Byte-identical stdout as a Tier-1 check: every sha256 pin of the benchmark.

The pins live in ``benchmarks/workloads.py``, which is read here without
being imported as a package, so no file is written next to it.
"""

import hashlib
import runpy
from pathlib import Path

import pytest

from bpsing.cli import run

PINS = runpy.run_path(str(Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"))["PINS"]


@pytest.mark.parametrize("command", sorted(PINS))
def test_pinned_command_prints_the_pinned_bytes(capsys, command):
    assert run(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINS[command]
