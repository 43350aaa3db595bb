"""The benchmark's per-layer spans name functions that bpsing still has.

The tracer in ``benchmarks/tracer.py`` wraps each public module-level
function by name, and ``BENCHMARK.json`` reports spans under those names; a
function renamed or folded away leaves its span silent.  Both files are read
here without being imported as packages, so no file is written next to them.
"""

import importlib
import inspect
import json
import runpy
from pathlib import Path

import pytest

from bpsing import cli
from bpsing.singcat import GradedRing

ROOT = Path(__file__).resolve().parents[1]
METHODS = runpy.run_path(str(ROOT / "benchmarks" / "tracer.py"))["METHODS"]
PER_LAYER = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
METHOD_METRICS = {f"{module}.{metric}" for module, _, _, metric, _ in METHODS}
FUNCTION_SPANS = sorted(
    {
        name.rsplit(".", 1)[0]
        for name in PER_LAYER
        if name.endswith((".s", ".calls"))
        and not name.startswith("trace.")
        and name.rsplit(".", 1)[0] not in METHOD_METRICS
    }
)


@pytest.mark.parametrize("span", FUNCTION_SPANS)
def test_span_names_a_public_function_of_its_module(span):
    module_name, attr = span.split(".")
    module = importlib.import_module(f"bpsing.{module_name}")
    fn = getattr(module, attr, None)
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__, span


@pytest.mark.parametrize("module_name, cls_name, attr", [m[:3] for m in METHODS])
def test_traced_method_exists(module_name, cls_name, attr):
    cls = getattr(importlib.import_module(f"bpsing.{module_name}"), cls_name)
    assert inspect.isfunction(cls.__dict__.get(attr)), (cls_name, attr)


def test_the_singcat_suite_reads_ring_pieces_through_the_traced_method(capsys, monkeypatch):
    # the tracer counts ``GradedRing.piece`` calls; a suite that stopped
    # calling it would leave ``singcat.piece.calls`` silent on every workload
    calls = []
    piece = GradedRing.piece

    def counting(self, d):
        calls.append(d)
        return piece(self, d)

    monkeypatch.setattr(GradedRing, "piece", counting)
    assert cli.run(["verify", "--suite", "singcat", "--p", "3,3"]) == 0
    capsys.readouterr()
    assert calls


def test_the_singcat_suite_answers_ext_through_the_traced_functions(capsys, monkeypatch):
    # the tracer times ``cli``'s bindings of both Ext routes; a suite that
    # read Ext under other names would leave ``singcat.ext_k_k.s`` and
    # ``singcat.ext_formula.s`` blind to its agreement rows
    calls = []

    def record(name):
        route = getattr(cli, name)

        def wrapper(*args):
            calls.append(name)
            return route(*args)

        monkeypatch.setattr(cli, name, wrapper)

    record("ext_k_k")
    record("ext_formula")
    assert cli.run(["verify", "--suite", "singcat", "--p", "3,3"]) == 0
    capsys.readouterr()
    assert set(calls) == {"ext_k_k", "ext_formula"}
