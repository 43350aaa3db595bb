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
TRACER = runpy.run_path(str(ROOT / "benchmarks" / "tracer.py"))
METHODS = TRACER["METHODS"]
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


def test_the_tracer_reads_the_tower_through_its_spans(capsys):
    # the tracer hashes each complex's differentials to count repeated
    # complexes, and its spans split the tower's work; a change to
    # ``twisted`` that broke the hashing or moved work between spans would
    # change these counts of one verified (3,3,3) run
    tracer = TRACER["Tracer"]()
    tracer.install()
    try:
        tracer.start_case()
        assert cli.run(["fukaya", "--p", "3,3,3", "--verify"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    report = tracer.report()
    assert {name: report[name] for name in (
        "twisted.hom_complex.calls",
        "twisted.cohomology.calls",
        "twisted.compose_classes.calls",
        "exactlin.complex_cohomology.calls",
        "exactlin.rank_kernel.calls",
        "exactlin.matrices",
        "exactlin.max_cells",
        "twisted.hom_complex.repeat_frac",
    )} == {
        "twisted.hom_complex.calls": 16,
        "twisted.cohomology.calls": 16,
        "twisted.compose_classes.calls": 54,
        "exactlin.complex_cohomology.calls": 24,
        "exactlin.rank_kernel.calls": 24,
        "exactlin.matrices": 72,
        "exactlin.max_cells": 2,
        "twisted.hom_complex.repeat_frac": 0.4375,
    }
