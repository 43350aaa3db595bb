"""Spans and counters around bpsing's public functions, installed from outside.

``Tracer.install`` replaces every public module-level function of each layer
module, and the methods named in ``METHODS``, by a wrapper that records a span
(self time and calls) or only counts calls.  A function is replaced at every
binding that holds it, in the defining module and in each importer, and
``uninstall`` puts every original back.  Nothing under ``src/bpsing`` knows
about the tracer.

A span's self time is its duration minus the durations of the spans it
encloses.  Work the tracer does to inspect arguments and results runs outside
every span and is charged to the ``trace`` pseudo-module, so the modules'
self times and ``trace.self_s`` add up to the time spent in ``cli.run``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("exactlin", "grading", "dgcat", "twisted", "suspension", "singcat", "lattice", "cli")

# (module, class, method, metric name, kind): a "span" is timed, a "count"
# only counted, so that methods called 10^5 times per case stay cheap.
METHODS = (
    ("dgcat", "DirectedGradedCategory", "__init__", "category_init", "span"),
    ("dgcat", "DirectedGradedCategory", "compose", "compose", "count"),
    ("singcat", "FreeComplex", "piece_matrix", "piece_matrix", "span"),
    ("singcat", "GradedRing", "piece", "piece", "count"),
    ("singcat", "GradedRing", "monomials_of_weight", "monomials_of_weight", "count"),
    ("grading", "LGroup", "normalize", "normalize", "count"),
    ("grading", "LGroup", "is_in_monoid", "is_in_monoid", "count"),
)

# exactlin entry points whose matrix arguments feed max_cells and integral_frac
MATRIX_SPANS = ("rref", "rank_kernel", "solve", "det", "complex_cohomology")


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.stats: Counter = Counter()
        self.max_cells = 0
        self._open = [0.0]  # child time of each open span, innermost last
        self._patches: list[tuple[object, str, object]] = []
        self._seen_homs: set = set()
        self._seen_pieces: set = set()
        self._rat_matrix = None

    # -- wrappers -------------------------------------------------------

    def _span(self, name: str, fn, inspector=None):
        open_, self_s, calls = self._open, self.self_s, self.calls
        self_s[name] += 0.0  # registered spans report even when idle
        calls[name] += 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                self_s[name] += dur - open_.pop()
                calls[name] += 1
                open_[-1] += dur
            if inspector is not None:
                t1 = perf_counter()
                inspector(args, result)
                spent = perf_counter() - t1
                self_s["trace.inspect"] += spent
                open_[-1] += spent
            return result

        return wrapper

    def _count(self, name: str, fn, inspector=None):
        calls = self.calls
        calls[name] += 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls[name] += 1
            if inspector is not None:
                inspector(args, result)
            return result

        return wrapper

    # -- inspectors -----------------------------------------------------

    def _matrices(self, args, result):
        for m in args:
            if isinstance(m, self._rat_matrix):
                self.stats["exactlin.matrices"] += 1
                self.max_cells = max(self.max_cells, m.rows * m.cols)
                if all(x.denominator == 1 for row in m.entries for x in row):
                    self.stats["exactlin.integral"] += 1

    def _hom_complex(self, args, H):
        key = tuple((d, len(H.basis[d]), H.differential(d)) for d in H.basis)
        if key in self._seen_homs:
            self.stats["twisted.hom_complex.repeats"] += 1
        else:
            self._seen_homs.add(key)

    def _piece(self, args, result):
        ring, d = args
        key = (ring.p, d)
        if key not in self._seen_pieces:
            self._seen_pieces.add(key)
            self.stats["singcat.piece.distinct"] += 1

    def _compose(self, args, result):
        if any(result.values()):
            self.stats["dgcat.compose.nonzero"] += 1

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every target at every binding in the loaded bpsing modules."""
        mods = {m: importlib.import_module(f"bpsing.{m}") for m in MODULES}
        self._rat_matrix = mods["exactlin"].RatMatrix
        bindings = [m for name, m in sys.modules.items()
                    if name == "bpsing" or name.startswith("bpsing.")]
        inspectors = {f"exactlin.{n}": self._matrices for n in MATRIX_SPANS}
        inspectors["twisted.hom_complex"] = self._hom_complex
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                wrapper = self._span(name, fn, inspectors.get(name))
                for owner in bindings:
                    for key, value in list(vars(owner).items()):
                        if value is fn:
                            self._patches.append((owner, key, fn))
                            setattr(owner, key, wrapper)
        method_inspectors = {"piece": self._piece, "compose": self._compose}
        for short, cls_name, attr, metric, kind in METHODS:
            cls = getattr(mods[short], cls_name)
            fn = cls.__dict__[attr]
            name = f"{short}.{metric}"
            make = self._span if kind == "span" else self._count
            self._patches.append((cls, attr, fn))
            setattr(cls, attr, make(name, fn, method_inspectors.get(metric)))

    def uninstall(self) -> None:
        """Restore every replaced binding and check that each one is back."""
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        for owner, key, original in self._patches:
            if vars(owner)[key] is not original:
                raise RuntimeError(f"{owner.__name__}.{key} was not restored")
        self._patches.clear()

    def start_case(self) -> None:
        """Repeats and distinct calls are counted within one CLI invocation."""
        self._seen_homs.clear()
        self._seen_pieces.clear()

    # -- report ---------------------------------------------------------

    def report(self) -> dict[str, float]:
        """Flat metrics: spans, counters, ratios and per-module self time."""
        out: dict[str, float] = {}
        for name, n in self.calls.items():
            out[f"{name}.calls"] = n
        for name, s in self.self_s.items():
            if name != "trace.inspect":
                out[f"{name}.s"] = s
        modules = defaultdict(float)
        for name, s in self.self_s.items():
            modules[name.split(".", 1)[0]] += s
        for short in MODULES + ("trace",):
            out[f"{short}.self_s"] = modules[short]
        stats, calls = self.stats, self.calls
        out["exactlin.matrices"] = stats["exactlin.matrices"]
        out["exactlin.max_cells"] = self.max_cells
        out["exactlin.integral_frac"] = _frac(stats["exactlin.integral"], stats["exactlin.matrices"])
        out["twisted.hom_complex.repeat_frac"] = _frac(
            stats["twisted.hom_complex.repeats"], calls["twisted.hom_complex"])
        out["singcat.piece.distinct_frac"] = _frac(
            stats["singcat.piece.distinct"], calls["singcat.piece"])
        out["dgcat.compose.nonzero_frac"] = _frac(
            stats["dgcat.compose.nonzero"], calls["dgcat.compose"])
        return out


def _frac(part: int, whole: int) -> float:
    return part / whole if whole else 0.0
