"""One fresh interpreter: time bpsing's set-up, then run a case list in-process.

Reads a JSON request on stdin: ``{"cases": [argv, ...], "trace": bool}``.  An
empty case list only measures set-up.  Writes one JSON line on stdout.  The
parent puts ``src`` on ``PYTHONPATH``; nothing but ``time``, ``io`` and ``sys``
is imported before set-up is timed, so set-up pays for everything
``bpsing.cli`` imports.
"""

import time

T0 = time.perf_counter()

import io  # noqa: E402
import sys  # noqa: E402

import bpsing.cli  # noqa: E402

_stderr, sys.stderr = sys.stderr, io.StringIO()
try:
    SETUP_RC = bpsing.cli.run([])  # builds the parser, then rejects the empty argv
finally:
    sys.stderr = _stderr
SETUP_S = time.perf_counter() - T0

import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402

TAIL = 65536  # enough for every verdict line and every small output
SAMPLE_EVERY_S = 0.05


def reference_s() -> float:
    """Time of a fixed kernel of Fraction, tuple and dict work (about 1 ms),
    the yardstick of how fast this machine runs Python right now.  Garbage
    collection is off while it runs, so objects the program left alive
    cannot slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table = {}
        acc = Fraction(0)
        for i in range(100):
            key = (i % 31, i % 17)
            table[key] = table.get(key, Fraction(0)) + Fraction(i % 5, 1 + i % 3)
            acc += table[key] * Fraction(1, 1 + i % 7)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedSampler:
    """Times the reference kernel from a SIGALRM handler every SAMPLE_EVERY_S
    seconds while the cases run, so that each case can be divided by the
    machine's speed during that very case.  Time spent in the handler is
    kept in ``spent`` and taken out of the case times."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (end time, kernel seconds)
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        kernel = reference_s()
        t1 = time.perf_counter()
        self.samples.append((t1, kernel))
        self.spent += t1 - t0

    def __enter__(self):
        self._tick(None, None)  # every case has a sample at or before its start
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def kernel_s(self, start: float, end: float) -> float:
        """Mean kernel time during [start, end], or the latest one before it."""
        inside = [k for t, k in self.samples if start <= t <= end]
        if inside:
            return statistics.fmean(inside)
        return [k for t, k in self.samples if t <= end][-1]


def run_case(argv, sampler):
    out, err = io.StringIO(), io.StringIO()
    spent = sampler.spent if sampler else 0.0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = bpsing.cli.run(argv)
        except Exception:  # a crash is a failed case, not a failed pass
            rc = -1
            traceback.print_exc()
        t1 = time.perf_counter()
    data = out.getvalue().encode()
    case = {
        "rc": rc,
        "seconds": t1 - t0 - ((sampler.spent if sampler else 0.0) - spent),
        "sha256": hashlib.sha256(data).hexdigest(),
        "bytes": len(data),
        "tail": data[-TAIL:].decode(errors="replace"),
        "stderr": err.getvalue()[-2000:],
    }
    if sampler:
        case["kernel_s"] = sampler.kernel_s(t0, t1)
    return case


def main() -> int:
    if SETUP_RC != 2:
        print(f"set-up probe: bpsing.cli.run([]) returned {SETUP_RC}, expected 2", file=sys.stderr)
        return 1
    # the machine's speed right after set-up, to express set-up in kernel runs
    setup_kernel_s = statistics.fmean(reference_s() for _ in range(5))
    request = json.load(sys.stdin)
    cases, report = [], None
    if request["trace"]:
        # no speed sampling here: the handler's time would land in the spans
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            for argv in request["cases"]:
                tracer.start_case()
                cases.append(run_case(argv, None))
        finally:
            tracer.uninstall()
        report = tracer.report()
    elif request["cases"]:
        with SpeedSampler() as sampler:
            cases = [run_case(argv, sampler) for argv in request["cases"]]
    result = {
        "setup_s": SETUP_S,
        "setup_kernel_s": setup_kernel_s,
        "cases": cases,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "trace": report,
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
