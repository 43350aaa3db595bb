"""Self-test of the benchmark: tiny case lists through the same machinery.

    python3 benchmarks/selftest.py

Runs each workload's tiny case list (workloads.tiny) for one untraced and
one traced pass.  It fails unless every case passes its check, traced stdout
equals untraced stdout, every end-to-end metric of BENCHMARK.json is printed
with its unit and a positive value, every per-layer metric is produced, and
the module shares add up to the traced wall time.  Across the workloads,
every span and counter named in per_layer must fire at least once, so a
function renamed in bpsing shows here as a missing span, not a silent zero.
"""

from __future__ import annotations

import sys

import run
import workloads
from tracer import MODULES


def check_workload(name: str, bench: dict, fired: set[str]) -> list[str]:
    errors = []
    cases = workloads.tiny(name)
    for trace in (False, True):
        result = run.measure(cases, 0, trace)
        metrics, missing = run.metrics_for(result, trace, bench)
        errors += [f"{name}: {text}" for text in result["problems"]]
        if result["failed"]:
            errors.append(f"{name}: {result['failed']} cases failed")
        errors += [f"{name}: per-layer metric {key} is not produced" for key in missing]
        wanted = bench["per_layer"] if trace else bench["end_to_end"]
        for m in wanted:
            got = metrics.get(m["name"])
            if got is None or got["unit"] != m["unit"]:
                errors.append(f"{name}: metric {m['name']} missing or without unit {m['unit']}")
            elif not trace and not got["value"] > 0:
                errors.append(f"{name}: end-to-end metric {m['name']} is {got['value']}")
            elif trace and got["value"] > 0:
                fired.add(m["name"])
        if trace:
            layers = result["layers"]
            total = sum(layers[f"{short}.share"] for short in MODULES + ("trace",))
            if abs(total - 1) > 0.02:
                errors.append(f"{name}: module shares add up to {total:.4f}, not 1")
    return errors


def main() -> int:
    bench = run.spec()
    fired: set[str] = set()
    errors = []
    for name in workloads.NAMES:
        errors += check_workload(name, bench, fired)
    for m in bench["per_layer"]:
        key = m["name"]
        if key.endswith((".s", ".calls")) and key not in fired:
            errors.append(f"span {key} never fired on any workload")
    for text in errors:
        print(f"FAIL {text}")
    print("selftest: " + ("FAIL" if errors else "PASS"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
