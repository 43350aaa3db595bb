"""Benchmark of the bpsing CLI: end-to-end metrics, or per-layer metrics traced.

    python3 benchmarks/run.py --workload tower --seed 1 --seconds 40 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 40 --trace 1 \
        --out benchmarks/BENCH_0.json

Closed loop, one caller: each timed pass is a fresh interpreter (child.py)
that runs the workload's cases one after another through ``bpsing.cli.run``,
so no pass inherits state from another.  Passes repeat until ``--seconds``
have gone by; every metric is a median over the passes.  Every case's output
is checked (workloads.py).  With ``--trace 1``, untraced and traced passes
alternate; the per-layer metrics come from the traced passes, and each case's
stdout must be byte-identical in both.

Other tenants of a shared machine change its speed by a third and more from
minute to minute, so the gated times are given in units of a fixed reference
kernel that child.py times every 50 ms while each case runs (``*_refs``),
and ``setup_s`` is set-up time in kernel runs, converted at 1 ms per run.
The seconds themselves (``wall_s``, ``largest_case_s``, ``setup_raw_s``) are
printed beside them.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, which holds the ``end_to_end`` metrics of
BENCHMARK.json with ``--trace 0`` and its ``per_layer`` metrics with
``--trace 1``.  ``failed / attempted`` is the workload's fail_frac; cases
that reproduce a known defect count as failed without making the run
incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import MODULES

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
SETUP_PROBES = 4  # per round
# setup_s is set-up time in kernel runs, given in seconds of a machine on
# which one run of child.reference_s takes 1 ms (about its quiet speed)
NOMINAL_KERNEL_S = 0.001
SAMPLE_UNITS = {"wall_s": "s", "largest_case_s": "s", "wall_refs": "ref",
                "largest_case_refs": "ref", "setup_s": "s", "setup_raw_s": "s",
                "peak_rss_mb": "MB"}
CHILD_TIMEOUT_S = 120


class BenchError(RuntimeError):
    pass


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> dict:
    """Environment of every child: src importable, bytecode cached in .bench_build."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONPYCACHEPREFIX"] = str(BUILD_DIR / "pycache")
    return env


def run_child(cases, trace: bool, env: dict) -> dict:
    request = json.dumps({"cases": [list(c.argv) for c in cases], "trace": trace})
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py")], input=request, capture_output=True,
        text=True, cwd=ROOT, env=env, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _in_refs(case: dict) -> float:
    return case["seconds"] / case["kernel_s"]


def measure(cases, seconds: float, trace: bool) -> dict:
    """Run passes of ``cases`` for ``seconds``; return checked, summarized results."""
    env = child_env()
    run_child([], False, env)  # fills the bytecode cache; untimed
    setups, plain, traced, rounds = [], [], [], []
    start = time.perf_counter()
    # start another round only if a typical round still fits in the budget;
    # set-up probes are spread over the rounds so their median covers the run
    while not rounds or time.perf_counter() - start + statistics.median(rounds) <= seconds:
        t0 = time.perf_counter()
        setups += [run_child([], False, env) for _ in range(SETUP_PROBES)]
        plain.append(run_child(cases, False, env))
        if trace:
            traced.append(run_child(cases, True, env))
        rounds.append(time.perf_counter() - t0)
    setups += plain

    problems, known, attempted, failed = [], set(), 0, 0
    digests = {}
    for p in plain + traced:
        for case, res in zip(cases, p["cases"]):
            attempted += 1
            why = workloads.problem(case, res["rc"], res["sha256"], res["tail"])
            if why is not None:
                failed += 1
                if case.known_defect:
                    known.add(f"{case.key}: {why} (known defect: {case.known_defect})")
                else:
                    problems.append(f"{case.key}: {why} {res['stderr'].strip()[-300:]}")
            first = digests.setdefault(case.key, res["sha256"])
            if res["sha256"] != first:
                problems.append(f"{case.key}: stdout differs between passes")

    per_case = [[p["cases"][i]["seconds"] for p in plain] for i in range(len(cases))]
    largest = next(i for i, c in enumerate(cases) if c.largest)
    walls = [sum(r["seconds"] for r in p["cases"]) for p in plain]
    samples = {
        "wall_s": walls,
        "largest_case_s": per_case[largest],
        # the same times in units of the reference kernel timed during each case
        "wall_refs": [sum(map(_in_refs, p["cases"])) for p in plain],
        "largest_case_refs": [_in_refs(p["cases"][largest]) for p in plain],
        "setup_s": [c["setup_s"] / c["setup_kernel_s"] * NOMINAL_KERNEL_S for c in setups],
        "setup_raw_s": [c["setup_s"] for c in setups],
        "peak_rss_mb": [p["peak_rss_mb"] for p in plain],
    }
    result = {
        "samples": samples,
        "passes": len(plain),
        "cases": len(cases),
        "attempted": attempted,
        "failed": failed,
        "problems": sorted(set(problems)),
        "known_defects": sorted(known),
        "case_seconds": {c.key: statistics.median(v) for c, v in zip(cases, per_case)},
        "stdout_bytes": sum(r["bytes"] for r in plain[0]["cases"]),
    }
    if trace:
        # every layer metric comes from the one traced pass of median wall time,
        # so that the module shares of that pass add up to its wall time
        wall, layers = sorted(
            ((sum(r["seconds"] for r in t["cases"]), t["trace"]) for t in traced),
            key=lambda pair: pair[0],
        )[(len(traced) - 1) // 2]
        layers["trace.wall_s"] = wall
        layers["trace.overhead_s"] = wall - statistics.median(walls)
        layers["cli.stdout_bytes"] = result["stdout_bytes"]
        for short in MODULES + ("trace",):
            layers[f"{short}.share"] = layers[f"{short}.self_s"] / wall
        result["layers"] = layers
    return result


def metrics_for(result: dict, trace: bool, bench: dict) -> tuple[dict, list[str]]:
    """The metrics BENCHMARK.json names, with units; and named spans never registered."""
    out, missing = {}, []
    if not trace:
        for m in bench["end_to_end"]:
            out[m["name"]] = {"value": statistics.median(result["samples"][m["name"]]),
                              "unit": m["unit"]}
        return out, missing
    for m in bench["per_layer"]:
        value = result["layers"].get(m["name"])
        if value is None:
            missing.append(m["name"])
            value = 0
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out, missing


def commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def metadata(seed: int, seconds: int, names) -> dict:
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "commit": commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "seconds": seconds,
        "argv": {n: [list(c.argv) for c in workloads.build(n, seed)] for n in names},
    }


def print_summary(name: str, result: dict, metrics: dict, missing: list[str]) -> None:
    print(f"workload {name}: {result['passes']} passes of {result['cases']} cases")
    shown = dict(metrics)
    for key, values in result["samples"].items():
        shown.setdefault(key, {"value": statistics.median(values), "unit": SAMPLE_UNITS[key]})
    for key, m in shown.items():
        line = f"  {key:36s} {m['value']:.6g} {m['unit']}"
        values = result["samples"].get(key)
        if values:
            q1, _, q3 = quartiles(values)
            line += f"  (median of {len(values)}; quartiles {q1:.6g} .. {q3:.6g})"
        print(line)
    frac = result["failed"] / result["attempted"]
    print(f"  {'fail_frac':36s} {frac:.6g} frac  ({result['failed']} of {result['attempted']})")
    for text in result["known_defects"]:
        print(f"  known defect: {text}")
    for text in result["problems"]:
        print(f"  PROBLEM: {text}")
    for key in missing:
        print(f"  MISSING SPAN: {key} is not registered by the tracer")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True,
                        help="with --workload all, 1 also runs every workload traced")
    parser.add_argument("--out", type=Path, help="also write every sample and span here")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bpsing" / "cli.py").is_file():
        print(f"error: no bpsing sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = spec()
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    levels = (False, True) if args.workload == "all" and args.trace else (bool(args.trace),)
    meta = metadata(args.seed, args.seconds, names)
    record, results = {"meta": meta, "runs": {}}, {}
    try:
        for name in names:
            cases = workloads.build(name, args.seed)
            for trace in levels:
                result = measure(cases, args.seconds, trace)
                metrics, missing = metrics_for(result, trace, bench)
                print_summary(name + (" (traced)" if trace else ""), result, metrics, missing)
                results[f"{name}/trace{int(trace)}"] = {
                    "correct": not result["problems"],
                    "attempted": result["attempted"],
                    "failed": result["failed"],
                    "metrics": metrics,
                }
                record["runs"][f"{name}/trace{int(trace)}"] = result
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("meta " + json.dumps(meta))
    if args.out:
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(next(iter(results.values())) if len(results) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
