"""Command-line front end: build, verify, and export the package's objects.

Subcommands construct the category models, run the suspension pipeline, dump
bilinear lattices, compute graded Ext tables, and run verification suites.
Output is plain text by default and JSON with ``--json``; both are fully
deterministic, so identical invocations produce byte-identical bytes.  JSON
output is exactly ``json.dumps(obj, indent=2)`` plus a newline, written by
``_dump_json``.  One parser serves every ``run`` of a process.  Handlers
return their output and exit code, and ``run`` parses ``--p`` before dispatch
and writes stdout once after it, so a run stopped by an error writes nothing.
Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import prod
from operator import neg
from typing import Sequence

from .dgcat import DirectedGradedCategory, tensor_bp, to_json_dict
from .exactlin import ComplexError
from .grading import LGroup, check_limit, cy_check, exponent_seq, orlov_group
from .lattice import compare
from .singcat import (
    GradedRing,
    bp_resolution,
    ext_formula,
    ext_k_k,
    index_set,
    koszul_perfect_check,
    lemma_k_check,
    validate_resolution,
)
from .suspension import SuspensionError, fukaya_bp, fukaya_checks

# largest number of twist pairs ext-agreement compares, each in both row
# routes: 1024 twists, which (33,33) reaches in seconds
MAX_TWIST_PAIRS = 2**20
# largest number of degrees short-exact-sequences scans, one lemma_k_check per
# 2 <= j <= p_i over j degrees: (255,) scans 32639 in about 5 s, within the
# about 6 s that (33,33) takes under MAX_TWIST_PAIRS
MAX_SEQUENCE_DEGREES = 2**15


# ---------------------------------------------------------------------------
# verification reports


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class VerificationReport:
    """One suite run: its name and its named checks."""

    suite: str
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


# ---------------------------------------------------------------------------
# argument parsing helpers


def _parse_p(text: str) -> tuple[int, ...]:
    parts = [s.strip() for s in text.split(",") if s.strip()]
    if not parts:
        raise ValueError("empty exponent sequence")
    try:
        values = [int(s) for s in parts]
    except ValueError:
        raise ValueError("exponents must be integers") from None
    if any(v < 2 for v in values):
        raise ValueError("exponents must be >= 2")
    return exponent_seq(values)


def _parse_coords(text: str, n: int, what: str) -> tuple[int, ...]:
    parts = [s.strip() for s in text.split(",") if s.strip()]
    try:
        values = tuple(int(s) for s in parts)
    except ValueError:
        raise ValueError(f"{what} must be a comma-separated integer list") from None
    if len(values) != n:
        raise ValueError(f"{what} must have {n} entries")
    return values


def _window(args, L: LGroup) -> int:
    window = 2 * L.ell if args.window is None else args.window
    if window < 0:
        raise ValueError("window must be nonnegative")
    return window


_COORD_OPTIONS = ("--source", "--target")
_COORDS = re.compile(r"-?\d+(,-?\d+)*")


def _attach_coords(argv: Sequence[str]) -> list[str]:
    """Join ``--source -1,0`` into ``--source=-1,0``.

    argparse takes a separate value that starts with '-' and is not a plain
    negative number for an option, so a twist list like -1,0 must be
    attached to its option before parsing.
    """
    out: list[str] = []
    i = 0
    while i < len(argv):
        if argv[i] in _COORD_OPTIONS and i + 1 < len(argv) and _COORDS.fullmatch(argv[i + 1]):
            out.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def _dump_json(obj) -> str:
    """``json.dumps(obj, indent=2) + "\\n"``, without the pure-Python encoder that
    ``indent`` selects: dicts and lists are laid out here, strings and ints go
    through C, and any other value (a float, a subclass, an empty container)
    is json's own text re-indented, so the bytes match for every JSON value.
    """
    return _layout(obj, "\n") + "\n"


def _layout(x, nl: str) -> str:
    """The indent-2 JSON text of x, with nl (newline plus x's indent) starting its lines."""
    t = type(x)
    if t is str:
        return encode_basestring_ascii(x)
    if t is int:
        return int.__repr__(x)
    if x is None:
        return "null"
    if t is bool:
        return "true" if x else "false"
    inner = nl + "  "
    if t is dict and x and set(map(type, x)) <= {str}:
        items = [encode_basestring_ascii(k) + ": " + _layout(v, inner) for k, v in x.items()]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if (t is list or t is tuple) and x:
        if set(map(type, x)) == {int}:
            items = map(int.__repr__, x)
        else:
            items = [_layout(v, inner) for v in x]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    # JSON strings hold no raw newline, so this only re-indents json's lines
    return json.dumps(x, indent=2).replace("\n", nl)


def _fmt_dims(dims: dict[int, int]) -> str:
    if not dims:
        return "none"
    return ", ".join(f"{k}:{dims[k]}" for k in sorted(dims))


def _json_dims(dims: dict[int, int]) -> dict[str, int]:
    return {str(k): dims[k] for k in sorted(dims)}


def _category_output(args, header: str, C: DirectedGradedCategory, verified: bool):
    """C's JSON object, or the header, C's objects and hom degrees and a verification line."""
    if args.json:
        return to_json_dict(C), 0
    lines = [header, f"objects ({len(C.objects)}):"]
    lines.extend(f"  {label}" for label in C.objects)
    lines.append("hom degrees:")
    shown = 0
    for (i, j) in sorted(C.hom_pairs()):
        if i < j:
            pretty = ", ".join(str(d) for d in C.hom(i, j))
            lines.append(f"  {C.objects[i]} -> {C.objects[j]}: {pretty}")
            shown += 1
    if not shown:
        lines.append("  (none)")
    lines.append("every endomorphism space: identity in degree 0")
    if verified:
        lines.append("verification: PASS")
    return lines, 0


# ---------------------------------------------------------------------------
# verification suites


def _twist_grid(n: int):
    """Deterministic stream of raw degree vectors used by the vanishing scan."""
    from itertools import product

    for coeffs in product(range(-9, 10), repeat=n):
        for b in (-1, 0, 1):
            yield tuple(coeffs) + (b,)


def _suite_fukaya(p: tuple[int, ...]) -> VerificationReport:
    _, checks = fukaya_checks(p)
    return VerificationReport("fukaya", tuple(CheckResult(*c) for c in checks))


def _certified(name: str, rep, **detail) -> CheckResult:
    """The check of a certified complex: detail, degrees checked, and the first failures."""
    detail["degrees_checked"] = rep.degrees_checked
    if not rep.ok:
        detail["failures"] = list(rep.failures)[:5]
    return CheckResult(name, rep.ok, detail)


def _suite_singcat(p: tuple[int, ...]) -> VerificationReport:
    count = prod(pi - 1 for pi in p)
    check_limit(f"ext-agreement pair count {count}^2 =", count * count, MAX_TWIST_PAIRS)
    degrees = sum(pi * (pi + 1) // 2 - 1 for pi in p)
    check_limit("short-exact-sequences degree count", degrees, MAX_SEQUENCE_DEGREES)
    checks: list[CheckResult] = []
    # one ring for the three exactness checks, so each piece is built once
    ring = GradedRing(p)
    L = ring.L
    window = 2 * L.ell
    length = len(p) + 4
    rep = validate_resolution(bp_resolution(ring, length), window)
    checks.append(_certified("resolution-exact", rep, length=length, window=window))

    twists = index_set(p)
    mismatches = []
    for m in twists:
        rows = zip(twists, ext_k_k(p, m, twists), ext_formula(p, m, twists))
        for n_, got, want in rows:
            if got != want:
                mismatches.append([list(m.raw()), list(n_.raw())])
    detail = {"pairs": len(twists) ** 2}
    if mismatches:
        detail["mismatches"] = mismatches[:5]
    checks.append(CheckResult("ext-agreement", not mismatches, detail))

    # distinct degrees outside the monoid: several grid vectors share a normal form
    seen = set()
    scanned = 0
    nonzero = []
    zero = L.zero()
    for raw in _twist_grid(len(p)):
        d = L.normalize(raw)
        if d in seen:
            continue
        seen.add(d)
        if L.is_in_monoid(d):
            continue
        scanned += 1
        if ext_k_k(p, d, [zero])[0]:
            nonzero.append(list(d.raw()))
        if scanned == 50:
            break
    # a short grid (one variable gives 16 such degrees) passes once it runs out
    detail = {"scanned": scanned}
    if nonzero:
        detail["nonzero"] = nonzero[:5]
    checks.append(CheckResult("ext-vanishing", not nonzero and scanned > 0, detail))

    failing, first = [], None
    for axis in range(1, len(L.p) + 1):
        for j in range(2, L.p[axis - 1] + 1):
            rep = lemma_k_check(ring, axis, j, window)
            if not rep.ok:
                failing.append([axis, j])
                first = first or f"axis {axis}, j {j}: {rep.failures[0]}"
    detail = {"failing": failing, "first": first} if failing else {}
    checks.append(CheckResult("short-exact-sequences", not failing, detail))

    if len(L.p) >= 2:
        checks.append(_certified("koszul-perfect", koszul_perfect_check(ring, window)))
    return VerificationReport("singcat", tuple(checks))


def _shape_fault(gram, symmetric: bool) -> dict | None:
    """The wrong flag or first entry that keeps a Gram matrix from being symmetric
    with diagonal 2 (antisymmetric with diagonal 0 when not ``symmetric``), or None."""
    if gram.symmetric != symmetric:
        return {"flag": "symmetric", "expected": symmetric, "found": gram.symmetric}
    for i, (row, col) in enumerate(zip(gram.entries, zip(*gram.entries))):
        expected = list(col if symmetric else map(neg, col))
        expected[i] = 2 if symmetric else 0
        if list(row) != expected:
            j = next(j for j, (x, y) in enumerate(zip(row, expected)) if x != y)
            return {"entry": [i, j], "expected": expected[j], "found": row[j]}
    return None


def _suite_lattice(p: tuple[int, ...]) -> VerificationReport:
    checks: list[CheckResult] = []
    odd = len(p) % 2 == 1
    cmpr = compare(p)
    fault = _shape_fault(cmpr.st, odd)
    detail = {"rank": len(cmpr.st.labels), **(fault or {})}
    checks.append(CheckResult("st-gram-shape", fault is None, detail))
    fault = _shape_fault(cmpr.euler, odd)
    checks.append(CheckResult("euler-gram-shape", fault is None, fault or {}))
    detail = {"disagreements": len(cmpr.disagreements), "agree": cmpr.agree}
    mismatch = _sebastiani_thom_mismatch(cmpr)
    if mismatch:
        detail["first_mismatch"] = mismatch
    checks.append(CheckResult("comparison-report", not mismatch, detail))
    return VerificationReport("lattice", tuple(checks))


def _sebastiani_thom_mismatch(cmpr) -> dict | None:
    """First upper-triangle entry where st and euler break their law, or None.

    On an off-diagonal pair i <= j coordinatewise, st = euler * 2^(number of
    equal coordinates), since the product form is multiplicative and its
    symmetrization is not (Sebastiani-Thom 1971); elsewhere the forms agree.
    """
    labels, st, euler = cmpr.st.labels, cmpr.st.entries, cmpr.euler.entries
    for a, i in enumerate(labels):
        for b in range(a, len(labels)):
            j = labels[b]
            expected = euler[a][b]
            if a < b and expected and all(x <= y for x, y in zip(i, j)):
                expected *= 2 ** sum(x == y for x, y in zip(i, j))
            found = st[a][b]
            if found != expected:
                return {"pair": [list(i), list(j)], "expected": expected, "found": found}
    return None


_SUITES = {"fukaya": _suite_fukaya, "singcat": _suite_singcat, "lattice": _suite_lattice}


# ---------------------------------------------------------------------------
# subcommand handlers: each takes the parsed args and exponents and returns
# (output, exit code), output being the JSON object with --json and the text
# lines otherwise


def _cmd_category(args, p):
    return _category_output(args, f"p: {p}", tensor_bp(p), False)


def _cmd_suspend(args, p):
    if args.k < 2:
        raise ValueError("k must be >= 2")
    # suspending the last stage of p with k levels is stage p + (k,) of the tower
    S = fukaya_bp(p + (args.k,), args.verify)
    return _category_output(args, f"p: {p}  k: {args.k}", S, args.verify)


def _cmd_fukaya(args, p):
    return _category_output(args, f"p: {p}", fukaya_bp(p, verify=args.verify), args.verify)


def _cmd_lattice(args, p):
    cmpr = compare(p, args.orientation)
    if args.json:
        return {
            "p": list(p),
            "orientation": args.orientation,
            "labels": cmpr.st.labels,
            "st": cmpr.st.entries,
            "euler": cmpr.euler.entries,
            "disagreements": [
                {"i": a, "j": b, "st": u, "euler": v} for a, b, u, v in cmpr.disagreements
            ],
            "agree": cmpr.agree,
        }, 0
    lines = [f"p: {p}", "basis: " + ", ".join(str(x) for x in cmpr.st.labels), "st gram:"]
    lines.extend("  " + str(list(row)) for row in cmpr.st.entries)
    lines.append(f"euler gram ({args.orientation}):")
    lines.extend("  " + str(list(row)) for row in cmpr.euler.entries)
    lines.append(f"disagreements ({len(cmpr.disagreements)}):")
    for a, b, u, v in cmpr.disagreements:
        lines.append(f"  ({a}, {b}): st={u} euler={v}")
    if cmpr.agree:
        lines.append("  (none)")
    return lines, 0


def _cmd_orlov(args, p):
    cy = cy_check(p)
    group = orlov_group(p)
    total = Fraction(sum(cy.weights), cy.ell)
    if args.json:
        return {
            "p": list(p),
            "cy": cy.holds,
            "sum": str(total),
            "ell": cy.ell,
            "weights": list(cy.weights),
            "group": list(group.factors),
        }, 0
    return [
        f"p: {p}",
        f"sum of reciprocals: {total}",
        f"calabi-yau condition: {'holds' if cy.holds else 'fails'}",
        f"ell: {cy.ell}",
        f"weights: {cy.weights}",
        f"group: {group}",
    ], 0


def _cmd_singcat_ext(args, p):
    L = LGroup(p)
    src = _parse_coords(args.source, len(p), "--source")
    tgt = _parse_coords(args.target, len(p), "--target")
    m = L.normalize(src + (0,))
    n = L.normalize(tgt + (0,))
    (dims,) = ext_k_k(p, m, [n])
    try:
        (formula,) = ext_formula(p, m, [n])
        agree = dims == formula
    except ValueError:
        formula = None
        agree = None
    if args.json:
        return {
            "p": list(p),
            "source": list(src),
            "target": list(tgt),
            "dims": _json_dims(dims),
            "formula": None if formula is None else _json_dims(formula),
            "agree": agree,
        }, 0
    lines = [
        f"p: {p}",
        f"source: {src}  target: {tgt}",
        f"ext dims: {_fmt_dims(dims)}",
    ]
    if formula is None:
        lines.append("formula dims: not applicable (outside the index set)")
    else:
        lines.append(f"formula dims: {_fmt_dims(formula)}")
        lines.append(f"agree: {agree}")
    return lines, 0


def _cmd_singcat_resolution(args, p):
    L = LGroup(p)
    window = _window(args, L)
    cplx = bp_resolution(p, args.length, window)
    rep = validate_resolution(cplx, window)
    code = 0 if rep.ok else 1
    levels = sorted(cplx.levels(), reverse=True)
    # (label, degree, z) of each generator, per level
    gens = {i: [(label, g.raw(), L.z_degree(g)) for label, g in zip(cplx.labels[i], cplx.terms[i])]
            for i in levels}
    if args.json:
        return {
            "p": list(p),
            "length": args.length,
            "window": window,
            "ranks": [cplx.rank(i) for i in levels],
            "levels": [{"level": i, "generators": [{"label": a, "degree": list(d), "z": z}
                                                   for a, d, z in gens[i]]} for i in levels],
            "ok": rep.ok,
            "degrees_checked": rep.degrees_checked,
            "failures": list(rep.failures),
        }, code
    lines = [f"p: {p}  length: {args.length}  window: {window}"]
    lines.append("ranks: " + ", ".join(str(cplx.rank(i)) for i in levels))
    lines.extend(f"level {i}: " + "; ".join(f"{a} degree {d} z {z}" for a, d, z in gens[i])
                 for i in levels if i)
    status = "PASS" if rep.ok else "FAIL"
    lines.append(f"validation: {status} ({rep.degrees_checked} degrees checked)")
    lines.extend(f"  {msg}" for msg in rep.failures[:10])
    return lines, code


def _cmd_singcat_lemma_k(args, p):
    # the sequence's modules span j degrees, so j is bounded like the suite's sum of j
    check_limit("lemma-k degree count j =", args.j, MAX_SEQUENCE_DEGREES)
    L = LGroup(p)
    window = _window(args, L)
    rep = lemma_k_check(p, args.axis, args.j, window)
    code = 0 if rep.ok else 1
    if args.json:
        return {
            "p": list(p),
            "axis": args.axis,
            "j": args.j,
            "window": window,
            "ok": rep.ok,
            "degrees_checked": rep.degrees_checked,
            "first_failure": None if rep.first_failure is None else list(rep.first_failure),
            "iso_with_ring_quotient": rep.iso_ok,
            "failures": list(rep.failures),
        }, code
    lines = [
        f"p: {p}  axis: {args.axis}  j: {args.j}",
        f"sequence: {'exact' if rep.ok else 'NOT exact'} ({rep.degrees_checked} degrees checked)",
    ]
    if rep.iso_ok is not None:
        lines.append(f"middle module matches the ring quotient: {rep.iso_ok}")
    if rep.first_failure is not None:
        lines.append(f"first failure in degree {rep.first_failure}")
    lines.extend(f"  {msg}" for msg in rep.failures[:10])
    return lines, code


def _cmd_verify(args, p):
    names = ["fukaya", "singcat", "lattice"] if args.suite == "all" else [args.suite]
    reports = [_SUITES[name](p) for name in names]
    ok = all(r.ok for r in reports)
    code = 0 if ok else 1
    if args.json:
        return {
            "p": list(p),
            "suites": [
                {
                    "suite": r.suite,
                    "ok": r.ok,
                    "checks": [
                        {"name": c.name, "ok": c.ok, **({"detail": c.detail} if c.detail else {})}
                        for c in r.checks
                    ],
                }
                for r in reports
            ],
            "ok": ok,
        }, code
    lines = [f"p: {p}"]
    for r in reports:
        lines.append(f"suite {r.suite}:")
        for c in r.checks:
            status = "PASS" if c.ok else "FAIL"
            extra = ""
            if c.detail and not c.ok:
                extra = "  " + json.dumps(c.detail, sort_keys=True)
            lines.append(f"  {status} {c.name}{extra}")
        lines.append(f"  => {'PASS' if r.ok else 'FAIL'}")
    lines.append(f"verify: {'PASS' if ok else 'FAIL'}")
    return lines, code


# ---------------------------------------------------------------------------
# parser


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The process's one parser; each ``parse_args`` fills a new namespace."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON instead of text")
    common.add_argument(
        "--threads", type=int, default=1,
        help="worker count accepted for interface stability; checks run sequentially",
    )

    parser = argparse.ArgumentParser(
        prog="bpsing",
        description="Exact computer algebra for Brieskorn-Pham singularities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("category", parents=[common], help="tensor model category")
    sp.add_argument("--p", required=True, help="comma-separated exponents, e.g. 2,3")
    sp.set_defaults(func=_cmd_category)

    sp = sub.add_parser("suspend", parents=[common], help="one suspension step")
    sp.add_argument("--p", required=True)
    sp.add_argument("--k", type=int, required=True, help="suspension parameter, >= 2")
    sp.add_argument("--verify", action="store_true")
    sp.set_defaults(func=_cmd_suspend)

    sp = sub.add_parser("fukaya", parents=[common], help="iterated suspension pipeline")
    sp.add_argument("--p", required=True)
    sp.add_argument("--verify", action="store_true")
    sp.set_defaults(func=_cmd_fukaya)

    sp = sub.add_parser("lattice", parents=[common], help="bilinear lattice comparison")
    sp.add_argument("--p", required=True)
    sp.add_argument("--orientation", choices=["E-Et", "Et-E"], default="E-Et")
    sp.set_defaults(func=_cmd_lattice)

    sp = sub.add_parser("orlov", parents=[common], help="weight and group arithmetic")
    sp.add_argument("--p", required=True)
    sp.set_defaults(func=_cmd_orlov)

    sc = sub.add_parser("singcat", help="graded ring and Ext computations")
    scsub = sc.add_subparsers(dest="subcommand", required=True)

    sp = scsub.add_parser("ext", parents=[common], help="graded Ext dims between twists")
    sp.add_argument("--p", required=True)
    sp.add_argument("--source", required=True, help="twist coefficients a_1,...,a_n")
    sp.add_argument("--target", required=True, help="twist coefficients b_1,...,b_n")
    sp.set_defaults(func=_cmd_singcat_ext)

    sp = scsub.add_parser("resolution", parents=[common], help="build and validate the resolution")
    sp.add_argument("--p", required=True)
    sp.add_argument("--length", type=int, required=True)
    sp.add_argument("--window", type=int, default=None, help="z-degree bound, default 2 ell")
    sp.set_defaults(func=_cmd_singcat_resolution)

    sp = scsub.add_parser("lemma-k", parents=[common], help="short exact sequence check")
    sp.add_argument("--p", required=True)
    sp.add_argument("--axis", type=int, required=True)
    sp.add_argument("--j", type=int, required=True)
    sp.add_argument("--window", type=int, default=None)
    sp.set_defaults(func=_cmd_singcat_lemma_k)

    sp = sub.add_parser("verify", parents=[common], help="run verification suites")
    sp.add_argument("--p", required=True)
    sp.add_argument("--suite", choices=["fukaya", "singcat", "lattice", "all"], required=True)
    sp.set_defaults(func=_cmd_verify)

    return parser


def run(argv: Sequence[str]) -> int:
    """Parse argv (without the program name) and execute; returns the exit code."""
    try:
        args = _build_parser().parse_args(_attach_coords(argv))
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    if args.threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return 2
    try:
        output, code = args.func(args, _parse_p(args.p))
    except (ArithmeticError, ComplexError, SuspensionError) as exc:
        # before ValueError, which ComplexError subclasses
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(_dump_json(output) if args.json else "\n".join(output) + "\n")
    return code


def main(argv: Sequence[str] | None = None) -> int:
    return run(sys.argv[1:] if argv is None else list(argv))
