"""Command-line front end: build, verify, and export the package's objects.

Subcommands construct the category models, run the suspension pipeline, dump
bilinear lattices, compute graded Ext tables, and run verification suites.
Output is plain text by default and JSON with ``--json``; both are fully
deterministic, so identical invocations produce byte-identical bytes.  Exit
codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .dgcat import (
    DirectedGradedCategory,
    formality_check,
    gauge_isomorphic,
    square_sign_audit,
    tensor_bp,
    to_json_dict,
    validate,
)
from .exactlin import ComplexError
from .grading import LGroup, cy_check, exponent_seq, orlov_group
from .lattice import compare
from .singcat import (
    GradedRing,
    bp_resolution,
    ext_formula,
    ext_formula_row,
    ext_k_k,
    ext_k_k_row,
    index_set,
    koszul_perfect_check,
    lemma_k_check,
    validate_resolution,
)
from .suspension import SuspensionError, fukaya_bp, suspension_tower


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
    return json.dumps(obj, indent=2) + "\n"


def _fmt_dims(dims: dict[int, int]) -> str:
    if not dims:
        return "none"
    return ", ".join(f"{k}:{dims[k]}" for k in sorted(dims))


def _json_dims(dims: dict[int, int]) -> dict[str, int]:
    return {str(k): dims[k] for k in sorted(dims)}


def _category_lines(C: DirectedGradedCategory) -> list[str]:
    lines = [f"objects ({len(C.objects)}):"]
    lines.extend(f"  {label}" for label in C.objects)
    lines.append("hom degrees:")
    shown = 0
    for i in range(len(C.objects)):
        for j in range(i + 1, len(C.objects)):
            degs = C.hom(i, j)
            if degs:
                pretty = ", ".join(str(d) for d in degs)
                lines.append(f"  {C.objects[i]} -> {C.objects[j]}: {pretty}")
                shown += 1
    if not shown:
        lines.append("  (none)")
    lines.append("every endomorphism space: identity in degree 0")
    return lines


def _emit_category(args, header: str, C: DirectedGradedCategory, verified: bool) -> int:
    """Print C as JSON, or as the header, its listing and a verification line."""
    if args.json:
        sys.stdout.write(_dump_json(to_json_dict(C)))
        return 0
    lines = [header] + _category_lines(C)
    if verified:
        lines.append("verification: PASS")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# verification suites


def _twist_grid(n: int):
    """Deterministic stream of raw degree vectors used by the vanishing scan."""
    from itertools import product

    for coeffs in product(range(-9, 10), repeat=n):
        for b in (-1, 0, 1):
            yield tuple(coeffs) + (b,)


def _suite_fukaya(p: tuple[int, ...]) -> VerificationReport:
    checks: list[CheckResult] = []
    C = None
    try:
        # each step is checked in the tower; the checks against tensor_bp(p)
        # and the square audit of C run once, below
        C = suspension_tower(p, verify=True)[-1]
        checks.append(CheckResult("suspension-pipeline", True))
    except (ComplexError, SuspensionError) as exc:
        checks.append(CheckResult("suspension-pipeline", False, {"error": str(exc)}))
    if C is not None:
        rep = validate(C)
        checks.append(
            CheckResult(
                "category-valid", rep.ok,
                {} if rep.ok else {"violations": list(rep.violations)[:5]},
            )
        )
        checks.append(CheckResult("formality", formality_check(C)))
        model = tensor_bp(p)
        g = gauge_isomorphic(C, model, {x: x for x in C.objects})
        checks.append(
            CheckResult("gauge-vs-tensor", g.ok, {} if g.ok else {"reason": g.reason or ""})
        )
        audit = square_sign_audit(C)
        checks.append(
            CheckResult("square-sign-audit", not audit, {} if not audit else {"problems": audit[:5]})
        )
    return VerificationReport("fukaya", tuple(checks))


def _suite_singcat(p: tuple[int, ...]) -> VerificationReport:
    checks: list[CheckResult] = []
    # one ring for the three exactness checks, so each piece is built once
    ring = GradedRing(p)
    L = ring.L
    window = 2 * L.ell
    length = len(p) + 4
    rep = validate_resolution(bp_resolution(ring, length), window)
    detail = {"length": length, "window": window, "degrees_checked": rep.degrees_checked}
    if not rep.ok:
        detail["failures"] = list(rep.failures)[:5]
    checks.append(CheckResult("resolution-exact", rep.ok, detail))

    twists = index_set(p)
    mismatches = []
    for m in twists:
        rows = zip(twists, ext_k_k_row(p, m, twists), ext_formula_row(p, m, twists))
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
        if ext_k_k(p, d, zero):
            nonzero.append(list(d.raw()))
        if scanned == 50:
            break
    # a short grid (one variable gives 16 such degrees) passes once it runs out
    detail = {"scanned": scanned}
    if nonzero:
        detail["nonzero"] = nonzero[:5]
    checks.append(CheckResult("ext-vanishing", not nonzero and scanned > 0, detail))

    failing = []
    for axis in range(1, len(L.p) + 1):
        for j in range(2, L.p[axis - 1] + 1):
            if not lemma_k_check(ring, axis, j, window).ok:
                failing.append([axis, j])
    checks.append(
        CheckResult("short-exact-sequences", not failing, {} if not failing else {"failing": failing})
    )

    if len(L.p) >= 2:
        krep = koszul_perfect_check(ring, window)
        detail = {"degrees_checked": krep.degrees_checked}
        if not krep.ok:
            detail["failures"] = list(krep.failures)[:5]
        checks.append(CheckResult("koszul-perfect", krep.ok, detail))
    return VerificationReport("singcat", tuple(checks))


def _shape_ok(entries, symmetric: bool) -> bool:
    size = len(entries)
    for i in range(size):
        want_diag = 2 if symmetric else 0
        if entries[i][i] != want_diag:
            return False
        for j in range(size):
            mirror = entries[j][i] if symmetric else -entries[j][i]
            if entries[i][j] != mirror:
                return False
    return True


def _suite_lattice(p: tuple[int, ...]) -> VerificationReport:
    checks: list[CheckResult] = []
    odd = len(p) % 2 == 1
    cmpr = compare(p)
    s, e = cmpr.st, cmpr.euler
    checks.append(
        CheckResult("st-gram-shape", s.symmetric == odd and _shape_ok(s.entries, odd),
                    {"rank": len(s.labels)})
    )
    checks.append(CheckResult("euler-gram-shape", e.symmetric == odd and _shape_ok(e.entries, odd)))
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
    labels, st, euler = cmpr.labels, cmpr.st.entries, cmpr.euler.entries
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
# subcommand handlers


def _cmd_category(args) -> int:
    p = _parse_p(args.p)
    return _emit_category(args, f"p: {p}", tensor_bp(p), False)


def _cmd_suspend(args) -> int:
    p = _parse_p(args.p)
    if args.k < 2:
        raise ValueError("k must be >= 2")
    # suspending the last stage of p with k levels is stage p + (k,) of the tower
    S = suspension_tower(p + (args.k,), args.verify)[-1]
    return _emit_category(args, f"p: {p}  k: {args.k}", S, args.verify)


def _cmd_fukaya(args) -> int:
    p = _parse_p(args.p)
    return _emit_category(args, f"p: {p}", fukaya_bp(p, verify=args.verify), args.verify)


def _cmd_lattice(args) -> int:
    p = _parse_p(args.p)
    cmpr = compare(p, args.orientation)
    if args.json:
        obj = {
            "p": list(p),
            "orientation": args.orientation,
            "labels": [list(x) for x in cmpr.labels],
            "st": [list(row) for row in cmpr.st.entries],
            "euler": [list(row) for row in cmpr.euler.entries],
            "disagreements": [
                {"i": list(a), "j": list(b), "st": u, "euler": v}
                for a, b, u, v in cmpr.disagreements
            ],
            "agree": cmpr.agree,
        }
        sys.stdout.write(_dump_json(obj))
        return 0
    lines = [f"p: {p}", "basis: " + ", ".join(str(x) for x in cmpr.labels), "st gram:"]
    lines.extend("  " + str(list(row)) for row in cmpr.st.entries)
    lines.append(f"euler gram ({args.orientation}):")
    lines.extend("  " + str(list(row)) for row in cmpr.euler.entries)
    lines.append(f"disagreements ({len(cmpr.disagreements)}):")
    for a, b, u, v in cmpr.disagreements:
        lines.append(f"  ({a}, {b}): st={u} euler={v}")
    if cmpr.agree:
        lines.append("  (none)")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _cmd_orlov(args) -> int:
    p = _parse_p(args.p)
    cy = cy_check(p)
    group = orlov_group(p)
    total = Fraction(sum(cy.weights), cy.ell)
    if args.json:
        obj = {
            "p": list(p),
            "cy": cy.holds,
            "sum": str(total),
            "ell": cy.ell,
            "weights": list(cy.weights),
            "group": list(group.factors),
        }
        sys.stdout.write(_dump_json(obj))
        return 0
    lines = [
        f"p: {p}",
        f"sum of reciprocals: {total}",
        f"calabi-yau condition: {'holds' if cy.holds else 'fails'}",
        f"ell: {cy.ell}",
        f"weights: {cy.weights}",
        f"group: {group}",
    ]
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _cmd_singcat_ext(args) -> int:
    p = _parse_p(args.p)
    L = LGroup(p)
    src = _parse_coords(args.source, len(p), "--source")
    tgt = _parse_coords(args.target, len(p), "--target")
    m = L.normalize(src + (0,))
    n = L.normalize(tgt + (0,))
    dims = ext_k_k(p, m, n)
    try:
        formula = ext_formula(p, m, n)
        agree = dims == formula
    except ValueError:
        formula = None
        agree = None
    if args.json:
        obj = {
            "p": list(p),
            "source": list(src),
            "target": list(tgt),
            "dims": _json_dims(dims),
            "formula": None if formula is None else _json_dims(formula),
            "agree": agree,
        }
        sys.stdout.write(_dump_json(obj))
        return 0
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
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _cmd_singcat_resolution(args) -> int:
    p = _parse_p(args.p)
    L = LGroup(p)
    window = _window(args, L)
    cplx = bp_resolution(p, args.length)
    rep = validate_resolution(cplx, window)
    if args.json:
        levels = []
        for i in sorted(cplx.levels(), reverse=True):
            gens = [
                {
                    "label": cplx.labels[i][g],
                    "degree": list(cplx.terms[i][g].raw()),
                    "z": L.z_degree(cplx.terms[i][g]),
                }
                for g in range(cplx.rank(i))
            ]
            levels.append({"level": i, "generators": gens})
        obj = {
            "p": list(p),
            "length": args.length,
            "window": window,
            "ranks": [cplx.rank(i) for i in sorted(cplx.levels(), reverse=True)],
            "levels": levels,
            "ok": rep.ok,
            "degrees_checked": rep.degrees_checked,
            "failures": list(rep.failures),
        }
        sys.stdout.write(_dump_json(obj))
        return 0 if rep.ok else 1
    lines = [f"p: {p}  length: {args.length}  window: {window}"]
    lines.append("ranks: " + ", ".join(str(cplx.rank(i)) for i in sorted(cplx.levels(), reverse=True)))
    for i in sorted(cplx.levels(), reverse=True):
        if i == 0:
            continue
        gens = "; ".join(
            f"{cplx.labels[i][g]} degree {cplx.terms[i][g].raw()} z {L.z_degree(cplx.terms[i][g])}"
            for g in range(cplx.rank(i))
        )
        lines.append(f"level {i}: {gens}")
    status = "PASS" if rep.ok else "FAIL"
    lines.append(f"validation: {status} ({rep.degrees_checked} degrees checked)")
    lines.extend(f"  {msg}" for msg in rep.failures[:10])
    sys.stdout.write("\n".join(lines) + "\n")
    return 0 if rep.ok else 1


def _cmd_singcat_lemma_k(args) -> int:
    p = _parse_p(args.p)
    L = LGroup(p)
    window = _window(args, L)
    rep = lemma_k_check(p, args.axis, args.j, window)
    if args.json:
        obj = {
            "p": list(p),
            "axis": args.axis,
            "j": args.j,
            "window": window,
            "ok": rep.ok,
            "degrees_checked": rep.degrees_checked,
            "first_failure": None if rep.first_failure is None else list(rep.first_failure),
            "iso_with_ring_quotient": rep.iso_ok,
            "failures": list(rep.failures),
        }
        sys.stdout.write(_dump_json(obj))
        return 0 if rep.ok else 1
    lines = [
        f"p: {p}  axis: {args.axis}  j: {args.j}",
        f"sequence: {'exact' if rep.ok else 'NOT exact'} ({rep.degrees_checked} degrees checked)",
    ]
    if rep.iso_ok is not None:
        lines.append(f"middle module matches the ring quotient: {rep.iso_ok}")
    if rep.first_failure is not None:
        lines.append(f"first failure in degree {rep.first_failure}")
    lines.extend(f"  {msg}" for msg in rep.failures[:10])
    sys.stdout.write("\n".join(lines) + "\n")
    return 0 if rep.ok else 1


def _cmd_verify(args) -> int:
    p = _parse_p(args.p)
    names = ["fukaya", "singcat", "lattice"] if args.suite == "all" else [args.suite]
    reports = [_SUITES[name](p) for name in names]
    ok = all(r.ok for r in reports)
    if args.json:
        obj = {
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
        }
        sys.stdout.write(_dump_json(obj))
        return 0 if ok else 1
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
    sys.stdout.write("\n".join(lines) + "\n")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
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
    parser = _build_parser()
    try:
        args = parser.parse_args(_attach_coords(argv))
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    if args.threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ArithmeticError, ComplexError, SuspensionError) as exc:
        # before ValueError, which ComplexError subclasses
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: Sequence[str] | None = None) -> int:
    return run(sys.argv[1:] if argv is None else list(argv))
