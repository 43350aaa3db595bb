"""Kill matrix: single-point mutants of the category constructions and the
routes, each one run through ``verify --suite all`` with ``monkeypatch``.

A row names the mutant, which replaces one module or class attribute, the
exponent sequence, and the exact set of named checks that must fail; the run
must exit 1.  Mutants change the constructions and the routes, never the checks:
a weakened check still passes on correct input, so no run could kill it.

Outcomes recorded beside ``KILL_MATRIX``:

- With two or more entries, ``category-valid``, ``formality`` and
  ``square-sign-audit`` report the last tower step's own checks, so no
  mutant fails them there.  The five ``a_category`` mutants, the dropped
  composite, the doubled identity class, the block key without its source,
  the shape key without its level gap and the cone differential without
  its Koszul sign fail ``suspension-pipeline`` instead, and the later lines
  are not printed (``test_last_stage_rechecks_never_fail_first``).  With one entry
  no step runs, and the three lines check the base category.
- Equivalent mutants: one flipped sign in ``tensor_bp((3, 3))`` is removed
  by rescaling one morphism of its single square, and on one variable every
  column of the resolution has one entry, so a single flipped sign gives an
  isomorphic complex.  With an even variable count the Euler form is
  E - Et, whose diagonal cancels, so ``euler-corner-doubled`` survives on
  (3, 4).  A block key without one of its three level gaps is equivalent
  too: blocks are composed only where both homs have classes, at gaps 0
  and -1, and there any two gaps fix the third.  The rows avoid all four.
"""

import json
from fractions import Fraction

import pytest

from bpsing import cli, exactlin, lattice, singcat, suspension, twisted
from bpsing.dgcat import (
    DirectedGradedCategory,
    MorRef,
    formality_check,
    gauge_isomorphic,
    square_sign_audit,
    validate,
)
from bpsing.exactlin import ComplexError, RatMatrix
from bpsing.grading import LGroup
from bpsing.singcat import GradedModule
from helpers import drop_one_composite, last_column_zeroed, scaled_identity_class

_suspend = suspension.suspend
_block_key = suspension._block_key
_shape_key = suspension._shape_key
_differential = twisted._differential
_a_category = suspension.a_category
_tensor_bp = suspension.tensor_bp
_form_complex = singcat._form_complex
_ext_formula = cli.ext_formula
_quotient_by_variables = singcat.quotient_by_variables
_truncated_module = singcat.truncated_module
_st_gram = lattice.st_gram
_euler_matrix = lattice.euler_matrix
_one_var_form = lattice.one_var_form


def _tables(C):
    homs = {(i, j): C.hom(i, j) for i, j in C.hom_pairs() if i < j}
    return homs, dict(C.composition_entries())


def dropped_composite(A, k):
    return drop_one_composite(_suspend(A, k))


def flipped_composite(p):
    C = _tensor_bp(p)
    homs, comp = _tables(C)
    g, f = next(key for key in comp if not (C.is_identity(key[0]) or C.is_identity(key[1])))
    comp[(g, f)] = {idx: -c for idx, c in comp[(g, f)].items()}
    return DirectedGradedCategory(C.objects, homs, comp)


def off_basis_composite(m):
    """The linear quiver with 1 -> 2 -> 3 composing to index 0 of the empty hom(1, 3)."""
    C = _a_category(m)
    if m < 3:
        return C
    homs, comp = _tables(C)
    comp[(MorRef(1, 2, 0), MorRef(0, 1, 0))] = {0: Fraction(1)}
    return DirectedGradedCategory(C.objects, homs, comp)


def wrong_degree_composite(m):
    """The linear quiver with 1 -> 2 -> 3 composing to a degree-5 hom from 1 to 3."""
    C = _a_category(m)
    if m < 3:
        return C
    homs, comp = _tables(C)
    homs[(0, 2)] = (5,)
    comp[(MorRef(1, 2, 0), MorRef(0, 1, 0))] = {0: Fraction(1)}
    return DirectedGradedCategory(C.objects, homs, comp)


def extra_hom(m):
    """The linear quiver on 4 objects with a degree-2 hom from 1 to 4."""
    C = _a_category(m)
    if m != 4:
        return C
    homs, comp = _tables(C)
    homs[(0, 3)] = (2,)
    return DirectedGradedCategory(C.objects, homs, comp)


def commuting_diamond(m):
    """For 4 objects, 1 -> {2, 3} -> 4 in degree 1 with both composites +1."""
    if m != 4:
        return _a_category(m)
    homs = {(0, 1): (1,), (0, 2): (1,), (1, 3): (1,), (2, 3): (1,), (0, 3): (2,)}
    comp = {(MorRef(1, 3, 0), MorRef(0, 1, 0)): {0: 1}, (MorRef(2, 3, 0), MorRef(0, 2, 0)): {0: 1}}
    return DirectedGradedCategory((1, 2, 3, 4), homs, comp)


def doubled_hom(m):
    """The linear quiver on 2 objects with two degree-1 morphisms from 1 to 2."""
    C = _a_category(m)
    if m != 2:
        return C
    return DirectedGradedCategory(C.objects, {(0, 1): (1, 1)}, {})


def block_key_without_source(x, y, z):
    """``_block_key`` without the source object: blocks over different
    sources with the same middle, target and gaps are shared."""
    return _block_key(x, y, z)[1:]


def shape_key_without_gap(A, x, y):
    """``_shape_key`` without the level gap: cones of one object at different
    levels share the complex of the first pair, an endomorphism complex."""
    return _shape_key(A, x, y)[:2]


def unsigned_precomposition(H, X, Y, d):
    """``twisted._differential`` with the precomposition term added
    without its Koszul sign, which is -1 in even degrees: there the term is
    added twice more."""
    M = _differential(H, X, Y, d)
    if d % 2:
        return M
    rows = [list(row) for row in M.entries]
    for col, (a, b, idx) in enumerate(H.basis.get(d, ())):
        if a == 1:
            for ridx, c in X.category.compose(MorRef(X.f.tgt, Y._oidx(b), idx), X.f).items():
                rows[H.position[(0, b, ridx)][1]][col] += 2 * c
    return RatMatrix(rows, cols=M.cols)


def reversed_tower_label(x, j):
    """``tower_label`` with the new level first: (j,) + x instead of x + (j,)."""
    return (j,) + x


def _flip_first(wedge):
    """``_form_complex`` with the first wedge (or contraction) sign flipped, if it has one.

    Contraction terms are +-x_t and wedge terms +-x_t^(p_t - 1), so with
    every p_t >= 3 the exponent sum tells them apart.
    """

    def mutant(ring, gens):
        cplx = _form_complex(ring, gens)
        diffs = {i: [list(row) for row in mat] for i, mat in cplx.diffs.items()}
        for i in sorted(diffs, reverse=True):
            for row in diffs[i]:
                for c, entry in enumerate(row):
                    if len(entry) == 1 and (sum(next(iter(entry))) > 1) == wedge:
                        row[c] = {m: -v for m, v in entry.items()}
                        return singcat.FreeComplex(ring, cplx.terms, diffs, cplx.labels)
        return cplx

    return mutant


def leftmost_column_zeroed(ring, gens):
    """``_form_complex`` with the last column of its leftmost differential zeroed."""
    return last_column_zeroed(_form_complex(ring, gens))


def first_row_emptied(p, m, targets):
    """``ext_formula`` with every entry of the first index-set twist's row empty."""
    if m == singcat.index_set(p)[0]:
        return [{} for _ in targets]
    return _ext_formula(p, m, targets)


def sign_blind_ext_row(p, m, targets):
    """``ext_k_k`` counting a generator whatever the sign of its c coefficient."""
    L = LGroup(p)
    row = []
    for n in targets:
        target = L.sub(L.normalize(m.raw()), L.normalize(n.raw()))
        generator = all(a in (0, 1) for a in target.a)
        row.append({sum(target.a) + 2 * max(target.b, 0): 1} if generator else {})
    return row


def top_degree_dropped(ring, killed, window):
    """``quotient_by_variables`` without its highest piece and the actions into it."""
    M = _quotient_by_variables(ring, killed, window)
    L, top = ring.L, M.degrees()[-1]
    basis = {d: labels for d, labels in M.basis.items() if d != top}
    action = {(t, d): mat for (t, d), mat in M.action.items() if top not in (d, L.add(d, L.x(t)))}
    return GradedModule(ring, basis, action)


def band_one_short(ring, killed, window):
    """``quotient_by_variables`` cut after its first max(w) - 1 zero z-degrees in a row,
    as a scan whose band of zero z-degrees is one short would return it."""
    M = _quotient_by_variables(ring, killed, window)
    L = ring.L
    nonzero = {L.z_degree(d) for d in M.basis}
    end, zeros = window, 0
    for z in range(window + 1):
        zeros = 0 if z in nonzero else zeros + 1
        if zeros == max(L.weights) - 1:
            end = z
            break
    basis = {d: labels for d, labels in M.basis.items() if L.z_degree(d) <= end}
    action = {(t, d): mat for (t, d), mat in M.action.items()
              if L.z_degree(L.add(d, L.x(t))) <= end}
    return GradedModule(ring, basis, action)


def first_action_dropped(ring, axis, j, twist=None):
    """``truncated_module`` without its lowest stored action once j >= 3."""
    M = _truncated_module(ring, axis, j, twist)
    if j < 3:
        return M
    lowest = min(M.action, key=lambda key: ring.sort_key(key[1]))
    return GradedModule(ring, M.basis, {key: a for key, a in M.action.items() if key != lowest})


def raised_st_entry(p):
    """``st_gram`` with entry (0, 1) raised by one and its mirror left alone."""
    s = _st_gram(p)
    entries = [list(row) for row in s.entries]
    entries[0][1] += 1
    return lattice.BilinearLattice(s.labels, tuple(map(tuple, entries)), s.symmetric)


def with_lower_entry(gram):
    """``gram`` with a 1 at the mirror below the diagonal of its first zero
    entry above the diagonal."""
    entries = [list(row) for row in gram.entries]
    a, b = next((a, b) for a, row in enumerate(entries) for b in range(a + 1, len(row))
                if not row[b])
    entries[b][a] = 1
    return lattice.BilinearLattice(gram.labels, tuple(map(tuple, entries)), gram.symmetric)


def lower_entry_added(p):
    """``st_gram`` with ``with_lower_entry`` applied."""
    return with_lower_entry(_st_gram(p))


def doubled_euler_corner(C):
    """``euler_matrix`` with E[0][0] = 2."""
    rows = [list(row) for row in _euler_matrix(C)]
    rows[0][0] = 2
    return tuple(map(tuple, rows))


def fill_in_dropped(rows, cols):
    """``exactlin._eliminate`` whose row operations update only the entries a
    row already holds: it never writes where the row held zero."""
    pivots, values = [], []
    r, n = 0, len(rows)
    for c in range(cols):
        if r == n:
            break
        for pivot_row in range(r, n):
            if c in rows[pivot_row]:
                break
        else:
            continue
        row = rows[pivot_row]
        rows[pivot_row] = rows[r]
        x = row[c]
        values.append(x if pivot_row == r else -x)
        if x == -1:
            row = {k: -v for k, v in row.items()}
        elif x != 1:
            row = {k: v * (Fraction(1) / x) for k, v in row.items()}
        rows[r] = row
        for i, other in enumerate(rows):
            factor = other.get(c)
            if factor is None or i == r:
                continue
            for k, v in row.items():
                if k in other:
                    s = other[k] - factor * v
                    if s:
                        other[k] = s
                    else:
                        del other[k]
        pivots.append(c)
        r += 1
    return rows, pivots, values


def flipped_one_var_form(p, i, j):
    """``one_var_form`` with +1 on adjacent indices instead of -1."""
    value = _one_var_form(p, i, j)
    return value if i == j else -value


TOWER_MUTANTS = {
    "suspend-drops-a-composite": (suspension, "suspend", dropped_composite),
    "off-basis-composite": (suspension, "a_category", off_basis_composite),
    "wrong-degree-composite": (suspension, "a_category", wrong_degree_composite),
    "extra-degree-2-hom": (suspension, "a_category", extra_hom),
    "commuting-diamond": (suspension, "a_category", commuting_diamond),
    "doubled-hom": (suspension, "a_category", doubled_hom),
    "identity-class-doubled": (suspension, "identity_class", scaled_identity_class(2)),
    "block-key-without-source": (suspension, "_block_key", block_key_without_source),
    "shape-key-without-gap": (suspension, "_shape_key", shape_key_without_gap),
    "cone-koszul-sign-dropped": (twisted, "_differential", unsigned_precomposition),
}
MUTANTS = {
    **TOWER_MUTANTS,
    "tensor-bp-sign-flip": (suspension, "tensor_bp", flipped_composite),
    "tower-labels-reversed": (suspension, "tower_label", reversed_tower_label),
    "wedge-sign-flip": (singcat, "_form_complex", _flip_first(wedge=True)),
    "contraction-sign-flip": (singcat, "_form_complex", _flip_first(wedge=False)),
    "leftmost-last-column-zeroed": (singcat, "_form_complex", leftmost_column_zeroed),
    "ext-formula-first-row-emptied": (cli, "ext_formula", first_row_emptied),
    "ext-sign-blind": (cli, "ext_k_k", sign_blind_ext_row),
    "quotient-top-degree-dropped": (singcat, "quotient_by_variables", top_degree_dropped),
    "quotient-band-one-short": (singcat, "quotient_by_variables", band_one_short),
    "truncated-first-action-dropped": (singcat, "truncated_module", first_action_dropped),
    "st-gram-entry-raised": (lattice, "st_gram", raised_st_entry),
    "st-gram-lower-entry-added": (lattice, "st_gram", lower_entry_added),
    "euler-corner-doubled": (lattice, "euler_matrix", doubled_euler_corner),
    "one-var-off-diagonal-flipped": (lattice, "one_var_form", flipped_one_var_form),
    "elimination-fill-in-dropped": (exactlin, "_eliminate", fill_in_dropped),
}

# mutant, p, and each failing check with a fragment of its detail
KILL_MATRIX = [
    ("suspend-drops-a-composite", "3,3", {"suspension-pipeline": "gauge comparison failed"}),
    ("identity-class-doubled", "3,3", {"suspension-pipeline": "left unit fails for"}),
    # a hom complex between the cones of (3,3) then no longer squares to zero
    ("cone-koszul-sign-dropped", "3,3", {
        "suspension-pipeline": "d_out composed with d_in is nonzero",
    }),
    ("block-key-without-source", "3,3,3", {
        "suspension-pipeline": "right unit fails for ((2,), 1)->((2,), 2)#0",
    }),
    ("shape-key-without-gap", "3,3,3", {
        "suspension-pipeline": "left unit fails for ((1,), 1)->((1,), 2)#0",
    }),
    ("tensor-bp-sign-flip", "3,3,3", {"gauge-vs-tensor": "sign system is inconsistent"}),
    ("off-basis-composite", "5", {
        "category-valid": "hits invalid basis index 0",
        "gauge-vs-tensor": "composition vanishing patterns differ",
    }),
    ("wrong-degree-composite", "5", {
        "category-valid": "lands in degree 5, expected 2",
        "gauge-vs-tensor": "graded dimensions differ at ((1,), (3,))",
    }),
    ("extra-degree-2-hom", "5", {
        "formality": "'to': '(4,)', 'length': 3, 'degree': 2",
        "gauge-vs-tensor": "graded dimensions differ at ((1,), (4,))",
    }),
    ("commuting-diamond", "5", {
        "square-sign-audit": "(1,) -> {(2,), (3,)} -> (4,) does not anticommute",
        "gauge-vs-tensor": "graded dimensions differ at ((1,), (3,))",
    }),
    # both break a precondition of gauge_isomorphic, which fails the
    # comparison instead of raising, so the run exits 1 and not 2
    ("doubled-hom", "3", {"gauge-vs-tensor": "hom ((1,), (2,)) of C has degrees (1, 1)"}),
    ("tower-labels-reversed", "3,3", {
        "gauge-vs-tensor": "bijection is not order-preserving at (2, 1): "
                           "its image (2, 1) is object 2 of D, expected 1",
    }),
    ("wedge-sign-flip", "3,3,3", {"resolution-exact": "square at level -3 nonzero"}),
    ("contraction-sign-flip", "3,3,3", {
        "resolution-exact": "square at level -2 nonzero",
        "koszul-perfect": "square at level -2 nonzero",
    }),
    # on (3,3,3) the resolution's generators at level -7 have z-degree 9 or
    # more, above the window 2 ell = 6, so only the Koszul scan sees the column
    ("leftmost-last-column-zeroed", "3,3,3", {
        "koszul-perfect": "cohomology at level -2 in degree (0, 1, 1, 0)",
    }),
    ("ext-formula-first-row-emptied", "3,3,3", {"ext-agreement": "'mismatches': [[[0, 0, 0, 0]"}),
    ("ext-sign-blind", "3,3,3", {"ext-vanishing": "'nonzero'"}),
    ("quotient-top-degree-dropped", "3,3,3", {"short-exact-sequences": "'failing': [[1, 3]"}),
    # on (2,3), with weights (3, 2), the ring modulo x_2 is zero at z = 1, 2
    # and nonzero at z = 3, which a band of two zero z-degrees cuts off
    ("quotient-band-one-short", "2,3", {"short-exact-sequences": (
        "'failing': [[1, 2]], "
        "'first': 'axis 1, j 2: middle module not isomorphic to the ring quotient'")}),
    # at j = 3 < p_axis no ring quotient is compared, so only the intertwining
    # scan of the projection sees the dropped action
    ("truncated-first-action-dropped", "4,4,4", {"short-exact-sequences": (
        "'failing': [[1, 3], [1, 4], [2, 3], [2, 4], [3, 3], [3, 4]], "
        "'first': 'axis 1, j 3: does not intertwine x_1 at (0, 0, 0, 0)'")}),
    ("st-gram-entry-raised", "3,3,3", {
        "st-gram-shape": "'rank': 8",
        "comparison-report": "'expected': -4, 'found': -3",
    }),
    # compare and the Sebastiani-Thom check read only the upper triangle, so
    # only a shape check that reads the mirror of the zero (1, 2) sees it
    ("st-gram-lower-entry-added", "3,3,3", {
        "st-gram-shape": "'entry': [1, 2], 'expected': 1, 'found': 0",
    }),
    ("euler-corner-doubled", "3,3,3", {
        "euler-gram-shape": "'entry': [0, 0], 'expected': 2, 'found': 4",
        "comparison-report": "'expected': 4, 'found': 2",
    }),
    ("one-var-off-diagonal-flipped", "3,3,3", {"comparison-report": "'expected': -4, 'found': 4"}),
    # one kernel serves the tower's cohomology and the algebra side's ranks,
    # so a kernel without fill-in fails checks of both routes
    ("elimination-fill-in-dropped", "3,3,3", {
        "suspension-pipeline": "not a cocycle: not in the span of image and representatives",
        "resolution-exact": "not exact at level -2 in degree (1, 1, 1, 0)",
        "short-exact-sequences": (
            "'failing': [[2, 3]], "
            "'first': 'axis 2, j 3: middle module not isomorphic to the ring quotient'"),
    }),
]


def failing_checks(capsys, monkeypatch, mutant, p):
    """Exit code and the failing checks, with their details, of the mutated run."""
    module, name, stand_in = MUTANTS[mutant]
    monkeypatch.setattr(module, name, stand_in)
    code = cli.run(["verify", "--suite", "all", "--p", p, "--json"])
    suites = json.loads(capsys.readouterr().out)["suites"]
    monkeypatch.undo()
    return code, {c["name"]: c.get("detail", {}) for s in suites for c in s["checks"] if not c["ok"]}


@pytest.mark.parametrize("mutant, p, expected", KILL_MATRIX, ids=[row[0] for row in KILL_MATRIX])
def test_mutant_fails_exactly_its_checks(capsys, monkeypatch, mutant, p, expected):
    code, failing = failing_checks(capsys, monkeypatch, mutant, p)
    assert code == 1
    assert set(failing) == set(expected)
    for name, fragment in expected.items():
        if fragment is not None:
            assert fragment in str(failing[name]), (name, failing[name])


@pytest.mark.parametrize("mutant, p, expected", KILL_MATRIX, ids=[row[0] for row in KILL_MATRIX])
def test_mutant_text_output_names_each_failing_check_with_its_detail(
    capsys, monkeypatch, mutant, p, expected
):
    module, name, stand_in = MUTANTS[mutant]
    monkeypatch.setattr(module, name, stand_in)
    argv = ["verify", "--suite", "all", "--p", p]
    assert cli.run(argv + ["--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert cli.run(argv) == 1
    want = [f"p: {tuple(report['p'])}"]
    for suite in report["suites"]:
        want.append(f"suite {suite['suite']}:")
        for c in suite["checks"]:
            if c["ok"]:
                want.append(f"  PASS {c['name']}")
            else:
                want.append(f"  FAIL {c['name']}  {json.dumps(c['detail'], sort_keys=True)}")
        want.append(f"  => {'PASS' if suite['ok'] else 'FAIL'}")
    want.append("verify: FAIL")
    assert capsys.readouterr().out == "\n".join(want) + "\n"
    assert {c["name"] for s in report["suites"] for c in s["checks"] if not c["ok"]} == set(expected)


def test_every_mutated_route_passes_unmutated(capsys):
    for p in sorted({row[1] for row in KILL_MATRIX}):
        assert cli.run(["verify", "--suite", "all", "--p", p]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("p", ["5,3", "5,3,3"])
@pytest.mark.parametrize("mutant", sorted(TOWER_MUTANTS))
def test_last_stage_rechecks_never_fail_first(capsys, monkeypatch, mutant, p):
    code, failing = failing_checks(capsys, monkeypatch, mutant, p)
    assert code == 1
    assert set(failing) == {"suspension-pipeline"}


def test_every_named_check_is_killed_by_a_row(capsys):
    assert cli.run(["verify", "--suite", "all", "--p", "3,3,3", "--json"]) == 0
    suites = json.loads(capsys.readouterr().out)["suites"]
    assert {c["name"] for s in suites for c in s["checks"]} == {
        name for _, _, expected in KILL_MATRIX for name in expected
    }


def reference_suite_fukaya(p):
    """The fukaya suite as it was before ``suspension.fukaya_checks``: the
    verified tower, then validation, the formality scan, the comparison with
    ``tensor_bp(p)`` and the square audit, all run again on the last stage.
    Each check is (name, ok, detail), the detail empty on success."""
    try:
        C = suspension.suspension_tower(p, verify=True)[-1]
    except (ComplexError, suspension.SuspensionError) as exc:
        return (("suspension-pipeline", False, {"error": str(exc)}),)
    violations = validate(C)
    chain = formality_check(C)
    g = gauge_isomorphic(C, suspension.tensor_bp(p), {x: x for x in C.objects})
    audit = square_sign_audit(C)
    return (
        ("suspension-pipeline", True, {}),
        ("category-valid", not violations,
         {"violations": list(violations)[:5]} if violations else {}),
        ("formality", chain is None, chain or {}),
        ("gauge-vs-tensor", g.ok, {} if g.ok else {"reason": g.reason or ""}),
        ("square-sign-audit", not audit, {} if not audit else {"problems": audit[:5]}),
    )


ORACLE_CASES = (
    [(None, p) for p in ["2", "5", "3,3", "3,3,3", "2,3,4,5"]]
    + [(mutant, p) for mutant in sorted(TOWER_MUTANTS) for p in ["5", "5,3", "5,3,3"]]
    + [("tensor-bp-sign-flip", "3,3,3"), ("tower-labels-reversed", "3,3")]
)


@pytest.mark.parametrize("mutant, p", ORACLE_CASES, ids=[f"{m}-{p}" for m, p in ORACLE_CASES])
def test_fukaya_suite_matches_the_reference(monkeypatch, mutant, p):
    if mutant is not None:
        module, name, stand_in = MUTANTS[mutant]
        monkeypatch.setattr(module, name, stand_in)
    p = tuple(map(int, p.split(",")))
    assert cli._suite_fukaya(p) == reference_suite_fukaya(p)


def test_suspend_verify_compares_the_last_stage_with_the_tensor_model(capsys, monkeypatch):
    monkeypatch.setattr(suspension, "tensor_bp", flipped_composite)
    code = cli.run(["suspend", "--p", "3,3", "--k", "3", "--verify"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith("verification failure: gauge-vs-tensor failed: "), err
    assert "sign system is inconsistent" in err


def test_one_variable_fukaya_verify_names_the_first_failing_check(capsys, monkeypatch):
    module, name, stand_in = MUTANTS["extra-degree-2-hom"]
    monkeypatch.setattr(module, name, stand_in)
    code = cli.run(["fukaya", "--p", "5", "--verify"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith("verification failure: formality failed: "), err
    assert "'length': 3, 'degree': 2" in err
