"""Kill matrix: single-point mutants of the category constructions and the
routes, each one run through ``verify --suite all`` with ``monkeypatch``.

A row names the mutant, which replaces one module attribute, the exponent
sequence, and the exact set of named checks that must fail; the run must
exit 1.  Mutants change the constructions and the routes, never the checks:
a weakened check still passes on correct input, so no run could kill it.

Outcomes recorded beside ``KILL_MATRIX``:

- With two or more entries, no mutant fails ``category-valid``,
  ``formality`` or ``square-sign-audit``, the three lines that check the
  last tower stage again.  The four ``a_category`` mutants and the dropped
  composite fail ``suspension-pipeline`` instead, and the later lines are
  not printed (``test_last_stage_rechecks_never_fail_first``).
- Equivalent mutants: one flipped sign in ``tensor_bp((3, 3))`` is removed
  by rescaling one morphism of its single square, and on one variable every
  column of the resolution has one entry, so a single flipped sign gives an
  isomorphic complex.  The rows avoid both.
"""

import json
from fractions import Fraction

import pytest

from bpsing import cli, singcat, suspension
from bpsing.dgcat import DirectedGradedCategory, MorRef
from helpers import drop_one_composite

_suspend = suspension.suspend
_a_category = suspension.a_category
_tensor_bp = cli.tensor_bp
_form_complex = singcat._form_complex


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


TOWER_MUTANTS = {
    "suspend-drops-a-composite": (suspension, "suspend", dropped_composite),
    "off-basis-composite": (suspension, "a_category", off_basis_composite),
    "wrong-degree-composite": (suspension, "a_category", wrong_degree_composite),
    "extra-degree-2-hom": (suspension, "a_category", extra_hom),
    "commuting-diamond": (suspension, "a_category", commuting_diamond),
}
MUTANTS = {
    **TOWER_MUTANTS,
    "tensor-bp-sign-flip": (cli, "tensor_bp", flipped_composite),
    "wedge-sign-flip": (singcat, "_form_complex", _flip_first(wedge=True)),
    "contraction-sign-flip": (singcat, "_form_complex", _flip_first(wedge=False)),
}

# mutant, p, and each failing check with a fragment of its detail (formality has none)
KILL_MATRIX = [
    ("suspend-drops-a-composite", "3,3", {"suspension-pipeline": "gauge comparison failed"}),
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
        "formality": None,
        "gauge-vs-tensor": "graded dimensions differ at ((1,), (4,))",
    }),
    ("commuting-diamond", "5", {
        "square-sign-audit": "(1,) -> {(2,), (3,)} -> (4,) does not anticommute",
        "gauge-vs-tensor": "graded dimensions differ at ((1,), (3,))",
    }),
    ("wedge-sign-flip", "3,3,3", {"resolution-exact": "square at level -3 nonzero"}),
    ("contraction-sign-flip", "3,3,3", {
        "resolution-exact": "square at level -2 nonzero",
        "koszul-perfect": "square at level -2 nonzero",
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
