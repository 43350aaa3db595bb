"""The category builders against reference builders that walk a shell category.

``reference_tensor`` and ``reference_directed_extension`` are the former
implementations: each first builds the category without compositions (the
"shell"), walks its composable pairs skipping identities, and then builds the
category again with the composition table.  The library builders walk the hom
table directly; both routes must give equal categories (objects, homs and the
whole composition table).
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from bpsing import suspension
from bpsing.dgcat import (
    DirectedGradedCategory,
    MorRef,
    a_category,
    gauge_isomorphic,
    source_index,
    tensor,
    tensor_bp,
    to_json_dict,
)
from bpsing.suspension import directed_extension, fukaya_bp, suspend, suspension_tower
from bpsing.twisted import compose_classes, hom_complex
from helpers import assert_exact, from_json_dict
from test_dgcat import _rescaled


def reference_tensor(A, B):
    na, nb = len(A.objects), len(B.objects)
    objects = tuple((a, b) for a in A.objects for b in B.objects)

    def oidx(ia, ib):
        return ia * nb + ib

    homs = {}
    for ia in range(na):
        for ja in range(na):
            ha = A.hom(ia, ja)
            if not ha:
                continue
            for ib in range(nb):
                for jb in range(nb):
                    hb = B.hom(ib, jb)
                    if not hb:
                        continue
                    i, j = oidx(ia, ib), oidx(ja, jb)
                    if i < j:
                        homs[(i, j)] = tuple(da + db for da in ha for db in hb)

    C = DirectedGradedCategory(objects, homs)

    def pair_refs(i, j):
        ia, ib = divmod(i, nb)
        ja, jb = divmod(j, nb)
        hb = B.hom(ib, jb)
        out = []
        for k in range(len(C.hom(i, j))):
            ka, kb = divmod(k, len(hb))
            out.append((MorRef(ia, ja, ka), MorRef(ib, jb, kb)))
        return out

    comp = {}
    targets = source_index(C._homs)
    for (i, j) in sorted(C._homs):
        for l in targets[j]:
            for kf, (f_a, f_b) in enumerate(pair_refs(i, j)):
                for kg, (g_a, g_b) in enumerate(pair_refs(j, l)):
                    g = MorRef(j, l, kg)
                    f = MorRef(i, j, kf)
                    if C.is_identity(g) or C.is_identity(f):
                        continue
                    ca = A.compose(g_a, f_a)
                    cb = B.compose(g_b, f_b)
                    if not ca or not cb:
                        continue
                    sign = -1 if (B.degree(g_b) * A.degree(f_a)) % 2 else 1
                    width = len(B.hom(f_b.src, g_b.tgt))
                    entry = {}
                    for ra, va in ca.items():
                        for rb, vb in cb.items():
                            entry[ra * width + rb] = sign * va * vb
                    comp[(g, f)] = entry

    return DirectedGradedCategory(objects, homs, comp)


def reference_directed_extension(A, k):
    na = len(A.objects)
    objects = tuple((x, j) for j in range(k, 0, -1) for x in A.objects)

    def oidx(ia, j):
        return (k - j) * na + ia

    homs = {}
    underlying = {}
    for j in range(k, 0, -1):
        for j2 in range(j, 0, -1):
            for ia in range(na):
                for ia2 in range(na):
                    if j == j2 and ia == ia2:
                        continue
                    base = A.hom(ia, ia2)
                    if not base:
                        continue
                    src, tgt = oidx(ia, j), oidx(ia2, j2)
                    homs[(src, tgt)] = base
                    underlying[(src, tgt)] = {m: MorRef(ia, ia2, m) for m in range(len(base))}

    def u(ref):
        if ref.src == ref.tgt:
            ia = ref.src % na
            return MorRef(ia, ia, 0)
        return underlying[(ref.src, ref.tgt)][ref.idx]

    E_shell = DirectedGradedCategory(objects, homs)
    comp = {}
    for f in E_shell.morphisms():
        for g in E_shell.morphisms_from(f.tgt):
            if E_shell.is_identity(g) or E_shell.is_identity(f):
                continue
            base = A.compose(u(g), u(f))
            if not base:
                continue
            back = {ref: idx for idx, ref in underlying[(f.src, g.tgt)].items()}
            comp[(g, f)] = {
                back[MorRef(u(f).src, u(g).tgt, ridx)]: coeff for ridx, coeff in base.items()
            }
    return DirectedGradedCategory(objects, homs, comp)


def reference_tensor_bp(p):
    C = a_category(p[0] - 1)
    C = DirectedGradedCategory(
        tuple((x,) for x in C.objects), {ij: C.hom(*ij) for ij in C._homs if ij[0] < ij[1]}
    )
    for pi in p[1:]:
        T = reference_tensor(C, a_category(pi - 1))
        C = DirectedGradedCategory(
            tuple(x + (y,) for x, y in T.objects),
            {ij: T.hom(*ij) for ij in T._homs if ij[0] < ij[1]},
            dict(T.composition_entries()),
        )
    return C


def assert_same_category(new, ref):
    assert new.objects == ref.objects
    assert new._homs == ref._homs
    assert list(new.composition_entries()) == list(ref.composition_entries())
    assert new == ref


@pytest.mark.parametrize("m", range(1, 5))
@pytest.mark.parametrize("n", range(1, 5))
def test_tensor_of_linear_quivers_matches_reference(m, n):
    A, B = a_category(m), a_category(n)
    assert_same_category(tensor(A, B), reference_tensor(A, B))


def test_tensor_with_a_tensor_factor_matches_reference():
    A, B = tensor_bp((2, 3)), a_category(3)
    assert_same_category(tensor(A, B), reference_tensor(A, B))


@pytest.mark.parametrize("p", [(2, 3), (3, 3, 3), (2, 3, 4), (3, 3, 3, 3)])
def test_tensor_bp_matches_reference(p):
    assert_same_category(tensor_bp(p), reference_tensor_bp(p))


def random_rational_category(rng, n):
    """Homs of dimension 1 or 2 and non-unit rational composites, as plain ints and strs."""
    homs = {
        (i, j): tuple(rng.choice((0, 1, 2)) for _ in range(rng.randint(1, 2)))
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.8
    }
    coeffs = (Fraction(2, 3), -5, "1/2", 3, -1, 0)
    comp = {}
    for (i, j), hf in homs.items():
        for (j2, l), hg in homs.items():
            if j2 != j or (i, l) not in homs:
                continue
            for kf in range(len(hf)):
                for kg in range(len(hg)):
                    comp[((j, l, kg), (i, j, kf))] = {
                        r: rng.choice(coeffs)
                        for r in range(len(homs[(i, l)]))
                        if rng.random() < 0.7
                    }
    return DirectedGradedCategory(tuple(range(n)), homs, comp)


# coefficients 2/3, -5 and 1/2 and two-dimensional homs check the product route
# and the unit-coefficient step of tensor beyond +-1 tables
RANDOM_CATEGORIES = [random_rational_category(random.Random(seed), 4) for seed in (1, 4, 10)]


@pytest.mark.parametrize(
    "A",
    [a_category(1), a_category(2), a_category(3), tensor_bp((2, 3)), tensor_bp((3, 3))]
    + RANDOM_CATEGORIES,
    ids=["A1", "A2", "A3", "bp23", "bp33", "rand1", "rand4", "rand10"],
)
@pytest.mark.parametrize("k", [2, 3, 4])
def test_directed_extension_matches_reference(A, k):
    assert_same_category(directed_extension(A, k), reference_directed_extension(A, k))


@pytest.mark.parametrize(
    "A", [a_category(3), tensor_bp((3, 3))] + RANDOM_CATEGORIES,
    ids=["A3", "bp33", "rand1", "rand4", "rand10"],
)
@pytest.mark.parametrize("k", [2, 3, 4])
def test_extension_view_answers_every_pair_as_the_built_table(A, k):
    """The view reads A's table; the reference composes every pair.  They
    agree on every key g after f with g.src == f.tgt, zero composites
    included, and also where a hom is missing (up the stack, or a basis
    index past the hom's end) or an object index lies outside E; pairs with
    g.src != f.tgt give nothing on both sides; and both hold the same keys."""
    E, ref = directed_extension(A, k), reference_directed_extension(A, k)
    view, table = E._comp, ref._comp
    objects, indices = range(-1, len(E.objects) + 1), range(3)
    for i, j, l in product(objects, repeat=3):
        for gi, fi in product(indices, repeat=2):
            key = (MorRef(j, l, gi), MorRef(i, j, fi))
            assert view.get(key) == table.get(key), key
            assert (key in view) == (key in table), key
    for g, f in product(ref.morphisms(), repeat=2):
        assert ((g, f) in view) == ((g, f) in table), (g, f)
    assert len(view) == len(table)
    assert sorted(view) == sorted(table)
    with pytest.raises(KeyError):
        view[(E.identity(0), E.identity(1))]
    assert E == ref and ref == E


def test_random_extension_inputs_go_beyond_unit_tables():
    values = {v for A in RANDOM_CATEGORIES for entry in A._comp.values() for v in entry.values()}
    assert {Fraction(2, 3), Fraction(-5), Fraction(1, 2)} <= values
    assert all(any(len(h) == 2 for h in A._homs.values()) for A in RANDOM_CATEGORIES)


def test_tensor_with_rational_coefficients_matches_reference():
    rng = random.Random(20091)
    for _ in range(25):
        A = random_rational_category(rng, rng.randint(1, 4))
        B = random_rational_category(rng, rng.randint(1, 4))
        new, ref = tensor(A, B), reference_tensor(A, B)
        assert_same_category(new, ref)
        # tensor keeps its tables without the constructor's copy, so they
        # must already be in the constructor's form, insertion order included
        assert list(new._homs.items()) == list(ref._homs.items())
        assert list(new._comp.items()) == list(ref._comp.items())


def coefficients(C):
    return [v for entry in C._comp.values() for v in entry.values()]


def test_every_stored_coefficient_is_exact():
    rng = random.Random(7)
    A, B = random_rational_category(rng, 3), random_rational_category(rng, 3)
    C = tensor_bp((3, 3))
    built = [
        A,
        tensor(A, B),
        tensor_bp((2, 3, 4)),
        directed_extension(C, 3),
        suspend(C, 3),
        from_json_dict(to_json_dict(tensor(A, B))),
    ]
    assert any(type(v) is Fraction for v in coefficients(built[1]))
    for D in built:
        assert_exact(coefficients(D))


def test_the_tower_keeps_every_coefficient_exact(monkeypatch):
    """Tables, cohomology data, differentials and composed classes of
    every tower stage, and a gauge witness that carries primes."""
    homs, classes = [], []

    def recording_hom_complex(X, Y):
        homs.append(hom_complex(X, Y))
        return homs[-1]

    def recording_compose_classes(*args):
        classes.append(compose_classes(*args))
        return classes[-1]

    monkeypatch.setattr(suspension, "hom_complex", recording_hom_complex)
    monkeypatch.setattr(suspension, "compose_classes", recording_compose_classes)
    for p in [(3, 3, 3), (2, 3, 4), (2, 2, 2, 2)]:
        for stage in suspension_tower(p):
            assert_exact(coefficients(stage))
    cohomologies = [c for h in homs for c in h.cohomology._data.values()]
    assert_exact(x for c in cohomologies for rep in c.representatives for _, x in rep)
    assert_exact(x for c in cohomologies for row in c.coord_rows for _, x in row)
    assert_exact(x for c in cohomologies for row in c.residual_rows for _, x in row)
    assert_exact(x for h in homs for m in h._diff.values() for row in m.entries for x in row)
    assert_exact(x for _, coeffs in classes for x in coeffs)

    C = fukaya_bp((3, 3, 3))
    got = gauge_isomorphic(C, _rescaled(C, random.Random(7)), {x: x for x in C.objects})
    assert got.ok
    assert {type(v) for v in got.witness.values()} == {int, Fraction}
    assert_exact(got.witness.values())
