"""Product Milnor lattices against the symmetrized Euler route."""

import pytest

import bpsing.dgcat
from bpsing.dgcat import MAX_RANK, euler_matrix, tensor_bp
from bpsing.lattice import (
    BilinearLattice,
    LatticeComparison,
    compare,
    euler_gram,
    index_tuples,
    one_var_form,
    st_gram,
)


def cartan_a(m):
    return [
        [2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(m)]
        for i in range(m)
    ]


def test_one_var_form_values():
    assert one_var_form(4, 1, 1) == 2
    assert one_var_form(4, 1, 2) == -1
    assert one_var_form(4, 1, 3) == 0
    with pytest.raises(ValueError):
        one_var_form(4, 0, 1)
    with pytest.raises(ValueError):
        one_var_form(4, 1, 4)


def test_index_tuples_lexicographic():
    assert index_tuples((2, 3)) == [(1, 1), (1, 2)]
    assert index_tuples((3, 3)) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert len(index_tuples((2, 3, 4))) == 6


def test_one_variable_grams_are_cartan_with_determinant_p():
    for p in range(2, 13):
        s = st_gram((p,))
        e = euler_gram((p,))
        want = cartan_a(p - 1)
        assert [list(row) for row in s.entries] == want
        assert [list(row) for row in e.entries] == want
        assert s.symmetric and e.symmetric
        assert s.determinant() == p
        assert e.determinant() == p


def test_two_variable_grams_are_antisymmetric():
    s = st_gram((2, 3))
    assert not s.symmetric
    assert s.entries == ((0, -2), (2, 0))
    e = euler_gram((2, 3))
    assert e.entries == ((0, -1), (1, 0))
    assert s.determinant() == 4


def test_three_by_three_gram_frozen_values():
    s = st_gram((3, 3))
    assert s.labels == ((1, 1), (1, 2), (2, 1), (2, 2))
    assert s.entries == (
        (0, -2, -2, 1),
        (2, 0, 0, -2),
        (2, 0, 0, -2),
        (-1, 2, 2, 0),
    )


def test_orientation_flips_even_grams_only():
    even = euler_gram((2, 3), "E-Et")
    flipped = euler_gram((2, 3), "Et-E")
    assert flipped.entries == tuple(tuple(-x for x in row) for row in even.entries)
    odd = euler_gram((2, 2, 2), "E-Et")
    assert odd.entries == euler_gram((2, 2, 2), "Et-E").entries
    assert odd.entries == ((2,),)
    with pytest.raises(ValueError):
        euler_gram((2, 3), "bogus")


def test_compare_2_3_reports_exactly_one_disagreement():
    report = compare((2, 3))
    assert not report.agree
    assert report.disagreements == (((1, 1), (1, 2), -2, -1),)


def test_compare_2_2_reports_none():
    report = compare((2, 2))
    assert report.agree
    assert report.disagreements == ()


def test_compare_3_3_disagreements_follow_the_same_pattern():
    report = compare((3, 3))
    assert len(report.disagreements) == 4
    for _, _, st_val, euler_val in report.disagreements:
        assert (st_val, euler_val) == (-2, -1)


# The former builders, kept as reference code: one ``one_var_form`` call per
# factor of each entry, a dense Euler matrix read through ``hom``, and Gram
# entries read through ``entry``.


def reference_st_gram(p):
    labels = index_tuples(p)
    odd = len(p) % 2 == 1
    size = len(labels)
    entries = [[0] * size for _ in range(size)]
    for a in range(size):
        entries[a][a] = 2 if odd else 0
        for b in range(a + 1, size):
            i, j = labels[a], labels[b]
            if all(ik <= jk for ik, jk in zip(i, j)):
                value = 1
                for pk, ik, jk in zip(p, i, j):
                    value *= one_var_form(pk, ik, jk)
            else:
                value = 0
            entries[a][b] = value
            entries[b][a] = value if odd else -value
    return BilinearLattice(tuple(labels), tuple(tuple(r) for r in entries), symmetric=odd)


def reference_euler_matrix(C):
    n = len(C.objects)
    return tuple(tuple(sum((-1) ** d for d in C.hom(i, j)) for j in range(n)) for i in range(n))


def reference_euler_gram(p, orientation):
    C = tensor_bp(p)
    E = reference_euler_matrix(C)
    size = len(C.objects)
    odd = len(p) % 2 == 1
    entries = []
    for i in range(size):
        row = []
        for j in range(size):
            if odd:
                row.append(E[i][j] + E[j][i])
            elif orientation == "E-Et":
                row.append(E[i][j] - E[j][i])
            else:
                row.append(E[j][i] - E[i][j])
        entries.append(tuple(row))
    return BilinearLattice(C.objects, tuple(entries), symmetric=odd)


def reference_compare(p, orientation):
    s = reference_st_gram(p)
    e = reference_euler_gram(p, orientation)
    bad = []
    for a in range(len(s.labels)):
        for b in range(a, len(s.labels)):
            if s.entries[a][b] != e.entries[a][b]:
                bad.append((s.labels[a], s.labels[b], s.entries[a][b], e.entries[a][b]))
    return LatticeComparison(st=s, euler=e, disagreements=tuple(bad))


@pytest.mark.parametrize("orientation", ["E-Et", "Et-E"])
# (5, 5, 5, 5) is the benchmark's largest lattice case; (3, 3, 3, 3, 3) has
# 2^5 nonzeros from the diagonal on in its first row, (2, 2, 2, 2, 2) rank one
@pytest.mark.parametrize("p", [
    (2,), (7,), (2, 3), (3, 3, 3), (2, 3, 4, 5), (4, 4, 4, 4), (5, 5, 5, 5),
    (2, 2, 2, 2, 2), (3, 3, 3, 3, 3),
])
def test_grams_and_comparison_match_the_entrywise_builders(p, orientation):
    C = tensor_bp(p)
    assert euler_matrix(C) == reference_euler_matrix(C)
    want = reference_compare(p, orientation)
    assert st_gram(p) == want.st
    assert euler_gram(p, orientation) == want.euler
    assert compare(p, orientation) == want


def test_grams_refuse_ranks_above_the_limit(monkeypatch):
    assert MAX_RANK >= 256
    monkeypatch.setattr(bpsing.dgcat, "MAX_RANK", 4)
    assert len(st_gram((3, 3)).labels) == len(euler_gram((3, 3)).labels) == 4
    # euler_gram is refused by its tensor_bp call, compare by its st_gram call
    for build, what in [(st_gram, "lattice rank"), (euler_gram, "object count"),
                        (compare, "lattice rank")]:
        with pytest.raises(ValueError, match=rf"^{what} prod\(p_i - 1\) = 5 exceeds the limit 4$"):
            build((2, 6))
