"""Grading group arithmetic, positivity, and the component-group cross-check."""

from collections import Counter
from itertools import permutations, product
from math import gcd, lcm
import random

import pytest

from bpsing.grading import (
    FiniteAbelianGroup,
    LDegree,
    LGroup,
    cy_check,
    exponent_seq,
    orlov_group,
)


def component_group_order_stats(p):
    """Order statistics of the diagonal-torus component group, by enumeration.

    K = {t : t_1^{p_1} = ... = t_n^{p_n}} inside the torus, S the subgroup
    {(t^{w_1}, ..., t^{w_n})}.  The ell-th power of any K-point lies in S, so
    the component group K/S is already visible among the points of order
    dividing M = ell; roots of unity of order dividing M are modelled
    additively as Z/M.  Inside mu_M^n the subgroup S consists of the
    multiples of (w_1/g, ..., w_n/g) with g = gcd of the weights.
    """
    p = tuple(p)
    n = len(p)
    M = lcm(*p)
    w = [M // q for q in p]
    g = 0
    for x in w:
        g = gcd(g, x)
    points = [
        a
        for a in product(range(M), repeat=n)
        if all((p[j] * a[j] - p[0] * a[0]) % M == 0 for j in range(1, n))
    ]
    sub = {tuple((u * (x // g)) % M for x in w) for u in range(M)}

    def canon(a):
        return min(tuple((a[i] + s[i]) % M for i in range(n)) for s in sub)

    zero = canon((0,) * n)
    stats = Counter()
    for a in {canon(pt) for pt in points}:
        k = 1
        while canon(tuple(k * x % M for x in a)) != zero:
            k += 1
        stats[k] += 1
    return stats


def abelian_group_order_stats(factors):
    """Element-order counts of Z/f_1 x ... x Z/f_k; {1: 1} for the trivial group."""
    stats = Counter()
    for elt in product(*(range(f) for f in factors)):
        k = 1
        for e, f in zip(elt, factors):
            k = lcm(k, f // gcd(e, f))
        stats[k] += 1
    return stats


def test_exponent_seq_validation():
    assert exponent_seq([3, 2]) == (3, 2)
    with pytest.raises(ValueError):
        exponent_seq([1, 3])
    with pytest.raises(ValueError):
        exponent_seq([])
    with pytest.raises(ValueError):
        exponent_seq([2, True])


def test_normalize_known_values():
    L = LGroup((2, 3))
    assert L.normalize((0, 3, 0)).raw() == (0, 0, 1)
    assert L.normalize((2, 0, 0)).raw() == (0, 0, 1)
    assert L.normalize((-1, 0, 0)).raw() == (1, 0, -1)
    assert L.normalize((5, -4, 2)).raw() == (1, 2, 2)
    with pytest.raises(ValueError):
        L.normalize((1, 0))


def test_generators_and_degree_map():
    L = LGroup((2, 3, 6))
    assert L.ell == 6
    assert L.weights == (3, 2, 1)
    for i in range(1, 4):
        assert L.z_degree(L.x(i)) == L.weights[i - 1]
        assert L.scale(L.p[i - 1], L.x(i)) == L.c()
    assert L.z_degree(L.c()) == 6
    assert L.z_degree(L.zero()) == 0


def test_normalize_random_properties():
    rng = random.Random(2024)
    for p in [(2, 3), (3, 3, 3), (2, 3, 4)]:
        L = LGroup(p)
        zw = L.weights + (L.ell,)
        for _ in range(200):
            u = tuple(rng.randint(-30, 30) for _ in range(L.n + 1))
            v = tuple(rng.randint(-30, 30) for _ in range(L.n + 1))
            du = L.normalize(u)
            dv = L.normalize(v)
            # normal form is idempotent and respects the group operations
            assert L.normalize(du.raw()) == du
            assert L.add(du, dv) == L.normalize(tuple(a + b for a, b in zip(u, v)))
            assert L.add(du, L.neg(du)) == L.zero()
            assert L.scale(3, du) == L.add(du, L.add(du, du))
            assert L.z_degree(du) == sum(a * w for a, w in zip(u, zw))
            assert 0 <= du.a[0] < p[0]


def test_monoid_membership():
    L = LGroup((2, 3))
    assert L.is_in_monoid(L.zero())
    assert L.is_in_monoid(L.x(1))
    assert L.is_in_monoid(L.c())
    assert not L.is_in_monoid(L.neg(L.x(1)))
    # z-degree 1 is positive yet not a sum of generator degrees 3 and 2... it is: no
    d = L.sub(L.x(1), L.x(2))
    assert L.z_degree(d) == 1
    assert not L.is_in_monoid(d)


def is_in_L_plus(L, d):
    """Membership in {-(n-1) c + sum a_i x_i : all a_i >= 1}.

    Equivalent to d + (n-1) c - (x_1 + ... + x_n) lying in the monoid
    generated by the x_i.
    """
    shifted_raw = tuple(ai - 1 for ai in d.a) + (d.b + L.n - 1,)
    return L.is_in_monoid(L.normalize(shifted_raw))


def test_l_plus_membership():
    L = LGroup((2, 3))
    assert not is_in_L_plus(L, L.zero())
    interior = L.normalize((1, 1, -1))
    assert is_in_L_plus(L, interior)
    assert is_in_L_plus(L, L.add(interior, L.x(2)))
    # -c would need a positive combination of the x_i summing to zero
    assert not is_in_L_plus(L, L.neg(L.c()))


def test_torsion_subgroup_known_values():
    assert LGroup((2, 3)).torsion_subgroup().factors == ()
    assert LGroup((2, 2)).torsion_subgroup().factors == (2,)
    assert LGroup((2, 2, 2)).torsion_subgroup().factors == (2, 2)


def test_cy_check_values():
    rep = cy_check((2, 3, 6))
    assert rep.holds and rep.ell == 6 and rep.weights == (3, 2, 1)
    assert cy_check((3, 3, 3)).holds
    assert cy_check((2, 2)).holds
    assert not cy_check((2, 3, 5)).holds
    assert not cy_check((2, 3)).holds


def test_orlov_group_known_values():
    assert orlov_group((2, 2)).factors == (2,)
    assert orlov_group((3, 3, 3)).factors == (3, 3)
    assert orlov_group((2, 3, 6)).order == 6
    assert orlov_group((2, 3, 5)).factors == ()


def test_orlov_group_matches_root_of_unity_enumeration():
    for p in [(2, 2), (3, 3, 3), (2, 3, 6), (2, 3, 5)]:
        expected = abelian_group_order_stats(orlov_group(p).factors)
        assert component_group_order_stats(p) == expected, p


def test_orlov_group_permutation_invariant():
    reference = orlov_group((2, 3, 6))
    for perm in set(permutations((2, 3, 6))):
        g = orlov_group(perm)
        assert g.order == reference.order
        assert g.factors == reference.factors


def test_finite_abelian_group_validation():
    g = FiniteAbelianGroup((2, 6))
    assert g.order == 12
    assert str(g) == "Z/2 x Z/6"
    assert str(FiniteAbelianGroup(())) == "0"
    with pytest.raises(ValueError):
        FiniteAbelianGroup((6, 2))
    with pytest.raises(ValueError):
        FiniteAbelianGroup((1,))


def test_add_and_sub_match_the_normalized_sums():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def group_and_normal_forms(draw):
        L = LGroup(draw(st.lists(st.integers(2, 9), min_size=1, max_size=4)))
        forms = [
            LDegree(tuple(draw(st.integers(0, pi - 1)) for pi in L.p), draw(st.integers(-5, 5)))
            for _ in range(2)
        ]
        return L, forms[0], forms[1]

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(group_and_normal_forms())
    def check(case):
        L, d1, d2 = case
        # the general normal form of the coordinatewise sum and difference
        assert L.add(d1, d2) == L.normalize(tuple(u + v for u, v in zip(d1.raw(), d2.raw())))
        assert L.sub(d1, d2) == L.normalize(tuple(u - v for u, v in zip(d1.raw(), d2.raw())))

    check()
