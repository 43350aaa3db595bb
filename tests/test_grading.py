"""Grading group arithmetic, positivity, and the component-group cross-check."""

from collections import Counter
from itertools import combinations_with_replacement, permutations, product
from math import gcd, lcm, prod
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
from bpsing.exactlin import RatMatrix, invariant_factors, solve
from helpers import integer_kernel, negative


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


def test_generators_are_normalized_once_per_group(monkeypatch):
    calls = []
    normalize = LGroup.normalize
    monkeypatch.setattr(LGroup, "normalize", lambda L, raw: calls.append(raw) or normalize(L, raw))
    L = LGroup((2, 3, 4))
    for _ in range(5):
        assert [L.x(i) for i in (1, 2, 3)] == [
            LDegree((1, 0, 0), 0), LDegree((0, 1, 0), 0), LDegree((0, 0, 1), 0)
        ]
    assert calls == [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]
    assert L.x(2) is L.x(2) and LGroup((2, 3, 4)).x(2) == L.x(2)
    for i in (0, 4):
        with pytest.raises(ValueError, match="generator index out of range"):
            L.x(i)
    # a group of many variables builds only the generators asked for
    assert LGroup((2,) * 100000).x(7).a[6] == 1


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
            assert L.add(du, negative(L, du)) == L.zero()
            assert L.scale(3, du) == L.add(du, L.add(du, du))
            assert L.z_degree(du) == sum(a * w for a, w in zip(u, zw))
            assert 0 <= du.a[0] < p[0]


def test_monoid_membership():
    L = LGroup((2, 3))
    assert L.is_in_monoid(L.zero())
    assert L.is_in_monoid(L.x(1))
    assert L.is_in_monoid(L.c())
    assert not L.is_in_monoid(negative(L, L.x(1)))
    # z-degree 1 is positive yet not a sum of generator degrees 3 and 2... it is: no
    d = L.sub(L.x(1), L.x(2))
    assert L.z_degree(d) == 1
    assert not L.is_in_monoid(d)


def monoid_search(L, d):
    """The former ``is_in_monoid``: some m >= 0 with normal form of sum m_i x_i equal to d.

    Only exponent vectors of d's z-degree can match, which makes the search finite.
    """

    def vectors(i, remaining):
        if i == L.n - 1:
            if remaining % L.weights[i] == 0:
                yield (remaining // L.weights[i],)
            return
        for mi in range(remaining // L.weights[i] + 1):
            for rest in vectors(i + 1, remaining - mi * L.weights[i]):
                yield (mi,) + rest

    target_z = L.z_degree(d)
    return target_z >= 0 and any(L.normalize(m + (0,)) == d for m in vectors(0, target_z))


@pytest.mark.parametrize("p", [(5,), (2, 3), (3, 4), (2, 2, 2), (3, 3, 3), (2, 3, 5)])
def test_monoid_membership_matches_the_exponent_search(p):
    L = LGroup(p)
    rng = random.Random(sum(p))
    seen = set()
    for _ in range(300):
        d = L.normalize(tuple(rng.randint(0, pi - 1) for pi in p) + (rng.randint(-3, 3),))
        assert L.is_in_monoid(d) == monoid_search(L, d), d
        seen.add(L.is_in_monoid(d))
    assert seen == {True, False}


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
    assert not is_in_L_plus(L, negative(L, L.c()))


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
    assert prod(orlov_group((2, 3, 6)).factors) == 6
    assert orlov_group((2, 3, 5)).factors == ()


def test_orlov_group_matches_root_of_unity_enumeration():
    for p in [
        (2, 2), (3, 3, 3), (2, 3, 6), (2, 3, 5),
        (2, 4, 4), (2, 2, 2, 2), (3, 6), (4, 6), (2, 6, 6), (2, 2, 2, 2, 2),
    ]:
        expected = abelian_group_order_stats(orlov_group(p).factors)
        assert component_group_order_stats(p) == expected, p


def reference_orlov_group(p):
    """The torus cokernel by its own route: an integer kernel of the weights,
    the relation rows solved in its basis, and a second Smith form."""
    L = LGroup(p)
    n = L.n
    kernel = integer_kernel(RatMatrix([list(L.weights)], cols=n))
    if len(kernel) != n - 1:
        raise ArithmeticError("weight vector must have full rank one")
    relation_rows = []
    for i in range(n - 1):
        row = [0] * n
        row[i] = L.p[i]
        row[i + 1] = -L.p[i + 1]
        relation_rows.append(row)
    # express each relation row in the kernel basis; the basis is saturated,
    # so rational coordinates of an integer kernel vector are integers, and
    # invariant_factors raises if one is not
    basis_cols = RatMatrix([[kernel[j][i] for j in range(n - 1)] for i in range(n)], cols=n - 1)
    coords = []
    for row in relation_rows:
        x = solve(basis_cols, row)
        if x is None:
            raise ArithmeticError("relation row escapes the weight kernel")
        coords.append(x)
    factors = invariant_factors(RatMatrix(coords, cols=n - 1))
    if len(factors) != n - 1:
        raise ArithmeticError("cokernel is infinite")
    return FiniteAbelianGroup(tuple(d for d in factors if d > 1))


def test_orlov_group_matches_the_torus_kernel_route():
    sequences = [
        p
        for n, top in [(1, 12), (2, 12), (3, 12), (4, 7), (5, 7)]
        for p in combinations_with_replacement(range(2, top + 1), n)
    ]
    assert len(sequences) == 741
    sequences += [*permutations((2, 3, 6)), *permutations((2, 4, 4))]
    for p in sequences:
        assert orlov_group(p) == reference_orlov_group(p), p


def test_orlov_group_permutation_invariant():
    reference = orlov_group((2, 3, 6))
    for perm in set(permutations((2, 3, 6))):
        g = orlov_group(perm)
        assert prod(g.factors) == prod(reference.factors)
        assert g.factors == reference.factors


def test_finite_abelian_group_validation():
    g = FiniteAbelianGroup((2, 6))
    assert prod(g.factors) == 12
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
