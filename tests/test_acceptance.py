"""End-to-end acceptance checklist.

One test per numbered requirement; `pytest -v tests/test_acceptance.py`
prints one pass/fail line for each, and every one is expected to pass.
Requirement 9's target for the component group of (3, 3, 3) was corrected
from Z/3 to Z/3 x Z/3, the value its own definition gives; the derivation
is in the comment beside that assertion in test 09.
"""

import json
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from math import prod

from helpers import chain_dims, cohomology_dims, off_connector_cones
from test_grading import abelian_group_order_stats, component_group_order_stats

from bpsing.dgcat import (
    a_category,
    euler_matrix,
    formality_check,
    gauge_isomorphic,
    square_sign_audit,
    tensor,
    tensor_bp,
    validate,
)
from bpsing.grading import LGroup, cy_check, orlov_group
from bpsing.lattice import compare, euler_gram, st_gram
from bpsing.singcat import (
    bp_resolution,
    ext_formula,
    ext_k_k,
    index_set,
    koszul_perfect_check,
    lemma_k_check,
    validate_resolution,
)
from bpsing.suspension import connector, directed_extension, fukaya_bp
from bpsing.twisted import cohomology, cone, hom_complex

DESK_P = [(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 3, 4), (3, 3, 3)]


def kron(A, B):
    return [[a * b for a in ra for b in rb] for ra in A for rb in B]


def test_01_suspension_pipeline_matches_tensor_model():
    for p in DESK_P:
        got = fukaya_bp(p, verify=True)
        model = tensor_bp(p)
        assert got.objects == model.objects
        for i in range(len(got.objects)):
            for j in range(len(got.objects)):
                assert got.graded_dims(i, j) == model.graded_dims(i, j), p
        assert gauge_isomorphic(got, model, {x: x for x in got.objects}).ok, p
        assert square_sign_audit(got) == [], p


def test_02_cone_hom_case_table():
    for A in [a_category(2), tensor_bp((2, 3))]:
        for k in (2, 3, 4):
            E = directed_extension(A, k)
            cones = {
                (x, j): cone(E, connector(E, x, j))
                for x in A.objects
                for j in range(1, k)
            }
            for (x, j), S in cones.items():
                for (x2, j2), S2 in cones.items():
                    base = A.graded_dims(A.object_index(x), A.object_index(x2))
                    H = hom_complex(S, S2)
                    if j2 == j:
                        want = dict(base)
                    elif j2 == j + 1:
                        want = {d + 1: v for d, v in base.items()}
                    else:
                        want = {}
                    assert cohomology_dims(cohomology(H)) == want, (x, j, x2, j2)
                    # the two zero outcomes arise differently: no maps at
                    # all two or more steps up, a nonzero acyclic complex
                    # one or more steps down
                    if j2 > j + 1:
                        assert chain_dims(H) == {}
                    if j2 < j and base:
                        assert chain_dims(H) != {}


def test_03_formality_of_all_small_models_and_suspensions():
    for n in (1, 2, 3):
        for p in product((2, 3, 4, 5), repeat=n):
            assert formality_check(tensor_bp(p)) is None, p
    for p in DESK_P:
        assert formality_check(fukaya_bp(p)) is None, p


def test_04_euler_kronecker_and_one_variable_cartan():
    for pa in range(2, 7):
        for pb in range(2, 7):
            A, B = a_category(pa), a_category(pb)
            got = euler_matrix(tensor(A, B))
            want = kron(euler_matrix(A), euler_matrix(B))
            assert [list(r) for r in got] == want, (pa, pb)
    for p in range(2, 13):
        cartan = [
            [2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(p - 1)]
            for i in range(p - 1)
        ]
        s, e = st_gram((p,)), euler_gram((p,))
        assert [list(r) for r in s.entries] == cartan
        assert s.entries == e.entries
        assert s.determinant() == p


def test_05_lattice_comparison_report():
    report = compare((2, 3))
    assert not report.agree
    assert report.disagreements == (((1, 1), (1, 2), -2, -1),)
    assert report.st.entries == ((0, -2), (2, 0))
    assert report.euler.entries == ((0, -1), (1, 0))
    assert compare((2, 2)).agree
    assert compare((2, 2)).disagreements == ()


def test_06_ext_routes_agree_and_vanishing_scan():
    for p in [(2, 3), (3, 3), (2, 2, 2)]:
        n = len(p)
        twists = index_set(p)
        for m in twists:
            row = ext_k_k(p, m, twists)
            assert row == ext_formula(p, m, twists), (p, m)
            for t, dims in zip(twists, row):
                assert all(0 <= d <= n for d in dims), (p, m, t)
        # ext vanishes whenever the difference of twists leaves the
        # nonnegative span of the generators
        L = LGroup(p)
        scanned = 0
        for coeffs in product(range(-9, 10), repeat=n):
            for b in (-1, 0, 1):
                d = L.normalize(coeffs + (b,))
                if L.is_in_monoid(d):
                    continue
                t = twists[scanned % len(twists)]
                assert ext_k_k(p, L.add(t, d), [t]) == [{}], (p, d.raw())
                scanned += 1
                if scanned == 50:
                    break
            if scanned == 50:
                break
        assert scanned == 50, p


def test_07_resolution_square_zero_and_exact_in_window():
    for p, length in [((2, 3), 8), ((3, 3), 6)]:
        cplx = bp_resolution(p, length)
        assert cplx.square_defects() == (), p
        window = 2 * LGroup(p).ell
        rep = validate_resolution(cplx, window)
        assert rep.ok and cplx.homogeneity_violations() == (), (p, rep.failures)


def test_08_truncation_sequences_and_koszul_perfectness():
    for p, window in [((2, 3), 12), ((2, 2, 2), 8)]:
        for axis, pe in enumerate(p, start=1):
            for j in range(2, pe + 1):
                rep = lemma_k_check(p, axis, j)
                assert rep.ok, (p, axis, j, rep.failures)
                if j == pe:
                    assert rep.iso_ok is True, (p, axis, j)
        assert koszul_perfect_check(p, window).ok, p


def test_09_weight_sum_and_component_group_arithmetic():
    assert cy_check((2, 2)).holds
    assert orlov_group((2, 2)).factors == (2,)
    assert cy_check((2, 3, 6)).holds
    g236 = orlov_group((2, 3, 6))
    assert prod(g236.factors) == 6
    assert component_group_order_stats((2, 3, 6)) == abelian_group_order_stats(
        g236.factors
    )
    rep = cy_check((2, 3, 5))
    assert not rep.holds
    assert Fraction(sum(rep.weights), rep.ell) == Fraction(31, 30)
    assert cy_check((3, 3, 3)).holds
    g333 = orlov_group((3, 3, 3))
    assert component_group_order_stats((3, 3, 3)) == abelian_group_order_stats(
        g333.factors
    )
    # Target value: Z/3 x Z/3.  K = {t : t_1^3 = t_2^3 = t_3^3} is
    # {(t, z^a t, z^b t)} = G_m x mu_3 x mu_3 with z a cube root of unity;
    # dividing by the diagonal G_m leaves mu_3 x mu_3 (27 diagonal
    # symmetries modulo 3 scalars).  By hand, the relation matrix
    # [[3,0,0,-1],[0,3,0,-1],[0,0,3,-1]] has 1-, 2- and 3-minor gcds 1, 3
    # and 9, so L = Z + Z/3 + Z/3.  The coset enumeration above finds 8
    # elements of order 3, which rules out Z/3 and Z/9.
    assert g333.factors == (3, 3)


def test_10_property_suites_and_cli_determinism():
    categories = [a_category(m) for m in range(1, 7)]
    categories += [tensor_bp(p) for p in DESK_P]
    categories += [fukaya_bp(p) for p in DESK_P]
    categories += [directed_extension(tensor_bp((2, 3)), 3)]
    for C in categories:
        assert validate(C) == ()

    A = tensor_bp((2, 3))
    E = directed_extension(A, 3)
    objs = [cone(E, connector(E, x, j)) for x in A.objects for j in (1, 2)]
    objs += off_connector_cones(E, (1, 1))
    for X in objs:
        for Y in objs:
            H = hom_complex(X, Y)
            for d in H.basis:
                assert (H.differential(d) @ H.differential(d - 1)).is_zero()

    rng = random.Random(7)
    for p in [(2, 3), (3, 3, 3)]:
        L = LGroup(p)
        for _ in range(100):
            u = tuple(rng.randint(-30, 30) for _ in range(L.n + 1))
            v = tuple(rng.randint(-30, 30) for _ in range(L.n + 1))
            du = L.normalize(u)
            assert L.normalize(du.raw()) == du
            sums = tuple(a + b for a, b in zip(u, v))
            assert L.add(du, L.normalize(v)) == L.normalize(sums)

    cmd = [sys.executable, "-m", "bpsing", "verify", "--p", "2,3", "--suite", "all", "--json"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["ok"] is True
