"""Graded quotient ring machinery: resolution, Ext routes, module checks."""

import ast
import inspect
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice, product
from math import lcm

import pytest

import bpsing.singcat

from bpsing import cli
from bpsing.cli import _twist_grid
from bpsing.dgcat import a_category
from bpsing.exactlin import ComplexError, RatMatrix, rref, solve
from bpsing.grading import LDegree, LGroup
from bpsing.singcat import (
    FreeComplex,
    GradedModule,
    GradedRing,
    ModuleMap,
    ResolutionReport,
    bp_resolution,
    exact_sequence_check,
    ext_formula,
    ext_k_k,
    graded_module_iso,
    index_set,
    koszul_perfect_check,
    lemma_k_check,
    monomial_label,
    quotient_by_variables,
    resolution_entries,
    resolution_generators,
    truncated_module,
    validate_resolution,
    _box_coordinates,
    _form_complex,
    _generator_degree,
    _scan_pieces,
    _shift,
)
from helpers import (
    assert_exact,
    last_column_zeroed,
    module_violations,
    monomial,
    multiply,
    piece_basis,
    piece_bases,
    reference_map_validate,
    reference_quotient_by_variables,
    reference_scan,
    reference_square_defects,
    variable,
)
from test_mutations import _flip_first, first_action_dropped


def series_coefficients(num_exps, den_factors, upto):
    """Taylor coefficients of prod (1 - t^a) / prod (1 - t^b), exactly.

    num_exps lists the a's, den_factors the b's; written with plain
    convolution so it shares nothing with the ring code.
    """
    coeffs = [0] * (upto + 1)
    coeffs[0] = 1
    for a in num_exps:
        for z in range(upto, a - 1, -1):
            coeffs[z] -= coeffs[z - a]
    for b in den_factors:
        for z in range(b, upto + 1):
            coeffs[z] += coeffs[z - b]
    return coeffs


def test_ring_reduction():
    R = GradedRing((2, 3))
    assert multiply(R, variable(R, 1), variable(R, 1)) == {(0, 3): Fraction(-1)}
    assert variable(R, 1, 2) == {(0, 3): Fraction(-1)}
    assert variable(R, 1, 3) == {(1, 3): Fraction(-1)}
    assert R.reduce({(2, 0): Fraction(1), (0, 3): Fraction(1)}) == {}
    single = GradedRing((3,))
    assert variable(single, 1, 3) == {}
    assert variable(single, 1, 2) == {(2,): Fraction(1)}


def test_ring_pieces():
    R = GradedRing((2, 3))
    L = R.L
    assert R.piece(L.zero()) == ((0, 0),)
    assert R.piece(L.scale(3, L.x(2))) == ((0, 3),)
    assert R.piece(L.normalize((1, 2, 0))) == ((1, 2),)
    assert R.piece(L.neg(L.x(1))) == ()
    assert R.monomials_of_weight(6) == ((0, 3),)
    assert R.monomials_of_weight(5) == ((1, 1),)


def degrees_of_weight(L, z):
    """Every normal form of z-degree z: each a_i < p_i, and b fixed by z."""
    out = []
    for a in product(*(range(pi) for pi in L.p)):
        rest = z - sum(ai * wi for ai, wi in zip(a, L.weights))
        if rest % L.ell == 0:
            out.append(LDegree(a, rest // L.ell))
    return out


def lex_monomials(p, z):
    """Normal-form monomials of z-degree z by filtering every exponent vector."""
    L = LGroup(p)
    if z < 0:
        return ()
    ranges = [range(z // w + 1) for w in L.weights]
    return tuple(
        m for m in product(*ranges)
        if m[0] < p[0] and sum(e * w for e, w in zip(m, L.weights)) == z
    )


def filtered_piece(p, d):
    """The piece at d as an unmemoized filter, in lex order."""
    L = LGroup(p)
    return tuple(
        m for m in lex_monomials(p, L.z_degree(d)) if L.normalize(m + (0,)) == d
    )


@pytest.mark.parametrize("p", [(2, 3), (3, 3, 3), (2, 3, 4), (5, 7), (7,)])
def test_pieces_kept_per_ring_match_the_filter(p):
    L = LGroup(p)
    weights = range(-2, 2 * L.ell + 1)
    degrees = [d for z in weights for d in degrees_of_weight(L, z)]
    want = {d: filtered_piece(p, d) for d in degrees}
    assert any(want.values()) and not all(want.values())
    for d in degrees:
        assert GradedRing(p).piece(d) == want[d], (p, d.raw())
    warm = GradedRing(p)
    for d in reversed(degrees):
        warm.piece(d)
    for z in weights:
        assert warm.monomials_of_weight(z) == lex_monomials(p, z), (p, z)
    for d in degrees:
        assert warm.piece(d) == want[d], (p, d.raw())
        assert warm.piece(d) is warm.piece(d)


@pytest.mark.parametrize("p, q", [((2, 3), (3, 2)), ((3, 3, 3), (2, 3, 4)), ((5, 7), (7, 5))])
def test_rings_with_different_exponents_share_no_pieces(p, q):
    first, second = GradedRing(p), GradedRing(q)
    for z in range(2 * first.L.ell + 1):
        first.pieces_of_weight(z)
    for z in range(2 * second.L.ell + 1):
        assert second.monomials_of_weight(z) == lex_monomials(q, z), (q, z)
        for d in degrees_of_weight(second.L, z):
            assert second.piece(d) == filtered_piece(q, d), (q, d.raw())


def test_monomial_enumeration_matches_the_filter_on_random_sequences():
    rng = random.Random(2809)
    for _ in range(40):
        p = tuple(rng.randint(2, 6) for _ in range(rng.randint(1, 3)))
        R = GradedRing(p)
        for z in range(-2, 2 * R.L.ell + 1):
            assert R.monomials_of_weight(z) == lex_monomials(p, z), (p, z)
            # the lazy enumerator stops where its caller stops
            assert tuple(islice(R.iter_monomials(z), 2)) == lex_monomials(p, z)[:2], (p, z)


def test_monomial_enumeration_takes_any_number_of_variables():
    # one stack level per variable overflowed long before 1200 variables
    R = GradedRing((2,) * 1200)
    assert R.monomials_of_weight(0) == ((0,) * 1200,)
    ones = R.monomials_of_weight(1)
    assert len(ones) == 1200 and ones == tuple(sorted(ones))
    assert ones[0] == (0,) * 1199 + (1,) and ones[-1] == (1,) + (0,) * 1199


def test_hilbert_series_of_the_quotient_ring():
    for p, upto in [((2, 3), 20), ((2, 2, 2), 12), ((3, 4), 18)]:
        R = GradedRing(p)
        L = R.L
        weights = list(L.weights)
        expected = series_coefficients([L.ell], weights, upto)
        got = [len(R.monomials_of_weight(z)) for z in range(upto + 1)]
        assert got == expected, p


def test_resolution_entries_count_the_differentials_of_the_generators():
    for n in range(1, 7):
        for length in range(1, 12):
            ranks = [len(resolution_generators(n, i)) for i in range(length + 1)]
            got = resolution_entries(n, length)
            assert got == sum(a * b for a, b in zip(ranks, ranks[1:])), (n, length)
    # the count stays a closed form however long the resolution
    assert resolution_entries(3, 10**12) == 95 + (10**12 - 7) * 16


def test_resolution_generators_order():
    assert resolution_generators(2, 0) == (((), 0),)
    assert resolution_generators(2, 1) == (((1,), 0), ((2,), 0))
    assert resolution_generators(2, 2) == (((1, 2), 0), ((), 1))
    assert resolution_generators(2, 3) == (((1,), 1), ((2,), 1))
    assert resolution_generators(3, 2) == (
        ((1, 2), 0),
        ((1, 3), 0),
        ((2, 3), 0),
        ((), 1),
    )


def test_resolution_shape_and_degrees():
    cplx = bp_resolution((2, 3), 4)
    L = LGroup((2, 3))
    levels = sorted(cplx.levels(), reverse=True)
    assert levels == [0, -1, -2, -3, -4]
    assert [cplx.rank(i) for i in levels] == [1, 2, 2, 2, 2]
    assert cplx.labels[-1] == ("dx1|0", "dx2|0")
    assert cplx.labels[-2] == ("dx1^dx2|0", "1|1")
    assert cplx.labels[-3] == ("dx1|1", "dx2|1")
    assert cplx.labels[-4] == ("dx1^dx2|1", "1|2")
    z = [[L.z_degree(d) for d in cplx.generator_degrees(i)] for i in levels]
    assert z == [[0], [3, 2], [5, 6], [9, 8], [11, 12]]


def test_resolution_is_eventually_periodic():
    cplx = bp_resolution((2, 3), 10)
    L = LGroup((2, 3))
    for i in range(1, 9):
        lower = cplx.generator_degrees(-i)
        upper = cplx.generator_degrees(-(i + 2))
        assert len(lower) == len(upper)
        for a, b in zip(lower, upper):
            assert b == L.add(a, L.c())


def test_resolution_squares_to_zero_symbolically():
    assert bp_resolution((2, 3), 8).square_defects() == ()
    assert bp_resolution((3, 3), 6).square_defects() == ()
    assert bp_resolution((2, 2, 2), 5).square_defects() == ()


def test_validate_resolution_passes():
    rep = validate_resolution(bp_resolution((2, 3), 8), 12)
    assert rep.ok
    assert rep.degrees_checked == 12
    assert rep.failures == ()
    rep2 = validate_resolution(bp_resolution((3, 3), 6), 6)
    assert rep2.ok
    assert rep2.degrees_checked == 18


def test_validate_resolution_flags_wrong_degree_entry():
    ring = GradedRing((2, 3))
    cplx = bp_resolution((2, 3), 4)
    diffs = dict(cplx.diffs)
    rows = [list(r) for r in diffs[-3]]
    rows[1][0] = variable(ring, 2)
    diffs[-3] = tuple(tuple(r) for r in rows)
    broken = FreeComplex(ring, cplx.terms, diffs, cplx.labels)
    assert "entry (-3,1,0) has a term of wrong degree" in broken.homogeneity_violations()
    rep = validate_resolution(broken, 12)
    assert not rep.ok and "entry (-3,1,0) has a term of wrong degree" in rep.failures


def test_validate_resolution_flags_missing_differential():
    cplx = bp_resolution((2, 3), 4)
    diffs = dict(cplx.diffs)
    diffs[-2] = tuple(tuple({} for _ in row) for row in diffs[-2])
    rep = validate_resolution(FreeComplex(cplx.ring, cplx.terms, diffs, cplx.labels), 12)
    # square zero and homogeneous: neither symbolic check left a message
    assert not rep.ok and not any("square at" in f or "wrong degree" in f for f in rep.failures)
    assert "not exact at level -1 in degree (1, 1, 0)" in rep.failures


def piece_matrix_on_bases(cplx, i, d):
    """``piece_matrix`` of level i at d on the bases ``piece_basis`` builds."""
    return cplx.piece_matrix(i, d, piece_basis(cplx, i, d), piece_basis(cplx, i + 1, d))


def dense_piece_matrix(cplx, i, d):
    """The level-i map on degree-d pieces, multiplying every entry, zeros included."""
    src = piece_basis(cplx, i, d)
    index = {bm: r for r, bm in enumerate(piece_basis(cplx, i + 1, d))}
    entries = [[Fraction(0)] * len(src) for _ in index]
    for cidx, (c, mono) in enumerate(src):
        for r, row in enumerate(cplx.diffs[i]):
            for m2, co in multiply(cplx.ring, row[c], {mono: Fraction(1)}).items():
                entries[index[(r, m2)]][cidx] += co
    return entries


def test_piece_matrix_matches_the_dense_product():
    cplx = bp_resolution((2, 3, 4), 6)
    L = cplx.ring.L
    assert any(not e for mat in cplx.diffs.values() for row in mat for e in row)
    nonzero = 0
    for z in range(L.ell + 1):
        for d in degrees_of_weight(L, z):
            for i in sorted(cplx.diffs):
                mat = piece_matrix_on_bases(cplx, i, d)
                dense = dense_piece_matrix(cplx, i, d)
                assert [list(r) for r in mat.entries] == dense, (i, d.raw())
                assert mat.cols == len(piece_basis(cplx, i, d))
                nonzero += not mat.is_zero()
    assert nonzero > 0


def piece_matrix_by_multiply(cplx, i, d):
    """The level-i map on degree-d pieces, each product through ``multiply``."""
    src = piece_basis(cplx, i, d)
    tgt = piece_basis(cplx, i + 1, d)
    index = {bm: r for r, bm in enumerate(tgt)}
    mat = cplx.diffs[i]
    column = [[(r, row[c]) for r, row in enumerate(mat) if row[c]] for c in range(cplx.rank(i))]
    entries = [[Fraction(0)] * len(src) for _ in tgt]
    for cidx, (c, mono) in enumerate(src):
        for r, entry in column[c]:
            for m2, co in multiply(cplx.ring, entry, {mono: Fraction(1)}).items():
                ridx = index.get((r, m2))
                if ridx is None:
                    raise ComplexError("differential is not degree homogeneous")
                entries[ridx][cidx] += co
    return RatMatrix(entries, cols=len(src))


def cohomology_dims_by_rref(cplx, d, levels):
    """H^i dims from full rref pivots, each level's basis built per matrix."""
    ranks, dims = {}, {}
    for i in range(levels.start - 1, levels.stop):
        if i in cplx.diffs:
            mat = piece_matrix_by_multiply(cplx, i, d)
            ranks[i] = len(rref(mat)[1])
            dims[i] = mat.cols
    return {
        i: (dims[i] if i in dims else len(piece_basis(cplx, i, d)))
        - ranks.get(i, 0) - ranks.get(i - 1, 0)
        for i in levels
    }


ORACLE_SEQUENCES = [(2, 3), (3, 3, 3), (2, 3, 4), (3, 4, 5), (7,)]


@pytest.mark.parametrize("p", ORACLE_SEQUENCES)
def test_piece_matrix_and_cohomology_match_the_multiply_oracle(p):
    cplx = bp_resolution(p, len(p) + 4)
    L = cplx.ring.L
    levels = range(min(cplx.levels()) + 1, 1)
    degrees = 0
    for d, bases in reference_scan(cplx, 2 * L.ell):
        degrees += 1
        for i in sorted(cplx.diffs):
            want = piece_matrix_by_multiply(cplx, i, d)
            assert piece_matrix_on_bases(cplx, i, d) == want, (i, d.raw())
        assert cplx.cohomology_dims(d, levels, bases) == cohomology_dims_by_rref(cplx, d, levels), d.raw()
    assert degrees > 10


def test_piece_matrix_multiplies_entries_with_several_terms():
    ring = GradedRing((3, 3, 3))
    L = ring.L
    g = L.normalize((2, 0, 0, 1))
    # x2^3 and x3^3 both have degree c; times x1 the terms rewrite through x1^3
    entry = {(2, 3, 0): Fraction(1), (2, 0, 3): Fraction(1, 2)}
    cplx = FreeComplex(ring, {-1: (g,), 0: (L.zero(),)}, {-1: [[entry]]})
    nonzero = 0
    for z in range(2 * L.ell + 1):
        for d in degrees_of_weight(L, z):
            mat = piece_matrix_on_bases(cplx, -1, d)
            assert mat == piece_matrix_by_multiply(cplx, -1, d), d.raw()
            nonzero += not mat.is_zero()
    assert nonzero > 0
    # x1 has degree x1 but x2^2 does not
    broken = FreeComplex(ring, {-1: (L.x(1),), 0: (L.zero(),)}, {-1: [[{(1, 0, 0): 1, (0, 2, 0): 1}]]})
    d = L.add(L.x(1), L.x(2))
    with pytest.raises(ComplexError, match="not degree homogeneous"):
        piece_matrix_on_bases(broken, -1, d)
    with pytest.raises(ComplexError, match="not degree homogeneous"):
        piece_matrix_by_multiply(broken, -1, d)


def test_variable_shift_matches_multiplication_by_the_variable():
    for p in ORACLE_SEQUENCES:
        ring = GradedRing(p)
        for z in range(2 * ring.L.ell + 1):
            for mono in ring.monomials_of_weight(z):
                for t in range(1, ring.n + 1):
                    want = multiply(ring, variable(ring, t), {mono: Fraction(1)})
                    assert ring.reduce({_shift(mono, t): 1}) == want, (p, mono, t)


def test_resolution_is_exact_on_random_sequences():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.lists(st.integers(2, 5), min_size=1, max_size=3))
    def check(p):
        assert validate_resolution(bp_resolution(p, len(p) + 2), lcm(*p)).ok

    check()


def test_index_set_contents():
    assert [d.raw() for d in index_set((2, 3))] == [(0, 0, 0), (0, 2, -1)]
    assert [d.raw() for d in index_set((2, 2))] == [(0, 0, 0)]
    assert [d.raw() for d in index_set((3, 3))] == [
        (0, 0, 0),
        (0, 2, -1),
        (2, 0, -1),
        (2, 2, -2),
    ]
    assert len(index_set((2, 3, 5))) == 8


def test_ext_routes_agree_on_the_index_set():
    for p in [(2, 3), (3, 3), (2, 2, 2), (2, 3, 5)]:
        twists = index_set(p)
        for m in twists:
            assert ext_k_k(p, m, twists) == ext_formula(p, m, twists), (p, m)


def ext_k_k_per_pair(p, m, n):
    """Ext dims of one pair, one grading group and generator scan per call."""
    L = LGroup(p)
    target = L.sub(L.normalize(m.raw()), L.normalize(n.raw()))
    dims = {}
    zt = L.z_degree(target)
    if zt < 0:
        return dims
    for i in range(L.n + 2 * (zt // L.ell) + 3):
        count = sum(
            j == target.b and tuple(int(t in I) for t in range(1, L.n + 1)) == target.a
            for I, j in resolution_generators(L.n, i)
        )
        if count:
            dims[i] = count
    return dims


def ext_formula_per_pair(p, m, n):
    """The closed form for one pair of index-set twists."""
    L = LGroup(p)
    a = _box_coordinates(L, L.normalize(m.raw()))
    b = _box_coordinates(L, L.normalize(n.raw()))
    gaps = [ai - bi for ai, bi in zip(a, b)]
    return {sum(gaps): 1} if all(g in (0, 1) for g in gaps) else {}


@pytest.mark.parametrize("p", ORACLE_SEQUENCES)
def test_ext_rows_match_the_per_pair_routes(p):
    twists = index_set(p)
    L = LGroup(p)
    # twists outside the index set too, for the route that accepts them
    others = [L.normalize(raw) for raw in islice(_twist_grid(len(p)), 40)]
    for m in twists:
        assert ext_formula(p, m, twists) == [ext_formula_per_pair(p, m, n) for n in twists], m.raw()
        for targets in (twists, others):
            assert ext_k_k(p, m, targets) == [ext_k_k_per_pair(p, m, n) for n in targets], m.raw()
    for m in others:
        assert ext_k_k(p, m, others) == [ext_k_k_per_pair(p, m, n) for n in others], m.raw()
    assert ext_k_k(p, twists[0], []) == ext_formula(p, twists[0], []) == []


@pytest.mark.parametrize("p", [(2, 3), (3, 3), (2, 2, 2), (2, 3, 4), (3, 4, 5)])
def test_one_ring_gives_the_reports_of_fresh_rings(p):
    ring = GradedRing(p)
    window = 2 * ring.L.ell
    length = len(p) + 4
    assert validate_resolution(bp_resolution(ring, length), window) == validate_resolution(
        bp_resolution(p, length), window
    )
    for axis in range(1, len(p) + 1):
        for j in range(2, p[axis - 1] + 1):
            assert lemma_k_check(ring, axis, j, window) == lemma_k_check(p, axis, j, window)
    assert koszul_perfect_check(ring, window) == koszul_perfect_check(p, window)
    assert bp_resolution(ring, 2).ring is ring


def test_singcat_reads_no_other_route_and_the_ext_routes_stay_apart():
    tree = ast.parse(inspect.getsource(bpsing.singcat))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[-1])
            imported.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(part for alias in node.names for part in alias.name.split("."))
    assert not imported & {"dgcat", "twisted", "suspension"}, imported

    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def names_reached(name):
        """Every name in the body of name and of the module functions it names."""
        seen, todo, found = set(), [name], set()
        while todo:
            fn = todo.pop()
            if fn in seen:
                continue
            seen.add(fn)
            for node in ast.walk(functions[fn]):
                word = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if isinstance(node, (ast.Name, ast.Attribute)):
                    found.add(word)
                    if word in functions:
                        todo.append(word)
        return found

    reached = names_reached("ext_formula")
    assert not {w for w in reached if w.startswith("ext_k_k")}
    assert "resolution_generators" not in reached
    reached = names_reached("ext_k_k")
    assert not {w for w in reached if w.startswith("ext_formula")}
    assert "_box_coordinates" not in reached


def ext_k_k_by_normal_forms(p, m, n):
    """Ext dims counted by normalizing every generator's degree at every level."""
    L = LGroup(p)
    target = L.sub(L.normalize(m.raw()), L.normalize(n.raw()))
    dims = {}
    zt = L.z_degree(target)
    if zt < 0:
        return dims
    for i in range(L.n + 2 * (zt // L.ell) + 3):
        count = sum(
            1
            for I, j in resolution_generators(L.n, i)
            if _generator_degree(L, L.n, I, j) == target
        )
        if count:
            dims[i] = count
    return dims


@pytest.mark.parametrize("p", [(2, 3), (3, 3), (2, 2, 2), (3, 4, 5), (7,)])
def test_ext_k_k_matches_the_normal_form_count(p):
    twists = index_set(p)
    for m in twists:
        assert ext_k_k(p, m, twists) == [ext_k_k_by_normal_forms(p, m, n) for n in twists], m.raw()
    L = LGroup(p)
    zero = L.zero()
    grid = [L.normalize(raw) for raw in islice(_twist_grid(len(p)), 60)]
    assert any(L.z_degree(d) < 0 for d in grid)
    found = 0
    for d in grid:
        for m, n in [(d, zero), (zero, d)]:
            (got,) = ext_k_k(p, m, [n])
            assert got == ext_k_k_by_normal_forms(p, m, n), (p, m, n)
            found += bool(got)
    assert found > 0


def quiver_convolution(p, m, n):
    """Ext dims over the index set as the convolution of linear-quiver homs.

    Axis i contributes the graded hom of the linear quiver with p_i - 1
    objects between the objects fixed by the box coordinates of m and n;
    ext_formula replaced this with its closed form.
    """
    L = LGroup(p)
    dims = {0: 1}
    for ai, bi, pi in zip(m.raw(), n.raw(), L.p):
        # a box coordinate a <= 0 normalizes to a % p, so the object is -a
        factor = a_category(pi - 1).graded_dims(-ai % pi, -bi % pi)
        nxt = {}
        for d1, c1 in dims.items():
            for d2, c2 in factor.items():
                nxt[d1 + d2] = nxt.get(d1 + d2, 0) + c1 * c2
        dims = nxt
    return dims


def test_ext_formula_matches_quiver_convolution():
    for p in [(2, 3), (3, 3), (2, 2, 2), (3, 4, 5), (5, 5)]:
        twists = index_set(p)
        for m in twists:
            assert ext_formula(p, m, twists) == [quiver_convolution(p, m, n) for n in twists], (p, m)


def test_ext_routes_agree_on_random_index_set_twists():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.lists(st.integers(2, 5), min_size=1, max_size=3), st.data())
    def check(p, data):
        twists = index_set(p)
        m = data.draw(st.sampled_from(twists))
        n = data.draw(st.sampled_from(twists))
        assert ext_k_k(p, m, [n]) == ext_formula(p, m, [n])

    check()


def test_ext_known_values():
    L = LGroup((2, 3))
    zero = L.zero()
    twist = index_set((2, 3))[1]
    assert ext_k_k((2, 3), zero, [zero, twist]) == [{0: 1}, {1: 1}]
    assert ext_k_k((2, 3), twist, [zero]) == [{}]
    with pytest.raises(ValueError):
        ext_formula((2, 3), L.x(1), [zero])
    with pytest.raises(ValueError):
        ext_formula((2, 3), zero, [L.x(1)])


def test_ext_vanishing_outside_the_monoid():
    for p in [(2, 3), (2, 2, 2)]:
        L = LGroup(p)
        zero = L.zero()
        scanned = 0
        for coeffs in product(range(-9, 10), repeat=len(p)):
            for b in (-1, 0, 1):
                d = L.normalize(coeffs + (b,))
                if L.is_in_monoid(d):
                    continue
                assert ext_k_k(p, d, [zero]) == [{}], (p, d.raw())
                scanned += 1
                if scanned == 50:
                    break
            if scanned == 50:
                break
        assert scanned == 50


@dataclass(frozen=True, eq=False)
class ExtRingReport:
    """Ext dims from a twisted residue field into a twisted free module."""

    dims: dict[int, int]
    window: int
    hypothesis_holds: bool


def dual_complex(res):
    """Hom(res, ring): level i has the level -i generators with degrees negated,
    and the differentials are the transposes."""
    L = res.ring.L
    return FreeComplex(
        res.ring,
        {-i: tuple(L.neg(g) for g in degs) for i, degs in res.terms.items()},
        {
            -i - 1: [[row[c] for row in mat] for c in range(res.rank(i))]
            for i, mat in res.diffs.items()
        },
    )


def ext_k_ring(p, m, n, window):
    """Cohomology of the dualized resolution against a twisted free module.

    Applies Hom(-, A(n)) to the resolution of the residue field twisted by
    m and takes the internal-degree-zero part: the cohomology in degree
    n - m of the dual complex, whose level i has the level -i generators
    with degrees negated and whose differentials are the transposes.  Its
    term i is the sum over those generators g of the ring piece in degree
    n + deg(g) - m.  Dims are reported for 0 <= i <= window together
    with whether the vanishing hypothesis m != -c + x_1 + ... + x_n + n
    holds.
    """
    if not isinstance(window, int) or isinstance(window, bool) or window < 0:
        raise ValueError("window must be a nonnegative integer")
    dual = dual_complex(bp_resolution(p, window + 1))
    ring = dual.ring
    L = ring.L
    mm = L.normalize(m.raw())
    nn = L.normalize(n.raw())
    d = L.sub(nn, mm)
    h = dual.cohomology_dims(d, range(window + 1), piece_bases(dual, d))
    dims = {i: dim for i, dim in h.items() if dim}
    special = L.add(L.normalize((1,) * ring.n + (-1,)), nn)
    return ExtRingReport(dims=dims, window=window, hypothesis_holds=mm != special)


def test_ext_k_ring_window_profiles():
    L = LGroup((2, 3))
    plain = ext_k_ring((2, 3), L.zero(), L.zero(), 6)
    assert plain.dims == {} and plain.hypothesis_holds and plain.window == 6
    special = ext_k_ring((2, 3), L.zero(), L.normalize((-1, -1, 1)), 6)
    assert special.dims == {1: 1}
    assert not special.hypothesis_holds
    L2 = LGroup((2, 2))
    again = ext_k_ring((2, 2), L2.zero(), L2.zero(), 4)
    assert again.dims == {} and again.hypothesis_holds


def test_truncated_module_shape():
    R = GradedRing((2, 3))
    L = R.L
    M = truncated_module(R, 2, 3)
    assert M.degrees() == [L.zero(), L.x(2), L.scale(2, L.x(2))]
    assert all(M.dim(d) == 1 for d in M.degrees())
    assert module_violations(M) == ()
    twisted = truncated_module(R, 2, 1, twist=L.neg(L.x(2)))
    assert twisted.degrees() == [L.x(2)]
    with pytest.raises(ValueError):
        truncated_module(R, 2, 4)
    with pytest.raises(ValueError):
        truncated_module(R, 3, 1)


def test_quotient_by_variables_matches_truncation():
    R = GradedRing((2, 3))
    quot = quotient_by_variables(R, [2], 6)
    assert module_violations(quot) == ()
    assert graded_module_iso(quot, truncated_module(R, 1, 2))
    assert not graded_module_iso(quot, truncated_module(R, 1, 1))


def quotient_by_variables_by_solve(ring, killed, window):
    """The ring modulo the listed variables, each action column by a linear solve."""
    L = ring.L
    killed = tuple(sorted(set(killed)))
    degrees = sorted(
        (d for z in range(window + 1) for d in ring.pieces_of_weight(z)), key=ring.sort_key
    )
    piece_data = {}
    for d in degrees:
        monos = ring.piece(d)
        pos = {m: i for i, m in enumerate(monos)}
        rows = []
        for t in killed:
            for m in ring.piece(L.sub(d, L.x(t))):
                vec = [Fraction(0)] * len(monos)
                for m2, co in multiply(ring, variable(ring, t), {m: Fraction(1)}).items():
                    vec[pos[m2]] += co
                rows.append(vec)
        basis_rows, pivots = [], ()
        if rows:
            reduced, pivots = rref(RatMatrix(rows, cols=len(monos)))
            basis_rows = [list(reduced.entries[r]) for r in range(len(pivots))]
        free = tuple(i for i in range(len(monos)) if i not in pivots)
        cols = basis_rows + [[Fraction(int(i == f)) for i in range(len(monos))] for f in free]
        solver = RatMatrix(
            [[cols[c][r] for c in range(len(cols))] for r in range(len(monos))], cols=len(cols)
        )
        piece_data[d] = (monos, pos, free, solver, len(basis_rows))
    basis = {d: tuple(monomial_label(piece_data[d][0][f]) for f in piece_data[d][2]) for d in degrees}
    action = {}
    for d in degrees:
        monos, pos, free, solver, rank = piece_data[d]
        for t in range(1, ring.n + 1):
            up = L.add(d, L.x(t))
            if not free or up not in piece_data or not piece_data[up][2]:
                continue
            u_monos, u_pos, u_free, u_solver, u_rank = piece_data[up]
            cols = []
            for f in free:
                vec = [Fraction(0)] * len(u_monos)
                for m2, co in multiply(ring, variable(ring, t), {monos[f]: Fraction(1)}).items():
                    vec[u_pos[m2]] += co
                sol = solve(u_solver, vec)
                cols.append([sol[u_rank + r] for r in range(len(u_free))])
            action[(t, d)] = RatMatrix(
                [[cols[c][r] for c in range(len(free))] for r in range(len(u_free))],
                cols=len(free),
            )
    return GradedModule(ring, basis, action)


@pytest.mark.parametrize("p", [(2, 3), (3, 3, 3), (2, 3, 4), (3, 4, 5), (2, 2, 2, 2)])
def test_quotient_by_variables_matches_the_solve_oracle(p):
    ring = GradedRing(p)
    window = ring.L.ell + 4
    kill_sets = [(), (1,), tuple(range(2, len(p) + 1)), tuple(range(1, len(p)))]
    nontrivial = 0
    for killed in kill_sets:
        got = quotient_by_variables(ring, killed, window)
        want = quotient_by_variables_by_solve(ring, killed, window)
        assert got.basis == want.basis, (p, killed)
        assert got.action == want.action, (p, killed)
        nontrivial += bool(got.action)
    assert nontrivial > 0


def test_graded_module_iso_needs_thin_pieces():
    R = GradedRing((2, 2, 2))
    whole = quotient_by_variables(R, [], 4)
    with pytest.raises(ValueError):
        graded_module_iso(whole, whole)


def test_graded_module_validate_catches_noncommuting_actions():
    R = GradedRing((2, 2))
    L = R.L
    basis = {
        L.zero(): ("a",),
        L.x(1): ("b",),
        L.x(2): ("c",),
        L.add(L.x(1), L.x(2)): ("d",),
    }
    action = {
        (1, L.zero()): [[1]],
        (2, L.x(1)): [[1]],
        (2, L.zero()): [[1]],
        (1, L.x(2)): [[-1]],
    }
    M = GradedModule(R, basis, action)
    assert any("commute" in msg for msg in module_violations(M))


def test_lemma_k_sequences_hold():
    for axis, j in [(1, 2), (2, 2), (2, 3)]:
        rep = lemma_k_check((2, 3), axis, j, 12)
        assert rep.ok, (axis, j, rep.failures)
        is_top = j == (2, 3)[axis - 1]
        assert rep.iso_ok is (True if is_top else None)
    for axis in (1, 2, 3):
        rep = lemma_k_check((2, 2, 2), axis, 2, 4)
        assert rep.ok and rep.iso_ok is True


def test_lemma_k_report_does_not_depend_on_the_window():
    # the window only bounds the ring quotient at j = p_axis, where it is
    # raised to ell, above the quotient's top z-degree
    for p in [(2, 3), (2, 2, 2), (3, 4, 5), (5, 7)]:
        ell = GradedRing(p).L.ell
        for axis, p_axis in enumerate(p, start=1):
            reports = [lemma_k_check(p, axis, p_axis, w) for w in (0, ell - 1, ell, 3 * ell)]
            assert all(rep == reports[0] for rep in reports), (p, axis)


def test_exact_sequence_check_locates_failures():
    ring = GradedRing((2, 3))
    L = ring.L
    sub = truncated_module(ring, 2, 1, twist=L.neg(L.x(2)))
    mid = truncated_module(ring, 2, 2)
    quo = truncated_module(ring, 2, 1)
    incl = ModuleMap(sub, mid, {})
    proj = ModuleMap(mid, quo, {L.zero(): [[1]]})
    rep = exact_sequence_check(incl, proj)
    assert not rep.ok
    assert rep.first_failure == (0, 1, 0)
    assert rep.failures == (
        "inclusion not injective in degree (0, 1, 0)",
        "kernel does not match image in degree (0, 1, 0)",
    )


def test_module_map_validate_rejects_wrong_twist():
    ring = GradedRing((2, 3))
    sub_wrong = truncated_module(ring, 2, 1)
    mid = truncated_module(ring, 2, 2)
    bad = ModuleMap(sub_wrong, mid, {ring.L.zero(): [[1]]})
    assert any("intertwine" in msg for msg in bad.validate())


def test_module_map_validate_names_a_wrong_shape_before_intertwining():
    ring = GradedRing((2, 3))
    L = ring.L
    M = truncated_module(ring, 2, 1)
    bad = ModuleMap(M, M, {L.zero(): [[1, 0]]})
    assert bad.validate() == ("matrix at (0, 0, 0) has wrong shape",)
    assert exact_sequence_check(bad, ModuleMap(M, M, {})).failures == bad.validate()
    # a module action of the wrong shape, on either side, like the all-pairs oracle
    M = truncated_module(ring, 2, 2)
    wide = GradedModule(ring, M.basis, {(2, L.zero()): [[1, 0]]})
    identity = {d: [[1]] for d in M.degrees()}
    for f, want in [
        (bad, "matrix at (0, 0, 0) has wrong shape"),
        (ModuleMap(wide, M, identity), "source action of x_2 at (0, 0, 0) has wrong shape"),
        (ModuleMap(M, wide, identity), "target action of x_2 at (0, 0, 0) has wrong shape"),
    ]:
        assert f.validate() == reference_map_validate(f) == (want,)


def test_exact_sequence_check_names_each_failing_condition():
    ring = GradedRing((2, 3))
    L = ring.L
    M = truncated_module(ring, 2, 1)
    identity, zero = ModuleMap(M, M, {L.zero(): [[1]]}), ModuleMap(M, M, {})
    # a projection that kills nothing keeps the image of the inclusion
    rep = exact_sequence_check(identity, identity)
    assert (rep.degrees_checked, rep.first_failure) == (1, (0, 0, 0))
    assert rep.failures == (
        "composite not zero in degree (0, 0, 0)",
        "kernel does not match image in degree (0, 0, 0)",
    )
    rep = exact_sequence_check(identity, zero)
    assert rep.first_failure == (0, 0, 0)
    assert rep.failures == ("projection not surjective in degree (0, 0, 0)",)
    # the inclusion lands in M, the projection starts from a module in degree x_1
    other = truncated_module(ring, 1, 1, twist=L.x(1))
    rep = exact_sequence_check(identity, ModuleMap(other, M, {}))
    assert (rep.degrees_checked, rep.first_failure) == (0, None)
    assert rep.failures == ("middle modules do not match",)


def test_validate_resolution_names_a_wrong_cokernel_dimension():
    # with the last map zero the cokernel is the whole ring, one dimension in
    # each degree of a monomial where the residue field has none
    cplx = bp_resolution((2, 3), 4)
    diffs = dict(cplx.diffs)
    diffs[-1] = tuple(tuple({} for _ in row) for row in diffs[-1])
    rep = validate_resolution(FreeComplex(cplx.ring, cplx.terms, diffs, cplx.labels), 12)
    L = cplx.ring.L
    for d in (L.x(1), L.x(2)):
        assert f"cokernel dimension 1 != 0 in degree {d.raw()}" in rep.failures
    assert not any(f"in degree {L.zero().raw()}" in f for f in rep.failures)


def test_graded_module_iso_needs_the_same_vanishing_pattern():
    ring = GradedRing((2, 3))
    M = truncated_module(ring, 1, 2)
    assert graded_module_iso(M, M)
    assert not graded_module_iso(M, GradedModule(ring, M.basis, {}))


def test_graded_module_iso_propagates_scalars_backward():
    # in L(2, 2), x_1 - x_2 has order two, so both a = 0 and b = x_1 - x_2,
    # of z-degree 0, reach x_1 and x_2: a component with two minimal
    # degrees, where b's scalar is found backward from x_2
    ring = GradedRing((2, 2))
    L = ring.L
    x1, x2 = L.x(1), L.x(2)
    a, b = L.zero(), L.sub(x1, x2)
    assert L.add(b, x2) == x1 and L.add(b, x1) == x2
    basis = {d: ("e",) for d in (a, b, x1, x2)}

    def thin(s):
        return GradedModule(ring, basis, {
            (1, a): [[1]], (2, a): [[1]], (1, b): [[s]], (2, b): [[1]],
        })

    assert graded_module_iso(thin(1), thin(1))
    assert graded_module_iso(thin(1), thin(-1)) is False


def test_koszul_perfect_check():
    assert koszul_perfect_check((2, 3), 10).ok
    assert koszul_perfect_check((2, 2, 2), 8).ok
    with pytest.raises(ValueError):
        koszul_perfect_check((5,), 8)


def test_koszul_check_reports_a_broken_square_like_the_resolution_check(monkeypatch):
    real = bpsing.singcat._form_complex

    def flipped(ring, gens):
        # the Koszul complex on x_2, x_3: d(dx2^dx3) = x_2 dx3 - x_3 dx2, with x_2 negated
        cplx = real(ring, gens)
        diffs = dict(cplx.diffs)
        rows = [list(r) for r in diffs[-2]]
        rows[1][0] = {m: -c for m, c in rows[1][0].items()}
        diffs[-2] = rows
        return FreeComplex(ring, cplx.terms, diffs, cplx.labels)

    monkeypatch.setattr(bpsing.singcat, "_form_complex", flipped)
    rep = koszul_perfect_check((3, 3, 3), 6)
    assert isinstance(rep, ResolutionReport)
    assert not rep.ok
    assert rep.degrees_checked == 0
    assert rep.failures == ("square at level -2 nonzero at (0,0)",)


SCAN_SEQUENCES = [(2, 3), (3, 3), (2, 2, 2), (4, 4, 4), (7, 11), (3, 3, 3, 3), (3, 4, 5)]


def koszul_complex(ring):
    """The complex ``koszul_perfect_check`` certifies: forms dx_I with I in {2..n}."""
    return _form_complex(ring, [[(I, 0) for I in combinations(range(2, ring.n + 1), k)]
                                for k in range(ring.n)])


def scan_stream(cplx, window):
    return [(d, {i: tuple(basis) for i, basis in bases.items()})
            for d, bases in _scan_pieces(cplx, window)]


@pytest.mark.parametrize("p", SCAN_SEQUENCES)
def test_scan_yields_the_per_degree_reference_stream(p):
    ring = GradedRing(p)
    window = 2 * ring.L.ell
    res = bp_resolution(ring, 9)
    dual = dual_complex(res)
    # levels 0..9, whose generators have z-degree 0 or less
    assert max(dual.levels()) == 9 and min(ring.L.z_degree(g) for g in dual.terms[9]) < 0
    for cplx in [res, koszul_complex(ring), dual]:
        stream = scan_stream(cplx, window)
        assert stream and stream == list(reference_scan(cplx, window))
        assert all(list(bases) == sorted(bases) for _, bases in stream)


def test_scan_reaches_levels_above_zero_and_degrees_outside_the_window_start():
    ring = GradedRing((3, 4))
    L = ring.L
    g = L.normalize((1, 0, -1))  # z-degree 4 - 12 = -8
    cplx = FreeComplex(ring, {-1: (L.x(2),), 0: (L.zero(), g), 1: (L.x(1), g), 2: (L.c(),)}, {})
    for window in [0, 5, 30]:
        stream = scan_stream(cplx, window)
        assert stream == list(reference_scan(cplx, window))
        assert [L.z_degree(d) for d, _ in stream] == sorted(L.z_degree(d) for d, _ in stream)
    assert {i for _, bases in stream for i in bases} == {-1, 0, 1, 2}


@pytest.mark.parametrize("p", SCAN_SEQUENCES)
def test_certified_reports_match_the_reference_scan(monkeypatch, p):
    ring = GradedRing(p)
    window = 2 * ring.L.ell
    res = bp_resolution(ring, 9)
    cases = [(validate_resolution, res), (koszul_perfect_check, ring),
             (validate_resolution, last_column_zeroed(res)),
             (validate_resolution, last_column_zeroed(koszul_complex(ring)))]
    reports = [check(arg, window) for check, arg in cases]
    monkeypatch.setattr(bpsing.singcat, "_scan_pieces", reference_scan)
    assert reports == [check(arg, window) for check, arg in cases]
    assert reports[0].ok and reports[1].ok and reports[0].degrees_checked > 0
    assert not reports[3].ok


def test_module_iso_divides_int_actions_exactly():
    # a commuting square whose ratios are 1/10 then 3 on one path and 3/10
    # then 1 on the other: equal as Fractions, but 0.1 * 3 != 0.3 in floats
    ring = GradedRing((3, 3))
    L = ring.L
    x1, x2 = L.x(1), L.x(2)
    basis = {d: ("b",) for d in (L.zero(), x1, x2, L.add(x1, x2))}

    def square(a1, a2, b2, b1):
        return GradedModule(ring, basis, {
            (1, L.zero()): [[a1]], (2, L.zero()): [[a2]], (2, x1): [[b2]], (1, x2): [[b1]],
        })

    M, N = square(10, 10, 1, 1), square(1, 3, 3, 1)
    assert module_violations(M) == () and module_violations(N) == ()
    assert graded_module_iso(M, N) and graded_module_iso(N, M)
    # scalars along a square that does not commute conflict
    assert not graded_module_iso(M, square(1, 3, 3, 2))


def test_the_algebra_side_keeps_every_coefficient_exact():
    ring = GradedRing((3, 4))
    # x1^3 = -x2^4, so the halves meet in an integral coefficient
    assert ring.reduce({(3, 0): Fraction(1, 2), (0, 4): Fraction(-1, 2)}) == {(0, 4): -1}
    polys = [
        ring.reduce({(3, 0): Fraction(1, 2), (0, 4): Fraction(-1, 2), (1, 1): Fraction(4, 2)}),
        multiply(ring, {(1, 0): Fraction(1, 2), (0, 1): 3}, {(2, 0): 2, (0, 2): Fraction(1, 3)}),
        monomial(ring, (4, 1), Fraction(6, 3)),
    ]
    assert_exact(c for f in polys for c in f.values())
    assert any(type(c) is Fraction for f in polys for c in f.values())
    cplx = bp_resolution(ring, 4)
    assert_exact(c for mat in cplx.diffs.values() for row in mat for e in row for c in e.values())
    degrees = [d for d, _ in reference_scan(cplx, 2 * ring.L.ell)]
    assert_exact(
        x for d in degrees for i in cplx.diffs
        for row in piece_matrix_on_bases(cplx, i, d).entries for x in row
    )
    Q = quotient_by_variables(ring, (1,), 2 * ring.L.ell)
    assert_exact(x for mat in Q.action.values() for row in mat.entries for x in row)


def sparse_check_complexes(ring):
    """The resolution to level -9, the Koszul complex, the dual of the resolution
    to level -(n + 1), and the resolution with its first wedge sign flipped
    (when some p_t >= 3 tells wedges from contractions) or with its leftmost
    last column zeroed.

    The dual stops one level past the forms: its pieces grow with its length,
    and on (3,3,3,3) the dense oracle takes 21 s over the dual to level -8.
    """
    res = bp_resolution(ring, 9)
    gens = [resolution_generators(ring.n, i) for i in range(10)]
    return [res, koszul_complex(ring), dual_complex(bp_resolution(ring, ring.n + 1)),
            _flip_first(wedge=True)(ring, gens), last_column_zeroed(res)]


@pytest.mark.parametrize("p", SCAN_SEQUENCES)
def test_sparse_squares_and_ranks_match_the_dense_oracles(p):
    ring = GradedRing(p)
    window = 2 * ring.L.ell
    complexes = sparse_check_complexes(ring)
    for cplx in complexes:
        assert cplx.square_defects() == reference_square_defects(cplx)
        levels = range(min(cplx.levels()), max(cplx.levels()) + 1)
        for d, bases in _scan_pieces(cplx, window):
            want = cohomology_dims_by_rref(cplx, d, levels)
            assert cplx.cohomology_dims(d, levels, bases) == want, d.raw()
    assert bool(complexes[3].square_defects()) == (max(p) >= 3)


@pytest.mark.parametrize("p", SCAN_SEQUENCES)
def test_module_map_validate_matches_the_all_pairs_oracle(monkeypatch, p):
    # every module map of the lemma-k sequences, then of the sequences whose
    # truncated modules lose their lowest stored action from j = 3 on
    maps = []
    check = bpsing.singcat.exact_sequence_check

    def recording(incl, proj):
        maps.extend([incl, proj])
        return check(incl, proj)

    monkeypatch.setattr(bpsing.singcat, "exact_sequence_check", recording)
    ring = GradedRing(p)
    for mutate in (False, True):
        if mutate:
            monkeypatch.setattr(bpsing.singcat, "truncated_module", first_action_dropped)
        for axis, p_axis in enumerate(p, start=1):
            for j in range(2, p_axis + 1):
                lemma_k_check(ring, axis, j, 2 * ring.L.ell)
    assert len(maps) == 4 * sum(p_axis - 1 for p_axis in p)
    for f in maps:
        assert f.validate() == reference_map_validate(f)
    assert any(f.validate() for f in maps) == (max(p) >= 3)


@pytest.mark.parametrize("p", SCAN_SEQUENCES)
def test_quotient_by_variables_matches_the_per_degree_oracle(p):
    ring = GradedRing(p)
    window = 2 * ring.L.ell
    others = [tuple(t for t in range(1, len(p) + 1) if t != axis) for axis in range(1, len(p) + 1)]
    for killed in [(), (1,)] + others:
        got = quotient_by_variables(ring, killed, window)
        want = reference_quotient_by_variables(ring, killed, window)
        assert (got.basis, got.action) == (want.basis, want.action), killed


def count_monomial_passes(monkeypatch) -> Counter:
    """Wrap ``GradedRing.iter_monomials``; the counter gets one per call at each z."""
    counts = Counter()
    iterate = GradedRing.iter_monomials

    def counting(self, z):
        counts[z] += 1
        return iterate(self, z)

    monkeypatch.setattr(GradedRing, "iter_monomials", counting)
    return counts


def test_each_window_is_counted_once_per_ring(capsys, monkeypatch):
    # one count of the window, then one split of each z-degree into pieces
    counts = count_monomial_passes(monkeypatch)
    # (a negative z-degree, which the ring quotient asks for below its lowest
    # degrees, has no monomials)
    assert cli.run(["verify", "--suite", "singcat", "--p", "7,11"]) == 0
    assert {z: k for z, k in counts.items() if z >= 0} == {z: 2 for z in range(155)}
    counts.clear()
    argv = "singcat resolution --p 3,4,5 --length 9 --window 938".split()
    assert cli.run(argv) == 0
    assert counts == {z: 2 for z in range(939)}
    capsys.readouterr()


def test_a_kept_window_size_is_refused_again_under_a_lower_limit(monkeypatch):
    ring = GradedRing((3, 4))
    # (3,4) up to z = 24 covers 25 z-degrees and 22 monomials
    assert bpsing.singcat._check_window(ring, 24) == 47
    assert ring._windows == {24: 47}
    monkeypatch.setattr(bpsing.singcat, "MAX_WINDOW_SIZE", 46)
    for _ in range(2):
        with pytest.raises(ValueError) as err:
            bpsing.singcat._check_window(ring, 24)
        assert str(err.value) == "window 24 covers at least 47 z-degrees and monomials, above the limit 46"
    with pytest.raises(ValueError):
        bpsing.singcat._check_window(ring, 30)
    assert ring._windows == {24: 47}
