"""Exact linear algebra: cross-checks against independently coded oracles."""

from fractions import Fraction
from itertools import permutations
import random

import pytest

from bpsing.exactlin import (
    Cohomology,
    ComplexError,
    RatMatrix,
    _eliminate,
    _rows,
    complex_cohomology,
    det,
    exact,
    invariant_factors,
    rank,
    rank_kernel,
    rref,
    smith_normal_form,
    solve,
    solve_integer,
    solve_mod2,
)
from helpers import (
    apply,
    assert_exact,
    column,
    densify,
    identity_matrix,
    integer_kernel,
    matrix_sum,
    reference_eliminate,
)


def bareiss_rank(entries):
    """Rank via fraction-free Bareiss elimination, written from scratch."""
    m = [list(map(int, row)) for row in entries]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    prev = 1
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(rows):
            if i == r:
                continue
            for j in range(cols):
                if j == c:
                    continue
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
    return r


def det_by_permutations(entries):
    n = len(entries)
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        # count inversions for the sign
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if seen[i] > seen[j])
        sign = -1 if inv % 2 else 1
        prod = Fraction(1)
        for i in range(n):
            prod *= Fraction(entries[i][perm[i]])
        total += sign * prod
    return total


def random_int_matrix(rng, rows, cols, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def test_rank_matches_bareiss_on_random_matrices():
    rng = random.Random(318)
    for _ in range(100):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 7)
        entries = random_int_matrix(rng, rows, cols)
        M = RatMatrix(entries)
        rank, kernel = rank_kernel(M)
        assert rank == bareiss_rank(entries)
        assert rank + len(kernel) == cols
        for v in kernel:
            assert all(x == 0 for x in apply(M, v))
        if kernel:
            stacked = RatMatrix([list(v) for v in kernel], cols=cols)
            assert rank_kernel(stacked)[0] == len(kernel)


def test_rref_shape_and_row_space():
    rng = random.Random(55)
    for _ in range(40):
        entries = random_int_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
        M = RatMatrix(entries)
        R, pivots = rref(M)
        assert list(pivots) == sorted(pivots)
        for r, c in enumerate(pivots):
            assert R.entries[r][c] == 1
            assert all(R.entries[i][c] == 0 for i in range(R.rows) if i != r)
        for r in range(len(pivots), R.rows):
            assert all(x == 0 for x in R.entries[r])
        stacked = RatMatrix([list(row) for row in M.entries] + [list(row) for row in R.entries],
                            cols=M.cols)
        assert rank_kernel(stacked)[0] == len(pivots)


def test_solve_on_constructed_systems():
    rng = random.Random(99)
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        M = RatMatrix(random_int_matrix(rng, rows, cols))
        x = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(cols)]
        b = apply(M, x)
        got = solve(M, b)
        assert got is not None
        assert apply(M, got) == tuple(b)


def test_solve_detects_inconsistency():
    M = RatMatrix([[1], [0]])
    assert solve(M, (0, 1)) is None
    assert solve(M, (3, 0)) == (Fraction(3),)


def test_det_against_permutation_expansion():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 4)
        entries = random_int_matrix(rng, n, n, bound=5)
        assert det(RatMatrix(entries)) == det_by_permutations(entries)
    A = RatMatrix(random_int_matrix(rng, 4, 4, bound=3))
    B = RatMatrix(random_int_matrix(rng, 4, 4, bound=3))
    assert det(A @ B) == det(A) * det(B)


def test_det_at_the_edges_of_the_elimination():
    assert det(RatMatrix([], cols=0)) == 1
    # full rank except the last column: no pivot there
    assert det(RatMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])) == 0
    assert det(RatMatrix([[0, 0], [0, 0]])) == 0
    # the reversal permutations: one swap for n = 2, one (rows 1 and 3) for n = 3
    for n in (2, 3):
        assert det(RatMatrix([[int(i + j == n - 1) for j in range(n)] for i in range(n)])) == -1
    # a swap that is undone by a later swap leaves the sign positive
    assert det(RatMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])) == 1
    assert det(RatMatrix([[0, Fraction(1, 2)], [3, 1]])) == Fraction(-3, 2)
    with pytest.raises(ValueError, match="square"):
        det(RatMatrix([[1, 2, 3], [4, 5, 6]]))


def test_matrix_arithmetic_guards():
    A = RatMatrix([[1, 2], [3, 4]])
    B = RatMatrix([[1], [1]])
    assert (A @ B).entries == ((Fraction(3),), (Fraction(7),))
    with pytest.raises(ValueError):
        A @ RatMatrix([[1, 2]])
    with pytest.raises(ValueError):
        matrix_sum(A, B)
    assert matrix_sum(A, A).entries == ((2, 4), (6, 8))
    assert identity_matrix(2) @ A == A


def test_smith_normal_form_properties():
    rng = random.Random(4242)
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        M = RatMatrix(random_int_matrix(rng, rows, cols))
        D, U, V = smith_normal_form(M)
        assert U @ M @ V == D
        for i in range(D.rows):
            for j in range(D.cols):
                if i != j:
                    assert D.entries[i][j] == 0
        diag = [D.entries[i][i] for i in range(min(rows, cols))]
        assert all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            if b != 0:
                assert a != 0 and b % a == 0
        assert abs(det(U)) == 1
        assert abs(det(V)) == 1


def test_smith_normal_form_finishes_where_repeated_subtraction_stalls():
    # relation coordinates from orlov --p 7,8,5,11,12,10; clearing by repeated
    # subtraction grew the trailing block without bound on this matrix
    M = RatMatrix([[-48, -2201, -200, 35, 658], [48, 528, -980, 0, -5], [0, 1680, -1900, -11, -193],
                   [-72, -2304, 3068, 11, 198], [62, 1954, 12, 0, -560]])
    D, U, V = smith_normal_form(M)
    assert U @ M @ V == D
    assert abs(det(U)) == 1
    assert abs(det(V)) == 1
    assert D == RatMatrix([[int(i == j) * d for j in range(5)] for i, d in enumerate((1, 1, 1, 2, 20))])


def test_integer_routines_reject_non_integer_entries():
    with pytest.raises(ValueError, match="integer entries required"):
        smith_normal_form(RatMatrix([[Fraction(1, 2)]]))
    with pytest.raises(ValueError, match="integer entries required"):
        invariant_factors(RatMatrix([[1, Fraction(3, 2)]]))
    with pytest.raises(ValueError, match="integer entries required"):
        solve_integer(RatMatrix([[1]]), (Fraction(3, 2),))


def test_invariant_factors_known_values():
    assert invariant_factors(RatMatrix([[2, 0], [0, 3]])) == (1, 6)
    assert invariant_factors(RatMatrix([[4, 0], [0, 6]])) == (2, 12)
    assert invariant_factors(RatMatrix.zeros(2, 3)) == ()


def test_integer_kernel_is_saturated():
    rng = random.Random(606)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        M = RatMatrix(random_int_matrix(rng, rows, cols, bound=6))
        basis = integer_kernel(M)
        rank = rank_kernel(M)[0]
        assert len(basis) == cols - rank
        for v in basis:
            assert all(sum(M.entries[i][j] * v[j] for j in range(cols)) == 0
                       for i in range(rows))
        if basis:
            # a saturated lattice has a basis with all invariant factors 1
            assert set(invariant_factors(RatMatrix([list(v) for v in basis], cols=cols))) == {1}


def test_solve_integer_round_trip_and_failure():
    rng = random.Random(777)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        M = RatMatrix(random_int_matrix(rng, rows, cols, bound=6))
        x = [rng.randint(-4, 4) for _ in range(cols)]
        b = [sum(M.entries[i][j] * x[j] for j in range(cols)) for i in range(rows)]
        got = solve_integer(M, b)
        assert got is not None
        assert [sum(M.entries[i][j] * got[j] for j in range(cols)) for i in range(rows)] == b
    assert solve_integer(RatMatrix([[2]]), (1,)) is None
    assert solve_integer(RatMatrix([[1], [0]]), (0, 1)) is None


def test_solve_mod2_round_trip_and_failure():
    rng = random.Random(1313)
    for _ in range(60):
        nvars = rng.randint(1, 10)
        nrows = rng.randint(1, 8)
        rows = [rng.getrandbits(nvars) for _ in range(nrows)]
        xmask = rng.getrandbits(nvars)
        rhs = [bin(r & xmask).count("1") % 2 for r in rows]
        got = solve_mod2(rows, rhs, nvars)
        assert got is not None
        gmask = sum(bit << i for i, bit in enumerate(got))
        assert [bin(r & gmask).count("1") % 2 for r in rows] == rhs
    assert solve_mod2([0b1, 0b1], [0, 1], 1) is None


def reducing_solve_mod2(rows, rhs, nvars):
    """The former solver: every row reduced against every pivot, pivots kept reduced."""
    pivots = []
    for row, b in zip(rows, rhs):
        b &= 1
        for bit, prow, pb in pivots:
            if row >> bit & 1:
                row ^= prow
                b ^= pb
        if row == 0:
            if b:
                return None
            continue
        bit = row.bit_length() - 1
        for idx, (pbit, prow, pb) in enumerate(pivots):
            if prow >> bit & 1:
                pivots[idx] = (pbit, prow ^ row, pb ^ b)
        pivots.append((bit, row, b))
    x = [0] * nvars
    for bit, _, b in pivots:
        x[bit] = b
    return x


def test_solve_mod2_matches_the_reducing_solver():
    rng = random.Random(2718)
    inconsistent = 0
    for _ in range(2500):
        nvars = rng.randint(1, 24)
        rows = [rng.getrandbits(nvars) for _ in range(rng.randint(0, 30))]
        if rng.random() < 0.5:
            # consistent by construction, often with free variables
            xmask = rng.getrandbits(nvars)
            rhs = [(r & xmask).bit_count() % 2 for r in rows]
        else:
            rhs = [rng.getrandbits(1) for _ in rows]
        got = solve_mod2(rows, rhs, nvars)
        assert got == reducing_solve_mod2(rows, rhs, nvars)
        inconsistent += got is None
    assert 200 < inconsistent < 2000


def test_cohomology_of_zero_differentials():
    coh = complex_cohomology(RatMatrix.zeros(2, 0), RatMatrix.zeros(3, 2))
    assert coh.dim == 2
    assert coh.coordinates((3, 5)) == (Fraction(3), Fraction(5))


def test_cohomology_of_exact_position_vanishes():
    d_in = RatMatrix([[1], [0]])
    d_out = RatMatrix([[0, 1]])
    coh = complex_cohomology(d_in, d_out)
    assert coh.dim == 0
    assert coh.representatives == ()


def test_cohomology_quotients_by_the_image():
    d_in = RatMatrix([[1], [0]])
    d_out = RatMatrix.zeros(0, 2)
    coh = complex_cohomology(d_in, d_out)
    assert coh.dim == 1
    # the class of 7*e1 + 4*e2 only sees the e2 component
    assert coh.coordinates((7, 4)) == (Fraction(4),)
    assert isinstance(coh, Cohomology)


def test_coordinates_reject_vectors_outside_image_and_representatives():
    # nonzero space: image spans e1, the representative e2, nothing reaches e3
    coh = complex_cohomology(RatMatrix([[1], [0], [0]]), RatMatrix([[0, 0, 1]]))
    assert coh.dim == 1
    assert coh.coordinates((5, 2, 0)) == (Fraction(2),)
    with pytest.raises(ComplexError, match="not in the span"):
        coh.coordinates((0, 0, 1))
    # zero space: no image and no cocycles except zero
    zero = complex_cohomology(RatMatrix.zeros(2, 0), identity_matrix(2))
    assert zero.dim == 0
    assert zero.coordinates((0, 0)) == ()
    with pytest.raises(ComplexError, match="not in the span"):
        zero.coordinates((0, 3))
    with pytest.raises(ValueError, match="length mismatch"):
        zero.coordinates((0,))


def test_cohomology_rejects_non_complexes():
    with pytest.raises(ComplexError):
        complex_cohomology(RatMatrix([[1], [0]]), RatMatrix([[1, 0]]))


def greedy_cohomology(d_in, d_out):
    """The former routine: rref of d_in, then one elimination per kernel vector."""
    n = d_in.rows
    _, kernel = rank_kernel(d_out)
    _, in_pivots = rref(d_in)
    image = [column(d_in, c) for c in in_pivots]
    span = [list(v) for v in image]
    span, _, _ = reference_eliminate(span, n) if span else (span, [], [])
    reps = []
    reduced = [row for row in span if any(x != 0 for x in row)]
    for v in kernel:
        candidate = reduced + [list(v)]
        candidate, piv, _ = reference_eliminate([list(r) for r in candidate], n)
        nonzero = [row for row in candidate if any(x != 0 for x in row)]
        if len(nonzero) > len(reduced):
            reps.append(v)
            reduced = nonzero
    solver_cols = [list(v) for v in image] + [list(v) for v in reps]
    solver = RatMatrix(
        [[solver_cols[j][i] for j in range(len(solver_cols))] for i in range(n)], cols=len(solver_cols)
    ) if n > 0 else RatMatrix([], cols=0)

    def coordinates(z):
        return solve(solver, z)[len(image):]

    return tuple(reps), coordinates


def random_combination(rng, vectors, length):
    coeffs = [rng.randint(-3, 3) for _ in vectors]
    return [sum(c * v[i] for c, v in zip(coeffs, vectors)) for i in range(length)]


def random_complex(rng):
    """d_in, d_out with d_out d_in = 0: d_in mixes kernel vectors of a low-rank d_out."""
    n = rng.randint(0, 5)
    rows, inner = rng.randint(0, 4), rng.randint(0, 3)
    A = RatMatrix(random_int_matrix(rng, rows, inner, bound=3), cols=inner)
    B = RatMatrix(random_int_matrix(rng, inner, n, bound=3), cols=n)
    d_out = A @ B
    _, kernel = rank_kernel(d_out)
    m = rng.randint(0, 4)
    columns = [random_combination(rng, kernel, n) for _ in range(m)]
    d_in = RatMatrix([[col[i] for col in columns] for i in range(n)], cols=m)
    return d_in, d_out, kernel


def test_cohomology_matches_the_greedy_oracle():
    rng = random.Random(2024)
    seen = set()
    for _ in range(250):
        d_in, d_out, kernel = random_complex(rng)
        coh = complex_cohomology(d_in, d_out)
        reps, coordinates = greedy_cohomology(d_in, d_out)
        assert coh.dim == len(reps)
        assert tuple(densify(rep, d_in.rows) for rep in coh.representatives) == reps
        seen.add((d_in.rows == 0, not kernel))
        for _ in range(3):
            z = random_combination(rng, kernel, d_in.rows)
            assert coh.coordinates(z) == coordinates(z)
    assert {(True, True), (False, True), (False, False)} <= seen


def test_rank_matches_the_rref_pivot_count():
    rng = random.Random(11)
    shapes = [(0, 0), (0, 4), (4, 0), (1, 1), (3, 5), (5, 3), (6, 6)]
    checked = 0
    for rows, cols in shapes:
        for _ in range(12):
            # small entries with many zeros, so rank deficits are common
            entries = [
                [Fraction(rng.choice([0, 0, 0, 1, -1, 2]), rng.choice([1, 1, 3])) for _ in range(cols)]
                for _ in range(rows)
            ]
            M = RatMatrix(entries, cols=cols)
            assert rank(M) == len(rref(M)[1]), (rows, cols, entries)
            checked += rank(M) < min(rows, cols)
    assert checked > 0
    assert rank(RatMatrix.zeros(0, 4)) == rank(RatMatrix.zeros(4, 0)) == 0


def _three_forms(rows):
    """One matrix as Fractions (the oracle's input), as ints and mixed."""
    fractions = [[Fraction(x) for x in row] for row in rows]
    mixed = [[Fraction(x) if (i + j) % 2 else x for j, x in enumerate(row)]
             for i, row in enumerate(rows)]
    return fractions, rows, mixed


def test_every_routine_returns_exact_form_whatever_form_its_input_takes():
    # non-unit pivots, so the eliminations pass through true Fractions and
    # back to integers; d_out d_in = 0 with one-dimensional cohomology
    d_out = [[2, 0, -1, 0], [0, 3, 0, -6], [2, 3, -1, -6]]
    d_in = [[3], [2], [6], [1]]
    square = [[2, 1, 0], [4, 3, 1], [0, 2, 6]]
    b = [[1, 2, 3]]
    outputs = []
    for (out_m, in_m, sq, (rhs,)) in zip(*map(_three_forms, (d_out, d_in, square, b))):
        D_out, D_in, S = RatMatrix(out_m), RatMatrix(in_m), RatMatrix(sq)
        R, pivots = rref(D_out)
        coh = complex_cohomology(D_in, D_out)
        got = {
            "rref": (R, pivots),
            "rank_kernel": rank_kernel(D_out),
            "solve": solve(S, rhs),
            "det": det(S),
            "smith": smith_normal_form(D_out),
            "cohomology": coh,
            "coordinates": coh.coordinates((1, 0, 2, 0)),
        }
        assert_exact(x for row in R.entries for x in row)
        assert_exact(x for v in got["rank_kernel"][1] for x in v)
        assert_exact(got["solve"])
        assert_exact([got["det"]])
        assert_exact(x for M in got["smith"] for row in M.entries for x in row)
        assert_exact(x for rep in coh.representatives for _, x in rep)
        assert_exact(x for rows in (coh.coord_rows, coh.residual_rows) for row in rows for _, x in row)
        assert_exact(got["coordinates"])
        outputs.append(got)
    assert any(type(x) is Fraction for x in outputs[0]["solve"])
    assert outputs[0]["coordinates"] == (2,)
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_a_non_unit_pivot_on_ints_divides_exactly():
    # 1 / 3 as a float would leave -0.333..., which is not -1/3
    assert rank_kernel(RatMatrix([[3, 1]])) == (1, [(Fraction(-1, 3), 1)])
    assert solve(RatMatrix([[3, 0], [1, 1]]), [1, 1]) == (Fraction(1, 3), Fraction(2, 3))
    assert det(RatMatrix([[3, 1], [1, 2]])) == 5


def random_sparse_matrix(rng, rows, cols, fractions):
    """Small entries, most of them zero, with a zero row and a zero column
    forced in when the shape has room; Fractions when ``fractions``."""
    zero_row = rng.randrange(rows) if rows > 1 else None
    zero_col = rng.randrange(cols) if cols > 1 else None
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            x = rng.choice([0, 0, 0, 1, -1, 2, -3])
            if fractions and x:
                x = Fraction(x, rng.choice([1, 2, 3]))
            row.append(0 if zero_row == i or zero_col == j else x)
        out.append(row)
    return out


def kernel_against_reference(entries, cols):
    """Run the sparse kernel and the dense reference on one matrix and check
    that rows (densified, in exact form), pivot columns and pivots agree."""
    M = RatMatrix(entries, cols=cols)
    rows, pivots, values = _eliminate(_rows(M), cols)
    ref_rows, ref_pivots, ref_values = reference_eliminate([list(r) for r in entries], cols)
    assert all(all(x != 0 for x in row.values()) for row in rows)
    assert [[exact(row.get(c, 0)) for c in range(cols)] for row in rows] == [
        [exact(x) for x in row] for row in ref_rows
    ]
    assert pivots == ref_pivots
    assert list(map(exact, values)) == list(map(exact, ref_values))
    return M, rows, pivots


def reference_complex_cohomology(d_in, d_out):
    """The former dense ``complex_cohomology`` body on ``reference_eliminate``."""
    n = d_in.rows
    _, kernel = rank_kernel(d_out)
    m, width = d_in.cols, d_in.cols + len(kernel)
    stacked = [
        list(row) + [v[i] for v in kernel] + [int(i == t) for t in range(n)]
        for i, row in enumerate(d_in.entries)
    ]
    reduced, pivots, _ = reference_eliminate(stacked, width)
    reps = tuple(tuple((i, x) for i, x in enumerate(kernel[c - m]) if x) for c in pivots if c >= m)
    rows = [tuple((t, exact(x)) for t, x in enumerate(row[width:]) if x) for row in reduced]
    return Cohomology(
        dim=len(reps),
        representatives=reps,
        space_dim=n,
        coord_rows=tuple(rows[len(pivots) - len(reps) : len(pivots)]),
        residual_rows=tuple(rows[len(pivots) :]),
    )


def test_sparse_kernel_matches_the_dense_reference():
    rng = random.Random(37)
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (5, 2), (4, 4), (6, 7), (7, 6)]
    fractional = 0
    for rows, cols in shapes:
        for fractions in (False, True):
            for _ in range(15):
                entries = random_sparse_matrix(rng, rows, cols, fractions)
                M, _, pivots = kernel_against_reference(entries, cols)
                R, rref_pivots = rref(M)
                rank_, kernel = rank_kernel(M)
                assert rref_pivots == tuple(pivots) and rank_ == len(pivots)
                assert rank(M) == len(pivots)
                if R.rows and R.cols:
                    assert_exact(x for row in R.entries for x in row)
                if kernel:
                    assert_exact(x for v in kernel for x in v)
                b = [rng.randint(-2, 2) for _ in range(rows)]
                x = solve(M, b)
                if x:
                    assert_exact(x)
                    assert apply(M, x) == tuple(b)
                fractional += any(type(v) is Fraction for row in R.entries for v in row)
    assert fractional > 0
    # the elimination divides by 2 and leaves integral Fractions in the rows
    M, rows, pivots = kernel_against_reference([[2, 4], [1, 3]], 2)
    assert any(type(x) is Fraction and x.denominator == 1 for row in rows for x in row.values())
    assert pivots == [0, 1] and det(M) == 2
    assert rref(M) == (identity_matrix(2), (0, 1))
    assert_exact(x for row in rref(M)[0].entries for x in row)
    assert solve(M, [2, 1]) == (1, 0)
    assert_exact(solve(M, [2, 1]))


def test_sparse_cohomology_matches_the_dense_reference():
    rng = random.Random(3737)
    nonzero = 0
    for _ in range(200):
        d_in, d_out, _ = random_complex(rng)
        coh = complex_cohomology(d_in, d_out)
        assert coh == reference_complex_cohomology(d_in, d_out)
        values = [x for rep in coh.representatives for _, x in rep]
        values += [x for rows in (coh.coord_rows, coh.residual_rows)
                   for row in rows for _, x in row]
        if values:
            assert_exact(values)
        nonzero += coh.dim > 0
    assert nonzero > 0


def fails_the_chain_check(d_in, d_out):
    """Whether ``complex_cohomology`` refuses the pair as not a complex."""
    try:
        complex_cohomology(d_in, d_out)
    except ComplexError as err:
        assert str(err) == "d_out composed with d_in is nonzero"
        return True
    return False


def test_sparse_chain_check_matches_the_dense_product():
    # the complexes of the test above, then seeded pairs that mostly do not
    # chain: sparse pairs with a zero row and column, and complexes with one
    # entry changed, which still chain when the entry meets a zero of the other
    rng = random.Random(3737)
    pairs = [random_complex(rng)[:2] for _ in range(200)]
    assert not any(fails_the_chain_check(d_in, d_out) for d_in, d_out in pairs)
    rng = random.Random(38)
    outcomes = set()
    for k in range(400):
        if k % 2:
            n, rows, m = rng.randint(1, 5), rng.randint(1, 4), rng.randint(1, 4)
            d_in = RatMatrix(random_sparse_matrix(rng, n, m, k % 4 == 1), cols=m)
            d_out = RatMatrix(random_sparse_matrix(rng, rows, n, k % 4 == 3), cols=n)
        else:
            d_in, d_out, _ = random_complex(rng)
            M = d_in if k % 4 and d_in.rows * d_in.cols else d_out
            if not M.rows * M.cols:
                continue
            entries = [list(row) for row in M.entries]
            step = Fraction(rng.choice([1, -2]), rng.choice([1, 3]))
            entries[rng.randrange(M.rows)][rng.randrange(M.cols)] += step
            changed = RatMatrix(entries, cols=M.cols)
            d_in, d_out = (changed, d_out) if M is d_in else (d_in, changed)
        nonzero = not (d_out @ d_in).is_zero()
        assert fails_the_chain_check(d_in, d_out) == nonzero
        outcomes.add(nonzero)
    assert outcomes == {False, True}


def test_rank_needs_fill_in():
    # clearing column 0 writes -1 where the second row held zero
    assert rank(RatMatrix([[1, 1], [1, 0]])) == 2
    assert rank_kernel(RatMatrix([[1, 1], [1, 0]])) == (2, [])
