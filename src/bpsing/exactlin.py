"""Exact linear algebra over the rationals and the integers.

Every number here is in exact form (``exact``): an ``int`` when integral, a
``Fraction`` only when truly rational.  ``RatMatrix`` stores, and every routine
returns, that form, so integral data stays in integer arithmetic and only
elimination divides.  Every rational routine (``rref``, ``rank``,
``rank_kernel``, ``solve``, ``det``, ``complex_cohomology``) runs on one
elimination kernel over sparse rows, each a dict from column to nonzero
entry, so it reads and writes only nonzero entries; ``rank_rows`` ranks
such rows directly.  Smith normal form and integer solutions take integer
matrices; the cohomology of a two-step complex picks representatives
deterministically.  No float ever enters, and identical inputs produce
identical outputs (pivots are chosen by fixed scan order).

Matrices act on column vectors, so a matrix with ``rows`` rows and ``cols``
columns maps length-``cols`` vectors to length-``rows`` vectors.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Iterable, NamedTuple, Sequence

Vec = tuple[int | Fraction, ...]


def exact(x) -> int | Fraction:
    """The exact form of a rational number: an int when integral, else a Fraction."""
    if type(x) is int:
        return x
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


class ComplexError(ValueError):
    """Raised when differentials fail to compose to zero, or a vector is no cocycle."""


class RatMatrix:
    """Immutable dense matrix of rationals, each entry in exact form.

    ``cols`` must be passed explicitly when there are no rows, since the
    width cannot be inferred from an empty row list.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable], cols: int | None = None):
        rows = tuple(tuple(map(exact, row)) for row in entries)
        if rows:
            widths = {len(r) for r in rows}
            if len(widths) != 1:
                raise ValueError("ragged rows")
            inferred = widths.pop()
            if cols is not None and cols != inferred:
                raise ValueError("cols does not match row width")
            cols = inferred
        elif cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", cols)

    def __setattr__(self, name, value):
        raise AttributeError("RatMatrix is immutable")

    @classmethod
    def zeros(cls, rows: int, cols: int) -> RatMatrix:
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatMatrix)
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.cols, self.entries))

    def __repr__(self) -> str:
        return f"RatMatrix({[list(map(str, r)) for r in self.entries]}, cols={self.cols})"

    def __matmul__(self, other: RatMatrix) -> RatMatrix:
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                s = 0
                for k in range(self.cols):
                    s += self.entries[i][k] * other.entries[k][j]
                row.append(s)
            out.append(row)
        return RatMatrix(out, cols=other.cols)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)


def _rows(M: RatMatrix) -> list[dict]:
    """The rows of M as sparse rows: column -> nonzero entry, never a stored zero."""
    return [{c: x for c, x in enumerate(row) if x} for row in M.entries]


def _eliminate(rows: list[dict], cols: int) -> tuple[list[dict], list[int], list]:
    """Row reduce sparse rows in place to reduced echelon form; return (rows,
    pivot columns, pivots).

    A row maps a column to its nonzero entry and stores no zero, so ``c in
    row`` tests an entry and a row operation touches only nonzero entries,
    writing fill-in where the target row held zero and deleting every entry
    that cancels.  Pivot selection is the first row, in current order, with
    an entry in each column, scanning columns left to right, so the result
    is deterministic.  Each pivot is taken before its row is normalized and
    negated when a row swap brought it into place, so for a square matrix
    of full rank their product is the determinant.  Unit pivots keep int
    rows int; the rows may end with integral Fractions, which callers make
    exact.
    """
    pivots: list[int] = []
    values: list = []
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
            inv = Fraction(1) / x  # never 1 / pivot, a float on ints
            row = {k: v * inv for k, v in row.items()}
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
                else:
                    other[k] = -factor * v
        pivots.append(c)
        r += 1
    return rows, pivots, values


def rref(M: RatMatrix) -> tuple[RatMatrix, tuple[int, ...]]:
    """Reduced row echelon form together with the pivot column indices."""
    rows, pivots, _ = _eliminate(_rows(M), M.cols)
    dense = [[row.get(c, 0) for c in range(M.cols)] for row in rows]
    return RatMatrix(dense, cols=M.cols), tuple(pivots)


def rank(M: RatMatrix) -> int:
    """Rank: the pivot count of the elimination of M's rows."""
    return rank_rows(_rows(M), M.cols)


def rank_rows(rows: list[dict], cols: int) -> int:
    """Rank of sparse rows (column -> nonzero entry) of width ``cols``, which
    the elimination reduces in place."""
    return len(_eliminate(rows, cols)[1])


def rank_kernel(M: RatMatrix) -> tuple[int, list[Vec]]:
    """Rank and a deterministic kernel basis.

    Each kernel vector has 1 at one free column and the pivot-column entries
    forced by back substitution; vectors are listed in free-column order.
    A reduced row holds 1 at its pivot and nothing at any other pivot
    column, so each of its other entries sits at a free column f and gives
    the entry of f's vector at the row's pivot.
    """
    rows, pivots, _ = _eliminate(_rows(M), M.cols)
    pivot_set = set(pivots)
    basis = {f: [0] * M.cols for f in range(M.cols) if f not in pivot_set}
    for f, v in basis.items():
        v[f] = 1
    for row, c in zip(rows, pivots):
        for f, x in row.items():
            if f != c:
                basis[f][c] = -exact(x)
    return len(pivots), [tuple(v) for v in basis.values()]


def solve(M: RatMatrix, b: Sequence) -> Vec | None:
    """One solution of M x = b, or None if inconsistent.

    Free variables are set to zero, which makes the answer deterministic.
    """
    if len(b) != M.rows:
        raise ValueError("rhs length mismatch")
    if M.rows == 0:
        return (0,) * M.cols
    rows = _rows(M)
    for row, v in zip(rows, map(exact, b)):
        if v:
            row[M.cols] = v
    rows, pivots, _ = _eliminate(rows, M.cols + 1)
    if M.cols in pivots:
        return None
    x = [0] * M.cols
    for row, c in zip(rows, pivots):
        x[c] = exact(row.get(M.cols, 0))
    return tuple(x)


def det(M: RatMatrix) -> int | Fraction:
    """Determinant: the product of the elimination's pivots, 0 below full rank."""
    if M.rows != M.cols:
        raise ValueError("determinant needs a square matrix")
    _, pivots, values = _eliminate(_rows(M), M.cols)
    return exact(prod(values)) if len(pivots) == M.cols else 0


# ---------------------------------------------------------------------------
# integer routines: Smith normal form of an integral RatMatrix


def _int_rows(M: RatMatrix) -> list[list[int]]:
    """Entries of M as lists of ints; raises ValueError on a non-integer entry."""
    if any(type(x) is not int for row in M.entries for x in row):
        raise ValueError("integer entries required")
    return [list(row) for row in M.entries]


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, r) with s a + r b = g = gcd(a, b) >= 0."""
    s0, s1, r0, r1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        s0, s1 = s1, s0 - q * s1
        r0, r1 = r1, r0 - q * r1
    return (a, s0, r0) if a >= 0 else (-a, -s0, -r0)


def smith_normal_form(M: RatMatrix) -> tuple[RatMatrix, RatMatrix, RatMatrix]:
    """Smith normal form with transforms: returns (D, U, V) with U M V = D.

    M must have integer entries.  D is diagonal with nonnegative entries
    satisfying d1 | d2 | ... ; U and V are unimodular.  The pivot starts as
    the smallest nonzero absolute value in the remaining block, first
    occurrence wins, and row t and column t are cleared by unimodular 2x2
    extended-gcd steps, so entries stay small and the reduction is
    deterministic.
    """
    d = _int_rows(M)
    nr, nc = M.rows, M.cols
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def mix_rows(i, j, a, b, c, e):
        # (row_i, row_j) <- (a row_i + b row_j, c row_i + e row_j)
        for m in (d, u):
            m[i], m[j] = ([a * x + b * y for x, y in zip(m[i], m[j])],
                          [c * x + e * y for x, y in zip(m[i], m[j])])

    def mix_cols(i, j, a, b, c, e):
        for m in (d, v):
            for row in m:
                row[i], row[j] = a * row[i] + b * row[j], c * row[i] + e * row[j]

    def clear(p, x):
        # coefficients of a unimodular step taking (p, x) to (gcd, 0); a plain
        # subtraction when p divides x
        if x % p == 0:
            return 1, 0, -(x // p), 1
        g, s, r = _ext_gcd(p, x)
        return s, r, -(x // g), p // g

    t = 0
    while t < min(nr, nc):
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if d[i][j] != 0 and (best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        if best[0] != t:
            mix_rows(t, best[0], 0, 1, 1, 0)
        if best[1] != t:
            mix_cols(t, best[1], 0, 1, 1, 0)
        # each step that is not a plain subtraction shrinks |d[t][t]|, and a
        # column step refills column t only then, so this loop terminates
        while True:
            for i in range(t + 1, nr):
                if d[i][t] != 0:
                    mix_rows(t, i, *clear(d[t][t], d[i][t]))
            for j in range(t + 1, nc):
                if d[t][j] != 0:
                    mix_cols(t, j, *clear(d[t][t], d[t][j]))
            if any(d[i][t] for i in range(t + 1, nr)):
                continue
            # force divisibility of the trailing block by the pivot
            offender = next((i for i in range(t + 1, nr)
                             if any(d[i][j] % d[t][t] for j in range(t + 1, nc))), None)
            if offender is None:
                break
            mix_rows(t, offender, 1, 1, 0, 1)
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return RatMatrix(d, cols=nc), RatMatrix(u, cols=nr), RatMatrix(v, cols=nc)


def invariant_factors(M: RatMatrix) -> tuple[int, ...]:
    """Nonzero diagonal of the Smith form of an integer matrix, in divisibility order."""
    d = _int_rows(smith_normal_form(M)[0])
    return tuple(d[i][i] for i in range(min(M.rows, M.cols)) if d[i][i] != 0)


def solve_integer(M: RatMatrix, b: Sequence[int]) -> tuple[int, ...] | None:
    """One integer solution of M x = b for integer M and b, or None.

    Via U M V = D: solve D y = U b (each diagonal must divide the target,
    zero rows must meet zero), then x = V y.
    """
    if len(b) != M.rows:
        raise ValueError("rhs length mismatch")
    (target,) = _int_rows(RatMatrix([b], cols=M.rows))
    D, U, V = (_int_rows(X) for X in smith_normal_form(M))
    ub = [sum(U[i][k] * target[k] for k in range(M.rows)) for i in range(M.rows)]
    y = [0] * M.cols
    for i in range(M.rows):
        dii = D[i][i] if i < M.cols else 0
        if dii == 0:
            if ub[i] != 0:
                return None
        else:
            if ub[i] % dii != 0:
                return None
            y[i] = ub[i] // dii
    return tuple(sum(V[i][k] * y[k] for k in range(M.cols)) for i in range(M.cols))


def solve_mod2(rows: list[int], rhs: list[int], nvars: int) -> list[int] | None:
    """Solve a GF(2) linear system; rows are bitmasks over ``nvars`` variables.

    Returns one solution as a 0/1 list (free variables zero), or None.
    """
    pivots: dict[int, tuple[int, int]] = {}  # top bit -> (row, rhs), echelon form
    for row, b in zip(rows, rhs):
        b &= 1
        while row and (row.bit_length() - 1) in pivots:
            prow, pb = pivots[row.bit_length() - 1]
            row ^= prow
            b ^= pb
        if row == 0:
            if b:
                return None
            continue
        pivots[row.bit_length() - 1] = (row, b)
    # back substitution from the lowest pivot up: the other bits of a pivot
    # row are lower pivots, already in ``known``, or free variables, zero
    x = [0] * nvars
    known = 0
    for bit in sorted(pivots):
        row, b = pivots[bit]
        x[bit] = (b + (row & known).bit_count()) % 2
        known |= x[bit] << bit
    return x


# ---------------------------------------------------------------------------
# cohomology of a two-step complex


SparseRow = tuple[tuple[int, int | Fraction], ...]  # (column, nonzero coefficient)


def _dot(row: SparseRow, vec: Sequence) -> int | Fraction:
    return sum((c * vec[i] for i, c in row), 0)


class Cohomology(NamedTuple):
    """Cohomology at the middle of  prev --d_in--> here --d_out--> next.

    ``representatives`` are cocycles projecting to a basis of the quotient,
    chosen deterministically (first independent kernel vectors after the
    coboundary basis), each a sparse row.  ``coordinates`` expresses any
    cocycle in that basis modulo coboundaries, through a coordinate map
    fixed when the cohomology is computed: ``coord_rows`` give the
    coefficients over the representatives, and ``residual_rows`` vanish
    exactly on the span of image and representatives, which is the space
    of cocycles.  Representatives and rows are in exact form, ints where
    integral, so a cocycle with int entries gets int coordinates at no
    ``Fraction`` cost; only the elimination that finds them divides.
    """

    dim: int
    representatives: tuple[SparseRow, ...]
    space_dim: int
    coord_rows: tuple[SparseRow, ...]
    residual_rows: tuple[SparseRow, ...]

    def coordinates(self, vec: Sequence) -> Vec:
        """Class of a cocycle as coefficients over ``representatives``."""
        if len(vec) != self.space_dim:
            raise ValueError("vector length mismatch")
        if any(_dot(row, vec) for row in self.residual_rows):
            raise ComplexError("not a cocycle: not in the span of image and representatives")
        return tuple(exact(_dot(row, vec)) for row in self.coord_rows)


def complex_cohomology(d_in: RatMatrix, d_out: RatMatrix) -> Cohomology:
    """Cohomology data at a complex position; raises ComplexError if d_out d_in != 0."""
    if d_in.rows != d_out.cols:
        raise ValueError("differential shapes do not chain")
    stacked = _rows(d_in)
    # d_out d_in row by row: each nonzero of a row of d_out scales a row of d_in
    for out_row in _rows(d_out):
        product: dict = {}
        for i, x in out_row.items():
            for c, y in stacked[i].items():
                product[c] = product.get(c, 0) + x * y
        if any(product.values()):
            raise ComplexError("d_out composed with d_in is nonzero")
    n = d_in.rows  # dimension of the middle space
    _, kernel = rank_kernel(d_out)
    # one elimination over the sparse rows of [d_in | kernel | I_n], pivoting
    # only left of I_n: the pivot columns are the first columns independent
    # of those before them, so the pivots inside d_in give a coboundary basis
    # and the rest the first kernel vectors that grow it to a basis of the
    # cocycles.  The I_n block ends up holding the row operations E, and E
    # maps a vector of the span to its coefficients over the pivot columns,
    # padded with zeros
    m, width = d_in.cols, d_in.cols + len(kernel)
    for k, v in enumerate(kernel, m):
        for i, x in enumerate(v):
            if x:
                stacked[i][k] = x
    for i, row in enumerate(stacked):
        row[width + i] = 1
    reduced, pivots, _ = _eliminate(stacked, width)
    reps = tuple(tuple((i, x) for i, x in enumerate(kernel[c - m]) if x) for c in pivots if c >= m)
    rows = [tuple((t - width, exact(x)) for t, x in sorted(row.items()) if t >= width)
            for row in reduced]
    return Cohomology(
        dim=len(reps),
        representatives=reps,
        space_dim=n,
        coord_rows=tuple(rows[len(pivots) - len(reps) : len(pivots)]),
        residual_rows=tuple(rows[len(pivots) :]),
    )
