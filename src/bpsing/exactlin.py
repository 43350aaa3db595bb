"""Exact linear algebra over the rationals and the integers.

One dense matrix type with ``Fraction`` entries; the integer routines (Smith
normal form, integer kernels and solutions) take matrices whose entries are
integers.  Also the cohomology of a two-step complex with deterministic representative
choices.  Everything here is exact: no floats ever enter, and identical inputs
produce identical outputs (pivots are chosen by fixed scan order).

Matrices act on column vectors, so a matrix with ``rows`` rows and ``cols``
columns maps length-``cols`` vectors to length-``rows`` vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]


class ComplexError(ValueError):
    """Raised when differentials fail to compose to zero."""


def _as_fraction_rows(entries: Iterable[Iterable]) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(Fraction(x) for x in row) for row in entries)


class RatMatrix:
    """Immutable dense matrix of Fractions.

    ``cols`` must be passed explicitly when there are no rows, since the
    width cannot be inferred from an empty row list.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable], cols: int | None = None):
        rows = _as_fraction_rows(entries)
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
        return cls([[Fraction(0)] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def identity(cls, n: int) -> RatMatrix:
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)], cols=n)

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
                s = Fraction(0)
                for k in range(self.cols):
                    s += self.entries[i][k] * other.entries[k][j]
                row.append(s)
            out.append(row)
        return RatMatrix(out, cols=other.cols)

    def __add__(self, other: RatMatrix) -> RatMatrix:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return RatMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)],
            cols=self.cols,
        )

    def apply(self, vec: Sequence) -> Vec:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(
            sum((self.entries[i][k] * Fraction(vec[k]) for k in range(self.cols)), Fraction(0))
            for i in range(self.rows)
        )

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def column(self, j: int) -> Vec:
        return tuple(self.entries[i][j] for i in range(self.rows))


def _eliminate(
    entries: list[list[Fraction]], cols: int
) -> tuple[list[list[Fraction]], list[int], list[Fraction]]:
    """Row reduce in place to reduced echelon form; return (rows, pivot columns, pivots).

    Pivot selection is the first nonzero entry scanning down each column, so
    the result is deterministic.  Each pivot is taken before its row is
    normalized and negated when a row swap brought it into place, so for a
    square matrix of full rank their product is the determinant.
    """
    pivots: list[int] = []
    values: list[Fraction] = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, len(entries)):
            if entries[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        entries[r], entries[pivot_row] = entries[pivot_row], entries[r]
        values.append(entries[r][c] if pivot_row == r else -entries[r][c])
        inv = 1 / entries[r][c]
        entries[r] = [x * inv for x in entries[r]]
        for i in range(len(entries)):
            if i != r and entries[i][c] != 0:
                factor = entries[i][c]
                entries[i] = [a - factor * b for a, b in zip(entries[i], entries[r])]
        pivots.append(c)
        r += 1
        if r == len(entries):
            break
    return entries, pivots, values


def rref(M: RatMatrix) -> tuple[RatMatrix, tuple[int, ...]]:
    """Reduced row echelon form together with the pivot column indices."""
    entries = [list(row) for row in M.entries]
    entries, pivots, _ = _eliminate(entries, M.cols)
    return RatMatrix(entries, cols=M.cols), tuple(pivots)


def rank(M: RatMatrix) -> int:
    """Rank: the pivot count of the elimination in rref, without building the reduced matrix."""
    return len(_eliminate([list(row) for row in M.entries], M.cols)[1])


def rank_kernel(M: RatMatrix) -> tuple[int, list[Vec]]:
    """Rank and a deterministic kernel basis.

    Each kernel vector has 1 at one free column and the pivot-column entries
    forced by back substitution; vectors are listed in free-column order.
    """
    R, pivots = rref(M)
    pivot_set = set(pivots)
    free = [c for c in range(M.cols) if c not in pivot_set]
    basis: list[Vec] = []
    for f in free:
        v = [Fraction(0)] * M.cols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -R.entries[r][f]
        basis.append(tuple(v))
    return len(pivots), basis


def solve(M: RatMatrix, b: Sequence) -> Vec | None:
    """One solution of M x = b, or None if inconsistent.

    Free variables are set to zero, which makes the answer deterministic.
    """
    if len(b) != M.rows:
        raise ValueError("rhs length mismatch")
    entries = [list(row) + [Fraction(v)] for row, v in zip(M.entries, b)]
    if M.rows == 0:
        return tuple([Fraction(0)] * M.cols)
    entries, pivots, _ = _eliminate(entries, M.cols + 1)
    if M.cols in pivots:
        return None
    x = [Fraction(0)] * M.cols
    for r, c in enumerate(pivots):
        x[c] = entries[r][M.cols]
    return tuple(x)


def det(M: RatMatrix) -> Fraction:
    """Determinant: the product of the elimination's pivots, 0 below full rank."""
    if M.rows != M.cols:
        raise ValueError("determinant needs a square matrix")
    _, pivots, values = _eliminate([list(row) for row in M.entries], M.cols)
    return prod(values, start=Fraction(1)) if len(pivots) == M.cols else Fraction(0)


# ---------------------------------------------------------------------------
# integer routines: Smith normal form of an integral RatMatrix


def _int_rows(M: RatMatrix) -> list[list[int]]:
    """Entries of M as lists of ints; raises ValueError on a non-integer entry."""
    if any(x.denominator != 1 for row in M.entries for x in row):
        raise ValueError("integer entries required")
    return [[x.numerator for x in row] for row in M.entries]


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


def integer_kernel(M: RatMatrix) -> list[tuple[int, ...]]:
    """Basis of the saturated integer kernel lattice {v : M v = 0}.

    The columns of V in U M V = D whose D-column vanishes form a basis of the
    full kernel lattice because V is unimodular.
    """
    D, _, V = smith_normal_form(M)
    v = _int_rows(V)
    return [tuple(row[j] for row in v) for j in range(M.cols)
            if all(D.entries[i][j] == 0 for i in range(M.rows))]


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


SparseRow = tuple[tuple[int, Fraction], ...]  # (column, nonzero coefficient)


def _dot(row: SparseRow, vec: Sequence) -> Fraction:
    return sum((c * vec[i] for i, c in row), Fraction(0))


@dataclass(frozen=True)
class Cohomology:
    """Cohomology at the middle of  prev --d_in--> here --d_out--> next.

    ``representatives`` are cocycles projecting to a basis of the quotient,
    chosen deterministically (first independent kernel vectors after the
    coboundary basis).  ``coordinates`` expresses any cocycle in that basis
    modulo coboundaries, through a coordinate map fixed when the cohomology
    is computed: ``_coord_rows`` give the coefficients over the
    representatives, and ``_residual_rows`` vanish exactly on the span of
    image and representatives.
    """

    dim: int
    representatives: tuple[Vec, ...]
    _space_dim: int
    _coord_rows: tuple[SparseRow, ...]
    _residual_rows: tuple[SparseRow, ...]

    def coordinates(self, vec: Sequence) -> Vec:
        """Class of a cocycle as coefficients over ``representatives``."""
        if len(vec) != self._space_dim:
            raise ValueError("vector length mismatch")
        if any(_dot(row, vec) for row in self._residual_rows):
            raise ValueError("vector is not in the span of image and representatives")
        return tuple(_dot(row, vec) for row in self._coord_rows)


def complex_cohomology(d_in: RatMatrix, d_out: RatMatrix) -> Cohomology:
    """Cohomology data at a complex position; raises ComplexError if d_out d_in != 0."""
    if d_in.rows != d_out.cols:
        raise ValueError("differential shapes do not chain")
    if d_in.cols > 0 and not (d_out @ d_in).is_zero():
        raise ComplexError("d_out composed with d_in is nonzero")
    n = d_in.rows  # dimension of the middle space
    _, kernel = rank_kernel(d_out)
    # one elimination over [d_in | kernel | I_n], pivoting only left of I_n:
    # the pivot columns are the first columns independent of those before
    # them, so the pivots inside d_in give a coboundary basis and the rest
    # the first kernel vectors that grow it to a basis of the cocycles.  The
    # I_n block ends up holding the row operations E, and E maps a vector of
    # the span to its coefficients over the pivot columns, padded with zeros
    m, width = d_in.cols, d_in.cols + len(kernel)
    stacked = [
        list(row) + [v[i] for v in kernel] + [Fraction(int(i == t)) for t in range(n)]
        for i, row in enumerate(d_in.entries)
    ]
    reduced, pivots, _ = _eliminate(stacked, width)
    reps = tuple(kernel[c - m] for c in pivots if c >= m)
    rows = [tuple((t, x) for t, x in enumerate(row[width:]) if x) for row in reduced]
    return Cohomology(
        dim=len(reps),
        representatives=reps,
        _space_dim=n,
        _coord_rows=tuple(rows[len(pivots) - len(reps) : len(pivots)]),
        _residual_rows=tuple(rows[len(pivots) :]),
    )
