"""Exact linear algebra over the rationals and the integers.

Dense matrices with ``Fraction`` entries, integer matrices with Smith normal
form, and cohomology of a two-step complex with deterministic representative
choices.  Everything here is exact: no floats ever enter, and identical inputs
produce identical outputs (pivots are chosen by fixed scan order).

Matrices act on column vectors, so a matrix with ``rows`` rows and ``cols``
columns maps length-``cols`` vectors to length-``rows`` vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
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


def _eliminate(entries: list[list[Fraction]], cols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Row reduce in place to reduced echelon form; return (rows, pivot columns).

    Pivot selection is the first nonzero entry scanning down each column, so
    the result is deterministic.
    """
    pivots: list[int] = []
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
    return entries, pivots


def rref(M: RatMatrix) -> tuple[RatMatrix, tuple[int, ...]]:
    """Reduced row echelon form together with the pivot column indices."""
    entries = [list(row) for row in M.entries]
    entries, pivots = _eliminate(entries, M.cols)
    return RatMatrix(entries, cols=M.cols), tuple(pivots)


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
    entries, pivots = _eliminate(entries, M.cols + 1)
    if M.cols in pivots:
        return None
    x = [Fraction(0)] * M.cols
    for r, c in enumerate(pivots):
        x[c] = entries[r][M.cols]
    return tuple(x)


def det(M: RatMatrix) -> Fraction:
    if M.rows != M.cols:
        raise ValueError("determinant needs a square matrix")
    n = M.rows
    entries = [list(row) for row in M.entries]
    result = Fraction(1)
    for c in range(n):
        pivot_row = None
        for i in range(c, n):
            if entries[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            entries[c], entries[pivot_row] = entries[pivot_row], entries[c]
            result = -result
        result *= entries[c][c]
        inv = 1 / entries[c][c]
        for i in range(c + 1, n):
            if entries[i][c] != 0:
                factor = entries[i][c] * inv
                entries[i] = [a - factor * b for a, b in zip(entries[i], entries[c])]
    return result


# ---------------------------------------------------------------------------
# integer matrices and Smith normal form


class IntMatrix:
    """Immutable dense integer matrix."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable[int]], cols: int | None = None):
        rows = tuple(tuple(int(x) for x in row) for row in entries)
        for row in rows:
            for x in row:
                if not isinstance(x, int):
                    raise TypeError("integer entries required")
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
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> IntMatrix:
        return cls([[int(i == j) for j in range(n)] for i in range(n)], cols=n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> IntMatrix:
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.cols, self.entries))

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.entries]}, cols={self.cols})"

    def __matmul__(self, other: IntMatrix) -> IntMatrix:
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                row.append(sum(self.entries[i][k] * other.entries[k][j] for k in range(self.cols)))
            out.append(row)
        return IntMatrix(out, cols=other.cols)

    def to_rational(self) -> RatMatrix:
        return RatMatrix(self.entries, cols=self.cols)

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))


def smith_normal_form(M: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form with transforms: returns (D, U, V) with U M V = D.

    D is diagonal with nonnegative entries satisfying d1 | d2 | ... ; U and V
    are unimodular.  Pivots are picked as the smallest nonzero absolute value
    in the remaining block, first occurrence wins, so the reduction is
    deterministic.
    """
    d = [list(row) for row in M.entries]
    nr, nc = M.rows, M.cols
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, q):
        # row_i += q * row_j
        d[i] = [a + q * b for a, b in zip(d[i], d[j])]
        u[i] = [a + q * b for a, b in zip(u[i], u[j])]

    def add_col(i, j, q):
        # col_i += q * col_j
        for row in d:
            row[i] += q * row[j]
        for row in v:
            row[i] += q * row[j]

    def negate_row(i):
        d[i] = [-a for a in d[i]]
        u[i] = [-a for a in u[i]]

    t = 0
    while t < min(nr, nc):
        # locate smallest nonzero |entry| in the trailing block
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if d[i][j] != 0 and (best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i, j = best
        if i != t:
            swap_rows(t, i)
        if j != t:
            swap_cols(t, j)
        # clear row and column t; restart whenever a remainder appears,
        # since it is strictly smaller than the current pivot
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, nr):
                if d[i][t] != 0:
                    q = d[i][t] // d[t][t]
                    add_row(i, t, -q)
                    if d[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, nc):
                if d[t][j] != 0:
                    q = d[t][j] // d[t][t]
                    add_col(j, t, -q)
                    if d[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
        # force divisibility of the trailing block by the pivot
        offender = None
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if d[i][j] % d[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(t, offender, 1)
            continue  # redo position t with the enlarged row
        if d[t][t] < 0:
            negate_row(t)
        t += 1

    D = IntMatrix(d, cols=nc)
    U = IntMatrix(u, cols=nr)
    V = IntMatrix(v, cols=nc)
    return D, U, V


def invariant_factors(M: IntMatrix) -> tuple[int, ...]:
    """Nonzero diagonal of the Smith form, in divisibility order."""
    D, _, _ = smith_normal_form(M)
    return tuple(x for x in D.diagonal() if x != 0)


def integer_kernel(M: IntMatrix) -> list[tuple[int, ...]]:
    """Basis of the saturated integer kernel lattice {v : M v = 0}.

    The columns of V in U M V = D whose D-column vanishes form a basis of the
    full kernel lattice because V is unimodular.
    """
    D, _, V = smith_normal_form(M)
    basis = []
    for j in range(M.cols):
        if all(D.entries[i][j] == 0 for i in range(M.rows)):
            basis.append(tuple(V.entries[i][j] for i in range(M.cols)))
    return basis


def solve_integer(M: IntMatrix, b: Sequence[int]) -> tuple[int, ...] | None:
    """One integer solution of M x = b, or None.

    Via U M V = D: solve D y = U b (each diagonal must divide the target,
    zero rows must meet zero), then x = V y.
    """
    if len(b) != M.rows:
        raise ValueError("rhs length mismatch")
    D, U, V = smith_normal_form(M)
    ub = [sum(U.entries[i][k] * int(b[k]) for k in range(M.rows)) for i in range(M.rows)]
    y = [0] * M.cols
    for i in range(M.rows):
        dii = D.entries[i][i] if i < M.cols else 0
        if dii == 0:
            if ub[i] != 0:
                return None
        else:
            if ub[i] % dii != 0:
                return None
            y[i] = ub[i] // dii
    return tuple(sum(V.entries[i][k] * y[k] for k in range(M.cols)) for i in range(M.cols))


def solve_mod2(rows: list[int], rhs: list[int], nvars: int) -> list[int] | None:
    """Solve a GF(2) linear system; rows are bitmasks over ``nvars`` variables.

    Returns one solution as a 0/1 list (free variables zero), or None.
    """
    system = [(rows[i], rhs[i] & 1) for i in range(len(rows))]
    pivots: list[tuple[int, int, int]] = []  # (bit, row, rhs)
    for row, b in system:
        for bit, prow, pb in pivots:
            if row >> bit & 1:
                row ^= prow
                b ^= pb
        if row == 0:
            if b:
                return None
            continue
        bit = row.bit_length() - 1
        # keep pivot rows mutually reduced so each holds only its own pivot
        for idx, (pbit, prow, pb) in enumerate(pivots):
            if prow >> bit & 1:
                pivots[idx] = (pbit, prow ^ row, pb ^ b)
        pivots.append((bit, row, b))
    # non-pivot variables are zero, so each pivot variable equals its rhs
    x = [0] * nvars
    for bit, _, b in pivots:
        x[bit] = b
    return x


# ---------------------------------------------------------------------------
# cohomology of a two-step complex


@dataclass(frozen=True)
class Cohomology:
    """Cohomology at the middle of  prev --d_in--> here --d_out--> next.

    ``representatives`` are cocycles projecting to a basis of the quotient,
    chosen deterministically (first independent kernel vectors after the
    coboundary basis).  ``coordinates`` expresses any cocycle in that basis
    modulo coboundaries.
    """

    dim: int
    representatives: tuple[Vec, ...]
    _space_dim: int
    _solver: RatMatrix
    _image_dim: int

    def coordinates(self, vec: Sequence) -> Vec:
        """Class of a cocycle as coefficients over ``representatives``."""
        if len(vec) != self._space_dim:
            raise ValueError("vector length mismatch")
        if self.dim == 0 and self._image_dim == 0:
            if any(Fraction(x) != 0 for x in vec):
                raise ValueError("nonzero vector in a zero space")
            return tuple()
        x = solve(self._solver, vec)
        if x is None:
            raise ValueError("vector is not in the span of image and representatives")
        return tuple(x[self._image_dim :])


def complex_cohomology(d_in: RatMatrix, d_out: RatMatrix) -> Cohomology:
    """Cohomology data at a complex position; raises ComplexError if d_out d_in != 0."""
    if d_in.rows != d_out.cols:
        raise ValueError("differential shapes do not chain")
    if d_in.cols > 0 and not (d_out @ d_in).is_zero():
        raise ComplexError("d_out composed with d_in is nonzero")
    n = d_in.rows  # dimension of the middle space
    _, kernel = rank_kernel(d_out)
    _, in_pivots = rref(d_in)
    image = [d_in.column(c) for c in in_pivots]
    # grow the coboundary basis to a basis of the cocycles, scanning the
    # deterministic kernel basis in order
    span = [list(v) for v in image]
    span, _ = _eliminate(span, n) if span else (span, [])
    reps: list[Vec] = []
    reduced = [row for row in span if any(x != 0 for x in row)]
    for v in kernel:
        candidate = reduced + [list(v)]
        candidate, piv = _eliminate([list(r) for r in candidate], n)
        nonzero = [row for row in candidate if any(x != 0 for x in row)]
        if len(nonzero) > len(reduced):
            reps.append(v)
            reduced = nonzero
    solver_cols = [list(v) for v in image] + [list(v) for v in reps]
    solver = RatMatrix(
        [[solver_cols[j][i] for j in range(len(solver_cols))] for i in range(n)], cols=len(solver_cols)
    ) if n > 0 else RatMatrix([], cols=0)
    return Cohomology(
        dim=len(reps),
        representatives=tuple(reps),
        _space_dim=n,
        _solver=solver,
        _image_dim=len(image),
    )
