"""Grading groups for weighted polynomial rings with one relation per variable.

For exponents p = (p_1, ..., p_n), all at least 2, the grading group L(p) is
the abelian group on generators x_1, ..., x_n, c subject to

    p_1 x_1 = p_2 x_2 = ... = p_n x_n = c.

Every element has a unique normal form  sum a_i x_i + b c  with
0 <= a_i < p_i, and a homomorphism z : L(p) -> Z sends x_i to ell / p_i and
c to ell, where ell = lcm(p_1, ..., p_n).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm, prod
from typing import Iterable, Sequence

from .exactlin import RatMatrix, integer_kernel, invariant_factors, solve


def exponent_seq(p: Iterable[int]) -> tuple[int, ...]:
    """Validate an exponent sequence: nonempty, every entry an integer >= 2."""
    seq = tuple(p)
    if not seq:
        raise ValueError("exponent sequence must be nonempty")
    for x in seq:
        if not isinstance(x, int) or isinstance(x, bool) or x < 2:
            raise ValueError(f"exponents must be integers >= 2, got {x!r}")
    return seq


@dataclass(frozen=True, order=True)
class LDegree:
    """Normal form of a grading-group element: a_i coefficients and the c coefficient."""

    a: tuple[int, ...]
    b: int

    def raw(self) -> tuple[int, ...]:
        """Coefficients on (x_1, ..., x_n, c) as a plain tuple."""
        return self.a + (self.b,)


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Invariant-factor presentation Z/d_1 x ... x Z/d_k with d_1 | d_2 | ... and d_i > 1."""

    factors: tuple[int, ...]

    def __post_init__(self):
        for i, d in enumerate(self.factors):
            if d < 2:
                raise ValueError("invariant factors must be > 1")
            if i > 0 and d % self.factors[i - 1] != 0:
                raise ValueError("invariant factors must form a divisibility chain")

    @property
    def order(self) -> int:
        return prod(self.factors) if self.factors else 1

    def __str__(self) -> str:
        if not self.factors:
            return "0"
        return " x ".join(f"Z/{d}" for d in self.factors)


class LGroup:
    """The grading group L(p) with its normal form and integer degree map."""

    __slots__ = ("p", "n", "ell", "weights")

    def __init__(self, p: Iterable[int]):
        self.p = exponent_seq(p)
        self.n = len(self.p)
        self.ell = lcm(*self.p)
        self.weights = tuple(self.ell // pi for pi in self.p)

    def __repr__(self) -> str:
        return f"LGroup({list(self.p)})"

    def __eq__(self, other) -> bool:
        return isinstance(other, LGroup) and self.p == other.p

    def __hash__(self):
        return hash(self.p)

    # -- normal form ----------------------------------------------------

    def normalize(self, raw: Sequence[int]) -> LDegree:
        """Normal form of integer coefficients on (x_1, ..., x_n, c).

        Each relation p_i x_i = c lets us move p_i copies of x_i onto c, so
        a_i = raw_i mod p_i and the quotients accumulate on the c coefficient.
        """
        if len(raw) != self.n + 1:
            raise ValueError(f"expected {self.n + 1} coefficients")
        a = []
        b = int(raw[-1])
        for ri, pi in zip(raw[:-1], self.p):
            ri = int(ri)
            a.append(ri % pi)
            b += ri // pi
        return LDegree(tuple(a), b)

    def zero(self) -> LDegree:
        return LDegree((0,) * self.n, 0)

    def x(self, i: int) -> LDegree:
        """The generator x_i, 1-indexed."""
        if not 1 <= i <= self.n:
            raise ValueError("generator index out of range")
        return self.normalize(tuple(int(j == i - 1) for j in range(self.n)) + (0,))

    def c(self) -> LDegree:
        return LDegree((0,) * self.n, 1)

    def add(self, d1: LDegree, d2: LDegree) -> LDegree:
        """Sum of two normal forms: each a_i sum lies in [0, 2 p_i), so one carry onto c."""
        a = []
        b = d1.b + d2.b
        for u, v, pi in zip(d1.a, d2.a, self.p):
            s = u + v
            if s >= pi:
                s -= pi
                b += 1
            a.append(s)
        return LDegree(tuple(a), b)

    def sub(self, d1: LDegree, d2: LDegree) -> LDegree:
        """Difference of two normal forms: each a_i lies in (-p_i, p_i), so one borrow from c."""
        a = []
        b = d1.b - d2.b
        for u, v, pi in zip(d1.a, d2.a, self.p):
            s = u - v
            if s < 0:
                s += pi
                b -= 1
            a.append(s)
        return LDegree(tuple(a), b)

    def neg(self, d: LDegree) -> LDegree:
        return self.normalize(tuple(-u for u in d.raw()))

    def scale(self, k: int, d: LDegree) -> LDegree:
        return self.normalize(tuple(k * u for u in d.raw()))

    # -- degree map and structure --------------------------------------

    def z_degree(self, d: LDegree) -> int:
        """Image under z : L -> Z with z(x_i) = ell / p_i and z(c) = ell."""
        return sum(ai * wi for ai, wi in zip(d.a, self.weights)) + d.b * self.ell

    def relation_matrix(self) -> RatMatrix:
        """Rows p_i e_i - e_c presenting L as a quotient of Z^(n+1)."""
        rows = []
        for i, pi in enumerate(self.p):
            row = [0] * (self.n + 1)
            row[i] = pi
            row[-1] = -1
            rows.append(row)
        return RatMatrix(rows, cols=self.n + 1)

    def torsion_subgroup(self) -> FiniteAbelianGroup:
        """Torsion of L, read off the Smith form of the relation matrix."""
        factors = invariant_factors(self.relation_matrix())
        return FiniteAbelianGroup(tuple(d for d in factors if d > 1))

    # -- positivity ----------------------------------------------------

    def is_in_monoid(self, d: LDegree) -> bool:
        """Whether d is a nonnegative integer combination of the x_i.

        Searches exponent vectors m >= 0 with matching z-degree; the z-degree
        bound makes the search finite.
        """
        target_z = self.z_degree(d)
        if target_z < 0:
            return False
        for m in self._monomial_exponents(target_z):
            if self.normalize(m + (0,)) == d:
                return True
        return False

    def _monomial_exponents(self, target_z: int):
        """All m >= 0 with sum m_i * z(x_i) = target_z, in lexicographic order."""
        weights = self.weights

        def rec(i: int, remaining: int, prefix: tuple[int, ...]):
            if i == self.n:
                if remaining == 0:
                    yield prefix
                return
            w = weights[i]
            if i == self.n - 1:
                if remaining % w == 0:
                    yield prefix + (remaining // w,)
                return
            for mi in range(remaining // w + 1):
                yield from rec(i + 1, remaining - mi * w, prefix + (mi,))

        yield from rec(0, target_z, ())


@dataclass(frozen=True)
class CyReport:
    """Weight data for the Calabi-Yau style degree check."""

    holds: bool
    ell: int
    weights: tuple[int, ...]


def cy_check(p: Iterable[int]) -> CyReport:
    """Whether the weights of the defining polynomial sum to the total degree.

    In z-degrees the polynomial has degree ell and the variables have degrees
    ell / p_i, so the condition is sum ell / p_i = ell.
    """
    L = LGroup(p)
    return CyReport(holds=sum(L.weights) == L.ell, ell=L.ell, weights=L.weights)


def orlov_group(p: Iterable[int]) -> FiniteAbelianGroup:
    """Cokernel of the map of diagonal tori attached to the exponents.

    The torus K = {(t_1, ..., t_n) : t_1^{p_1} = ... = t_n^{p_n}} receives the
    one-parameter subgroup t -> (t^{w_1}, ..., t^{w_n}) with w_i = ell / p_i.
    Dually, the character lattice of K is Z^n modulo the rows
    p_i e_i - p_{i+1} e_{i+1}, and the cokernel of the subgroup is the
    quotient of the kernel of (w_1, ..., w_n) by those rows.  The quotient is
    read off a Smith normal form; a zero invariant factor would mean an
    infinite cokernel and raises.
    """
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
