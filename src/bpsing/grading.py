"""Grading groups for weighted polynomial rings with one relation per variable.

For exponents p = (p_1, ..., p_n), all at least 2, the grading group L(p) is
the abelian group on generators x_1, ..., x_n, c subject to

    p_1 x_1 = p_2 x_2 = ... = p_n x_n = c.

Every element has a unique normal form  sum a_i x_i + b c  with
0 <= a_i < p_i, and a homomorphism z : L(p) -> Z sends x_i to ell / p_i and
c to ell, where ell = lcm(p_1, ..., p_n).
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, NamedTuple, Sequence

from .exactlin import RatMatrix, invariant_factors


def exponent_seq(p: Iterable[int]) -> tuple[int, ...]:
    """Validate an exponent sequence: nonempty, every entry an integer >= 2."""
    seq = tuple(p)
    if not seq:
        raise ValueError("exponent sequence must be nonempty")
    for x in seq:
        if not isinstance(x, int) or isinstance(x, bool) or x < 2:
            raise ValueError(f"exponents must be integers >= 2, got {x!r}")
    return seq


def check_limit(what: str, count: int, limit: int) -> None:
    """Refuse work of size ``count``, named by ``what``, above ``limit`` before doing it."""
    if count > limit:
        raise ValueError(f"{what} {count} exceeds the limit {limit}")


class LDegree(NamedTuple):
    """Normal form of a grading-group element: a_i coefficients and the c coefficient."""

    a: tuple[int, ...]
    b: int

    def raw(self) -> tuple[int, ...]:
        """Coefficients on (x_1, ..., x_n, c) as a plain tuple."""
        return self.a + (self.b,)


class FiniteAbelianGroup(NamedTuple("FiniteAbelianGroup", [("factors", tuple[int, ...])])):
    """Invariant-factor presentation Z/d_1 x ... x Z/d_k with d_1 | d_2 | ... and d_i > 1."""

    __slots__ = ()

    def __new__(cls, factors: tuple[int, ...]):
        for i, d in enumerate(factors):
            if d < 2:
                raise ValueError("invariant factors must be > 1")
            if i > 0 and d % factors[i - 1] != 0:
                raise ValueError("invariant factors must form a divisibility chain")
        return super().__new__(cls, factors)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)  # so that ``_replace`` validates too

    def __str__(self) -> str:
        if not self.factors:
            return "0"
        return " x ".join(f"Z/{d}" for d in self.factors)


# largest variable count ``LGroup.torsion_subgroup`` takes to the dense Smith
# form of its n x (n + 1) relation matrix, whose cost grows about as n^2.8:
# 256 twos take 1.2 s and the exponents 2..257 5.4 s, while 1000 twos took 62 s
MAX_TORSION_VARIABLES = 2**8


class LGroup:
    """The grading group L(p) with its normal form and integer degree map.

    A generator x_i is normalized once, the first time ``x(i)`` asks for it,
    and kept: building all n of them up front would cost n^2 entries, which
    a ring of many variables pays before its window is refused.
    """

    __slots__ = ("p", "n", "ell", "weights", "_x")

    def __init__(self, p: Iterable[int]):
        self.p = exponent_seq(p)
        self.n = len(self.p)
        self.ell = lcm(*self.p)
        self.weights = tuple(self.ell // pi for pi in self.p)
        self._x: dict[int, LDegree] = {}

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
        g = self._x.get(i)
        if g is None:
            if not 1 <= i <= self.n:
                raise ValueError("generator index out of range")
            g = self._x[i] = self.normalize(tuple(int(j == i - 1) for j in range(self.n)) + (0,))
        return g

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
        """Torsion of L, read off the Smith form of the relation matrix.

        More than MAX_TORSION_VARIABLES variables are refused before the
        matrix is built.
        """
        check_limit("torsion subgroup variable count", self.n, MAX_TORSION_VARIABLES)
        factors = invariant_factors(self.relation_matrix())
        return FiniteAbelianGroup(tuple(d for d in factors if d > 1))

    # -- positivity ----------------------------------------------------

    def is_in_monoid(self, d: LDegree) -> bool:
        """Whether the normal form d is a nonnegative integer combination of the x_i.

        Exactly when its c coefficient is nonnegative: sum m_i x_i with m >= 0
        has the normal form (m_i mod p_i, sum m_i // p_i), and (a, b) with
        b >= 0 is the normal form of (a_1 + b p_1) x_1 + a_2 x_2 + ... + a_n x_n.
        """
        return d.b >= 0


class CyReport(NamedTuple):
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

    The torus K = {(t_1, ..., t_n) : t_1^{p_1} = ... = t_n^{p_n}} is
    Hom(L, G_m), and it receives the one-parameter subgroup
    t -> (t^{w_1}, ..., t^{w_n}) with w_i = ell / p_i.  That subgroup is dual
    to the degree map z : L -> Z, so K modulo it is dual to ker z, which is
    the torsion of L.  A finite abelian group is isomorphic to its dual, so
    the cokernel is L's torsion subgroup.
    """
    return LGroup(p).torsion_subgroup()
