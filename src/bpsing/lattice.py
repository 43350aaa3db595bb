"""Milnor lattices of one-variable powers and their tensor products.

For a single exponent p the lattice is the A_{p-1} root lattice: basis
C_1, ..., C_{p-1} with (C_i, C_i) = 2, (C_i, C_j) = -1 for adjacent indices
and 0 otherwise.  For several exponents the basis is indexed by I_p in
lexicographic order and, for i < j,

    (C_i, C_j) = prod_k (C_{i_k}, C_{j_k})   if i_k <= j_k for every k,
                 0                           otherwise.

The form below the diagonal is antisymmetric when the number of variables is
even (with zero diagonal) and symmetric with diagonal 2 when odd.  The same
data can be produced from the Euler matrix of the tensor category by
(anti)symmetrization, and ``compare`` reports where the two routes differ.

``st_gram`` lists each factor's nonzero entries (i, j, value) with i <= j,
at most two per row since A_{p_k-1} is tridiagonal, from ``one_var_form``;
their Kronecker product is every nonzero comparable product above the
diagonal, written with its mirror into rows of zeros.  It never reads the
tensor category, so the two routes stay independent.  Both Gram builders
refuse a rank prod(p_k - 1) above ``dgcat.MAX_RANK``, the object limit of
:mod:`bpsing.dgcat` read when they run, before allocating anything:
``st_gram`` itself and ``euler_gram`` through its ``tensor_bp`` call.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, NamedTuple

from . import dgcat
from .dgcat import euler_matrix, tensor_bp
from .exactlin import RatMatrix, det
from .grading import check_limit, exponent_seq


class BilinearLattice(NamedTuple):
    """Integer Gram matrix over a labeled basis."""

    labels: tuple
    entries: tuple[tuple[int, ...], ...]
    symmetric: bool

    def determinant(self) -> int:
        return det(RatMatrix(self.entries))


def one_var_form(p: int, i: int, j: int) -> int:
    """Intersection number (C_i, C_j) in the A_{p-1} lattice."""
    exponent_seq((p,))
    if not (1 <= i <= p - 1 and 1 <= j <= p - 1):
        raise ValueError("basis index out of range")
    if i == j:
        return 2
    if abs(i - j) == 1:
        return -1
    return 0


def index_tuples(p: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The index set I_p in lexicographic order."""
    return list(itertools.product(*(range(1, pi) for pi in p)))


def st_gram(p: Iterable[int]) -> BilinearLattice:
    """Gram matrix of the product lattice on the distinguished basis."""
    p = exponent_seq(p)
    check_limit("lattice rank prod(p_i - 1) =", math.prod(pi - 1 for pi in p), dgcat.MAX_RANK)
    labels = index_tuples(p)
    odd = len(p) % 2 == 1
    # (a, b, value) for each nonzero comparable product with a <= b: each
    # factor contributes its (C_i, C_i) and (C_i, C_{i+1})
    upper = [(0, 0, 1)]
    for pk in p:
        m = pk - 1
        table = [(i, j, one_var_form(pk, i, j)) for i in range(1, pk) for j in (i, i + 1) if j < pk]
        upper = [(a * m + i - 1, b * m + j - 1, x * t) for a, b, x in upper for i, j, t in table]
    rows = [[0] * len(labels) for _ in labels]
    for a, b, x in upper:
        rows[a][b] = x
        rows[b][a] = x if odd else -x
    for a, row in enumerate(rows):
        row[a] = 2 if odd else 0
    return BilinearLattice(tuple(labels), tuple(map(tuple, rows)), symmetric=odd)


def euler_gram(p: Iterable[int], orientation: str = "E-Et") -> BilinearLattice:
    """(Anti)symmetrized Euler matrix of the tensor category on the same basis.

    With an odd variable count the form is E + Et regardless of orientation;
    with an even count it is E - Et or Et - E according to ``orientation``.
    """
    if orientation not in ("E-Et", "Et-E"):
        raise ValueError("orientation must be 'E-Et' or 'Et-E'")
    p = exponent_seq(p)
    C = tensor_bp(p)
    E = euler_matrix(C)
    odd = len(p) % 2 == 1
    # sign * E + mirror * Et, one nonzero E[a][b] at a time
    sign = -1 if not odd and orientation == "Et-E" else 1
    mirror = sign if odd else -sign
    rows = [[0] * len(E) for _ in E]
    for a, e_row in enumerate(E):
        for b in itertools.compress(range(len(e_row)), e_row):
            rows[a][b] += sign * e_row[b]
            rows[b][a] += mirror * e_row[b]
    # drop E and turn each row into its tuple in place, so that no more than
    # the rows and one copy of a row outlive the mirror
    del E
    for a, row in enumerate(rows):
        rows[a] = tuple(row)
    return BilinearLattice(C.objects, tuple(rows), symmetric=odd)


class LatticeComparison(NamedTuple):
    """Entrywise comparison of the product form with the Euler form."""

    st: BilinearLattice
    euler: BilinearLattice
    disagreements: tuple[tuple[tuple, tuple, int, int], ...]

    @property
    def agree(self) -> bool:
        return not self.disagreements


def compare(p: Iterable[int], orientation: str = "E-Et") -> LatticeComparison:
    """List every upper-triangle entry (diagonal included) where the forms differ."""
    p = exponent_seq(p)
    s = st_gram(p)
    e = euler_gram(p, orientation)
    labels = s.labels
    bad = []
    for a, (s_row, e_row) in enumerate(zip(s.entries, e.entries)):
        for b in range(a, len(labels)):
            if s_row[b] != e_row[b]:
                bad.append((labels[a], labels[b], s_row[b], e_row[b]))
    return LatticeComparison(st=s, euler=e, disagreements=tuple(bad))
