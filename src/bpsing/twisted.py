"""Cones over a directed graded category and their hom complexes.

The one twisted object the tower builds is the cone of a degree-0 basis
morphism f.  Component 0 is f's source, shifted up by one; component 1 is
f's target, unshifted; the connecting map delta is f, from component 0 to
component 1.  With a single term, delta squares to zero.  Between two cones
the morphism spaces of the base category assemble into a cochain complex: a
component morphism g from component a of X to component b of Y sits in total
degree |g| + b - a, and

    d(phi) = f_Y . phi - (-1)^{|phi|} phi . f_X,

where f_Y postcomposes the entries that end in component 0 of Y and f_X
precomposes the entries that start in component 1 of X.  Composition of
cochains is plain componentwise composition; all signs of the construction
live in the differential.  The base category must have zero differential,
which every category built in this package does.

``hom_complex`` builds the complex between two cones as a ``HomComplex``
record; ``cohomology`` gives exactlin's ``Cohomology`` per basis degree.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .dgcat import DirectedGradedCategory, MorRef
from .exactlin import Cohomology, ComplexError, RatMatrix, SparseRow, complex_cohomology

Entry = tuple[int, int, int]  # (source component, target component, basis index)


class Cone(NamedTuple):
    """Cone of the degree-0 basis morphism f: f's source with shift 1, then
    f's target with shift 0, joined by f.  Built by ``cone``, which checks f."""

    category: DirectedGradedCategory
    f: MorRef

    def _oidx(self, a: int) -> int:
        """The object index of component a."""
        return self.f.tgt if a else self.f.src


def cone(C: DirectedGradedCategory, f: MorRef) -> Cone:
    """Cone of a degree-0 basis morphism: source shifted up, connecting map f."""
    if not isinstance(f, MorRef):
        raise TypeError("cone needs a basis morphism reference")
    if not 0 <= f.idx < len(C.hom(f.src, f.tgt)):
        raise ValueError("cone of a missing morphism")
    if C.degree(f) != 0:
        raise ValueError("cone requires a degree-0 morphism")
    return Cone(C, f)


class HomComplex(NamedTuple):
    """The hom cochain complex between two cones, built by ``hom_complex``.

    Its tables are keyed by the degrees with a nonempty basis: ``basis``
    holds each degree's entries (``position`` maps one to its degree and
    index), ``differentials`` the map to the next degree, ``cohomology`` the
    cohomology.  It keeps no cones, only components and basis indices, so
    one complex serves every pair of cones that would build the same tables.
    """

    basis: dict[int, tuple[Entry, ...]]
    position: dict[Entry, tuple[int, int]]
    differentials: dict[int, RatMatrix]
    cohomology: dict[int, Cohomology]

    def dim(self, d: int) -> int:
        return len(self.basis.get(d, ()))

    def differential(self, d: int) -> RatMatrix:
        """The differential from degree d, a zero map where d has no basis."""
        got = self.differentials.get(d)
        if got is not None:
            return got
        return RatMatrix.zeros(self.dim(d + 1), self.dim(d))


def _differential(H: HomComplex, X: Cone, Y: Cone, d: int) -> RatMatrix:
    """The differential of H from degree d, read from the cones' category."""
    compose = X.category.compose
    cols = H.dim(d)
    entries = [[0] * cols for _ in range(H.dim(d + 1))]
    sign = 1 if d % 2 else -1

    def add(col, s, t, coeff, composite):
        """Add coeff * composite, a morphism between components s and t, to column col."""
        for ridx, rcoeff in composite.items():
            dd, pos = H.position[(s, t, ridx)]
            if dd != d + 1:
                raise ComplexError("differential is not homogeneous")
            entries[pos][col] += coeff * rcoeff

    for col, (a, b, idx) in enumerate(H.basis.get(d, ())):
        m = MorRef(X._oidx(a), Y._oidx(b), idx)
        # postcompose with Y's connecting map, then precompose with X's
        # under the Koszul sign on the cochain degree
        if b == 0:
            add(col, a, 1, 1, compose(Y.f, m))
        if a == 1:
            add(col, 0, b, sign, compose(m, X.f))
    return RatMatrix(entries, cols=cols)


def hom_complex(X: Cone, Y: Cone) -> HomComplex:
    """The hom complex from cone X to cone Y.  Every differential is built
    before the cohomology, which checks d . d = 0 in every degree, so a
    differential that does not square to zero raises ComplexError here."""
    if X.category is not Y.category and X.category != Y.category:
        raise ValueError("cones live in different categories")
    cat = X.category
    by_degree: dict[int, list[Entry]] = {}
    for a in (0, 1):
        for b in (0, 1):
            for idx, deg in enumerate(cat.hom(X._oidx(a), Y._oidx(b))):
                by_degree.setdefault(deg + b - a, []).append((a, b, idx))
    basis = {d: tuple(v) for d, v in sorted(by_degree.items())}
    position = {elt: (d, i) for d, elts in basis.items() for i, elt in enumerate(elts)}
    H = HomComplex(basis, position, {}, {})
    H = H._replace(differentials={d: _differential(H, X, Y, d) for d in basis})
    return H._replace(cohomology=cohomology(H))


def cohomology(H: HomComplex) -> dict[int, Cohomology]:
    """The cohomology of H in each degree of its basis, with fixed representatives."""
    return {d: complex_cohomology(H.differential(d - 1), H.differential(d)) for d in H.basis}


# (degree, coefficients over representatives), each an int when integral
Class = tuple[int, tuple[int | Fraction, ...]]


def identity_class(h_xx: HomComplex) -> Class:
    """The class of the identity cocycle in End(X)."""
    vec = [0] * h_xx.dim(0)
    for a in (0, 1):
        d, pos = h_xx.position[(a, a, 0)]
        if d != 0:
            raise ValueError("identity entry off degree zero")
        vec[pos] += 1
    return (0, tuple(h_xx.cohomology[0].coordinates(vec)))


def _combine(
    coeffs: Sequence[int | Fraction],
    reps: Sequence[SparseRow],
) -> Iterable[tuple[int, int | Fraction]]:
    """The terms of sum(coeffs[t] * reps[t]), none of them zero: zero
    coefficients are skipped and sparse rows hold no zero entry.

    A basis class, one coefficient 1 and the rest 0, is its representative.
    """
    terms = [(coeff, rep) for coeff, rep in zip(coeffs, reps) if coeff]
    if len(terms) == 1 and terms[0][0] == 1:
        return terms[0][1]
    return [(i, coeff * x) for coeff, rep in terms for i, x in rep]


def compose_classes(
    X: Cone, Y: Cone, Z: Cone,
    h_yz: HomComplex, h_xy: HomComplex, h_xz: HomComplex, alpha: Class, beta: Class,
) -> Class:
    """Compose cohomology classes via representatives and project the result.

    ``alpha`` lives in H(hom(Y, Z)), ``beta`` in H(hom(X, Y)); the result is
    expressed over the chosen representatives of H(hom(X, Z)).  The three
    complexes may have been built from other cones with the same tables:
    their entries are named as morphisms through X, Y and Z.  The
    representatives are composed componentwise, with no extra signs: only
    terms whose middle components agree meet.  The composite is checked
    once, by the coordinate map: a vector that is no cocycle raises
    ComplexError there.  The representatives are sparse rows, so the sums
    run over their nonzero entries only.
    """
    da, ca = alpha
    db, cb = beta
    reps_a = h_yz.cohomology[da].representatives
    reps_b = h_xy.cohomology[db].representatives
    if len(ca) != len(reps_a) or len(cb) != len(reps_b):
        raise ValueError("class coefficients do not match representative count")
    comp = X.category._comp  # read directly: the table is immutable
    total = da + db
    basis_xy = h_xy.basis[db]
    basis_yz = h_yz.basis[da]
    position = h_xz.position
    # beta's nonzero terms grouped by their middle component
    by_middle: dict[int, list[tuple[int, MorRef, int | Fraction]]] = {}
    for i, v in _combine(cb, reps_b):
        a, b, k1 = basis_xy[i]
        by_middle.setdefault(b, []).append((a, MorRef(X._oidx(a), Y._oidx(b), k1), v))
    vec: dict[int, int | Fraction] = {}
    for j, w in _combine(ca, reps_a):
        b, c, k2 = basis_yz[j]
        firsts = by_middle.get(b)
        if not firsts:
            continue
        gref = MorRef(Y._oidx(b), Z._oidx(c), k2)
        for a, fref, v in firsts:
            result = comp.get((gref, fref))
            if not result:
                continue
            wv = w * v
            for ridx, rcoeff in result.items():
                dd, pos = position[(a, c, ridx)]
                if dd != total:
                    raise ComplexError("composition is not degree additive")
                vec[pos] = vec.get(pos, 0) + wv * rcoeff
    # no term reaches a degree without basis: it fails the check above first
    if total not in h_xz.cohomology:
        return (total, ())
    dense = [0] * h_xz.dim(total)
    for pos, v in vec.items():
        dense[pos] = v
    return (total, tuple(h_xz.cohomology[total].coordinates(dense)))
