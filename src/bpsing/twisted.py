"""Twisted complexes over a directed graded category and their hom complexes.

A twisted object is a finite list of (object, shift) components with a
strictly lower triangular degree-1 connecting map delta satisfying
delta . delta = 0.  Between two twisted objects the morphism spaces of the
base category assemble into a cochain complex: a component morphism g from
(X_a, shift s) to (Y_b, shift t) sits in total degree |g| + s - t, and

    d(phi) = delta_Y . phi - (-1)^{|phi|} phi . delta_X.

Composition of cochains is plain componentwise composition; all signs of the
construction live in the differential.  The base category must have zero
differential, which every category built in this package does.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .dgcat import DirectedGradedCategory, MorRef
from .exactlin import Cohomology, ComplexError, RatMatrix, SparseRow, Vec, complex_cohomology, exact

Entry = tuple[int, int, int]  # (source component, target component, basis index)


@dataclass(frozen=True)
class TwistedObject:
    """Components with shifts plus a strictly triangular Maurer-Cartan delta."""

    category: DirectedGradedCategory
    components: tuple[tuple[object, int], ...]
    delta: Mapping[tuple[int, int], Mapping[int, int | Fraction]]

    def __post_init__(self):
        if not self.components:
            raise ValueError("a twisted object needs at least one component")
        cat = self.category
        for label, shift in self.components:
            cat.object_index(label)  # raises KeyError on unknown labels
            if not isinstance(shift, int):
                raise ValueError("shifts must be integers")
        clean: dict[tuple[int, int], dict[int, int | Fraction]] = {}
        for (a, b), entry in self.delta.items():
            if not (0 <= a < b < len(self.components)):
                raise ValueError("delta must be strictly triangular")
            basis = cat.hom(self._oidx(a), self._oidx(b))
            cleaned = {int(k): c for k, v in entry.items() if (c := exact(v))}
            for idx, _ in cleaned.items():
                if not 0 <= idx < len(basis):
                    raise ValueError("delta references a missing basis morphism")
                total = basis[idx] + self.components[a][1] - self.components[b][1]
                if total != 1:
                    raise ValueError(f"delta entry has total degree {total}, expected 1")
            if cleaned:
                clean[(a, b)] = cleaned
        object.__setattr__(self, "delta", clean)
        self._check_square_zero()

    def _oidx(self, a: int) -> int:
        return self.category.object_index(self.components[a][0])

    def _check_square_zero(self):
        cat = self.category
        m = len(self.components)
        for a in range(m):
            for c in range(a + 2, m):
                acc: dict[int, int | Fraction] = {}
                for b in range(a + 1, c):
                    first = self.delta.get((a, b))
                    second = self.delta.get((b, c))
                    if not first or not second:
                        continue
                    for k1, v1 in first.items():
                        f = MorRef(self._oidx(a), self._oidx(b), k1)
                        for k2, v2 in second.items():
                            g = MorRef(self._oidx(b), self._oidx(c), k2)
                            for ridx, rv in cat.compose(g, f).items():
                                acc[ridx] = acc.get(ridx, 0) + v1 * v2 * rv
                if any(v != 0 for v in acc.values()):
                    raise ValueError(f"delta squared is nonzero between components {a} and {c}")

    def shift_of(self, a: int) -> int:
        return self.components[a][1]


def single(C: DirectedGradedCategory, label, shift: int = 0) -> TwistedObject:
    """A plain object viewed as a one-component twisted object."""
    return TwistedObject(C, ((label, shift),), {})


def cone(C: DirectedGradedCategory, f: MorRef) -> TwistedObject:
    """Cone of a degree-0 basis morphism: source shifted up, connecting map f."""
    if not isinstance(f, MorRef):
        raise TypeError("cone needs a basis morphism reference")
    basis = C.hom(f.src, f.tgt)
    if not 0 <= f.idx < len(basis):
        raise ValueError("cone of a missing morphism")
    if C.degree(f) != 0:
        raise ValueError("cone requires a degree-0 morphism")
    components = ((C.objects[f.src], 1), (C.objects[f.tgt], 0))
    return TwistedObject(C, components, {(0, 1): {f.idx: 1}})


class HomComplex:
    """The hom cochain complex between two twisted objects, with its cohomology.

    Computing the cohomology checks d . d = 0 in every degree, so a
    differential that does not square to zero raises ComplexError here.
    """

    __slots__ = ("X", "Y", "basis", "position", "_diff", "cohomology")

    def __init__(self, X: TwistedObject, Y: TwistedObject):
        if X.category is not Y.category and X.category != Y.category:
            raise ValueError("twisted objects live in different categories")
        self.X = X
        self.Y = Y
        cat = X.category
        by_degree: dict[int, list[Entry]] = {}
        for a in range(len(X.components)):
            ia = X._oidx(a)
            sa = X.shift_of(a)
            for b in range(len(Y.components)):
                jb = Y._oidx(b)
                tb = Y.shift_of(b)
                for idx, deg in enumerate(cat.hom(ia, jb)):
                    by_degree.setdefault(deg + sa - tb, []).append((a, b, idx))
        self.basis = {d: tuple(v) for d, v in sorted(by_degree.items())}
        self.position = {
            elt: (d, i) for d, elts in self.basis.items() for i, elt in enumerate(elts)
        }
        self._diff: dict[int, RatMatrix] = {}
        for d in self.basis:
            self._diff[d] = self._build_differential(d)
        self.cohomology = cohomology(self)

    def degrees(self) -> tuple[int, ...]:
        return tuple(self.basis)

    def dim(self, d: int) -> int:
        return len(self.basis.get(d, ()))

    def dims(self) -> dict[int, int]:
        return {d: len(v) for d, v in self.basis.items()}

    def differential(self, d: int) -> RatMatrix:
        got = self._diff.get(d)
        if got is not None:
            return got
        return RatMatrix.zeros(self.dim(d + 1), self.dim(d))

    def _build_differential(self, d: int) -> RatMatrix:
        X, Y = self.X, self.Y
        compose = X.category.compose
        cols = self.dim(d)
        entries = [[0] * cols for _ in range(self.dim(d + 1))]
        sign = 1 if d % 2 else -1

        def add(col, s, t, coeff, composite):
            """Add coeff * composite, a morphism between components s and t, to column col."""
            for ridx, rcoeff in composite.items():
                dd, pos = self.position[(s, t, ridx)]
                if dd != d + 1:
                    raise ComplexError("differential is not homogeneous")
                entries[pos][col] += coeff * rcoeff

        for col, (a, b, idx) in enumerate(self.basis.get(d, ())):
            m = MorRef(X._oidx(a), Y._oidx(b), idx)
            # postcompose with delta_Y, then precompose with delta_X under the
            # Koszul sign on the cochain degree
            for (b1, b2), entry in Y.delta.items():
                if b1 == b:
                    for k, c in entry.items():
                        add(col, a, b2, c, compose(MorRef(Y._oidx(b), Y._oidx(b2), k), m))
            for (a0, a1), entry in X.delta.items():
                if a1 == a:
                    for k, c in entry.items():
                        add(col, a0, b, sign * c, compose(m, MorRef(X._oidx(a0), X._oidx(a), k)))
        return RatMatrix(entries, cols=cols)


def hom_complex(X: TwistedObject, Y: TwistedObject) -> HomComplex:
    return HomComplex(X, Y)


class TwistedCohomology:
    """Per-degree cohomology of a hom complex with fixed representatives."""

    __slots__ = ("dims", "_data")

    def __init__(self, H: HomComplex):
        data: dict[int, Cohomology] = {}
        for d in H.degrees():
            data[d] = complex_cohomology(H.differential(d - 1), H.differential(d))
        self._data = data
        self.dims = {d: c.dim for d, c in data.items() if c.dim > 0}

    def representatives(self, d: int) -> tuple[SparseRow, ...]:
        got = self._data.get(d)
        return got.representatives if got else ()

    def coordinates(self, d: int, vec: Sequence) -> Vec:
        got = self._data.get(d)
        if got is None:
            if any(v != 0 for v in vec):
                raise ValueError("nonzero vector in an empty degree")
            return ()
        return got.coordinates(vec)


def cohomology(H: HomComplex) -> TwistedCohomology:
    return TwistedCohomology(H)


def rebind(h: HomComplex, X: TwistedObject, Y: TwistedObject) -> HomComplex:
    """``h`` for another pair X, Y whose hom complex has the same tables.

    The basis, position table, differentials and cohomology are h's, shared
    and not copied; only X and Y are new, since composing cochains names
    morphisms through them.  Nothing is recomputed, so the caller vouches
    that ``hom_complex(X, Y)`` would build the same tables.
    """
    H = object.__new__(HomComplex)
    for slot in HomComplex.__slots__:
        setattr(H, slot, getattr(h, slot))
    H.X, H.Y = X, Y
    return H


# (degree, coefficients over representatives), each an int when integral
Class = tuple[int, tuple[int | Fraction, ...]]


def identity_class(h_xx: HomComplex) -> Class:
    """The class of the identity cocycle in End(X)."""
    vec = [0] * h_xx.dim(0)
    for a in range(len(h_xx.X.components)):
        d, pos = h_xx.position[(a, a, 0)]
        if d != 0:
            raise ValueError("identity entry off degree zero")
        vec[pos] += 1
    return (0, tuple(h_xx.cohomology.coordinates(0, vec)))


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
    h_yz: HomComplex, h_xy: HomComplex, h_xz: HomComplex, alpha: Class, beta: Class
) -> Class:
    """Compose cohomology classes via representatives and project the result.

    ``alpha`` lives in H(hom(Y, Z)), ``beta`` in H(hom(X, Y)); the result is
    expressed over the chosen representatives of H(hom(X, Z)).  The
    representatives are composed componentwise, with no extra signs: only
    terms whose middle components agree meet.  The composite is checked
    once, by the coordinate map: a vector that is no cocycle raises
    ComplexError there.  The representatives are sparse rows, so the sums
    run over their nonzero entries only.
    """
    da, ca = alpha
    db, cb = beta
    reps_a = h_yz.cohomology.representatives(da)
    reps_b = h_xy.cohomology.representatives(db)
    if len(ca) != len(reps_a) or len(cb) != len(reps_b):
        raise ValueError("class coefficients do not match representative count")
    comp = h_xy.X.category._comp  # read directly: the table is immutable
    total = da + db
    basis_xy = h_xy.basis.get(db, ())
    basis_yz = h_yz.basis.get(da, ())
    position = h_xz.position
    X, Y, Y2, Z = h_xy.X, h_xy.Y, h_yz.X, h_yz.Y
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
        gref = MorRef(Y2._oidx(b), Z._oidx(c), k2)
        for a, fref, v in firsts:
            if fref.tgt != gref.src:
                raise ValueError("morphisms are not composable")
            result = comp.get((gref, fref))
            if not result:
                continue
            wv = w * v
            for ridx, rcoeff in result.items():
                dd, pos = position[(a, c, ridx)]
                if dd != total:
                    raise ComplexError("composition is not degree additive")
                vec[pos] = vec.get(pos, 0) + wv * rcoeff
    dense = [0] * h_xz.dim(total)
    for pos, v in vec.items():
        dense[pos] = v
    return (total, tuple(h_xz.cohomology.coordinates(total, dense)))
