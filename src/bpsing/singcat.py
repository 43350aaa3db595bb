"""Graded modules and Ext computations over Brieskorn-Pham hypersurface rings.

The ring is A = Q[x_1, ..., x_n] / (x_1^{p_1} + ... + x_n^{p_n}), graded by
the group built in :mod:`bpsing.grading`.  Monomials are kept in the normal
form e_1 < p_1 through the rewrite

    x_1^{p_1}  ->  -(x_2^{p_2} + ... + x_n^{p_n}),

a one-rule reduction that is confluent because the defining polynomial is
monic in x_1.  On top of the ring sit a two-periodic free resolution of the
residue field assembled from differential forms, graded Ext computations for
twisted residue fields and twisted free modules, truncated polynomial modules
with their short exact sequences, and a Koszul perfectness certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations, islice, product
from math import comb
from operator import add
from typing import Iterable, Iterator, Sequence

from .exactlin import ComplexError, RatMatrix, exact, rank, rref
from .grading import LDegree, LGroup, check_limit, exponent_seq

Monomial = tuple[int, ...]
Poly = dict[Monomial, int | Fraction]  # coefficients in exact form


def monomial_label(mono: Monomial) -> str:
    parts = []
    for t, e in enumerate(mono, start=1):
        if e == 1:
            parts.append(f"x{t}")
        elif e > 1:
            parts.append(f"x{t}^{e}")
    return "*".join(parts) if parts else "1"


class GradedRing:
    """Polynomial arithmetic in the quotient ring with graded-piece bases.

    Pieces are kept per instance: the first request for a piece of
    z-degree z splits all monomials of that z-degree by degree, and every
    later request at z reads the result.  So are the sizes of the windows
    ``_check_window`` has admitted.
    """

    __slots__ = ("p", "n", "L", "_pieces", "_windows")

    def __init__(self, p: Iterable[int]):
        self.p = exponent_seq(p)
        self.n = len(self.p)
        self.L = LGroup(self.p)
        self._pieces: dict[int, dict[LDegree, tuple[Monomial, ...]]] = {}
        self._windows: dict[int, int] = {}

    def __repr__(self) -> str:
        return f"GradedRing({self.p})"

    # -- polynomial arithmetic -----------------------------------------

    def reduce(self, poly: Poly) -> Poly:
        """Rewrite into the monomial basis with e_1 < p_1, dropping zeros."""
        out: Poly = {}
        work = [(tuple(m), c) for m, c in poly.items()]
        while work:
            mono, coeff = work.pop()
            if not coeff:
                continue
            if mono[0] >= self.p[0]:
                # x_1^{p_1} = -(x_2^{p_2} + ... + x_n^{p_n}); empty sum if n = 1
                base = (mono[0] - self.p[0],) + mono[1:]
                for i in range(1, self.n):
                    lifted = base[:i] + (base[i] + self.p[i],) + base[i + 1 :]
                    work.append((lifted, -coeff))
                continue
            acc = out.get(mono, 0) + coeff
            if acc:
                out[mono] = exact(acc)
            else:
                out.pop(mono, None)
        return out

    # -- grading --------------------------------------------------------

    def monomial_degree(self, mono: Monomial) -> LDegree:
        return self.L.normalize(tuple(mono) + (0,))

    def sort_key(self, d: LDegree):
        return (self.L.z_degree(d), d.raw())

    def monomials_of_weight(self, z: int) -> tuple[Monomial, ...]:
        """All normal-form monomials of z-degree z, in lex order."""
        return tuple(self.iter_monomials(z))

    def iter_monomials(self, z: int) -> Iterator[Monomial]:
        """The monomials of ``monomials_of_weight(z)`` one at a time, in the same order.

        An odometer over all exponents but the last, which the weight left
        over forces: no recursion, so any number of variables is fine, and a
        caller may stop early.  ``rest[i]`` is the weight left for variables
        i, i + 1, ...
        """
        if z < 0:
            return
        w, last, top = self.L.weights, self.n - 1, self.p[0] - 1
        e, rest = [0] * self.n, [z] * self.n
        while True:
            r = rest[last]
            if r % w[last] == 0 and (last or r // w[0] <= top):
                e[last] = r // w[last]
                yield tuple(e)
            # raise the rightmost exponent that can grow, and zero those after it
            i = last - 1
            while i >= 0 and ((e[i] + 1) * w[i] > rest[i] or (i == 0 and e[0] == top)):
                i -= 1
            if i < 0:
                return
            e[i] += 1
            left = rest[i] - e[i] * w[i]
            for k in range(i + 1, self.n):
                e[k], rest[k] = 0, left

    def pieces_of_weight(self, z: int) -> dict[LDegree, tuple[Monomial, ...]]:
        """The nonzero pieces of z-degree z, keyed by degree, each in lex order."""
        pieces = self._pieces.get(z)
        if pieces is None:
            buckets: dict[LDegree, list[Monomial]] = {}
            for m in self.monomials_of_weight(z):
                buckets.setdefault(self.monomial_degree(m), []).append(m)
            pieces = self._pieces[z] = {d: tuple(ms) for d, ms in buckets.items()}
        return pieces

    def piece(self, d: LDegree) -> tuple[Monomial, ...]:
        """Monomial basis of the graded piece at degree d."""
        return self.pieces_of_weight(self.L.z_degree(d)).get(d, ())


class FreeComplex:
    """Bounded-above complex of free graded modules over a GradedRing.

    ``terms`` maps cohomological degree i (i <= 0 for a resolution, i >= 0
    for its dual) to the generator degrees of the i-th term; ``diffs[i]`` is
    the matrix of the map from level i to level i + 1, rows indexed by
    target generators, entries polynomials.  A
    degree-zero map between shifts multiplies by an element of degree
    (source generator degree) - (target generator degree).  Nothing is
    verified at construction so that broken fixtures can be built and then
    inspected with validate_resolution.  ``columns[i][c]`` lists the terms
    of column c of ``diffs[i]`` as (row, monomial, coefficient), collected
    once here; zero entries have none.
    """

    __slots__ = ("ring", "terms", "diffs", "labels", "columns")

    def __init__(self, ring: GradedRing, terms, diffs, labels=None):
        self.ring = ring
        self.terms = {int(i): tuple(degs) for i, degs in terms.items()}
        self.diffs = {
            int(i): tuple(tuple(ring.reduce(dict(e)) for e in row) for row in mat)
            for i, mat in diffs.items()
        }
        self.labels = (
            None if labels is None else {int(i): tuple(v) for i, v in labels.items()}
        )
        for i, mat in self.diffs.items():
            rows = len(self.terms.get(i + 1, ()))
            cols = len(self.terms.get(i, ()))
            if len(mat) != rows or any(len(r) != cols for r in mat):
                raise ValueError(f"differential at level {i} has wrong shape")
        self.columns = {
            i: tuple(
                tuple((r, m, co) for r, row in enumerate(mat) for m, co in row[c].items())
                for c in range(len(self.terms.get(i, ())))
            )
            for i, mat in self.diffs.items()
        }

    def levels(self) -> tuple[int, ...]:
        return tuple(sorted(self.terms))

    def rank(self, i: int) -> int:
        return len(self.terms.get(i, ()))

    def generator_degrees(self, i: int) -> tuple[LDegree, ...]:
        return self.terms.get(i, ())

    # -- symbolic checks -------------------------------------------------

    def homogeneity_violations(self) -> tuple[str, ...]:
        bad = []
        L = self.ring.L
        for i in sorted(self.diffs):
            src = self.terms.get(i, ())
            tgt = self.terms.get(i + 1, ())
            for r, row in enumerate(self.diffs[i]):
                for c, entry in enumerate(row):
                    want = L.sub(src[c], tgt[r])
                    for mono in entry:
                        if self.ring.monomial_degree(mono) != want:
                            bad.append(f"entry ({i},{r},{c}) has a term of wrong degree")
                            break
        return tuple(bad)

    def square_defects(self) -> tuple[str, ...]:
        """Positions where the composite of consecutive maps is not zero, by row, then column.

        Entry (r, c) of the composite is the sum over k of upper[r][k] times
        lower[k][c], so only the terms of column c of the lower map meet the
        terms of column k of the upper one: a zero entry adds nothing.  The
        raw products are summed and reduced once per entry, which gives the
        sum of the reduced products because ``reduce`` is linear.
        """
        bad = []
        for i in sorted(self.columns):
            upper = self.columns.get(i + 1)
            if upper is None:
                continue
            found = []
            for c, terms in enumerate(self.columns[i]):
                acc: dict[int, Poly] = {}
                for k, m1, c1 in terms:
                    for r, m2, c2 in upper[k]:
                        poly = acc.setdefault(r, {})
                        m = tuple(map(add, m1, m2))
                        poly[m] = poly.get(m, 0) + c1 * c2
                found.extend((r, c) for r, poly in acc.items() if self.ring.reduce(poly))
            bad.extend(f"square at level {i} nonzero at ({r},{c})" for r, c in sorted(found))
        return tuple(bad)

    # -- graded pieces ---------------------------------------------------

    def piece_matrix(self, i: int, d: LDegree, src, tgt) -> RatMatrix:
        """Matrix of the level-i map on the degree-d pieces.

        ``src`` and ``tgt`` are the piece bases of levels i and i + 1 at d:
        pairs (generator index, monomial), index first, then lex order
        within each piece.  Each basis element (c, mono) meets only the
        stored terms of column c, since a zero entry contributes nothing: a
        term multiplies mono by adding exponents, and only a product with
        e_1 >= p_1 goes through the rewrite rule.  A term landing outside
        ``tgt`` raises ComplexError.
        """
        index = {bm: r for r, bm in enumerate(tgt)}
        ring = self.ring
        p1 = ring.p[0]
        column = self.columns[i]
        entries = [[0] * len(src) for _ in tgt]
        for cidx, (c, mono) in enumerate(src):
            for r, m1, c1 in column[c]:
                m = tuple(map(add, m1, mono))
                for m2, co in (ring.reduce({m: c1}).items() if m[0] >= p1 else ((m, c1),)):
                    ridx = index.get((r, m2))
                    if ridx is None:
                        raise ComplexError("differential is not degree homogeneous")
                    entries[ridx][cidx] += co
        return RatMatrix(entries, cols=len(src))

    def cohomology_dims(self, d: LDegree, levels: range, bases) -> dict[int, int]:
        """Dimensions of H^i in degree d for each i in levels.

        ``bases`` maps a level to its piece basis at d, pairs (generator
        index, monomial) ordered by index, then lex within each piece, and
        omits a level whose piece is zero; each basis serves both maps that
        touch its level.  H^i = dim - rank(d_i) - rank(d_{i-1}), an absent
        map having rank zero.  So does a map whose source or target piece
        is zero: its matrix has no columns or no rows.  Such a map is not
        built, so a term of it off the target piece raises nothing here;
        ``_certify`` checks homogeneity before it scans, and
        ``piece_matrix`` itself raises on such a term.
        """
        ranks = {
            i: rank(self.piece_matrix(i, d, bases[i], bases[i + 1]))
            for i in range(levels.start - 1, levels.stop)
            if i in self.diffs and bases.get(i) and bases.get(i + 1)
        }
        return {i: len(bases.get(i, ())) - ranks.get(i, 0) - ranks.get(i - 1, 0) for i in levels}


def resolution_generators(n: int, i: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Generators (I, j) with |I| + 2j = i of the i-th resolution term.

    I is a subset of {1..n} naming a form dx_I and j counts tensor factors
    absorbed by the wedge part of the differential; listed with j ascending
    and I lex within each j.
    """
    if i < 0:
        raise ValueError("term index must be nonnegative")
    gens = []
    for j in range(i // 2 + 1):
        size = i - 2 * j
        if size > n:
            continue
        for I in combinations(range(1, n + 1), size):
            gens.append((I, j))
    return tuple(gens)


# largest resolution ``bp_resolution`` builds, in entries of its differential
# matrices, which are stored dense with one polynomial per entry.  Building
# and checking cost about 0.1-0.35 ms per entry whether the entries come from
# many levels or from many variables, while the cost per generator differs
# forty-fold between the two: 2^15 admits the singcat suite on seven
# variables (31582 entries, 3-5 s) and refuses it on eight (133728)
MAX_RESOLUTION_ENTRIES = 2**15


def resolution_entries(n: int, length: int) -> int:
    """Entry count of the differentials of the n-variable resolution down to level -length.

    Level -i has sum(C(n, s) for s <= i, s = i mod 2) generators, which is
    2^(n - 1) from i = n on, so every map below level -n adds 4^(n - 1).
    """
    ranks = [1]
    for i in range(1, min(n, length) + 1):
        ranks.append((ranks[i - 2] if i > 1 else 0) + comb(n, i))
    return sum(a * b for a, b in zip(ranks, ranks[1:])) + max(0, length - n) * 4 ** (n - 1)


def _generator_degree(L: LGroup, n: int, I: tuple[int, ...], j: int) -> LDegree:
    return L.normalize(tuple(int(t in I) for t in range(1, n + 1)) + (j,))


def _form_complex(ring: GradedRing, gens: Sequence[tuple]) -> FreeComplex:
    """Complex of differential forms with level -i free on the pairs gens[i].

    A generator dx_I|j has degree sum(x_t, t in I) + j c.  The differential
    contracts against the Euler vector field (terms +-x_t) and, for j >= 1,
    wedges with the one-form sum x_t^{p_t - 1} dx_t whose Euler pairing is
    the defining polynomial.
    """
    L, n = ring.L, ring.n

    def power(t: int, e: int) -> Monomial:
        return tuple(e * int(u == t) for u in range(1, n + 1))

    terms = {-i: tuple(_generator_degree(L, n, I, j) for I, j in gs) for i, gs in enumerate(gens)}
    labels = {
        -i: tuple(("^".join(f"dx{t}" for t in I) if I else "1") + f"|{j}" for I, j in gs)
        for i, gs in enumerate(gens)
    }
    diffs: dict[int, list[list[Poly]]] = {}
    for i in range(1, len(gens)):
        pos = {g: r for r, g in enumerate(gens[i - 1])}
        mat: list[list[Poly]] = [[{} for _ in gens[i]] for _ in gens[i - 1]]
        for cidx, (I, j) in enumerate(gens[i]):
            for r_pos, t in enumerate(I):
                row = pos[(tuple(s for s in I if s != t), j)]
                mat[row][cidx] = {power(t, 1): (-1) ** r_pos}
            if j >= 1:
                for t in range(1, n + 1):
                    if t not in I:
                        row = pos[(tuple(sorted(I + (t,))), j - 1)]
                        sign = (-1) ** sum(s < t for s in I)
                        mat[row][cidx] = {power(t, ring.p[t - 1] - 1): sign}
        diffs[-i] = mat
    return FreeComplex(ring, terms, diffs, labels=labels)


def _ring(p: Iterable[int] | GradedRing) -> GradedRing:
    """The given ring, or a new ring on the exponent sequence p."""
    return p if isinstance(p, GradedRing) else GradedRing(p)


def bp_resolution(
    p: Iterable[int] | GradedRing, length: int, window: int | None = None
) -> FreeComplex:
    """Free resolution of the residue field over p, a GradedRing or its exponents.

    Level -i has one generator dx_I|j per pair with |I| + 2j = i, of degree
    sum(x_t, t in I) + j c; the differential is that of _form_complex.  The
    cross terms of the square multiply by the defining polynomial, hence
    vanish in the quotient.  A resolution of more than MAX_RESOLUTION_ENTRIES
    differential entries is refused before it is built.  Given a window, the
    scan ``validate_resolution`` makes over it is refused before the build too.
    """
    if not isinstance(length, int) or isinstance(length, bool) or length < 1:
        raise ValueError("length must be a positive integer")
    ring = _ring(p)
    check_limit("resolution differential entry count", resolution_entries(ring.n, length),
                MAX_RESOLUTION_ENTRIES)
    if window is not None:
        _check_scan(ring, window, length)
    return _form_complex(ring, [resolution_generators(ring.n, i) for i in range(length + 1)])


# largest window a degree scan may cover, counted as its z-degrees plus the
# ring's basis monomials in them, before any rank: (3,4,5) to level -9 checks
# z <= 938 (8192 of them) in about 3.3 s, and (31,33), the largest
# two-variable suite the other limits admit, covers 3614 at its 2 ell
MAX_WINDOW_SIZE = 2**13

# largest certification scan, in levels times window size: on (2,3), 8191
# levels by size 25 (its default window) take 2.5 s, 9 by 8001 1.3 s and 32 by
# 8001 3.8 s, while 100 by 8001 take 12 s and 8191 by 201 11-15 s
MAX_SCAN_CELLS = 2**18


def _check_window(ring: GradedRing, window: int) -> int:
    """The window's size, refused the moment the count passes MAX_WINDOW_SIZE.

    The ring keeps the size of each window it admits, and a window asked
    again is read back while the limit still admits it; a refused window is
    not kept.
    """
    size = ring._windows.get(window)
    if size is not None and size <= MAX_WINDOW_SIZE:
        return size
    size = 0
    for z in range(window + 1):
        # a count past the limit stops at limit + 1, within a z-degree too
        size += 1 + sum(1 for _ in islice(ring.iter_monomials(z), MAX_WINDOW_SIZE - size))
        if size > MAX_WINDOW_SIZE:
            raise ValueError(
                f"window {window} covers at least {size} z-degrees and monomials,"
                f" above the limit {MAX_WINDOW_SIZE}"
            )
    ring._windows[window] = size
    return size


def _check_scan(ring: GradedRing, window: int, levels: int) -> None:
    """Refuse a window above MAX_WINDOW_SIZE, then a scan of more than MAX_SCAN_CELLS
    levels times window size."""
    size = _check_window(ring, window)
    check_limit(f"scan of {levels} levels x {size} z-degrees and monomials =",
                levels * size, MAX_SCAN_CELLS)


def _scan_pieces(cplx: FreeComplex, window: int) -> Iterator[tuple[LDegree, dict[int, list]]]:
    """Each degree of z-degree 0..window where some term has a nonzero piece,
    with the piece basis of every level nonzero there, in (z, raw) order.

    One z-degree at a time, so only one slice of bases is alive: each distinct
    generator degree g meets each ring piece e of z-degree z - z(g) once, at
    g + e, and each generator of degree g appends its (index, monomial) pairs
    there, level by level in index order.  So a basis lists (generator
    index, monomial) pairs by index, then in lex order within each piece.
    """
    ring = cplx.ring
    L = ring.L
    distinct = dict.fromkeys(g for i in cplx.levels() for g in cplx.generator_degrees(i))
    index = {g: k for k, g in enumerate(distinct)}
    levels = [(i, [(c, index[g]) for c, g in enumerate(cplx.generator_degrees(i))])
              for i in cplx.levels()]
    gens_z = [(g, L.z_degree(g)) for g in index]
    for z in range(window + 1):
        bases: dict[LDegree, dict[int, list]] = {}
        # per distinct generator degree: (the bases at g + e, the piece at e)
        hits = [
            [(bases.setdefault(L.add(g, e), {}), monos)
             for e, monos in ring.pieces_of_weight(z - zg).items()] if zg <= z else ()
            for g, zg in gens_z
        ]
        for i, level in levels:
            for c, k in level:
                for at, monos in hits[k]:
                    at.setdefault(i, []).extend([(c, m) for m in monos])
        for d in sorted(bases, key=LDegree.raw):
            yield d, bases[d]


@dataclass(frozen=True)
class ResolutionReport:
    """Outcome of certifying a free complex: symbolic checks, then exactness per degree."""

    degrees_checked: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _certify(cplx: FreeComplex, window: int, first: int, h0_degrees, what: str) -> ResolutionReport:
    """Symbolic checks, then exactness at levels first..0 in every degree of a window.

    The window and the scan are refused first (``_check_scan``), then square
    zero and entry homogeneity are checked.  If both hold, ``_scan_pieces``
    walks the z-degrees 0..window once, building each degree's piece bases
    by placing the ring's pieces on the generator degrees, and per degree
    with a nonzero piece: H^i must vanish for first <= i < 0 (a failure is
    named ``what``), and H^0 must be one-dimensional on h0_degrees and zero
    elsewhere.
    """
    _check_scan(cplx.ring, window, 1 - first)
    failures = list(cplx.homogeneity_violations() + cplx.square_defects())
    checked = 0
    for d, bases in [] if failures else _scan_pieces(cplx, window):
        checked += 1
        h = cplx.cohomology_dims(d, range(first, 1), bases)
        for i in range(first, 0):
            if h[i]:
                failures.append(f"{what} at level {i} in degree {d.raw()}")
        want = 1 if d in h0_degrees else 0
        if h[0] != want:
            failures.append(f"cokernel dimension {h[0]} != {want} in degree {d.raw()}")
    return ResolutionReport(degrees_checked=checked, failures=tuple(failures))


def validate_resolution(cplx: FreeComplex, window: int) -> ResolutionReport:
    """Certify a complex as a residue-field resolution inside a z-window.

    Exactness at every interior level, and the cokernel of the last map of
    dimension one in degree zero and zero elsewhere.  The leftmost level has
    no incoming map to compare against, so no kernel condition is imposed
    there.
    """
    first = min(min(cplx.levels()) + 1, 0)
    return _certify(cplx, window, first, {cplx.ring.L.zero()}, "not exact")


def ext_k_k(p: Iterable[int], m: LDegree, targets: Sequence[LDegree]) -> list[dict[int, int]]:
    """Graded Ext dims from the twisted residue field at m to each of targets.

    Every entry of the resolution differential lies in the maximal ideal,
    so the induced complex on Hom(-, residue field) has zero differential
    and the i-th Ext dimension counts level-i generators of degree m - n.
    The generator dx_I|j has the normal form (indicator of I, j), already
    normal because every p_t >= 2, and sits on level |I| + 2j, so at most
    one generator of one level has a given degree.  The row shares one
    grading group among its targets.  ``m`` and the targets are ``LDegree``
    normal forms and are used as given, not normalized again.
    """
    L = LGroup(p)
    row = []
    for n in targets:
        target = L.sub(m, n)
        generator = target.b >= 0 and all(a in (0, 1) for a in target.a)
        row.append({sum(target.a) + 2 * target.b: 1} if generator else {})
    return row


def index_set(p: Iterable[int]) -> list[LDegree]:
    """The twists sum(a_i x_i) with -p_i + 2 <= a_i <= 0, lex ordered.

    These are prod(p_i - 1) pairwise distinct degrees; the coefficient
    boxes run in descending lex order, so the zero twist comes first.
    """
    L = LGroup(p)
    ranges = [range(0, -pi + 1, -1) for pi in L.p]
    return [L.normalize(tuple(coords) + (0,)) for coords in product(*ranges)]


def _box_coordinates(L: LGroup, d: LDegree) -> tuple[int, ...]:
    """Recover coefficients a_i with -p_i + 2 <= a_i <= 0 from a normal form."""
    coords = []
    negatives = 0
    for ai, pi in zip(d.a, L.p):
        if ai == 0:
            coords.append(0)
        elif ai >= 2:
            coords.append(ai - pi)
            negatives += 1
        else:
            # a normalized coefficient 1 cannot arise from the stated range
            raise ValueError("degree outside the index set")
    if d.b != -negatives:
        raise ValueError("degree outside the index set")
    return tuple(coords)


def ext_formula(p: Iterable[int], m: LDegree, targets: Sequence[LDegree]) -> list[dict[int, int]]:
    """Product formula for Ext dims from index-set twist m to each of targets.

    Factorizes along the axes: the i-th factor is the graded hom of the
    linear quiver with p_i - 1 objects, taken between objects -a_i + 1 and
    -b_i + 1, which is one-dimensional in degree a_i - b_i when that gap is
    0 or 1 and zero otherwise.  So the product is one-dimensional in the
    sum of the gaps when every gap is 0 or 1, and zero otherwise.  Twists
    outside the index set are rejected.  ``m`` and the targets are
    ``LDegree`` normal forms and are used as given, not normalized again.
    """
    L = LGroup(p)
    a = _box_coordinates(L, m)
    row = []
    for n in targets:
        b = _box_coordinates(L, n)
        gaps = [ai - bi for ai, bi in zip(a, b)]
        row.append({sum(gaps): 1} if all(g in (0, 1) for g in gaps) else {})
    return row


class GradedModule:
    """Finitely supported graded module given by piece bases and actions.

    ``basis`` maps a degree to a tuple of basis labels; ``action[(t, d)]``
    is the matrix of multiplication by x_t from the piece at d to the piece
    at d + x_t.  Missing entries mean the zero map.
    """

    __slots__ = ("ring", "basis", "action")

    def __init__(self, ring: GradedRing, basis, action):
        self.ring = ring
        self.basis = {d: tuple(labels) for d, labels in basis.items() if labels}
        self.action: dict[tuple[int, LDegree], RatMatrix] = {}
        for (t, d), mat in action.items():
            mat = mat if isinstance(mat, RatMatrix) else RatMatrix(mat)
            if not mat.is_zero():
                self.action[(int(t), d)] = mat

    def degrees(self) -> list[LDegree]:
        return sorted(self.basis, key=self.ring.sort_key)

    def dim(self, d: LDegree) -> int:
        return len(self.basis.get(d, ()))

    def act(self, t: int, d: LDegree) -> RatMatrix:
        mat = self.action.get((t, d))
        if mat is not None:
            return mat
        L = self.ring.L
        return RatMatrix.zeros(self.dim(L.add(d, L.x(t))), self.dim(d))


class ModuleMap:
    """Degree-zero module map, one matrix per degree (missing = zero)."""

    __slots__ = ("src", "tgt", "mats")

    def __init__(self, src: GradedModule, tgt: GradedModule, mats):
        self.src = src
        self.tgt = tgt
        self.mats: dict[LDegree, RatMatrix] = {}
        for d, mat in mats.items():
            mat = mat if isinstance(mat, RatMatrix) else RatMatrix(mat)
            if not mat.is_zero():
                self.mats[d] = mat

    def at(self, d: LDegree) -> RatMatrix:
        mat = self.mats.get(d)
        if mat is not None:
            return mat
        return RatMatrix.zeros(self.tgt.dim(d), self.src.dim(d))

    def validate(self) -> tuple[str, ...]:
        """Wrong shapes, else each (t, d) where f(x_t v) != x_t f(v) for v of degree d.

        The shapes of the map's matrices and of both modules' stored actions
        are checked first.  With every shape right, a side of the square at
        (t, d) with an unstored factor is a zero matrix of the square's
        shape, so only the pairs where both factors of one side are stored
        can fail, and only those are evaluated.  Failures come by degree in
        ``sort_key`` order, then by t.
        """
        ring = self.src.ring
        L = ring.L
        bad = [f"matrix at {d.raw()} has wrong shape" for d, mat in self.mats.items()
               if mat.rows != self.tgt.dim(d) or mat.cols != self.src.dim(d)]
        for side, M in (("source", self.src), ("target", self.tgt)):
            bad.extend(f"{side} action of x_{t} at {d.raw()} has wrong shape"
                       for (t, d), mat in M.action.items()
                       if mat.rows != M.dim(L.add(d, L.x(t))) or mat.cols != M.dim(d))
        if bad:
            return tuple(bad)
        pairs = {(t, d) for t, d in self.src.action if L.add(d, L.x(t)) in self.mats}
        pairs.update((t, d) for t, d in self.tgt.action if d in self.mats)
        for t, d in sorted(pairs, key=lambda td: (ring.sort_key(td[1]), td[0])):
            up = L.add(d, L.x(t))
            if self.at(up) @ self.src.act(t, d) != self.tgt.act(t, d) @ self.at(d):
                bad.append(f"does not intertwine x_{t} at {d.raw()}")
        return tuple(bad)


@dataclass(frozen=True)
class SequenceReport:
    """Per-degree exactness verdict for a short-exact-sequence candidate."""

    degrees_checked: int
    first_failure: tuple[int, ...] | None
    failures: tuple[str, ...]
    iso_ok: bool | None = None

    @property
    def ok(self) -> bool:
        return not self.failures


def exact_sequence_check(incl: ModuleMap, proj: ModuleMap) -> SequenceReport:
    """Verify 0 -> src -> mid -> quo -> 0 degree by degree.

    Both maps are validated as module maps first; each degree is then
    checked for injectivity, surjectivity, zero composite, and kernel equal
    to image.  Failures carry the offending degree, and the first one in
    z-degree order is singled out.
    """
    failures = list(incl.validate())
    failures.extend(proj.validate())
    if incl.tgt is not proj.src and incl.tgt.basis != proj.src.basis:
        failures.append("middle modules do not match")
    first = None
    count = 0
    if not failures:
        ring = incl.src.ring
        degrees = sorted(
            set(incl.src.basis) | set(incl.tgt.basis) | set(proj.tgt.basis),
            key=ring.sort_key,
        )
        count = len(degrees)
        for d in degrees:
            a = incl.at(d)
            b = proj.at(d)
            rank_a, rank_b = rank(a), rank(b)
            bad_here = []
            if rank_a < a.cols:
                bad_here.append("inclusion not injective")
            if rank_b != proj.tgt.dim(d):
                bad_here.append("projection not surjective")
            if a.cols and b.rows and not (b @ a).is_zero():
                bad_here.append("composite not zero")
            if b.cols - rank_b != rank_a:
                bad_here.append("kernel does not match image")
            failures.extend(f"{msg} in degree {d.raw()}" for msg in bad_here)
            if bad_here and first is None:
                first = d.raw()
    return SequenceReport(degrees_checked=count, first_failure=first, failures=tuple(failures))


def truncated_module(
    ring: GradedRing, axis: int, j: int, twist: LDegree | None = None
) -> GradedModule:
    """The module k[x_axis]/(x_axis^j), optionally twisted.

    Basis x_axis^s for s < j; x_axis shifts the exponent, the other
    variables act by zero.  With twist w the basis element x^s sits in
    degree s x_axis - w, matching the convention M(w)_d = M_{w + d}.
    """
    if not 1 <= axis <= ring.n:
        raise ValueError("axis out of range")
    if not 1 <= j <= ring.p[axis - 1]:
        raise ValueError("truncation order out of range")
    L = ring.L
    w = L.zero() if twist is None else L.normalize(twist.raw())
    xa = L.x(axis)
    degs = [L.sub(L.scale(s, xa), w) for s in range(j)]
    basis = {d: (f"x{axis}^{s}",) for s, d in enumerate(degs)}
    action = {
        (axis, degs[s]): RatMatrix(((1,),)) for s in range(j - 1)
    }
    return GradedModule(ring, basis, action)


def _shift(mono: Monomial, t: int) -> Monomial:
    """Exponents of x_t * mono before reduction, t 1-indexed."""
    return mono[: t - 1] + (mono[t - 1] + 1,) + mono[t:]


def quotient_by_variables(
    ring: GradedRing, killed: Sequence[int], window: int
) -> GradedModule:
    """The ring modulo the ideal generated by the listed variables.

    Pieces are computed by linear algebra: the degree-d part of the ideal
    is spanned by the reduced products x_t m over killed t, and a quotient
    basis is read off from the non-pivot monomials.  A degree that no
    product reaches has no pivots, so every monomial there is free and no
    elimination runs.  Actions are induced on the chosen coset
    representatives.  Degrees are scanned up to z-degree window.
    """
    L = ring.L
    p1 = ring.p[0]
    killed = tuple(sorted({int(t) for t in killed}))
    if any(not 1 <= t <= ring.n for t in killed):
        raise ValueError("killed variable out of range")
    degrees = sorted(
        (d for z in range(window + 1) for d in ring.pieces_of_weight(z)), key=ring.sort_key
    )

    def times(t: int, mono: Monomial):
        """The terms of x_t mono in normal form: only e_1 >= p_1 needs the rewrite."""
        m = _shift(mono, t)
        return ring.reduce({m: 1}).items() if m[0] >= p1 else ((m, 1),)

    piece_data = {}
    for d in degrees:
        monos = ring.piece(d)
        pos = {m: i for i, m in enumerate(monos)}
        rows = []
        for t in killed:
            for m in ring.piece(L.sub(d, L.x(t))):
                vec = [0] * len(monos)
                for m2, co in times(t, m):
                    vec[pos[m2]] += co
                rows.append(vec)
        pivots, top = (), ()
        if rows:
            reduced, pivots = rref(RatMatrix(rows, cols=len(monos)))
            top = reduced.entries[: len(pivots)]
        free = tuple(i for i in range(len(monos)) if i not in pivots)
        piece_data[d] = (monos, pos, free, pivots, top)

    basis = {
        d: tuple(monomial_label(piece_data[d][0][f]) for f in piece_data[d][2])
        for d in degrees
    }
    action = {}
    for d in degrees:
        monos, _, free, _, _ = piece_data[d]
        if not free:
            continue
        for t in range(1, ring.n + 1):
            up = L.add(d, L.x(t))
            if up not in piece_data:
                continue
            u_monos, u_pos, u_free, u_pivots, u_rows = piece_data[up]
            if not u_free:
                continue
            # coordinates of x_t m on the reduced ideal rows and the free
            # monomials: a reduced row is 1 at its pivot and 0 at the other
            # pivots, so its coefficient is the entry at its pivot
            cols = []
            for f in free:
                vec = [0] * len(u_monos)
                for m2, co in times(t, monos[f]):
                    vec[u_pos[m2]] += co
                ideal = [(vec[c], row) for c, row in zip(u_pivots, u_rows) if vec[c]]
                cols.append([vec[g] - sum(a * row[g] for a, row in ideal) for g in u_free])
            action[(t, d)] = RatMatrix(
                [[cols[c][r] for c in range(len(free))] for r in range(len(u_free))],
                cols=len(free),
            )
    return GradedModule(ring, basis, action)


def graded_module_iso(M: GradedModule, N: GradedModule) -> bool:
    """Existence of a degree-preserving module isomorphism.

    Restricted to modules whose pieces have dimension at most one: any
    candidate isomorphism is a family of nonzero scalars, so the actions
    must share their vanishing pattern and the scalars propagate along the
    nonzero ones.  Each connected component is seeded with 1 and conflicts
    answer no.
    """
    ring = M.ring
    L = ring.L
    degrees = sorted(set(M.basis) | set(N.basis), key=ring.sort_key)
    for d in degrees:
        if M.dim(d) != N.dim(d):
            return False
        if M.dim(d) > 1:
            raise ValueError("scalar propagation needs pieces of dimension at most one")
    support = [d for d in degrees if M.dim(d) == 1]

    def scalar(mat: RatMatrix) -> int | Fraction:
        return mat.entries[0][0] if mat.rows == 1 and mat.cols == 1 else 0

    edges = []
    for d in support:
        for t in range(1, ring.n + 1):
            ms = scalar(M.act(t, d))
            ns = scalar(N.act(t, d))
            if (ms == 0) != (ns == 0):
                return False
            if ms != 0:
                # never ns / ms, which is a float on two ints
                edges.append((d, L.add(d, L.x(t)), Fraction(ns, ms)))

    lam: dict[LDegree, int | Fraction] = {}
    remaining = set(support)
    while remaining:
        seed = min(remaining, key=ring.sort_key)
        lam[seed] = 1
        remaining.discard(seed)
        changed = True
        while changed:
            changed = False
            for d, up, ratio in edges:
                if d in lam and up not in lam:
                    lam[up] = lam[d] * ratio
                    remaining.discard(up)
                    changed = True
                elif up in lam and d not in lam:
                    lam[d] = lam[up] / ratio
                    remaining.discard(d)
                    changed = True
                elif d in lam and up in lam and lam[up] != lam[d] * ratio:
                    return False
    return True


def lemma_k_check(
    p: Iterable[int] | GradedRing, axis: int, j: int, window: int
) -> SequenceReport:
    """Check 0 -> k(-(j-1) x_axis) -> k[x]/(x^j) -> k[x]/(x^{j-1}) -> 0.

    The inclusion hits the top power x^{j-1} and the projection discards
    it.  For j = p_axis the middle module is additionally compared with the
    quotient of the ring by the other variables, identifying it with a
    module that has a finite free resolution.  p is a GradedRing or its
    exponents.

    ``window`` is read only there, at j = p_axis with two or more variables:
    it bounds the ring quotient's z-degrees and is raised to at least ell.
    That is enough, since the ring modulo the other variables is
    k[x_axis]/(x_axis^{p_axis}), of top z-degree (p_axis - 1) ell / p_axis < ell.
    A window above MAX_WINDOW_SIZE is refused there, before anything is built.
    """
    ring = _ring(p)
    L = ring.L
    if not 1 <= axis <= ring.n:
        raise ValueError("axis out of range")
    if not 2 <= j <= ring.p[axis - 1]:
        raise ValueError("truncation order out of range")
    compared = j == ring.p[axis - 1] and ring.n >= 2
    if compared:
        window = max(window, L.ell)
        _check_window(ring, window)
    xa = L.x(axis)
    sub = truncated_module(ring, axis, 1, twist=L.scale(-(j - 1), xa))
    mid = truncated_module(ring, axis, j)
    quo = truncated_module(ring, axis, j - 1)
    incl = ModuleMap(sub, mid, {L.scale(j - 1, xa): RatMatrix(((1,),))})
    proj = ModuleMap(mid, quo, {L.scale(s, xa): RatMatrix(((1,),)) for s in range(j - 1)})
    report = exact_sequence_check(incl, proj)
    if not compared:
        return report
    others = tuple(t for t in range(1, ring.n + 1) if t != axis)
    iso_ok = graded_module_iso(mid, quotient_by_variables(ring, others, window))
    bad = () if iso_ok else ("middle module not isomorphic to the ring quotient",)
    return replace(report, failures=report.failures + bad, iso_ok=iso_ok)


def koszul_perfect_check(p: Iterable[int] | GradedRing, window: int) -> ResolutionReport:
    """Exactness of the Koszul complex on x_2, ..., x_n over the ring.

    The complex is the j = 0 part of the resolution, on the forms dx_I with
    I in {2..n}.  It resolves the quotient of the ring by x_2, ..., x_n,
    which is spanned by powers of x_1.  Per graded piece of z-degree <=
    window: cohomology vanishes at every negative level (including
    injectivity at the leftmost) and the cokernel dims match the powers
    x_1^s with s < p_1.  Success certifies a finite free resolution, i.e.
    perfectness of that quotient.  p is a GradedRing or its exponents.
    """
    ring = _ring(p)
    if ring.n < 2:
        raise ValueError("need at least two variables")
    L = ring.L
    vars2 = range(2, ring.n + 1)
    cplx = _form_complex(ring, [[(I, 0) for I in combinations(vars2, k)] for k in range(ring.n)])
    expected = {L.scale(s, L.x(1)) for s in range(ring.p[0])}
    return _certify(cplx, window, -(ring.n - 1), expected, "cohomology")
