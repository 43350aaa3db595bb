"""Finite directed graded linear categories with exact structure constants.

A category here is a finite ordered list of objects, a graded hom basis for
each ordered pair with src <= tgt, and a sparse table of composition
coefficients over the rationals, each in exact form (``exactlin.exact``): an
int when integral and a ``Fraction`` only when truly rational.  Morphisms only
point forward: hom(X, Y) = 0 whenever X comes after Y, and hom(X, X) is
spanned by the identity.

The composition table is stored explicitly (missing entry = zero composite),
so deliberately broken tables can be built and then caught by ``validate``.
A tensor product builds its table on the first read of ``_comp`` and keeps it
from then on; a route that reads only hom dimensions never builds it.  The
stacked copies of ``suspension.directed_extension`` store no table of their
own: theirs is a read-only view of the stacked category's.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Iterable, Mapping, NamedTuple, Sequence

from .exactlin import RatMatrix, exact, solve_integer, solve_mod2
from .grading import check_limit, exponent_seq

# composable pairs (g, f) to nonzero coefficients, ints where integral
CompTable = Mapping[tuple["MorRef", "MorRef"], Mapping[int, int | Fraction]]


class MorRef(NamedTuple):
    """Reference to a basis morphism: object indices plus basis position.

    A named tuple, so building, hashing and ordering a ref run at tuple speed;
    ``hash(MorRef(s, t, i)) == hash((s, t, i))``.
    """

    src: int
    tgt: int
    idx: int


def _as_ref(x) -> MorRef:
    return x if isinstance(x, MorRef) else MorRef(*x)


class DirectedGradedCategory:
    """Finite directed graded category over Q.

    ``homs`` maps index pairs (i, j) with i < j to the degree sequence of the
    hom basis; diagonal homs are always the single identity in degree 0.
    ``comp`` maps composable pairs (g, f) to sparse result coefficients over
    the basis of hom(f.src, g.tgt), stored in exact form whatever number
    type gave them; absent entries are zero composites.  Identity
    compositions are filled in strictly unless explicitly supplied, and a
    supplied one is kept even when empty, so that ``validate`` sees it.

    Instances are immutable, and ``_comp`` takes one of three forms, each
    read through ``get``, ``[]``, ``in``, ``len`` and iteration alike:
    - a dict, from ``__init__`` or a builder such as ``suspend``;
    - a pending product: ``tensor`` leaves ``_comp`` unset and holds a
      ``_ProductTable`` instead, which the first read of ``_comp`` builds into
      a dict;
    - an extension view: ``suspension.directed_extension`` stores a read-only
      mapping that answers each composite from the stacked category's table.
    No table changes once it exists, which is what lets ``relabel`` share the
    tables, pending, built or viewed, of the category it renames.
    """

    __slots__ = ("objects", "_index", "_homs", "_comp", "_from", "_pending")

    def __init__(
        self,
        objects: Sequence,
        homs: Mapping[tuple[int, int], Sequence[int]],
        comp: CompTable | None = None,
    ):
        objs = tuple(objects)
        if len(set(objs)) != len(objs):
            raise ValueError("object labels must be unique")
        table: dict[tuple[int, int], tuple[int, ...]] = {}
        for (i, j), degrees in homs.items():
            if not (0 <= i < len(objs) and 0 <= j < len(objs)):
                raise ValueError("hom indices out of range")
            if i >= j:
                raise ValueError("hom data allowed only above the diagonal")
            degs = tuple(int(d) for d in degrees)
            if degs:
                table[(i, j)] = degs
        for i in range(len(objs)):
            table[(i, i)] = (0,)
        comp_table: dict[tuple[MorRef, MorRef], dict[int, int | Fraction]] = {}
        if comp:
            for (g, f), result in comp.items():
                g, f = _as_ref(g), _as_ref(f)
                entry = {int(k): c for k, v in result.items() if (c := exact(v))}
                if entry or self.is_identity(g) or self.is_identity(f):
                    comp_table[(g, f)] = entry
        _fill_identities(comp_table, table)
        self._keep(objs, table, comp_table)

    def _keep(self, objects: tuple, homs: dict, comp, from_index=None):
        """Take tables already in the form ``__init__`` gives them, without copying.

        ``comp`` may be a pending ``_ProductTable``, built on the first read of
        ``_comp``, or any read-only mapping in that form, such as the extension
        view of ``suspension.directed_extension``, which is kept as it is.
        """
        index = {label: i for i, label in enumerate(objects)}
        pending = comp if isinstance(comp, _ProductTable) else None
        for name, value in zip(("objects", "_index", "_homs", "_from", "_pending"),
                               (objects, index, homs, from_index, pending)):
            object.__setattr__(self, name, value)
        if pending is None:
            object.__setattr__(self, "_comp", comp)
        return self

    def __getattr__(self, name):
        # reached only for an unset slot; ``_comp`` is unset while it is pending
        if name != "_comp":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        table = self._pending.table()
        object.__setattr__(self, "_comp", table)
        return table

    def __setattr__(self, name, value):
        raise AttributeError("category is immutable")

    def _composite_count(self) -> int:
        """Size of the composition table, read without building a pending one."""
        return len(self._comp) if self._pending is None else self._pending.count

    # -- basic access ---------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DirectedGradedCategory)
            and self.objects == other.objects
            and self._homs == other._homs
            and self._comp == other._comp
        )

    def __repr__(self) -> str:
        nmor = sum(len(v) for v in self._homs.values())
        return f"DirectedGradedCategory({len(self.objects)} objects, {nmor} basis morphisms)"

    def object_index(self, label) -> int:
        return self._index[label]

    def hom(self, i: int, j: int) -> tuple[int, ...]:
        """Degree sequence of the hom basis from object i to object j."""
        return self._homs.get((i, j), ())

    def hom_pairs(self):
        """The pairs (i, j) with a nonzero hom, diagonal included, as a set view."""
        return self._homs.keys()

    def graded_dims(self, i: int, j: int) -> dict[int, int]:
        dims: dict[int, int] = {}
        for d in self.hom(i, j):
            dims[d] = dims.get(d, 0) + 1
        return dims

    def identity(self, i: int) -> MorRef:
        return MorRef(i, i, 0)

    def is_identity(self, f: MorRef) -> bool:
        return f.src == f.tgt and f.idx == 0

    def morphisms(self) -> Iterable[MorRef]:
        """All basis morphisms in canonical (pair-sorted, index) order."""
        for (i, j) in sorted(self._homs):
            for k in range(len(self._homs[(i, j)])):
                yield MorRef(i, j, k)

    def morphisms_from(self, i: int) -> tuple[MorRef, ...]:
        """Basis morphisms with source i in canonical order, identity first.

        The index is built once per category; walking g over
        ``morphisms_from(f.tgt)`` visits the composable pairs (g, f) in the
        same order as a scan of all g filtered on ``g.src == f.tgt``.
        """
        if self._from is None:
            index = {
                src: tuple(
                    MorRef(src, tgt, k) for tgt in tgts for k in range(len(self._homs[(src, tgt)]))
                )
                for src, tgts in source_index(self._homs).items()
            }
            object.__setattr__(self, "_from", index)
        return self._from.get(i, ())

    def degree(self, f: MorRef) -> int:
        return self._homs[(f.src, f.tgt)][f.idx]

    def name(self, f: MorRef) -> str:
        if self.is_identity(f):
            return f"id@{self.objects[f.src]}"
        return f"{self.objects[f.src]}->{self.objects[f.tgt]}#{f.idx}"

    def compose(self, g: MorRef, f: MorRef) -> dict[int, int | Fraction]:
        """Sparse coefficients of g after f over the basis of hom(f.src, g.tgt)."""
        if f.tgt != g.src:
            raise ValueError("morphisms are not composable")
        return dict(self._comp.get((g, f), {}))

    def composition_entries(self):
        for key in sorted(self._comp):
            yield key, dict(self._comp[key])


def source_index(pairs: Iterable[tuple[int, int]]) -> dict[int, tuple[int, ...]]:
    """Targets of each source among (src, tgt) pairs, in ascending order."""
    out: dict[int, list[int]] = {}
    for src, tgt in sorted(pairs):
        out.setdefault(src, []).append(tgt)
    return {src: tuple(tgts) for src, tgts in out.items()}


def _fill_identities(comp: dict, homs: Mapping[tuple[int, int], Sequence[int]]) -> None:
    """Add the strict identity composites that ``comp`` lacks, in canonical order."""
    ids = {i: MorRef(i, i, 0) for i, j in homs if i == j}
    for (i, j) in sorted(homs):
        for k in range(len(homs[(i, j)])):
            f = MorRef(i, j, k)
            for key in ((ids[j], f), (f, ids[i])):
                if key not in comp:
                    comp[key] = {k: 1}


# ---------------------------------------------------------------------------
# constructors

# largest object count a builder makes; tensor_bp(p) has prod(p_i - 1)
# objects, the rank of the lattices built from it, so the lattice routes
# share this limit; every builder reads both limits here when it runs
MAX_RANK = 4096

# largest composition table a product stores: tensor(A, B) holds exactly
# len(A._comp) * len(B._comp) composites, identities included, a count
# known before either table is built (``_composite_count``)
MAX_COMPOSITES = 2**20


def tower_label(x: tuple, j: int) -> tuple:
    """Label of the object at level j over x in a tower stage: x flattened with j."""
    return x + (j,)


def a_category(m: int) -> DirectedGradedCategory:
    """Linear quiver category with m objects 1..m.

    One degree-1 generator from each object to its successor; all other homs
    between distinct objects vanish, and generator composites are zero.
    """
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ValueError("object count must be a positive integer")
    check_limit("object count", m, MAX_RANK)
    homs = {(i, i + 1): (1,) for i in range(m - 1)}
    return DirectedGradedCategory(tuple(range(1, m + 1)), homs)


class _ProductTable:
    """The composition table of a product, built on first read and kept.

    ``count`` is its size, known before the build.  The build drops the
    arguments of ``_product_composites``, so no factor outlives its use.
    """

    __slots__ = ("count", "_args", "_table")

    def __init__(self, count: int, *args):
        self.count, self._args, self._table = count, args, None

    def table(self) -> dict:
        if self._table is None:
            # every pending table below this one, each listed after the products
            # that read it, so the builds below run deepest first in a loop and
            # not one stack level per factor of a long tensor chain
            pending, stack = [], [self]
            while stack:
                node = stack.pop()
                if node._table is None:
                    pending.append(node)
                    stack.extend(f._pending for f in node._args[:2] if f._pending is not None)
            for node in reversed(pending):
                if node._table is None:
                    node._table, node._args = _product_composites(*node._args), None
        return self._table


def tensor(A: DirectedGradedCategory, B: DirectedGradedCategory) -> DirectedGradedCategory:
    """Graded tensor product with the Koszul sign rule.

    Objects are pairs in A-major order; hom bases are products with the A
    factor outermost; compositions carry the sign (-1)^(|g1| |f2|) for
    (f1 (x) g1) after (f2 (x) g2).  Objects and homs are built here, the
    composition table on its first read (``_product_composites``).
    """
    nb = len(B.objects)
    check_limit("object count", len(A.objects) * nb, MAX_RANK)
    count = A._composite_count() * B._composite_count()
    check_limit("composite count", count, MAX_COMPOSITES)
    objects = tuple((a, b) for a in A.objects for b in B.objects)
    homs: dict[tuple[int, int], tuple[int, ...]] = {}
    pairs_b = sorted(B._homs.items())
    for (ia, ja), ha in sorted(A._homs.items()):
        for (ib, jb), hb in pairs_b:
            i, j = ia * nb + ib, ja * nb + jb
            if i < j:
                homs[(i, j)] = tuple(da + db for da in ha for db in hb)
    # both tables are in __init__'s form (ref keys, nonzero exact coefficients), so no copy
    homs.update({(i, i): (0,) for i in range(len(objects))})
    table = _ProductTable(count, A, B, homs)
    return object.__new__(DirectedGradedCategory)._keep(objects, homs, table)


def _product_composites(A: DirectedGradedCategory, B: DirectedGradedCategory,
                        homs: dict) -> dict:
    """Composition table of the product of A and B whose hom table is ``homs``."""
    nb = len(B.objects)
    # each basis morphism of hom(i, j), i < j, with its A and B factors and their degrees
    factors: dict[tuple[int, int], list[tuple[MorRef, MorRef, MorRef, int, int]]] = {}
    for (i, j) in homs:
        if i < j:
            (ia, ib), (ja, jb) = divmod(i, nb), divmod(j, nb)
            ha, hb = A._homs[(ia, ja)], B._homs[(ib, jb)]
            factors[(i, j)] = [
                (MorRef(i, j, ka * len(hb) + kb), MorRef(ia, ja, ka), MorRef(ib, jb, kb),
                 da, db)
                for ka, da in enumerate(ha)
                for kb, db in enumerate(hb)
            ]

    # the factors are composable by construction, so their tables are read
    # directly rather than through the checking, copying ``compose``
    comp_a, comp_b, homs_b = A._comp, B._comp, B._homs
    comp: dict[tuple[MorRef, MorRef], dict[int, int | Fraction]] = {}
    targets = source_index(factors)
    for (i, j) in sorted(factors):
        for l in targets.get(j, ()):
            for f, f_a, f_b, deg_fa, _ in factors[(i, j)]:
                for g, g_a, g_b, _, deg_gb in factors[(j, l)]:
                    ca = comp_a.get((g_a, f_a))
                    if not ca:
                        continue
                    cb = comp_b.get((g_b, f_b))
                    if not cb:
                        continue
                    odd = deg_gb * deg_fa % 2
                    width = len(homs_b.get((f_b.src, g_b.tgt), ()))
                    entry: dict[int, int | Fraction] = {}
                    for ra, va in ca.items():
                        for rb, vb in cb.items():
                            # a unit factor needs no product, and a product of
                            # Fractions may come out integral
                            v = vb if va == 1 else va if vb == 1 else exact(va * vb)
                            entry[ra * width + rb] = -v if odd else v
                    comp[(g, f)] = entry
    _fill_identities(comp, homs)
    return comp


def relabel(C: DirectedGradedCategory, mapping: Mapping) -> DirectedGradedCategory:
    """Rename objects through ``mapping``, keeping their order.

    No index changes, so the result shares C's hom and composition tables,
    a pending one included, which is then built once for both, and an
    extension view; only the labels and their index are new.
    """
    objects = tuple(mapping[label] for label in C.objects)
    if len(set(objects)) != len(objects):
        raise ValueError("relabeling must be injective")
    table = C._pending or C._comp
    return object.__new__(DirectedGradedCategory)._keep(objects, C._homs, table, C._from)


def tensor_bp(p: Iterable[int]) -> DirectedGradedCategory:
    """Iterated tensor of linear quivers with p_i - 1 objects, flat tuple labels.

    Objects are the tuples (i_1, ..., i_n) with 1 <= i_k <= p_k - 1 in
    lexicographic order; hom(u, v) is one-dimensional exactly when v - u is a
    0/1 vector, in degree equal to the number of increments.
    """
    p = exponent_seq(p)
    check_limit("object count prod(p_i - 1) =", prod(pi - 1 for pi in p), MAX_RANK)
    # a_category(m) stores 3m - 2 composites, and tensor multiplies the counts
    check_limit("composite count", prod(3 * pi - 5 for pi in p), MAX_COMPOSITES)
    C = a_category(p[0] - 1)
    C = relabel(C, {label: (label,) for label in C.objects})
    for pi in p[1:]:
        C = tensor(C, a_category(pi - 1))
        C = relabel(C, {label: tower_label(*label) for label in C.objects})
    return C


# ---------------------------------------------------------------------------
# invariants and comparisons


def euler_matrix(C: DirectedGradedCategory) -> tuple[tuple[int, ...], ...]:
    """Rows of alternating-sum hom dimensions over C's objects: upper
    triangular with unit diagonal."""
    n = len(C.objects)
    rows = [[0] * n for _ in range(n)]
    for (i, j), degrees in C._homs.items():
        rows[i][j] = sum((-1) ** d for d in degrees)
    return tuple(map(tuple, rows))


def formality_check(C: DirectedGradedCategory) -> dict | None:
    """No hom space survives in a degree reachable by a higher product.

    For every chain X_0 < ... < X_d with d >= 3 and all consecutive homs
    nonzero, with s the sum of one basis degree per step, the space
    hom(X_0, X_d) must vanish in degree s + 2 - d.  The scan walks chains by
    dynamic programming on (endpoint, length, degree sum).  It returns None
    when it passes, else the first breaking chain: its end objects X_0 and
    X_d, its length d and the degree where hom(X_0, X_d) is not 0.
    """
    n = len(C.objects)
    edges: dict[int, list[tuple[int, tuple[int, ...]]]] = {i: [] for i in range(n)}
    for (i, j) in sorted(C.hom_pairs()):
        if i < j:
            edges[i].append((j, tuple(sorted(set(C.hom(i, j))))))
    for x0 in range(n):
        frontier: dict[int, set[int]] = {x0: {0}}
        for depth in range(1, n):
            nxt: dict[int, set[int]] = {}
            for cur, sums in frontier.items():
                for (j, degs) in edges[cur]:
                    bucket = nxt.setdefault(j, set())
                    for s in sums:
                        for d in degs:
                            bucket.add(s + d)
            if not nxt:
                break
            if depth >= 3:
                for cur, sums in nxt.items():
                    target = set(C.hom(x0, cur))
                    for s in sums:
                        if s + 2 - depth in target:
                            degree = min(target.intersection(t + 2 - depth for t in sums))
                            ends = {"from": str(C.objects[x0]), "to": str(C.objects[cur])}
                            return {**ends, "length": depth, "degree": degree}
            frontier = nxt
    return None


def square_sign_audit(C: DirectedGradedCategory) -> list[str]:
    """Check that parallel two-step generator paths anticommute.

    For objects P < Q and distinct middles M1, M2 with degree-1 basis
    morphisms P -> M_k -> Q, the two composites must be nonzero and negatives
    of each other.  Returns human-readable violations, empty when clean.
    """
    violations = []
    for i in range(len(C.objects)):
        # degree-1 paths i -> m -> j grouped by j, in (m, f, g) order
        by_target: dict[int, list[tuple[int, dict[int, int | Fraction]]]] = {}
        for f in C.morphisms_from(i):
            if C.degree(f) != 1:
                continue
            for g in C.morphisms_from(f.tgt):
                if C.degree(g) == 1:
                    by_target.setdefault(g.tgt, []).append((f.tgt, C.compose(g, f)))
        for j, paths in sorted(by_target.items()):
            for a in range(len(paths)):
                for b in range(a + 1, len(paths)):
                    m1, c1 = paths[a]
                    m2, c2 = paths[b]
                    if m1 == m2:
                        continue
                    neg = {k: -v for k, v in c2.items()}
                    if not c1 or not c2 or c1 != neg:
                        violations.append(
                            f"square {C.objects[i]} -> {{{C.objects[m1]}, {C.objects[m2]}}} "
                            f"-> {C.objects[j]} does not anticommute"
                        )
    return violations


# ---------------------------------------------------------------------------
# validation


def validate(C: DirectedGradedCategory) -> tuple[str, ...]:
    """Check degree additivity, unit strictness and associativity of the table.

    Returns the violations, empty when the table passes, in the order of a
    full scan: table entries in sorted order, then the unit laws per basis
    morphism, then every composable triple (h, g, f).  Two kinds of triple
    are settled without being evaluated.  A triple whose two composites g.f
    and h.g are both zero holds always, both sides being empty sums.  A
    triple with an identity in some slot holds whenever the checks before it
    found nothing: strict units on every basis morphism, with every composite
    landing on a basis index, make both sides the same composite.  After any
    earlier violation those triples are evaluated like the rest.
    """
    comp, homs, name = C._comp, C._homs, C.name
    entry_bad: list[tuple[tuple[MorRef, MorRef], list[str]]] = []
    for (g, f), entry in comp.items():
        if f.tgt != g.src:
            message = f"composition entry for non-composable pair ({name(g)}, {name(f)})"
            entry_bad.append(((g, f), [message]))
            continue
        basis = homs.get((f.src, g.tgt), ())
        total = homs[(g.src, g.tgt)][g.idx] + homs[(f.src, f.tgt)][f.idx]
        found = []
        for idx in entry:
            if not 0 <= idx < len(basis):
                found.append(f"composition ({name(g)}, {name(f)}) hits invalid basis index {idx}")
            elif basis[idx] != total:
                found.append(
                    f"composition ({name(g)}, {name(f)}) lands in degree "
                    f"{basis[idx]}, expected {total}"
                )
        if found:
            entry_bad.append(((g, f), found))
    bad = [message for _, found in sorted(entry_bad) for message in found]

    for f in C.morphisms():
        unit = {f.idx: 1}  # the table holds no zero coefficient
        if comp.get((MorRef(f.tgt, f.tgt, 0), f)) != unit:
            bad.append(f"left unit fails for {name(f)}")
        if comp.get((f, MorRef(f.src, f.src, 0))) != unit:
            bad.append(f"right unit fails for {name(f)}")

    # morphisms_from lists the identity first; skip it when units are settled
    start = 0 if bad else 1
    for f in C.morphisms():
        if start and f.src == f.tgt:
            continue
        for g in C.morphisms_from(f.tgt)[start:]:
            gf = comp.get((g, f))
            for h in C.morphisms_from(g.tgt)[start:]:
                hg = comp.get((h, g))
                if not gf and not hg:
                    continue  # both sides are empty sums
                lhs: dict[int, int | Fraction] = {}
                if gf:
                    for idx, coeff in gf.items():
                        for ridx, rcoeff in comp.get((h, MorRef(f.src, g.tgt, idx)), {}).items():
                            lhs[ridx] = lhs.get(ridx, 0) + coeff * rcoeff
                rhs: dict[int, int | Fraction] = {}
                if hg:
                    for idx, coeff in hg.items():
                        for ridx, rcoeff in comp.get((MorRef(g.src, h.tgt, idx), f), {}).items():
                            rhs[ridx] = rhs.get(ridx, 0) + coeff * rcoeff
                lhs = {k: v for k, v in lhs.items() if v != 0}
                rhs = {k: v for k, v in rhs.items() if v != 0}
                if lhs != rhs:
                    bad.append(f"associativity fails on ({name(h)}, {name(g)}, {name(f)})")
    return tuple(bad)


# ---------------------------------------------------------------------------
# gauge equivalence


class GaugeResult(NamedTuple):
    ok: bool
    witness: dict[str, int | Fraction] | None
    reason: str | None


def _prime_factors(n: int) -> dict[int, int]:
    n = abs(n)
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def gauge_isomorphic(
    C: DirectedGradedCategory, D: DirectedGradedCategory, bijection: Mapping
) -> GaugeResult:
    """Decide whether rescaling basis morphisms carries C onto D.

    ``bijection`` maps C labels to D labels and must be defined exactly on
    C's objects (ValueError otherwise).  An image off D's objects or out of
    order, or a hom of either category with two basis elements in one
    degree, fails the comparison; otherwise it reduces to a linear system
    on the scalars: a sign system over GF(2) and one integer system per
    prime occurring in the composition coefficient ratios.  On success the
    witness maps morphism names of C to the scalars.
    """
    n = len(C.objects)
    if len(D.objects) != n:
        return GaugeResult(False, None, "object counts differ")
    if set(bijection.keys()) != set(C.objects):
        raise ValueError("bijection must be defined exactly on the objects of C")
    for i, label in enumerate(C.objects):
        image = bijection[label]
        if image not in D._index:
            reason = f"bijection image of {label} is {image!r}, not an object of D"
            return GaugeResult(False, None, reason)
        if D.object_index(image) != i:
            reason = (f"bijection is not order-preserving at {label}: its image {image} "
                      f"is object {D.object_index(image)} of D, expected {i}")
            return GaugeResult(False, None, reason)

    # hom returns () for a pair that no table stores, so the stored pairs
    # are the only ones where the two categories can differ
    pairs = sorted(C.hom_pairs() | D.hom_pairs())
    for side, cat in (("C", C), ("D", D)):
        for (i, j), degs in sorted(cat._homs.items()):
            if len(set(degs)) != len(degs):
                reason = (f"hom ({cat.objects[i]}, {cat.objects[j]}) of {side} has degrees "
                          f"{degs}, expected at most one basis element per degree")
                return GaugeResult(False, None, reason)

    # match bases by degree: basis index k of C goes to the index of the D
    # basis element of the same degree, for morphisms and composites alike
    to_d: dict[tuple[int, int], dict[int, int]] = {}
    for (i, j) in pairs:
        degs_c, degs_d = C.hom(i, j), D.hom(i, j)
        if sorted(degs_c) != sorted(degs_d):
            reason = f"graded dimensions differ at ({C.objects[i]}, {C.objects[j]})"
            return GaugeResult(False, None, reason)
        at_d = {deg: k for k, deg in enumerate(degs_d)}
        to_d[(i, j)] = {k: at_d[deg] for k, deg in enumerate(degs_c)}

    morphs = list(C.morphisms())
    var = {f: i for i, f in enumerate(morphs)}
    in_d = {m: MorRef(m.src, m.tgt, to_d[(m.src, m.tgt)][m.idx]) for m in morphs}
    comp_c, comp_d = C._comp, D._comp
    # (g, f, h, ratio, signed prime exponents of ratio) as variable indices:
    # the scalars must satisfy lam_g * lam_f = ratio * lam_h
    equations: list[tuple[int, int, int, int | Fraction, dict[int, int]]] = []
    for f in morphs:
        fD = in_d[f]
        for g in C.morphisms_from(f.tgt):
            cc = comp_c.get((g, f)) or {}
            cd = comp_d.get((in_d[g], fD)) or {}
            if not cc and not cd:
                continue  # zero on both sides: no equation
            # an index off either basis (negative ones included) matches nothing
            fwd = to_d.get((f.src, g.tgt), {})
            if {fwd.get(idx) for idx in cc} != cd.keys():
                reason = f"composition vanishing patterns differ at ({C.name(g)}, {C.name(f)})"
                return GaugeResult(False, None, reason)
            for idx, vc in cc.items():
                vd = cd[fwd[idx]]
                if vc == vd or vc == -vd:
                    # a sign, the tower's only ratio: no prime to factor
                    ratio, powers = (1 if vc == vd else -1), {}
                else:
                    # never vc / vd, which is a float on two ints
                    ratio = exact(Fraction(vc, vd))
                    powers = _prime_factors(ratio.numerator)
                    for q, e in _prime_factors(ratio.denominator).items():
                        powers[q] = -e  # numerator and denominator are coprime
                equations.append((var[g], var[f], var[MorRef(f.src, g.tgt, idx)], ratio, powers))

    nvars = len(morphs)
    # XOR collapses repeated variables mod 2 (g can equal f on identity loops)
    signs = solve_mod2(
        [(1 << g) ^ (1 << f) ^ (1 << h) for g, f, h, _, _ in equations],
        [0 if ratio > 0 else 1 for _, _, _, ratio, _ in equations],
        nvars,
    )
    if signs is None:
        return GaugeResult(False, None, "sign system is inconsistent")

    scalars = [-1 if s else 1 for s in signs]
    primes = sorted({q for *_, powers in equations for q in powers})
    if primes:
        # the rows e_g + e_f - e_h, shared by every prime's system
        rows = [[0] * nvars for _ in equations]
        for row, (g, f, h, _, _) in zip(rows, equations):
            row[g] += 1
            row[f] += 1
            row[h] -= 1
        system = RatMatrix(rows, cols=nvars)
        for prime in primes:
            exps = solve_integer(system, [powers.get(prime, 0) for *_, powers in equations])
            if exps is None:
                return GaugeResult(False, None, f"magnitude system inconsistent at prime {prime}")
            scalars = [exact(v * Fraction(prime) ** e) for v, e in zip(scalars, exps)]

    for g, f, h, ratio, _ in equations:
        if scalars[g] * scalars[f] != ratio * scalars[h]:  # scalars are nonzero
            return GaugeResult(False, None, "witness verification failed")

    return GaugeResult(True, {C.name(m): v for m, v in zip(morphs, scalars)}, None)


# ---------------------------------------------------------------------------
# serialization


def to_json_dict(C: DirectedGradedCategory) -> dict:
    """Plain-dict form: objects as label strings, homs with degrees and
    names, compositions as coefficient strings (exact rationals)."""
    # named once; a broken table's composite outside the basis is named on the spot
    names = {f: C.name(f) for f in C.morphisms()}
    homs = [
        {
            "src": str(C.objects[f.src]),
            "tgt": str(C.objects[f.tgt]),
            "degree": C.degree(f),
            "name": name,
        }
        for f, name in names.items()
    ]
    comp = []
    for (g, f), entry in C.composition_entries():
        for idx in sorted(entry):
            result = MorRef(f.src, g.tgt, idx)
            comp.append(
                {
                    "g": names.get(g) or C.name(g),
                    "f": names.get(f) or C.name(f),
                    "result": names.get(result) or C.name(result),
                    "coeff": str(entry[idx]),
                }
            )
    return {
        "objects": [str(x) for x in C.objects],
        "homs": homs,
        "comp": comp,
    }
