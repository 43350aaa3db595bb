"""Directed suspension of a graded category via cones in twisted complexes.

``directed_extension(A, k)`` stacks k copies of A as Futaki-Ueda do, as the
tensor product of the levels k > ... > 1 (all morphisms in degree 0) with A.
Objects are pairs (X, j) for X in A and 1 <= j <= k, higher j first and A's
order inside each level; hom_A is copied between levels j >= j', and each
object gains a degree-0 copy e_{X,j} of the identity from (X, j+1) to (X, j).
Each level hom is one degree-0 morphism and each level composite is 1 at
index 0, so the product's composite of g after f is A's composite of the
morphisms they copy, over the same basis indices, and its Koszul sign
(-1)^(|level| |A part|) is +1.  So the extension builds no composition
table: its table is a read-only view that looks each composite up in A's.

``suspend(A, k)`` forms the cones S_{X,j} = Cone(e_{X,j}) for j < k, computes
all hom-complex cohomologies between them, and assembles a new directed
graded category from the surviving classes with composition induced on
representatives.  Each cone's identity class is composed in the same loop as
every other class, and ``validate`` checks the unit law on the result.
Iterating from a linear quiver builds the categories attached to exponent
sequences: ``fukaya_bp``, checked by ``fukaya_checks``.

The hom complex between S_{x,j} and S_{x',j'} is fixed, table for table, by
its shape: the degree tuple of hom_A(x, x'), whether x = x', and j - j'
clamped to [-2, 2].  The extension copies hom_A index for index and every
connector is a copy of an identity, so the basis, the position table and
every differential depend on nothing else, provided A's identities act
strictly.  ``suspend`` checks that precondition, computes each shape once
and rebinds the result to every later pair of that shape.

Composition is shared the same way.  The block of composites over the cones
(x_a, j1) -> (x_b, j2) -> (x_c, j3) reads only the three hom complexes, their
basis classes and class index, and the extension's composites, which are
A's copied index for index at every level.  So the block is fixed by a, b,
c and the three clamped level gaps, and ``suspend`` composes it once and
reuses it for every level translate.  The third gap, between j1 and j3,
is kept: the block projects onto that pair's complex, and the first two
gaps fix the third only when both lie in [-1, 1].
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import comb
from typing import Iterable

from . import dgcat
from .dgcat import (
    DirectedGradedCategory,
    MorRef,
    _fill_identities,
    a_category,
    formality_check,
    gauge_isomorphic,
    square_sign_audit,
    tensor,
    tensor_bp,
    relabel,
    source_index,
    tower_label,
    validate,
)
from .exactlin import ComplexError
from .grading import check_limit, exponent_seq
from .twisted import (
    Class,
    HomComplex,
    compose_classes,
    cone,
    hom_complex,
    identity_class,
    rebind,
)


class SuspensionError(RuntimeError):
    """A suspension output failed one of its structural checks."""


def directed_extension(A: DirectedGradedCategory, k: int) -> DirectedGradedCategory:
    """k stacked copies of A with identity connectors from level j+1 to level j.

    Object order: (X, j) < (X', j') iff j > j', or j = j' and X before X'.
    hom((X, j), (X', j')) is a copy of hom_A(X, X') when j >= j' (the copy of
    the identity appearing only for j > j'), and zero when j < j'.  It is the
    tensor product with A of the levels k > ... > 1, which have one degree-0
    morphism down each gap and every composite 1.

    So E's composite of g after f is A's composite of the morphisms they copy,
    over the same basis indices: the level factor is 1 at index 0, and the
    Koszul sign, (-1) to a level degree times an A degree, is +1 because every
    level degree is 0.  E's table is a view of A's (``_ExtensionTable``), and
    nothing is composed here.  A zero identity composite of A stays zero in
    the view, where the product would give the strict unit; ``suspend``
    refuses such an A first.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 2:
        raise ValueError("stacking needs at least two levels")
    check_limit("object count", k * len(A.objects), dgcat.MAX_RANK)
    # E answers for comb(k + 2, 3) copies of each of A's composites, one per
    # level chain a <= b <= c, all looked up and none stored
    check_limit("composite count", comb(k + 2, 3) * A._composite_count(), dgcat.MAX_COMPOSITES)
    n = len(A.objects)
    objects = tuple((x, j) for j in range(k, 0, -1) for x in A.objects)
    # level index 0 is level k, so (x, j) has index (k - j) * n + index of x
    homs = {(lf * n + a, lg * n + b): degs
            for (a, b), degs in A._homs.items() for lf in range(k) for lg in range(lf, k)}
    table = _ExtensionTable(A._comp, n, k)
    return object.__new__(DirectedGradedCategory)._keep(objects, homs, table)


class _ExtensionTable(Mapping):
    """The composition table of ``directed_extension(A, k)``, read from A's.

    With f from (a, lf) to (b, lg) and g from (b, lg) to (c, lh), in level
    indices (level k first) with lf <= lg <= lh, the entry of (g, f) is A's
    of (b -> c #g.idx, a -> b #f.idx); any other pair has none.  Each of A's
    entries appears once per level chain, comb(k + 2, 3) times.
    """

    __slots__ = ("_table", "_n", "_k")

    def __init__(self, table: Mapping, n: int, k: int):
        self._table, self._n, self._k = table, n, k

    def get(self, key, default=None):
        (gs, gt, gi), (fs, ft, fi) = key
        if gs != ft:
            return default
        n = self._n
        (lf, a), (lg, b), (lh, c) = divmod(fs, n), divmod(gs, n), divmod(gt, n)
        if not 0 <= lf <= lg <= lh < self._k:
            return default
        # A's keys are MorRefs, which hash and compare as plain tuples
        return self._table.get(((b, c, gi), (a, b, fi)), default)

    def __getitem__(self, key):
        entry = self.get(key)
        if entry is None:
            raise KeyError(key)
        return entry

    def __iter__(self):
        n, k = self._n, self._k
        for lf in range(k):
            for lg in range(lf, k):
                for lh in range(lg, k):
                    for g, f in self._table:
                        yield (MorRef(lg * n + g.src, lh * n + g.tgt, g.idx),
                               MorRef(lf * n + f.src, lg * n + f.tgt, f.idx))

    def __len__(self) -> int:
        return comb(self._k + 2, 3) * len(self._table)


def connector(E: DirectedGradedCategory, x, j: int) -> MorRef:
    """The copy of id_x from (x, j+1) to (x, j) inside the extension."""
    src = E.object_index((x, j + 1))
    tgt = E.object_index((x, j))
    degs = E.hom(src, tgt)
    if not degs or degs[0] != 0:
        raise ValueError("no connector at this position")
    return MorRef(src, tgt, 0)


def _level_gap(j: int, j2: int) -> int:
    """j - j2 clamped to [-2, 2], the level part of the sharing keys: cones
    two or more levels apart have hom complexes with the same tables."""
    return max(-2, min(2, j - j2))


def _block_key(x: tuple[int, int], y: tuple[int, int], z: tuple[int, int]) -> tuple:
    """What fixes the composites over the cones at spots x -> y -> z, each
    (object index in A, level): the three objects and the three level gaps."""
    (a, j1), (b, j2), (c, j3) = x, y, z
    return (a, b, c, _level_gap(j1, j2), _level_gap(j2, j3), _level_gap(j1, j3))


def suspend(A: DirectedGradedCategory, k: int) -> DirectedGradedCategory:
    """Category of cones S_{x,j} = Cone((x, j+1) -> (x, j)) for 1 <= j < k.

    Hom spaces are hom-complex cohomologies with deterministic
    representatives; compositions are induced by composing representatives
    and projecting.  Objects are labelled (x, j), ordered by A's order
    first, then ascending level.  Each cone's identity class is composed with
    every other class in the one composition loop, and ``validate`` checks
    that it acts as a unit, naming the first morphism where it does not.
    """
    if k < 2:
        raise ValueError("suspension needs at least two levels")
    # the hom complexes below are shared by shape, which needs strict units
    for f in A.morphisms():
        unit = {f.idx: 1}
        if A.compose(A.identity(f.tgt), f) != unit or A.compose(f, A.identity(f.src)) != unit:
            raise SuspensionError(f"identities do not act strictly on {A.name(f)}")
    # and composing representatives looks every composite up in its hom basis
    for (g, f), entry in A._comp.items():
        if any(not 0 <= idx < len(A.hom(f.src, g.tgt)) for idx in entry):
            raise SuspensionError(f"({A.name(g)}, {A.name(f)}) lands outside its hom basis")
    E = directed_extension(A, k)
    spots = [(ia, j) for ia in range(len(A.objects)) for j in range(1, k)]
    cones = {(ia, j): cone(E, connector(E, A.objects[ia], j)) for ia, j in spots}
    labels = tuple((A.objects[ia], j) for ia, j in spots)

    homs_data: dict[tuple[int, int], HomComplex] = {}
    shapes: dict[tuple, HomComplex] = {}
    for si, (ia, j) in enumerate(spots):
        for sj in range(si, len(spots)):
            ib, j2 = spots[sj]
            key = (A.hom(ia, ib), ia == ib, _level_gap(j, j2))
            X, Y = cones[(ia, j)], cones[(ib, j2)]
            if key in shapes:
                homs_data[(si, sj)] = rebind(shapes[key], X, Y)
            else:
                homs_data[(si, sj)] = shapes[key] = hom_complex(X, Y)

    # basis index idx of hom (si, sj) is the class basis_classes[(si, sj)][idx],
    # the r-th representative in degree d, and class_index[(si, sj)][(d, r)] = idx;
    # each cone's one endomorphism class is its identity class, at (si, si)
    homs: dict[tuple[int, int], tuple[int, ...]] = {}
    basis_classes: dict[tuple[int, int], tuple[Class, ...]] = {}
    class_index: dict[tuple[int, int], dict[tuple[int, int], int]] = {}
    for (si, sj), h in homs_data.items():
        dims = h.cohomology.dims
        if si == sj and dims != {0: 1}:
            raise SuspensionError(
                f"endomorphisms of cone {labels[si]} have dims {dims}, expected {{0: 1}}"
            )
        pairs = [(d, r) for d in sorted(dims) for r in range(dims[d])]
        if pairs:
            homs[(si, sj)] = tuple(d for d, _ in pairs)
            basis_classes[(si, sj)] = (identity_class(h),) if si == sj else tuple(
                (d, tuple(int(t == r) for t in range(dims[d]))) for d, r in pairs
            )
            class_index[(si, sj)] = {dr: idx for idx, dr in enumerate(pairs)}

    # an identity composite is kept even when zero, so that ``validate``
    # reports a failing unit; only id.id is left to the strict fill.  Each
    # block {(gi, fi): entry} is composed once per ``_block_key``, and every
    # level translate shares its entries, which no one changes afterwards
    comp: dict[tuple[MorRef, MorRef], dict[int, int | Fraction]] = {}
    blocks: dict[tuple, dict[tuple[int, int], dict[int, int | Fraction]]] = {}
    targets = source_index(class_index)
    for (si, sj) in sorted(class_index):
        for sl in targets.get(sj, ()):
            if si == sj == sl:
                continue
            key = _block_key(spots[si], spots[sj], spots[sl])
            block = blocks.get(key)
            if block is None:
                block = blocks[key] = {}
                index = class_index.get((si, sl), {})
                for fi, f_class in enumerate(basis_classes[(si, sj)]):
                    for gi, g_class in enumerate(basis_classes[(sj, sl)]):
                        d, coeffs = compose_classes(
                            homs_data[(sj, sl)], homs_data[(si, sj)], homs_data[(si, sl)],
                            g_class, f_class,
                        )
                        entry = {index[(d, t)]: c for t, c in enumerate(coeffs) if c != 0}
                        if entry or si == sj or sj == sl:
                            block[(gi, fi)] = entry
            for (gi, fi), entry in block.items():
                comp[(MorRef(sj, sl, gi), MorRef(si, sj, fi))] = entry
    del blocks  # the checks below need only comp

    _fill_identities(comp, homs)
    out = object.__new__(DirectedGradedCategory)._keep(labels, homs, comp)
    violations = validate(out)
    if violations:
        raise SuspensionError("suspension output fails validation: " + violations[0])
    chain = formality_check(out)
    if chain is not None:
        raise SuspensionError(f"suspension output fails the formality scan: {chain}")
    return out


def verify_suspension(A: DirectedGradedCategory, k: int) -> DirectedGradedCategory:
    """suspend(A, k), checked against tensor(A, a_category(k - 1)).

    Both label the object over x at level j as (x, j), and the canonical
    bijection matches equal labels.  Each failed part gives one message:
    each graded-dimension mismatch, a failed gauge comparison, and each
    square of the suspension output that does not anticommute.  Any message
    raises SuspensionError with all of them joined by "; ".
    """
    S = suspend(A, k)
    T = tensor(A, a_category(k - 1))
    messages: list[str] = []
    # both have len(A) * (k - 1) objects, and a pair that neither stores has
    # empty homs on both sides
    for (i, j) in sorted(S.hom_pairs() | T.hom_pairs()):
        if S.graded_dims(i, j) != T.graded_dims(i, j):
            messages.append(
                f"graded dims differ at ({S.objects[i]}, {S.objects[j]}): "
                f"{S.graded_dims(i, j)} vs {T.graded_dims(i, j)}"
            )
    gauge = gauge_isomorphic(S, T, {label: label for label in S.objects})
    if not gauge.ok:
        messages.append(f"gauge comparison failed: {gauge.reason}")
    messages.extend(square_sign_audit(S))
    if messages:
        raise SuspensionError("; ".join(messages))
    return S


def suspension_tower(p: Iterable[int], verify: bool = False) -> list[DirectedGradedCategory]:
    """All stages of the iterated suspension for an exponent sequence.

    Stage 0 is the linear quiver on p_1 - 1 objects with 1-tuple labels; each
    later stage suspends the previous one with k = p_i and flattens each
    label (x, j) to x + (j,), so stage t has objects indexed by (i_1, ...,
    i_{t+1}).  With ``verify`` each step is built once by
    ``verify_suspension``, checked against the tensor of the previous stage
    with a linear quiver, and the checked category becomes the next stage; a
    failed step raises SuspensionError.
    """
    p = exponent_seq(p)
    base = a_category(p[0] - 1)
    stage = relabel(base, {x: (x,) for x in base.objects})
    tower = [stage]
    for pi in p[1:]:
        S = verify_suspension(stage, pi) if verify else suspend(stage, pi)
        stage = relabel(S, {x: tower_label(*x) for x in S.objects})
        tower.append(stage)
    return tower


def fukaya_checks(p: Iterable[int]) -> tuple[DirectedGradedCategory | None, tuple[tuple, ...]]:
    """The verified tower's last stage and its named results, as (name, ok, detail).

    The results are ``suspension-pipeline``, then ``category-valid``,
    ``formality``, ``gauge-vs-tensor`` (the last stage against
    ``tensor_bp(p)``) and ``square-sign-audit``; a detail is empty on success.
    A failed pipeline gives None and its one result.  With two or more
    entries the last step has checked the last stage: ``suspend`` raises on a
    failed validation or formality scan and ``verify_suspension`` on any
    audit message, so those three pass without running again.
    With one entry no step ran, so they check the base here.
    """
    p = exponent_seq(p)
    try:
        C = suspension_tower(p, verify=True)[-1]
    except (ComplexError, SuspensionError) as exc:
        return None, (("suspension-pipeline", False, {"error": str(exc)}),)
    base = len(p) == 1
    violations = list(validate(C))[:5] if base else []
    chain = formality_check(C) if base else None
    gauge = gauge_isomorphic(C, tensor_bp(p), {x: x for x in C.objects})
    audit = square_sign_audit(C)[:5] if base else []
    return C, (
        ("suspension-pipeline", True, {}),
        ("category-valid", not violations, {"violations": violations} if violations else {}),
        ("formality", chain is None, chain or {}),
        ("gauge-vs-tensor", gauge.ok, {} if gauge.ok else {"reason": gauge.reason or ""}),
        ("square-sign-audit", not audit, {"problems": audit} if audit else {}),
    )


def fukaya_bp(p: Iterable[int], verify: bool = False) -> DirectedGradedCategory:
    """Iterated suspension attached to an exponent sequence.

    With ``verify`` the category comes from ``fukaya_checks``, and its first
    failing result raises SuspensionError: a failed step with the step's own
    message, any later check with its name and detail.
    """
    if not verify:
        return suspension_tower(p)[-1]
    C, checks = fukaya_checks(p)
    for name, ok, detail in checks:
        if not ok:
            raise SuspensionError(detail["error"] if C is None else f"{name} failed: {detail}")
    return C
