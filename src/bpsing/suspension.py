"""Directed suspension of a graded category via cones in twisted complexes.

``directed_extension(A, k)`` stacks k copies of A as Futaki-Ueda do, as the
tensor product of the levels k > ... > 1 (all morphisms in degree 0) with A.
Objects are pairs (X, j) for X in A and 1 <= j <= k, higher j first and A's
order inside each level; hom_A is copied between levels j >= j', and each
object gains a degree-0 copy e_{X,j} of the identity from (X, j+1) to (X, j).

``suspend(A, k)`` forms the cones S_{X,j} = Cone(e_{X,j}) for j < k, computes
all hom-complex cohomologies between them, and assembles a new directed
graded category from the surviving classes with composition induced on
representatives.  Iterating from a linear quiver builds the categories
attached to exponent sequences: ``fukaya_bp``.

The hom complex between S_{x,j} and S_{x',j'} is fixed, table for table, by
its shape: the degree tuple of hom_A(x, x'), whether x = x', and j - j'
clamped to [-2, 2].  The extension copies hom_A index for index and every
connector is a copy of an identity, so the basis, the position table and
every differential depend on nothing else, provided A's identities act
strictly.  ``suspend`` checks that precondition, computes each shape once
and rebinds the result to every later pair of that shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable

from .dgcat import (
    MAX_RANK,
    DirectedGradedCategory,
    MorRef,
    a_category,
    check_composites,
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
from .grading import exponent_seq
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
    morphism down each gap and every composite 1, so no Koszul sign appears.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 2:
        raise ValueError("stacking needs at least two levels")
    if k * len(A.objects) > MAX_RANK:
        raise ValueError(f"object count {k * len(A.objects)} exceeds the limit {MAX_RANK}")
    # the levels store comb(k + 2, 3) composites, one per chain a <= b <= c
    check_composites(comb(k + 2, 3) * len(A._comp))
    homs = {(a, b): (0,) for b in range(k) for a in range(b)}
    refs, one = {pair: MorRef(*pair, 0) for pair in homs}, {0: Fraction(1)}
    levels = DirectedGradedCategory(range(k, 0, -1), homs, {
        (refs[b, c], refs[a, b]): one for a, b in homs for c in range(b + 1, k)})
    return relabel(tensor(levels, A), {(j, x): (x, j) for j in levels.objects for x in A.objects})


def connector(E: DirectedGradedCategory, x, j: int) -> MorRef:
    """The copy of id_x from (x, j+1) to (x, j) inside the extension."""
    src = E.object_index((x, j + 1))
    tgt = E.object_index((x, j))
    degs = E.hom(src, tgt)
    if not degs or degs[0] != 0:
        raise ValueError("no connector at this position")
    return MorRef(src, tgt, 0)


@dataclass(frozen=True)
class SuspensionReport:
    """Checks of one suspension step against the tensor model.

    ``suspension`` is the category that was checked, so callers use it
    instead of suspending again.
    """

    suspension: DirectedGradedCategory
    ok: bool
    messages: tuple[str, ...]


def suspend(A: DirectedGradedCategory, k: int) -> DirectedGradedCategory:
    """Category of cones S_{x,j} = Cone((x, j+1) -> (x, j)) for 1 <= j < k.

    Hom spaces are hom-complex cohomologies with deterministic
    representatives; compositions are induced by composing representatives
    and projecting.  Objects are labelled (x, j), ordered by A's order
    first, then ascending level.
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
    cones = {}
    for ia, j in spots:
        cones[(ia, j)] = cone(E, connector(E, A.objects[ia], j))
    labels = tuple((A.objects[ia], j) for ia, j in spots)

    homs_data: dict[tuple[int, int], HomComplex] = {}
    shapes: dict[tuple, HomComplex] = {}
    for si, (ia, j) in enumerate(spots):
        for sj in range(si, len(spots)):
            ib, j2 = spots[sj]
            key = (A.hom(ia, ib), ia == ib, max(-2, min(2, j - j2)))
            X, Y = cones[(ia, j)], cones[(ib, j2)]
            if key in shapes:
                homs_data[(si, sj)] = rebind(shapes[key], X, Y)
            else:
                homs_data[(si, sj)] = shapes[key] = hom_complex(X, Y)

    for si in range(len(spots)):
        end_dims = homs_data[(si, si)].cohomology.dims
        if end_dims != {0: 1}:
            raise SuspensionError(
                f"endomorphisms of cone {labels[si]} have dims {end_dims}, expected {{0: 1}}"
            )

    # basis index idx of hom (si, sj) is the class basis_classes[(si, sj)][idx],
    # the r-th representative in degree d, and class_index[(si, sj)][(d, r)] = idx
    homs: dict[tuple[int, int], tuple[int, ...]] = {}
    basis_classes: dict[tuple[int, int], tuple[Class, ...]] = {}
    class_index: dict[tuple[int, int], dict[tuple[int, int], int]] = {}
    for (si, sj), h in homs_data.items():
        if si == sj:
            continue
        dims = h.cohomology.dims
        pairs = [(d, r) for d in sorted(dims) for r in range(dims[d])]
        if pairs:
            homs[(si, sj)] = tuple(d for d, _ in pairs)
            basis_classes[(si, sj)] = tuple(
                (d, tuple(Fraction(int(t == r)) for t in range(dims[d]))) for d, r in pairs
            )
            class_index[(si, sj)] = {dr: idx for idx, dr in enumerate(pairs)}
    for si in range(len(spots)):
        basis_classes[(si, si)] = (identity_class(homs_data[(si, si)]),)

    def from_class(si: int, sj: int, value: Class) -> dict[int, Fraction]:
        d, coeffs = value
        index = class_index[(si, sj)]
        return {index[(d, t)]: coeff for t, coeff in enumerate(coeffs) if coeff != 0}

    comp: dict[tuple[MorRef, MorRef], dict[int, Fraction]] = {}
    targets = source_index(class_index)
    for (si, sj) in sorted(class_index):
        for sl in targets.get(sj, ()):
            for fi in range(len(class_index[(si, sj)])):
                for gi in range(len(class_index[(sj, sl)])):
                    value = compose_classes(
                        homs_data[(sj, sl)],
                        homs_data[(si, sj)],
                        homs_data[(si, sl)],
                        basis_classes[(sj, sl)][gi],
                        basis_classes[(si, sj)][fi],
                    )
                    entry = from_class(si, sl, value) if (si, sl) in class_index else {}
                    if entry:
                        comp[(MorRef(sj, sl, gi), MorRef(si, sj, fi))] = entry

    # identities must act strictly on the chosen representatives
    for (si, sj) in sorted(class_index):
        for expected in basis_classes[(si, sj)]:
            left = compose_classes(
                homs_data[(sj, sj)],
                homs_data[(si, sj)],
                homs_data[(si, sj)],
                basis_classes[(sj, sj)][0],
                expected,
            )
            right = compose_classes(
                homs_data[(si, sj)],
                homs_data[(si, si)],
                homs_data[(si, sj)],
                expected,
                basis_classes[(si, si)][0],
            )
            if left != expected or right != expected:
                raise SuspensionError("identity classes do not act strictly")

    out = DirectedGradedCategory(labels, homs, comp)
    report = validate(out)
    if not report.ok:
        raise SuspensionError("suspension output fails validation: " + report.violations[0])
    if not formality_check(out):
        raise SuspensionError("suspension output fails the formality scan")
    return out


def verify_suspension(A: DirectedGradedCategory, k: int) -> SuspensionReport:
    """Compare suspend(A, k) against tensor(A, a_category(k - 1)).

    Both label the object over x at level j as (x, j), and the canonical
    bijection matches equal labels.  The report carries the suspension
    itself and one message per failed part: each graded-dimension mismatch,
    a failed gauge comparison, and each square of the suspension output
    that does not anticommute; ``ok`` holds exactly when there are no
    messages.
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
    bijection = {label: label for label in S.objects}
    if tuple(T.objects) != tuple(S.objects):
        raise SuspensionError("object orders of suspension and tensor model differ")
    gauge = gauge_isomorphic(S, T, bijection)
    if not gauge.ok:
        messages.append(f"gauge comparison failed: {gauge.reason}")
    messages.extend(square_sign_audit(S))
    return SuspensionReport(suspension=S, ok=not messages, messages=tuple(messages))


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
        if verify:
            report = verify_suspension(stage, pi)
            if not report.ok:
                raise SuspensionError("; ".join(report.messages) or "suspension step failed")
            S = report.suspension
        else:
            S = suspend(stage, pi)
        stage = relabel(S, {x: tower_label(*x) for x in S.objects})
        tower.append(stage)
    return tower


def fukaya_bp(p: Iterable[int], verify: bool = False) -> DirectedGradedCategory:
    """Iterated suspension attached to an exponent sequence.

    With ``verify`` each step is checked gauge-isomorphic to the tensor of
    the previous stage with a linear quiver, including the anticommuting-
    square audit of the stage it returns, and the final category against
    ``tensor_bp(p)``; any failure raises SuspensionError.
    """
    p = exponent_seq(p)
    C = suspension_tower(p, verify)[-1]
    if not verify:
        return C
    final = gauge_isomorphic(C, tensor_bp(p), {x: x for x in C.objects})
    if not final.ok:
        raise SuspensionError(f"final comparison failed: {final.reason}")
    if len(p) == 1:
        # no step ran, so the audit of the last step has not seen C
        audit = square_sign_audit(C)
        if audit:
            raise SuspensionError("; ".join(audit))
    return C
