"""Suspension pipeline: stacked copies, cones, and the tensor-model check."""

import ast
import inspect
import sys
from fractions import Fraction
from math import comb, prod

import pytest

from bpsing import cli, dgcat, suspension
from bpsing.dgcat import (
    DirectedGradedCategory,
    MorRef,
    a_category,
    formality_check,
    gauge_isomorphic,
    source_index,
    tensor,
    tensor_bp,
    validate,
)
from bpsing.suspension import (
    SuspensionError,
    connector,
    directed_extension,
    fukaya_bp,
    suspend,
    suspension_tower,
    tower_label,
    verify_suspension,
)
from bpsing.twisted import compose_classes, cone, hom_complex, identity_class
from helpers import chain_dims, count_table_builds, drop_one_composite, scaled_identity_class


def test_directed_extension_refuses_object_counts_above_the_limit(monkeypatch):
    monkeypatch.setattr(dgcat, "MAX_RANK", 8)
    assert len(directed_extension(a_category(2), 4).objects) == 8
    with pytest.raises(ValueError, match="object count 10 exceeds the limit 8"):
        directed_extension(a_category(2), 5)


def test_directed_extension_refuses_composite_counts_above_the_limit(monkeypatch):
    A = a_category(2)
    # the levels k > ... > 1 store comb(k + 2, 3) composites, A stores 4
    for k in (2, 3, 4):
        assert len(directed_extension(A, k)._comp) == comb(k + 2, 3) * 4
    monkeypatch.setattr(dgcat, "MAX_COMPOSITES", 80)
    assert len(directed_extension(A, 4)._comp) == 80

    def unreachable(*args):
        raise AssertionError("the extension was built before the check")

    monkeypatch.setattr(suspension, "DirectedGradedCategory", unreachable)
    monkeypatch.setattr(suspension, "_ExtensionTable", unreachable)
    with pytest.raises(ValueError, match="composite count 140 exceeds the limit 80"):
        directed_extension(A, 5)


def test_directed_extension_refuses_a_pending_factor_before_building_it(monkeypatch):
    P = tensor(a_category(3), a_category(4))  # 70 composites, table pending

    def unbuilt(*args):
        raise AssertionError("the factor's table was built before the composite check")

    monkeypatch.setattr(dgcat, "_product_composites", unbuilt)
    monkeypatch.setattr(dgcat, "MAX_COMPOSITES", 279)
    # the levels 2 > 1 store comb(4, 3) = 4 composites
    with pytest.raises(ValueError, match="composite count 280 exceeds the limit 279"):
        directed_extension(P, 2)


@pytest.mark.parametrize("A, k", [(a_category(3), 4), (tensor_bp((3, 3)), 3)])
def test_suspend_builds_no_stacked_composition_table(monkeypatch, A, k):
    A._comp  # A's own table, built before counting
    built = count_table_builds(monkeypatch)
    suspend(A, k)
    assert built == []


def test_directed_extension_structure():
    E = directed_extension(a_category(2), 2)
    assert E.objects == ((1, 2), (2, 2), (1, 1), (2, 1))
    gens = [f for f in E.morphisms() if not E.is_identity(f)]
    assert len(gens) == 5
    degree_counts = {}
    for f in gens:
        degree_counts[E.degree(f)] = degree_counts.get(E.degree(f), 0) + 1
    assert degree_counts == {0: 2, 1: 3}
    # no morphisms run up the stacking direction
    assert E.hom(E.object_index((1, 1)), E.object_index((1, 2))) == ()
    assert E.hom(E.object_index((1, 2)), E.object_index((1, 1))) == (0,)


def test_directed_extension_composition_squares_commute():
    E = directed_extension(a_category(2), 2)

    def ref(a, b):
        i, j = E.object_index(a), E.object_index(b)
        return [f for f in E.morphisms() if f.src == i and f.tgt == j][0]

    down_then_across = E.compose(ref((1, 1), (2, 1)), ref((1, 2), (1, 1)))
    across_then_down = E.compose(ref((2, 2), (2, 1)), ref((1, 2), (2, 2)))
    assert down_then_across == across_then_down == {0: 1}


def test_directed_extension_rejects_single_level():
    with pytest.raises(ValueError):
        directed_extension(a_category(2), 1)
    with pytest.raises(ValueError):
        directed_extension(a_category(2), 0)


def test_connector_lookup():
    E = directed_extension(a_category(3), 3)
    for x in (1, 2, 3):
        for j in (1, 2):
            e = connector(E, x, j)
            assert E.degree(e) == 0
            assert E.objects[e.src] == (x, j + 1)
            assert E.objects[e.tgt] == (x, j)
    with pytest.raises(KeyError):
        connector(E, 1, 3)


def test_suspend_rejects_small_k():
    with pytest.raises(ValueError):
        suspend(a_category(2), 1)


def test_suspend_agrees_with_tensor_model():
    for A in [a_category(2), a_category(3), tensor_bp((2, 3))]:
        for k in (2, 3, 4):
            # a single message would raise SuspensionError
            assert verify_suspension(A, k) == suspend(A, k), (A, k)


def test_suspend_agrees_with_tensor_model_on_random_sequences():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # at most 12 objects in the category that is suspended
    exponents = st.lists(st.integers(2, 7), min_size=1, max_size=3).filter(
        lambda p: prod(pi - 1 for pi in p) <= 12
    )

    @hypothesis.settings(max_examples=16, deadline=None, derandomize=True, database=None)
    @hypothesis.given(exponents, st.integers(2, 4))
    def check(p, k):
        # a single message would raise SuspensionError
        verify_suspension(tensor_bp(p), k)

    check()


def test_suspend_small_examples():
    S = suspend(a_category(1), 3)
    assert gauge_isomorphic(S, a_category(2), {(1, 1): 1, (1, 2): 2}).ok
    T = suspend(a_category(2), 2)
    assert gauge_isomorphic(T, a_category(2), {(1, 1): 1, (2, 1): 2}).ok


def test_suspend_output_shape():
    A = a_category(2)
    S = suspend(A, 3)
    assert S.objects == ((1, 1), (1, 2), (2, 1), (2, 2))
    model = tensor(A, a_category(2))
    assert gauge_isomorphic(S, model, {x: x for x in S.objects}).ok
    for i in range(4):
        for j in range(4):
            assert S.graded_dims(i, j) == model.graded_dims(i, j)


def test_fukaya_bp_matches_tensor_model():
    for p in [(2, 2), (2, 3), (3, 3)]:
        C = fukaya_bp(p, verify=True)
        assert C.objects == tensor_bp(p).objects
        assert gauge_isomorphic(C, tensor_bp(p), {x: x for x in C.objects}).ok


def test_suspension_tower_stages():
    tower = suspension_tower((2, 3, 4))
    assert len(tower) == 3
    assert [len(stage.objects) for stage in tower] == [1, 2, 6]
    assert tower[-1] == fukaya_bp((2, 3, 4))


def test_swapping_two_exponents_relabels_the_category():
    C = fukaya_bp((2, 3))
    D = fukaya_bp((3, 2))
    swap = {(1, 1): (1, 1), (1, 2): (2, 1)}
    assert gauge_isomorphic(C, D, swap).ok


def test_verified_fukaya_suspends_each_stage_once(monkeypatch):
    real = suspension.suspend
    calls = []

    def counting(A, k):
        calls.append(k)
        return real(A, k)

    monkeypatch.setattr(suspension, "suspend", counting)
    p = (2, 3, 4)
    fukaya_bp(p, verify=True)
    # one call per stage: len(p) - 1 in all
    assert calls == list(p[1:])


def test_verified_fukaya_returns_the_unverified_category():
    for p in [(4,), (2, 2), (3, 3), (2, 3, 4), (2, 2, 2)]:
        assert fukaya_bp(p, verify=True) == fukaya_bp(p)
        assert suspension_tower(p, verify=True) == suspension_tower(p)


def test_verify_suspension_reports_the_checked_suspension(monkeypatch):
    A = fukaya_bp((2, 3))
    S = verify_suspension(A, 3)
    assert S == suspend(A, 3)
    assert tuple(tower_label(*x) for x in S.objects) == tensor_bp((2, 3, 3)).objects
    assert verify_suspension(a_category(2), 3) == suspend(a_category(2), 3)

    # a suspension that lacks a hom the model has and has one the model
    # lacks: one message for each, in the order of a scan over all pairs
    real = suspension.suspend

    def moved(A, k):
        S = real(A, k)
        n = len(S.objects)
        homs = {(i, j): S.hom(i, j) for i in range(n) for j in range(i + 1, n) if S.hom(i, j)}
        added = min((i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in homs)
        dropped = min(homs)
        del homs[dropped]
        homs[added] = (5,)
        comp = {(g, f): e for (g, f), e in S.composition_entries()
                if dropped not in ((g.src, g.tgt), (f.src, f.tgt), (f.src, g.tgt))}
        return DirectedGradedCategory(S.objects, homs, comp)

    monkeypatch.setattr(suspension, "suspend", moved)
    with pytest.raises(SuspensionError) as failed:
        verify_suspension(A, 3)
    S, T = moved(A, 3), tensor_bp((2, 3, 3))
    n = len(S.objects)
    scanned = [
        f"graded dims differ at ({S.objects[i]}, {S.objects[j]}): "
        f"{S.graded_dims(i, j)} vs {T.graded_dims(i, j)}"
        for i in range(n)
        for j in range(i, n)
        if S.graded_dims(i, j) != T.graded_dims(i, j)
    ]
    assert len(scanned) == 2
    # the messages are joined by "; ", which none of them contains
    assert str(failed.value).split("; ")[:3] == scanned + [
        f"gauge comparison failed: graded dimensions differ at ({S.objects[0]}, {S.objects[1]})"
    ]


def test_verified_fukaya_rejects_a_broken_suspension(monkeypatch):
    real = suspension.suspend

    def broken(A, k):
        return drop_one_composite(real(A, k))

    monkeypatch.setattr(suspension, "suspend", broken)
    # (2, 3) has no composite, so for (2, 3, 4) only the returned last stage is broken
    for p in [(3, 3), (2, 3, 4)]:
        with pytest.raises(SuspensionError):
            fukaya_bp(p, verify=True)


def _same_tables(H, F):
    """Entry-by-entry comparison of two HomComplexes; the first mismatch or None."""
    if H.basis != F.basis or H.position != F.position:
        return "basis"
    for d in set(H.degrees()) | {d - 1 for d in H.degrees()}:
        if H.differential(d) != F.differential(d):
            return f"differential {d}"
    if chain_dims(H) != chain_dims(F) or H.cohomology.dims != F.cohomology.dims:
        return "dims"
    for d in H.degrees():
        if H.cohomology.representatives(d) != F.cohomology.representatives(d):
            return f"representatives {d}"
    return None


def _cone_spots(A, k):
    """The spots (object index in A, level) of ``suspend(A, k)`` in its order, and their cones."""
    E = directed_extension(A, k)
    spots = [(ia, j) for ia in range(len(A.objects)) for j in range(1, k)]
    return spots, [cone(E, connector(E, A.objects[ia], j)) for ia, j in spots]


def _tower_steps(p):
    """Each step (A, k) that ``suspension_tower(p)`` suspends."""
    return list(zip(suspension_tower(p), p[1:]))


@pytest.mark.parametrize("p", [(2, 3), (3, 3, 3), (2, 3, 4), (4, 4, 4), (2, 3, 4, 5), (3, 3, 3, 3)])
def test_hom_complexes_shared_by_shape_equal_fresh_ones(p):
    """The premise of sharing: at every tower step, the fresh complexes of
    all cone pairs with one ``_shape_key`` have the same tables."""
    shared = 0
    for A, k in _tower_steps(p):
        spots, cones = _cone_spots(A, k)
        first = {}
        for si, x in enumerate(spots):
            for sj in range(si, len(spots)):
                H = hom_complex(cones[si], cones[sj])
                F = first.setdefault(suspension._shape_key(A, x, spots[sj]), H)
                mismatch = _same_tables(H, F)
                assert mismatch is None, (p, x, spots[sj], mismatch)
                shared += F is not H
    assert shared


@pytest.mark.parametrize("p", [(3, 3, 3), (2, 3, 4, 5), (5, 5, 5)])
def test_suspend_builds_one_hom_complex_per_shape(monkeypatch, p):
    real, built = suspension.hom_complex, []

    def counting(X, Y):
        built.append((X, Y))
        return real(X, Y)

    monkeypatch.setattr(suspension, "hom_complex", counting)
    total = 0
    for A, k in _tower_steps(p):
        built.clear()
        suspend(A, k)
        spots, _ = _cone_spots(A, k)
        shapes = {suspension._shape_key(A, x, y) for i, x in enumerate(spots) for y in spots[i:]}
        assert len(built) == len(shapes) < len(spots) * (len(spots) + 1) // 2
        total += len(built)
    if p == (5, 5, 5):
        assert total == 31


def _fresh_composites(A, k, S):
    """Each composite of classes of S = suspend(A, k) against the same one
    composed on its own triple's hom complexes, built fresh: nothing is
    shared by shape or by block.  The mismatches and the composition count."""
    spots, cones = _cone_spots(A, k)
    fresh, classes = {}, {}

    def complex_at(si, sj):
        if (si, sj) not in fresh:
            h = fresh[(si, sj)] = hom_complex(cones[si], cones[sj])
            dims = h.cohomology.dims
            pairs = [(d, r) for d in sorted(dims) for r in range(dims[d])]
            basis = [(d, tuple(int(t == r) for t in range(dims[d]))) for d, r in pairs]
            classes[(si, sj)] = ([identity_class(h)] if si == sj else basis, pairs)
        return fresh[(si, sj)]

    mismatches, count = [], 0
    targets = source_index(S.hom_pairs())
    for (si, sj) in sorted(S.hom_pairs()):
        for sl in targets[sj]:
            if si == sj == sl:
                continue
            h_xy, h_yz, h_xz = complex_at(si, sj), complex_at(sj, sl), complex_at(si, sl)
            pairs = classes[(si, sl)][1]
            for fi, f_class in enumerate(classes[(si, sj)][0]):
                for gi, g_class in enumerate(classes[(sj, sl)][0]):
                    d, coeffs = compose_classes(
                        cones[si], cones[sj], cones[sl], h_yz, h_xy, h_xz, g_class, f_class
                    )
                    count += 1
                    entry = {pairs.index((d, t)): c for t, c in enumerate(coeffs) if c != 0}
                    key = (MorRef(sj, sl, gi), MorRef(si, sj, fi))
                    if S._comp.get(key, {}) != entry:
                        mismatches.append((S.name(key[0]), S.name(key[1])))
    return mismatches, count


# the tower steps with k >= 4, where cone levels can be 2 or more apart
TOWER_STEPS = [(p[:t], p[t]) for p in [(3, 5), (4, 4, 4), (2, 3, 4, 5), (5, 5, 5)]
               for t in range(1, len(p)) if p[t] >= 4]


@pytest.mark.parametrize("base, k", TOWER_STEPS, ids=[f"{base}-{k}" for base, k in TOWER_STEPS])
def test_composition_blocks_shared_by_level_equal_fresh_ones(monkeypatch, base, k):
    A = fukaya_bp(base)
    real, composed = suspension.compose_classes, []

    def counting(*args):
        composed.append(1)
        return real(*args)

    monkeypatch.setattr(suspension, "compose_classes", counting)
    S = suspend(A, k)
    monkeypatch.undo()
    mismatches, count = _fresh_composites(A, k, S)
    assert not mismatches, (base, k, mismatches[:5])
    # blocks were reused: the fresh loop composes more than suspend did
    assert len(composed) < count


def test_suspend_rejects_identities_that_do_not_act_strictly():
    f = MorRef(0, 1, 0)
    # id_b after f is 2f: a unit that is not strict, supplied explicitly
    A = DirectedGradedCategory(("a", "b"), {(0, 1): (1,)}, {(MorRef(1, 1, 0), f): {0: 2}})
    with pytest.raises(SuspensionError, match=r"a->b#0"):
        suspend(A, 2)


def test_suspend_rejects_a_composite_outside_its_hom_basis():
    # a -> b -> c composes to index 0 of hom(a, c), which is empty
    homs = {(0, 1): (1,), (1, 2): (1,)}
    A = DirectedGradedCategory(("a", "b", "c"), homs, {(MorRef(1, 2, 0), MorRef(0, 1, 0)): {0: 1}})
    with pytest.raises(SuspensionError, match=r"\(b->c#0, a->b#0\) lands outside its hom basis"):
        suspend(A, 2)


def reference_suspend(A, k):
    """``suspend`` as it was with a second loop for the units: the identity
    classes were composed with every basis class after the composition loop,
    and the constructor filled in every identity composite.  It builds a
    fresh hom complex for every pair of cones, so nothing is shared by shape."""
    if k < 2:
        raise ValueError("suspension needs at least two levels")
    for f in A.morphisms():
        unit = {f.idx: 1}
        if A.compose(A.identity(f.tgt), f) != unit or A.compose(f, A.identity(f.src)) != unit:
            raise SuspensionError(f"identities do not act strictly on {A.name(f)}")
    for (g, f), entry in A._comp.items():
        if any(not 0 <= idx < len(A.hom(f.src, g.tgt)) for idx in entry):
            raise SuspensionError(f"({A.name(g)}, {A.name(f)}) lands outside its hom basis")
    spots, cones = _cone_spots(A, k)
    labels = tuple((A.objects[ia], j) for ia, j in spots)

    homs_data = {
        (si, sj): hom_complex(cones[si], cones[sj])
        for si in range(len(spots)) for sj in range(si, len(spots))
    }

    for si in range(len(spots)):
        end_dims = homs_data[(si, si)].cohomology.dims
        if end_dims != {0: 1}:
            raise SuspensionError(
                f"endomorphisms of cone {labels[si]} have dims {end_dims}, expected {{0: 1}}"
            )

    homs, basis_classes, class_index = {}, {}, {}
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
        basis_classes[(si, si)] = (suspension.identity_class(homs_data[(si, si)]),)

    def from_class(si, sj, value):
        d, coeffs = value
        index = class_index[(si, sj)]
        return {index[(d, t)]: coeff for t, coeff in enumerate(coeffs) if coeff != 0}

    comp = {}
    targets = source_index(class_index)
    for (si, sj) in sorted(class_index):
        for sl in targets.get(sj, ()):
            for fi in range(len(class_index[(si, sj)])):
                for gi in range(len(class_index[(sj, sl)])):
                    value = compose_classes(
                        cones[si], cones[sj], cones[sl],
                        homs_data[(sj, sl)], homs_data[(si, sj)], homs_data[(si, sl)],
                        basis_classes[(sj, sl)][gi], basis_classes[(si, sj)][fi],
                    )
                    entry = from_class(si, sl, value) if (si, sl) in class_index else {}
                    if entry:
                        comp[(MorRef(sj, sl, gi), MorRef(si, sj, fi))] = entry

    for (si, sj) in sorted(class_index):
        for expected in basis_classes[(si, sj)]:
            left = compose_classes(
                cones[si], cones[sj], cones[sj],
                homs_data[(sj, sj)], homs_data[(si, sj)], homs_data[(si, sj)],
                basis_classes[(sj, sj)][0], expected,
            )
            right = compose_classes(
                cones[si], cones[si], cones[sj],
                homs_data[(si, sj)], homs_data[(si, si)], homs_data[(si, sj)],
                expected, basis_classes[(si, si)][0],
            )
            if left != expected or right != expected:
                raise SuspensionError("identity classes do not act strictly")

    out = DirectedGradedCategory(labels, homs, comp)
    violations = validate(out)
    if violations:
        raise SuspensionError("suspension output fails validation: " + violations[0])
    chain = formality_check(out)
    if chain is not None:
        raise SuspensionError(f"suspension output fails the formality scan: {chain}")
    return out


ORACLE_CATEGORIES = {
    "a2": lambda: a_category(2),
    "a3": lambda: a_category(3),
    "tensor-2-3": lambda: tensor_bp((2, 3)),
    "fukaya-3-3": lambda: fukaya_bp((3, 3)),
    "fukaya-2-3-4": lambda: fukaya_bp((2, 3, 4)),
}


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("name", sorted(ORACLE_CATEGORIES))
def test_suspend_matches_the_reference(name, k):
    A = ORACLE_CATEGORIES[name]()
    assert suspend(A, k) == reference_suspend(A, k)


@pytest.mark.parametrize("factor", [0, 2], ids=["zeroed", "doubled"])
def test_both_suspends_reject_an_identity_class_that_is_not_a_unit(monkeypatch, factor):
    # a zero unit leaves its composites empty, and they are not filled back in
    monkeypatch.setattr(suspension, "identity_class", scaled_identity_class(factor))
    for A in [a_category(2), tensor_bp((2, 3))]:
        with pytest.raises(SuspensionError, match=r"left unit fails for \(.*\)->\(.*\)#0$"):
            suspend(A, 3)
        with pytest.raises(SuspensionError):
            reference_suspend(A, 3)


def test_suspend_composes_in_one_loop():
    """The identity classes are composed in the one loop with every other class."""
    tree = ast.parse(inspect.getsource(suspension))
    body = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "suspend")
    calls = [
        node for node in ast.walk(body)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "compose_classes"
    ]
    assert len(calls) == 1


CHECKED = (
    "suspend",
    "validate",
    "formality_check",
    "gauge_isomorphic",
    "square_sign_audit",
    "compose_classes",
)


def verified_fukaya_bp(p):
    fukaya_bp(p, verify=True)


def verify_suite_fukaya(p):
    assert cli.run(["verify", "--suite", "fukaya", "--p", ",".join(map(str, p))]) == 0


@pytest.mark.parametrize(
    "p, counts",
    [
        ((3, 3, 3), (2, 2, 2, 3, 2, 54)),
        ((2, 3, 4, 5), (3, 3, 3, 4, 3, 138)),
        # no step runs, so the base is validated, scanned and audited once
        ((5,), (0, 1, 1, 1, 1, 0)),
    ],
)
@pytest.mark.parametrize("entry", [verified_fukaya_bp, verify_suite_fukaya], ids=["fukaya_bp", "suite"])
def test_verified_fukaya_runs_every_check(monkeypatch, entry, p, counts):
    """No check is skipped or repeated: each one runs as often as the tower needs it."""
    calls = dict.fromkeys(CHECKED, 0)
    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "bpsing"]
    for name in CHECKED:
        real = getattr(suspension, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting)
    entry(p)
    assert tuple(calls[name] for name in CHECKED) == counts
