"""Suspension pipeline: stacked copies, cones, and the tensor-model check."""

import sys
from math import comb, prod

import pytest

from bpsing import dgcat, suspension
from bpsing.dgcat import DirectedGradedCategory, MorRef, a_category, gauge_isomorphic, tensor, tensor_bp
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
from bpsing.twisted import hom_complex
from helpers import drop_one_composite


def test_directed_extension_refuses_object_counts_above_the_limit(monkeypatch):
    monkeypatch.setattr(suspension, "MAX_RANK", 8)
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
        raise AssertionError("the level category was built before the check")

    monkeypatch.setattr(suspension, "DirectedGradedCategory", unreachable)
    with pytest.raises(ValueError, match="composite count 140 exceeds the limit 80"):
        directed_extension(A, 5)


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
            report = verify_suspension(A, k)
            assert report.ok and report.messages == (), (A, k, report.messages)


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
        report = verify_suspension(tensor_bp(p), k)
        assert report.ok and report.messages == (), (p, k, report.messages)

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
    report = verify_suspension(A, 3)
    assert report.ok
    assert report.suspension == suspend(A, 3)
    assert tuple(tower_label(*x) for x in report.suspension.objects) == tensor_bp((2, 3, 3)).objects
    plain = verify_suspension(a_category(2), 3)
    assert plain.suspension == suspend(a_category(2), 3)

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
    report = verify_suspension(A, 3)
    S, T = report.suspension, tensor_bp((2, 3, 3))
    n = len(S.objects)
    scanned = [
        f"graded dims differ at ({S.objects[i]}, {S.objects[j]}): "
        f"{S.graded_dims(i, j)} vs {T.graded_dims(i, j)}"
        for i in range(n)
        for j in range(i, n)
        if S.graded_dims(i, j) != T.graded_dims(i, j)
    ]
    assert len(scanned) == 2
    assert list(report.messages[:3]) == scanned + [
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
    if (H.X, H.Y) != (F.X, F.Y):
        return "bound objects"
    if H.basis != F.basis or H.position != F.position:
        return "basis"
    for d in set(H.degrees()) | {d - 1 for d in H.degrees()}:
        if H.differential(d) != F.differential(d):
            return f"differential {d}"
    if H.dims() != F.dims() or H.cohomology.dims != F.cohomology.dims:
        return "dims"
    for d in H.degrees():
        if H.cohomology.representatives(d) != F.cohomology.representatives(d):
            return f"representatives {d}"
    return None


@pytest.mark.parametrize("p", [(2, 3), (3, 3, 3), (2, 3, 4), (4, 4, 4), (2, 3, 4, 5), (3, 3, 3, 3)])
def test_hom_complexes_shared_by_shape_equal_fresh_ones(monkeypatch, p):
    real = suspension.rebind
    checked = []

    def checking(h, X, Y):
        shared = real(h, X, Y)
        mismatch = _same_tables(shared, hom_complex(X, Y))
        assert mismatch is None, (p, X.components, Y.components, mismatch)
        checked.append(shared)
        return shared

    monkeypatch.setattr(suspension, "rebind", checking)
    fukaya_bp(p)
    assert checked


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


CHECKED = (
    "suspend",
    "validate",
    "formality_check",
    "gauge_isomorphic",
    "square_sign_audit",
    "compose_classes",
)


@pytest.mark.parametrize(
    "p, counts",
    [
        ((3, 3, 3), (2, 2, 2, 3, 2, 68)),
        ((2, 3, 4, 5), (3, 3, 3, 4, 3, 388)),
    ],
)
def test_verified_fukaya_runs_every_check(monkeypatch, p, counts):
    """No check is skipped: each one runs as often as the tower needs it."""
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
    fukaya_bp(p, verify=True)
    assert tuple(calls[name] for name in CHECKED) == counts
