"""Directed graded categories: tensor signs, Euler matrices, gauge moves."""

import json
import random
from fractions import Fraction
from itertools import product
from math import prod

import pytest

from bpsing import cli, dgcat
from bpsing.dgcat import (
    DirectedGradedCategory,
    GaugeResult,
    MorRef,
    a_category,
    euler_matrix,
    formality_check,
    gauge_isomorphic,
    relabel,
    square_sign_audit,
    tensor,
    tensor_bp,
    to_json_dict,
    validate,
)
from bpsing.exactlin import RatMatrix, solve_integer, solve_mod2
from bpsing.lattice import compare
from bpsing.suspension import fukaya_bp, suspension_tower
from bpsing.twisted import cone
from helpers import assert_exact, count_table_builds, from_json_dict, morphism_by_name


def kron(A, B):
    """Kronecker product of integer matrices given as nested sequences."""
    return [
        [a * b for a in row_a for b in row_b]
        for row_a in A
        for row_b in B
    ]


def plus_minus_gauge_exists(C, D):
    """Search sign rescalings of the generators turning C's table into D's.

    Both categories must share objects and hom shapes.  An assignment sends
    each non-identity basis morphism m to lam_m * m with lam_m in {1, -1};
    it works when every composite coefficient transported by
    lam_g * lam_f / lam_{result} matches D.
    """
    gens = [f for f in C.morphisms() if not C.is_identity(f)]
    pairs = [
        (g, f)
        for f in gens
        for g in gens
        if f.tgt == g.src
    ]
    for signs in product((1, -1), repeat=len(gens)):
        lam = {f: s for f, s in zip(gens, signs)}
        good = True
        for g, f in pairs:
            left = C.compose(g, f)
            right = D.compose(g, f)
            for k in set(left) | set(right):
                target = MorRef(f.src, g.tgt, k)
                moved = left.get(k, Fraction(0)) * lam[g] * lam[f] / lam.get(target, 1)
                if moved != right.get(k, Fraction(0)):
                    good = False
                    break
            if not good:
                break
        if good:
            return True
    return False


def square_category(corner_coeff):
    """Four-object square a -> {b, c} -> d with a degree-2 diagonal.

    The composite through b is the diagonal; the composite through c is
    corner_coeff times the diagonal.
    """
    homs = [{"src": o, "tgt": o, "degree": 0, "name": f"id@{o}"} for o in "abcd"]
    homs += [
        {"src": "a", "tgt": "b", "degree": 1, "name": "x"},
        {"src": "a", "tgt": "c", "degree": 1, "name": "y"},
        {"src": "b", "tgt": "d", "degree": 1, "name": "u"},
        {"src": "c", "tgt": "d", "degree": 1, "name": "v"},
        {"src": "a", "tgt": "d", "degree": 2, "name": "w"},
    ]
    comp = [{"g": "u", "f": "x", "result": "w", "coeff": "1"}]
    if corner_coeff != 0:
        comp.append({"g": "v", "f": "y", "result": "w", "coeff": str(corner_coeff)})
    return from_json_dict({"objects": list("abcd"), "homs": homs, "comp": comp})


def test_a_category_shape():
    A = a_category(4)
    assert A.objects == (1, 2, 3, 4)
    for i in range(4):
        assert A.hom(i, i) == (0,)
        assert A.is_identity(A.identity(i))
    for i in range(3):
        assert A.hom(i, i + 1) == (1,)
    assert A.hom(0, 2) == ()
    step1 = morphism_by_name(A, "1->2#0")
    step2 = morphism_by_name(A, "2->3#0")
    assert A.compose(step2, step1) == {}
    with pytest.raises(KeyError):
        morphism_by_name(A, "absent")


def test_builders_refuse_object_counts_above_the_limit(monkeypatch):
    assert dgcat.MAX_RANK == 4096
    monkeypatch.setattr(dgcat, "MAX_RANK", 6)
    assert len(a_category(6).objects) == 6
    assert len(tensor_bp((3, 4)).objects) == 6
    with pytest.raises(ValueError, match="object count 7 exceeds the limit 6"):
        a_category(7)
    with pytest.raises(ValueError, match=r"object count prod\(p_i - 1\) = 8 exceeds the limit 6"):
        tensor_bp((3, 5))


def test_tensor_refuses_object_counts_above_the_limit_before_building(monkeypatch):
    def unbuilt(*args):
        raise AssertionError("a product table was built before the object check")

    monkeypatch.setattr(dgcat, "MAX_RANK", 8)
    monkeypatch.setattr(dgcat, "_product_composites", unbuilt)
    with pytest.raises(ValueError, match="object count 9 exceeds the limit 8"):
        tensor(a_category(3), a_category(3))
    assert len(tensor(a_category(2), a_category(4)).objects) == 8


def test_builders_refuse_composite_counts_above_the_limit(monkeypatch):
    assert dgcat.MAX_COMPOSITES == 2**20
    # a product stores one composite per pair of factor composites
    A, B = a_category(3), a_category(4)
    assert (len(A._comp), len(B._comp), len(tensor(A, B)._comp)) == (7, 10, 70)
    for p in [(3, 3), (2, 3, 4), (3, 3, 3), (2, 3, 4, 5)]:
        assert len(tensor_bp(p)._comp) == prod(3 * pi - 5 for pi in p)
    monkeypatch.setattr(dgcat, "MAX_COMPOSITES", 70)
    assert len(tensor(A, B)._comp) == 70
    assert len(tensor_bp((3, 3, 3))._comp) == 64
    with pytest.raises(ValueError, match="composite count 91 exceeds the limit 70"):
        tensor(A, a_category(5))

    def unreachable(m):
        raise AssertionError(f"a linear quiver with {m} objects was built before the check")

    monkeypatch.setattr(dgcat, "a_category", unreachable)
    with pytest.raises(ValueError, match="composite count 100 exceeds the limit 70"):
        tensor_bp((5, 5))


def test_tensor_refuses_a_pending_factor_before_building_it(monkeypatch):
    P = tensor(a_category(3), a_category(4))  # 70 composites, table pending

    def unbuilt(*args):
        raise AssertionError("a factor's table was built before the composite check")

    monkeypatch.setattr(dgcat, "_product_composites", unbuilt)
    monkeypatch.setattr(dgcat, "MAX_COMPOSITES", 279)
    for A, B, count in [(P, a_category(2), 280), (a_category(2), P, 280), (P, P, 4900)]:
        with pytest.raises(ValueError, match=f"composite count {count} exceeds the limit 279"):
            tensor(A, B)
    monkeypatch.undo()
    monkeypatch.setattr(dgcat, "MAX_COMPOSITES", 280)
    assert len(tensor(P, a_category(2))._comp) == 280


def test_routes_that_read_only_homs_build_no_product_table(monkeypatch, capsys):
    built = count_table_builds(monkeypatch)
    compare((5, 5, 5, 5))
    assert cli.run(["verify", "--suite", "lattice", "--p", "5,5,5,5"]) == 0
    assert cli.run(["lattice", "--p", "4,4,4,4,4", "--json"]) == 0
    assert built == []


def test_category_json_builds_one_table_per_stage(monkeypatch, capsys):
    built = count_table_builds(monkeypatch)
    assert cli.run(["category", "--p", "4,4,4,4", "--json"]) == 0
    # the last stage's build reads the stage before it, and so on down, so
    # the pending stages below it are built first, deepest first
    assert [sum(i == j for i, j in homs) for homs in built] == [9, 27, 81]


def test_each_product_table_is_built_once(monkeypatch, capsys):
    built = count_table_builds(monkeypatch)
    C = tensor(a_category(3), a_category(4))
    R = relabel(relabel(C, {x: str(x) for x in C.objects}), {str(x): x for x in C.objects})
    assert built == []
    assert R._comp is C._comp is relabel(C, {x: x for x in C.objects})._comp
    assert len(built) == 1 and built[0] is C._homs
    # each of the two tower steps builds the tensor model it is checked
    # against, and the last check reads tensor_bp's two stages, all of them
    # shared by relabels; the stacked copies read A's table and build none
    built.clear()
    assert cli.run(["fukaya", "--p", "3,3,3", "--verify"]) == 0
    assert len(built) == len({id(homs) for homs in built}) == 4


def test_tensor_bp_object_order_and_degrees():
    C = tensor_bp((3, 3))
    assert C.objects == ((1, 1), (1, 2), (2, 1), (2, 2))
    diag = morphism_by_name(C, "(1, 1)->(2, 2)#0")
    assert C.degree(diag) == 2
    assert C.hom(C.object_index((1, 1)), C.object_index((2, 2))) == (2,)
    assert tensor(a_category(2), a_category(2)) == C


def test_tensor_square_anticommutes():
    C = tensor_bp((3, 3))
    up = C.compose(
        morphism_by_name(C, "(1, 2)->(2, 2)#0"), morphism_by_name(C, "(1, 1)->(1, 2)#0")
    )
    over = C.compose(
        morphism_by_name(C, "(2, 1)->(2, 2)#0"), morphism_by_name(C, "(1, 1)->(2, 1)#0")
    )
    assert up == {0: Fraction(1)}
    assert over == {0: Fraction(-1)}
    assert square_sign_audit(C) == []
    assert square_sign_audit(tensor_bp((2, 3, 4))) == []


def scanning_square_audit(C):
    """The former audit: every i < m < j through ``hom`` lookups, O(n^3)."""
    n = len(C.objects)
    violations = []
    for i in range(n):
        for j in range(i + 1, n):
            paths = []
            for m in range(i + 1, j):
                for kf, df in enumerate(C.hom(i, m)):
                    if df != 1:
                        continue
                    for kg, dg in enumerate(C.hom(m, j)):
                        if dg != 1:
                            continue
                        paths.append((m, C.compose(MorRef(m, j, kg), MorRef(i, m, kf))))
            for a in range(len(paths)):
                for b in range(a + 1, len(paths)):
                    (m1, c1), (m2, c2) = paths[a], paths[b]
                    if m1 == m2:
                        continue
                    if not c1 or not c2 or c1 != {k: -v for k, v in c2.items()}:
                        violations.append(
                            f"square {C.objects[i]} -> {{{C.objects[m1]}, {C.objects[m2]}}} "
                            f"-> {C.objects[j]} does not anticommute"
                        )
    return violations


def _with_composites(C, entries):
    n = len(C.objects)
    homs = {(i, j): C.hom(i, j) for i in range(n) for j in range(i + 1, n) if C.hom(i, j)}
    return DirectedGradedCategory(C.objects, homs, entries)


def _random_category(rng, n):
    """Several degree-0/1/2 morphisms per hom and random degree-1 composites."""
    homs = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.6:
                homs[(i, j)] = tuple(rng.choice((0, 1, 1, 2)) for _ in range(rng.randint(1, 3)))
    C = DirectedGradedCategory(tuple(range(n)), homs)
    comp = {}
    for f in C.morphisms():
        for g in C.morphisms_from(f.tgt):
            if C.is_identity(f) or C.is_identity(g) or rng.random() < 0.2:
                continue
            degs = C.hom(f.src, g.tgt)
            if degs:
                comp[(g, f)] = {rng.randrange(len(degs)): rng.choice((-1, 1, 2))}
    return _with_composites(C, comp)


def test_square_audit_matches_the_scanning_audit():
    rng = random.Random(353)
    categories = [tensor_bp(p) for p in [(3, 3), (3, 3, 3), (2, 3, 4), (3, 3, 3, 3)]]
    categories += [_random_category(rng, rng.randint(2, 9)) for _ in range(40)]
    for C in categories[:4]:
        entries = dict(C.composition_entries())
        squares = [(g, f) for (g, f), e in entries.items()
                   if C.degree(g) == 1 and C.degree(f) == 1 and e]
        flipped, zeroed = dict(entries), dict(entries)
        key = rng.choice(squares)
        flipped[key] = {k: -v for k, v in entries[key].items()}
        del zeroed[rng.choice(squares)]
        categories += [_with_composites(C, flipped), _with_composites(C, zeroed)]
    broken = 0
    for C in categories:
        got = square_sign_audit(C)
        assert got == scanning_square_audit(C)
        broken += bool(got)
    assert broken >= 8


def test_euler_matrix_of_chain_category():
    assert euler_matrix(a_category(4)) == (
        (1, -1, 0, 0),
        (0, 1, -1, 0),
        (0, 0, 1, -1),
        (0, 0, 0, 1),
    )


def test_euler_matrix_is_kronecker_for_tensors():
    for pa, pb in [(2, 2), (3, 2), (4, 3)]:
        A = a_category(pa)
        B = a_category(pb)
        got = euler_matrix(tensor(A, B))
        want = kron(euler_matrix(A), euler_matrix(B))
        assert [list(row) for row in got] == want


def test_validate_accepts_models_and_reports_corruption():
    assert validate(tensor_bp((2, 3, 4))) == ()
    assert validate(a_category(6)) == ()
    data = to_json_dict(a_category(3))
    for entry in data["comp"]:
        if entry["g"] == "id@2" and entry["f"] == "1->2#0":
            entry["coeff"] = "2"
    violations = validate(from_json_dict(data))
    assert violations
    assert any("unit" in v for v in violations)


def test_a_supplied_zero_unit_composite_reaches_validate():
    # the constructor fills only the identity composites it is not given
    step = MorRef(0, 1, 0)
    C = DirectedGradedCategory((1, 2), {(0, 1): (1,)}, {(MorRef(1, 1, 0), step): {}})
    assert C.compose(MorRef(1, 1, 0), step) == {}
    assert C.compose(step, MorRef(0, 0, 0)) == {0: 1}
    assert validate(C) == ("left unit fails for 1->2#0",)


def reference_validate(C):
    """The former ``validate``: every associativity triple, zero or not."""
    bad = []
    for (g, f), entry in C.composition_entries():
        if f.tgt != g.src:
            bad.append(f"composition entry for non-composable pair ({C.name(g)}, {C.name(f)})")
            continue
        basis = C.hom(f.src, g.tgt)
        total = C.degree(g) + C.degree(f)
        for idx, coeff in entry.items():
            if not 0 <= idx < len(basis):
                bad.append(f"composition ({C.name(g)}, {C.name(f)}) hits invalid basis index {idx}")
            elif basis[idx] != total:
                bad.append(
                    f"composition ({C.name(g)}, {C.name(f)}) lands in degree "
                    f"{basis[idx]}, expected {total}"
                )
    for f in C.morphisms():
        if C.compose(C.identity(f.tgt), f) != {f.idx: Fraction(1)}:
            bad.append(f"left unit fails for {C.name(f)}")
        if C.compose(f, C.identity(f.src)) != {f.idx: Fraction(1)}:
            bad.append(f"right unit fails for {C.name(f)}")
    for f in C.morphisms():
        for g in C.morphisms_from(f.tgt):
            gf = C.compose(g, f)
            for h in C.morphisms_from(g.tgt):
                hg = C.compose(h, g)
                lhs = {}
                for idx, coeff in gf.items():
                    for ridx, rcoeff in C.compose(h, MorRef(f.src, g.tgt, idx)).items():
                        lhs[ridx] = lhs.get(ridx, Fraction(0)) + coeff * rcoeff
                rhs = {}
                for idx, coeff in hg.items():
                    for ridx, rcoeff in C.compose(MorRef(g.src, h.tgt, idx), f).items():
                        rhs[ridx] = rhs.get(ridx, Fraction(0)) + coeff * rcoeff
                lhs = {k: v for k, v in lhs.items() if v != 0}
                rhs = {k: v for k, v in rhs.items() if v != 0}
                if lhs != rhs:
                    bad.append(f"associativity fails on ({C.name(h)}, {C.name(g)}, {C.name(f)})")
    return tuple(bad)


def test_validate_matches_the_full_triple_scan_on_models_and_corruptions():
    broken = identity_slots = 0
    models = [tensor_bp(p) for p in [(2, 3), (3, 3, 3), (2, 3, 4, 5)]]
    models.append(suspension_tower((3, 3, 3))[-1])
    for C in models:
        entries = dict(C.composition_entries())
        keys = [gf for gf in entries if not (C.is_identity(gf[0]) or C.is_identity(gf[1]))]
        key = (keys or list(entries))[len(keys) // 2]
        flipped, deleted = dict(entries), dict(entries)
        flipped[key] = {k: -v for k, v in entries[key].items()}
        del deleted[key]
        corrupted = [_with_composites(C, flipped), _with_composites(C, deleted)]
        if keys:
            # a unit with coefficient 2 as well, or a composite on a missing
            # basis index with strict units: the triples with an identity slot
            # are then scanned too, and some of them fail
            g, f = key
            unit, off_basis = dict(flipped), dict(entries)
            unit[(C.identity(f.tgt), f)] = {f.idx: 2}
            off_basis[key] = {len(C.hom(f.src, g.tgt)): 1}
            corrupted += [_with_composites(C, unit), _with_composites(C, off_basis)]
        for D in (C, *corrupted):
            got = validate(D)
            assert got == reference_validate(D)
            broken += bool(got)
            identity_slots += any("associativity" in v and "id@" in v for v in got)
    # (2, 3) has no composite of two non-identities, so its flip breaks a
    # unit; an identity entry cannot be deleted, since the constructor fills
    # it back in.  Each broken unit and each off-basis composite fails
    # triples with an identity slot
    assert broken == 13
    assert identity_slots == 7


def test_morphism_refs_order_hash_and_immutability():
    refs = list(tensor_bp((3, 3, 3)).morphisms())
    shuffled = refs[::-1]
    random.Random(5).shuffle(shuffled)
    assert sorted(shuffled) == sorted(shuffled, key=lambda r: (r.src, r.tgt, r.idx)) == refs
    for r in refs:
        assert hash(r) == hash((r.src, r.tgt, r.idx))
    with pytest.raises(AttributeError):
        refs[0].idx = 1
    with pytest.raises(TypeError):
        cone(a_category(2), (0, 1, 0))


def test_gauge_squares_with_opposite_signs_are_equivalent():
    anti = square_category(-1)
    comm = square_category(1)
    assert validate(anti) == validate(comm) == ()
    # flipping one edge's sign carries one table into the other
    assert plus_minus_gauge_exists(anti, comm)
    result = gauge_isomorphic(anti, comm, {o: o for o in "abcd"})
    assert result.ok
    assert result.witness is not None


def test_gauge_detects_distinct_vanishing_patterns():
    comm = square_category(1)
    broken = square_category(0)
    # a zero composite cannot be rescaled into a nonzero one
    assert not plus_minus_gauge_exists(comm, broken)
    result = gauge_isomorphic(comm, broken, {o: o for o in "abcd"})
    assert not result.ok
    assert result.reason


def test_gauge_handles_non_unit_rescaling():
    C = tensor_bp((3, 3))
    data = to_json_dict(C)
    for entry in data["comp"]:
        scalable = not entry["g"].startswith("id@") and not entry["f"].startswith("id@")
        if scalable and entry["result"] == "(1, 1)->(2, 2)#0":
            entry["coeff"] = str(Fraction(entry["coeff"]) * 7)
    D = from_json_dict(data)
    assert validate(D) == ()
    result = gauge_isomorphic(C, D, {x: x for x in C.objects})
    assert result.ok


def reference_gauge_isomorphic(C, D, bijection):
    """The former ``gauge_isomorphic``: every object pair, bases matched by ``index``."""
    n = len(C.objects)
    if len(D.objects) != n:
        return GaugeResult(False, None, "object counts differ")
    if set(bijection.keys()) != set(C.objects):
        raise ValueError("bijection must be defined exactly on the objects of C")
    for i, label in enumerate(C.objects):
        if bijection[label] not in D._index:
            raise ValueError(f"bijection image {bijection[label]!r} is not an object")
        if D.object_index(bijection[label]) != i:
            raise ValueError("bijection is not order-preserving")
    for cat in (C, D):
        for i in range(n):
            for j in range(i, n):
                if any(v > 1 for v in cat.graded_dims(i, j).values()):
                    raise ValueError("hom spaces must have dimension at most 1 per degree")
    for i in range(n):
        for j in range(i, n):
            if C.graded_dims(i, j) != D.graded_dims(i, j):
                return GaugeResult(
                    False, None, f"graded dimensions differ at ({C.objects[i]}, {C.objects[j]})"
                )

    def match(i, j, k):
        return D.hom(i, j).index(C.hom(i, j)[k])

    morphs = list(C.morphisms())
    var = {f: i for i, f in enumerate(morphs)}
    equations = []
    for f in morphs:
        for g in C.morphisms_from(f.tgt):
            cc = C.compose(g, f)
            gD = MorRef(g.src, g.tgt, match(g.src, g.tgt, g.idx))
            fD = MorRef(f.src, f.tgt, match(f.src, f.tgt, f.idx))
            cd_in_c = {}
            for idx, vv in D.compose(gD, fD).items():
                cd_in_c[C.hom(f.src, g.tgt).index(D.hom(f.src, g.tgt)[idx])] = vv
            if set(cc) != set(cd_in_c):
                return GaugeResult(
                    False,
                    None,
                    f"composition vanishing patterns differ at ({C.name(g)}, {C.name(f)})",
                )
            for idx, vc in cc.items():
                equations.append((g, f, MorRef(f.src, g.tgt, idx), Fraction(vc) / cd_in_c[idx]))
    nvars = len(morphs)
    sign_rows, sign_rhs, primes = [], [], set()
    for (g, f, h, ratio) in equations:
        sign_rows.append((1 << var[g]) ^ (1 << var[f]) ^ (1 << var[h]))
        sign_rhs.append(0 if ratio > 0 else 1)
        primes.update(dgcat._prime_factors(ratio.numerator))
        primes.update(dgcat._prime_factors(ratio.denominator))
    signs = solve_mod2(sign_rows, sign_rhs, nvars)
    if signs is None:
        return GaugeResult(False, None, "sign system is inconsistent")
    exponents = {}
    for prime in sorted(primes):
        rows, rhs = [], []
        for (g, f, h, ratio) in equations:
            row = [0] * nvars
            row[var[g]] += 1
            row[var[f]] += 1
            row[var[h]] -= 1
            rows.append(row)
            rhs.append(
                dgcat._prime_factors(ratio.numerator).get(prime, 0)
                - dgcat._prime_factors(ratio.denominator).get(prime, 0)
            )
        sol = solve_integer(RatMatrix(rows, cols=nvars), rhs) if rows else tuple([0] * nvars)
        if sol is None:
            return GaugeResult(False, None, f"magnitude system inconsistent at prime {prime}")
        exponents[prime] = list(sol)
    witness, scalars = {}, {}
    for m in morphs:
        value = Fraction(-1 if signs[var[m]] else 1)
        for prime, exps in exponents.items():
            value *= Fraction(prime) ** exps[var[m]]
        scalars[m] = value
        witness[C.name(m)] = value
    for (g, f, h, ratio) in equations:
        if scalars[g] * scalars[f] / scalars[h] != ratio:
            return GaugeResult(False, None, "witness verification failed")
    return GaugeResult(True, witness, None)


def _rotated_bases(C):
    """C with basis element k of each hom moved to k + 1 and the last to 0.

    Composites are carried along.  On a hom of dimension 3 the move is no
    involution, so it and its inverse differ.
    """
    def move(f):
        return MorRef(f.src, f.tgt, (f.idx + 1) % len(C.hom(f.src, f.tgt)))

    n = len(C.objects)
    homs = {
        (i, j): C.hom(i, j)[-1:] + C.hom(i, j)[:-1]
        for i in range(n)
        for j in range(i + 1, n)
        if C.hom(i, j)
    }
    comp = {
        (move(g), move(f)): {move(MorRef(f.src, g.tgt, k)).idx: v for k, v in entry.items()}
        for (g, f), entry in C.composition_entries()
    }
    return DirectedGradedCategory(C.objects, homs, comp)


def _distinct_degree_category(rng, n):
    """Homs of dimension 1 to 3 in distinct degrees, random composites."""
    homs = {
        (i, j): tuple(rng.sample((0, 1, 2), rng.randint(1, 3)))
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.7
    }
    C = DirectedGradedCategory(tuple(range(n)), homs)
    comp = {}
    for f in C.morphisms():
        for g in C.morphisms_from(f.tgt):
            if not (C.is_identity(f) or C.is_identity(g)):
                degs = C.hom(f.src, g.tgt)
                if degs and rng.random() < 0.7:
                    comp[(g, f)] = {rng.randrange(len(degs)): rng.choice((-2, -1, 1, 3))}
    return _with_composites(C, comp)


def _rescaled(C, rng):
    """C with each non-identity basis morphism m scaled by lam_m drawn with ``rng``.

    The composite c of (g, f) onto h becomes c * lam_h / (lam_g * lam_f), so
    the result is gauge-equivalent to C; identities keep lam = 1.
    """
    lam = {
        m: Fraction(rng.choice((2, 3, Fraction(-1, 5), 1, -6)))
        for m in C.morphisms()
        if not C.is_identity(m)
    }
    entries = {
        (g, f): {
            k: c * lam.get(MorRef(f.src, g.tgt, k), 1) / (lam.get(g, 1) * lam.get(f, 1))
            for k, c in entry.items()
        }
        for (g, f), entry in C.composition_entries()
    }
    return _with_composites(C, entries)


def test_gauge_matches_the_all_pairs_comparison_on_models_and_corruptions():
    cases = []
    for p in [(3, 3, 3), (2, 3, 4, 5)]:
        C, T = fukaya_bp(p), tensor_bp(p)
        n = len(T.objects)
        homs = {(i, j): T.hom(i, j) for i in range(n) for j in range(i + 1, n) if T.hom(i, j)}
        entries = dict(T.composition_entries())
        keys = [gf for gf in entries if not (T.is_identity(gf[0]) or T.is_identity(gf[1]))]
        key = keys[len(keys) // 2]
        moved, added = dict(homs), dict(homs)
        first = min(moved)
        moved[first] = tuple(d + 1 for d in moved[first])
        added[min((i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in homs)] = (0,)
        deleted, scaled, flipped = dict(entries), dict(entries), dict(entries)
        del deleted[key]
        scaled[key] = {k: 2 * v for k, v in entries[key].items()}
        flipped[key] = {k: -v for k, v in entries[key].items()}
        cases.append((C, T))
        cases.append((C, DirectedGradedCategory(T.objects, moved, entries)))
        # a hom that only one side has, on either side
        extra = DirectedGradedCategory(T.objects, added, entries)
        cases += [(C, extra), (extra, C)]
        cases += [(C, _with_composites(T, e)) for e in (deleted, scaled, flipped)]
    # bases in another order exercise the degree-to-index maps both ways
    rng = random.Random(4242)
    for _ in range(12):
        C = _distinct_degree_category(rng, rng.randint(2, 6))
        cases += [(C, _rotated_bases(C)), (_rotated_bases(C), C)]
    # rescaled models: each prime's magnitude system is solved, and the
    # witness is not a unit
    for p in [(3, 3, 3), (2, 3, 4)]:
        C = fukaya_bp(p)
        cases.append((C, _rescaled(C, random.Random(7))))
    reasons = set()
    witness_primes = set()
    for C, D in cases:
        bijection = {x: x for x in C.objects}
        got = gauge_isomorphic(C, D, bijection)
        assert got == reference_gauge_isomorphic(C, D, bijection)
        reasons.add(got.reason and got.reason.split(" at ")[0].split(" is ")[0])
        for v in (got.witness or {}).values():
            witness_primes.update(dgcat._prime_factors(v.numerator * v.denominator))
    assert witness_primes >= {2, 3, 5}
    assert reasons >= {
        None,
        "graded dimensions differ",
        "composition vanishing patterns differ",
        "magnitude system inconsistent",
        "sign system",
    }


def test_gauge_matches_the_reference_on_mixed_ratios():
    # ratios of ±1 take the int path, 2, -3 and 1/2 are factored
    C = tensor_bp((3, 3, 3))
    lam = {
        morphism_by_name(C, name): Fraction(v)
        for name, v in [
            ("(1, 1, 2)->(2, 1, 2)#0", -1),
            ("(1, 2, 1)->(2, 2, 1)#0", 2),
            ("(1, 1, 1)->(2, 1, 1)#0", -3),
            ("(1, 1, 1)->(1, 2, 2)#0", 2),
        ]
    }
    entries = {
        (g, f): {
            k: c * lam.get(MorRef(f.src, g.tgt, k), 1) / (lam.get(g, 1) * lam.get(f, 1))
            for k, c in entry.items()
        }
        for (g, f), entry in C.composition_entries()
    }
    D = _with_composites(C, entries)
    ratios = {
        Fraction(c) / D.compose(g, f)[k]
        for (g, f), entry in C.composition_entries()
        for k, c in entry.items()
    }
    assert ratios == {1, -1, 2, -3, Fraction(1, 2)}
    bijection = {x: x for x in C.objects}
    got = gauge_isomorphic(C, D, bijection)
    assert got.ok
    assert got == reference_gauge_isomorphic(C, D, bijection)
    assert_exact(got.witness.values())
    # one flipped sign on a composite whose ratio is 1
    key = tuple(morphism_by_name(C, name)
                for name in ("(1, 2, 2)->(2, 2, 2)#0", "(1, 1, 2)->(1, 2, 2)#0"))
    assert Fraction(C.compose(*key)[0]) / D.compose(*key)[0] == 1
    flipped = _with_composites(D, {**entries, key: {k: -c for k, c in entries[key].items()}})
    failed = GaugeResult(False, None, "sign system is inconsistent")
    assert gauge_isomorphic(C, flipped, bijection) == failed
    assert reference_gauge_isomorphic(C, flipped, bijection) == failed


@pytest.mark.parametrize("index", [5, -1])
def test_gauge_fails_on_a_composite_off_the_basis_in_either_order(index):
    # hom((1, 1), (2, 2)) has one basis element, so index 5 is off it and -1
    # must not wrap round onto it
    C = tensor_bp((3, 3))
    g = morphism_by_name(C, "(1, 2)->(2, 2)#0")
    f = morphism_by_name(C, "(1, 1)->(1, 2)#0")
    entries = dict(C.composition_entries())
    entries[(g, f)] = {index: Fraction(1)}
    D = _with_composites(C, entries)
    bijection = {x: x for x in C.objects}
    reason = "composition vanishing patterns differ at ((1, 2)->(2, 2)#0, (1, 1)->(1, 2)#0)"
    for X, Y in [(C, D), (D, C)]:
        assert gauge_isomorphic(X, Y, bijection) == GaugeResult(False, None, reason)


def test_gauge_requires_a_complete_bijection():
    C = tensor_bp((2, 3))
    with pytest.raises(ValueError):
        gauge_isomorphic(C, C, {})


def test_gauge_fails_on_a_doubled_hom_or_a_bijection_off_the_order():
    C = tensor_bp((3, 3))
    thick = DirectedGradedCategory(("a", "b"), {(0, 1): (1, 1)}, {})
    swapped = dict(zip(C.objects, C.objects[1:2] + C.objects[:1] + C.objects[2:]))
    outside = {**{x: x for x in C.objects}, (2, 2): (3, 3)}
    for X, bijection, reason in [
        (thick, {"a": "a", "b": "b"},
         "hom (a, b) of C has degrees (1, 1), expected at most one basis element per degree"),
        (C, swapped, "bijection is not order-preserving at (1, 1): its image (1, 2) is object 1 of D, "
                     "expected 0"),
        (C, outside, "bijection image of (2, 2) is (3, 3), not an object of D"),
    ]:
        assert gauge_isomorphic(X, X, bijection) == GaugeResult(False, None, reason)


def test_relabel_round_trip():
    C = tensor_bp((2, 3))
    mapping = {(1, 1): "low", (1, 2): "high"}
    D = relabel(C, mapping)
    assert D.objects == ("low", "high")
    assert gauge_isomorphic(C, D, mapping).ok
    with pytest.raises(KeyError):
        relabel(C, {(1, 1): "only"})
    with pytest.raises(ValueError):
        relabel(C, {(1, 1): "same", (1, 2): "same"})
    # the result equals a fresh build with the new labels, shares the tables
    # without touching its input, and indexes sources alike whether or not the
    # input had built its index first
    for index_first in (False, True):
        C = tensor_bp((3, 3, 3))
        if index_first:
            C.morphisms_from(0)
        before = to_json_dict(C)
        mapping = {label: "x" + "".join(map(str, label)) for label in C.objects}
        D = relabel(C, mapping)
        n = len(C.objects)
        fresh = DirectedGradedCategory(
            tuple(mapping[x] for x in C.objects),
            {(i, j): C.hom(i, j) for i in range(n) for j in range(i + 1, n)},
            dict(C.composition_entries()),
        )
        assert D == fresh
        assert to_json_dict(C) == before
        assert C.object_index((2, 2, 2)) == D.object_index("x222") == 7
        with pytest.raises(KeyError):
            D.object_index((2, 2, 2))
        for i in range(n):
            assert D.morphisms_from(i) == fresh.morphisms_from(i) == C.morphisms_from(i)


def test_formality_holds_for_tensor_models():
    assert formality_check(a_category(6)) is None
    assert formality_check(tensor_bp((2, 3, 4))) is None
    assert formality_check(tensor_bp((3, 3, 3))) is None


def test_formality_fails_when_a_massey_slot_is_filled():
    homs = [{"src": o, "tgt": o, "degree": 0, "name": f"id@{o}"} for o in "pqrs"]
    homs += [
        {"src": "p", "tgt": "q", "degree": 1, "name": "t1"},
        {"src": "q", "tgt": "r", "degree": 1, "name": "t2"},
        {"src": "r", "tgt": "s", "degree": 1, "name": "t3"},
        # degree 3 + 2 - 3: exactly where a length-3 higher product could land
        {"src": "p", "tgt": "s", "degree": 2, "name": "w"},
    ]
    C = from_json_dict({"objects": list("pqrs"), "homs": homs, "comp": []})
    assert validate(C) == ()
    assert formality_check(C) is not None


def test_json_round_trips():
    for C in [a_category(5), tensor_bp((2, 3)), tensor_bp((3, 3))]:
        assert from_json_dict(json.loads(json.dumps(to_json_dict(C)))) == C
        assert from_json_dict(to_json_dict(C)) == C
