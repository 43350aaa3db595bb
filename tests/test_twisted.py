"""Twisted complexes: cones, hom complexes, the stacked-copy case table."""

from fractions import Fraction

import pytest

from bpsing import suspension
from bpsing.dgcat import DirectedGradedCategory, MorRef, a_category, tensor_bp
from bpsing.exactlin import ComplexError
from bpsing.suspension import connector, directed_extension, fukaya_bp, suspend
from bpsing.twisted import cohomology, compose_classes, cone, hom_complex, identity_class, rebind
from helpers import (
    apply,
    chain_dims,
    densify,
    morphism_by_name,
    off_connector_cones,
    reference_differential,
)


def shift_dims(dims, by):
    return {d + by: v for d, v in dims.items()}


def chi(dims):
    return sum((-1) ** d * v for d, v in dims.items())


def test_cone_requires_a_degree_zero_basis_morphism():
    # with one delta term a cone needs no other check: these are its only refusals
    C = tensor_bp((2, 3))
    with pytest.raises(TypeError, match="cone needs a basis morphism reference"):
        cone(C, (0, 1, 0))
    for missing in (MorRef(0, 1, 1), MorRef(1, 0, 0)):
        with pytest.raises(ValueError, match="cone of a missing morphism"):
            cone(C, missing)
    arrow = morphism_by_name(C, "(1, 1)->(1, 2)#0")
    with pytest.raises(ValueError, match="cone requires a degree-0 morphism"):
        cone(C, arrow)


def test_cone_of_identity_is_null():
    C = tensor_bp((2, 3))
    N = cone(C, C.identity(0))
    ends = hom_complex(N, N)
    # four nonzero entries: homotopy, two identities, connecting map
    assert chain_dims(ends) == {-1: 1, 0: 2, 1: 1}
    assert cohomology(ends).dims == {}
    for Z in [N, cone(C, C.identity(1))]:
        assert cohomology(hom_complex(N, Z)).dims == {}
        assert cohomology(hom_complex(Z, N)).dims == {}


def test_connector_cone_keeps_its_identity():
    # unlike cone(id), the cone over an identity copy between two distinct
    # stacked objects is not contractible: the would-be homotopy runs
    # against the direction of the category
    E = directed_extension(a_category(2), 2)
    S = cone(E, connector(E, 1, 1))
    assert cohomology(hom_complex(S, S)).dims == {0: 1}


def test_case_table_for_cone_homs():
    """Stacked copies with identity connectors: the four-way hom pattern.

    For cones S_{x,j} over the connectors, cohomology of hom(S_{x,j},
    S_{x',j'}) is the base hom when j' = j, the base hom shifted one degree
    up when j' = j + 1, and zero otherwise.
    """
    for A in [a_category(2), tensor_bp((2, 3))]:
        for k in (2, 3, 4):
            E = directed_extension(A, k)
            cones = {
                (x, j): cone(E, connector(E, x, j))
                for x in A.objects
                for j in range(1, k)
            }
            for (x, j), S in cones.items():
                for (x2, j2), S2 in cones.items():
                    base = A.graded_dims(A.object_index(x), A.object_index(x2))
                    if j2 == j:
                        want = dict(base)
                    elif j2 == j + 1:
                        want = shift_dims(base, 1)
                    else:
                        want = {}
                    got = cohomology(hom_complex(S, S2)).dims
                    assert got == want, (x, j, x2, j2, got, want)


def _assert_differentials_match_the_reference(H):
    for d in set(H.degrees()) | {d - 1 for d in H.degrees()}:
        assert H.differential(d) == reference_differential(H.X, H.Y, d), (H.X.f, H.Y.f, d)


def test_case_table_differentials_match_the_general_delta_loop():
    for A in [a_category(2), tensor_bp((2, 3))]:
        for k in (2, 3, 4):
            E = directed_extension(A, k)
            cones = [cone(E, connector(E, x, j)) for x in A.objects for j in range(1, k)]
            for S in cones:
                for S2 in cones:
                    _assert_differentials_match_the_reference(hom_complex(S, S2))


@pytest.mark.parametrize("p", [(2, 3), (3, 3, 3), (2, 3, 4), (4, 4, 4)])
def test_tower_differentials_match_the_general_delta_loop(monkeypatch, p):
    real = suspension.hom_complex
    checked = []

    def checking(X, Y):
        H = real(X, Y)
        _assert_differentials_match_the_reference(H)
        checked.append(H)
        return H

    monkeypatch.setattr(suspension, "hom_complex", checking)
    fukaya_bp(p)
    assert checked


def test_case_table_distinguishes_trivial_from_acyclic():
    A = a_category(2)
    E = directed_extension(A, 4)
    high = cone(E, connector(E, 1, 3))
    low = cone(E, connector(E, 2, 1))
    # far apart in the stacking direction: no morphisms at all
    assert chain_dims(hom_complex(low, high)) == {}
    # one step against the grain: a nonzero complex with zero cohomology
    against = hom_complex(cone(E, connector(E, 1, 2)), low)
    assert chain_dims(against) != {}
    assert cohomology(against).dims == {}


def test_hom_complex_differential_squares_to_zero():
    A = tensor_bp((2, 3))
    E = directed_extension(A, 3)
    objs = [cone(E, connector(E, x, j)) for x in A.objects for j in (1, 2)]
    objs += off_connector_cones(E, (1, 1))
    for X in objs:
        for Y in objs:
            H = hom_complex(X, Y)
            degs = H.degrees()
            for d in degs:
                assert (H.differential(d) @ H.differential(d - 1)).is_zero()


def test_hom_complex_rejects_a_differential_that_does_not_square_to_zero():
    E = directed_extension(a_category(2), 3)
    g = morphism_by_name(E, "(1, 2)->(2, 2)#0")
    f = morphism_by_name(E, "(1, 3)->(1, 2)#0")
    # with this composite gone the connector square from (1, 3) to (2, 2) no
    # longer commutes, so the differential of hom(S_{1,2}, S_{2,1}) squares to nonzero
    B = _recomposed(E, {(g, f): {}})
    with pytest.raises(ComplexError):
        hom_complex(cone(B, connector(B, 1, 2)), cone(B, connector(B, 2, 1)))


def test_cohomology_preserves_euler_characteristic():
    A = tensor_bp((2, 3))
    E = directed_extension(A, 3)
    pairs = [
        (cone(E, connector(E, (1, 1), 1)), cone(E, connector(E, (1, 2), 1))),
        (cone(E, connector(E, (1, 1), 2)), cone(E, connector(E, (1, 1), 1))),
        (off_connector_cones(E, (1, 1))[1], cone(E, connector(E, (1, 2), 2))),
    ]
    for X, Y in pairs:
        H = hom_complex(X, Y)
        assert chi(chain_dims(H)) == chi(cohomology(H).dims)


def test_identity_class_is_a_unit():
    A = a_category(2)
    E = directed_extension(A, 2)
    S1 = cone(E, connector(E, 1, 1))
    S2 = cone(E, connector(E, 2, 1))
    h11 = hom_complex(S1, S1)
    h22 = hom_complex(S2, S2)
    h12 = hom_complex(S1, S2)
    assert h12.cohomology.dims == {1: 1}
    alpha = (1, (Fraction(1),))
    one1 = identity_class(h11)
    one2 = identity_class(h22)
    assert one1 == (0, (Fraction(1),))
    assert compose_classes(h22, h12, h12, one2, alpha) == alpha
    assert compose_classes(h12, h11, h12, alpha, one1) == alpha


def test_consecutive_generator_classes_compose_to_zero():
    A = a_category(3)
    E = directed_extension(A, 2)
    S1 = cone(E, connector(E, 1, 1))
    S2 = cone(E, connector(E, 2, 1))
    S3 = cone(E, connector(E, 3, 1))
    h12 = hom_complex(S1, S2)
    h23 = hom_complex(S2, S3)
    h13 = hom_complex(S1, S3)
    assert h13.cohomology.dims == {}
    out = compose_classes(h23, h12, h13, (1, (Fraction(1),)), (1, (Fraction(1),)))
    assert out == (2, ())


def reference_compose_cochains(h_yz, h_xy, h_xz, psi, phi):
    """The former dense composition: every pair of basis entries, dense result."""
    cat = h_xy.X.category
    (dpsi, vpsi), (dphi, vphi) = psi, phi
    total = dpsi + dphi
    out = [Fraction(0)] * h_xz.dim(total)
    for j, (b2, c, k2) in enumerate(h_yz.basis.get(dpsi, ())):
        if vpsi[j] == 0:
            continue
        gref = MorRef(h_yz.X._oidx(b2), h_yz.Y._oidx(c), k2)
        for i, (a, b, k1) in enumerate(h_xy.basis.get(dphi, ())):
            if vphi[i] == 0 or b != b2:
                continue
            fref = MorRef(h_xy.X._oidx(a), h_xy.Y._oidx(b), k1)
            for ridx, rcoeff in cat.compose(gref, fref).items():
                dd, pos = h_xz.position[(a, c, ridx)]
                if dd != total:
                    raise ComplexError("composition is not degree additive")
                out[pos] += vpsi[j] * vphi[i] * rcoeff
    return total, tuple(out)


def reference_compose_classes(h_yz, h_xy, h_xz, alpha, beta):
    """The former dense ``compose_classes``: dense sums, dense closedness check."""
    (da, ca), (db, cb) = alpha, beta
    reps_a = [densify(rep, h_yz.dim(da)) for rep in h_yz.cohomology.representatives(da)]
    reps_b = [densify(rep, h_xy.dim(db)) for rep in h_xy.cohomology.representatives(db)]
    if len(ca) != len(reps_a) or len(cb) != len(reps_b):
        raise ValueError("class coefficients do not match representative count")
    va = [Fraction(0)] * h_yz.dim(da)
    for coeff, rep in zip(ca, reps_a):
        for i, x in enumerate(rep):
            va[i] += coeff * x
    vb = [Fraction(0)] * h_xy.dim(db)
    for coeff, rep in zip(cb, reps_b):
        for i, x in enumerate(rep):
            vb[i] += coeff * x
    total, vec = reference_compose_cochains(
        h_yz, h_xy, h_xz, (da, tuple(va)), (db, tuple(vb))
    )
    if any(x != 0 for x in apply(h_xz.differential(total), vec)):
        raise ComplexError("composite of cocycles is not closed")
    return (total, tuple(h_xz.cohomology.coordinates(total, vec)))


@pytest.mark.parametrize("A, k", [(a_category(3), 3), (fukaya_bp((2, 3)), 4)], ids=["A3", "bp23"])
def test_compose_classes_matches_the_dense_composition(monkeypatch, A, k):
    real = suspension.compose_classes
    seen = []

    def checking(h_yz, h_xy, h_xz, alpha, beta):
        got = real(h_yz, h_xy, h_xz, alpha, beta)
        assert got == reference_compose_classes(h_yz, h_xy, h_xz, alpha, beta)
        # classes that are no basis classes: coefficients 1/2, 3/2, ... and -3, -2, ...
        mix_a = (alpha[0], tuple(Fraction(1, 2) + i for i in range(len(alpha[1]))))
        mix_b = (beta[0], tuple(Fraction(-3) + i for i in range(len(beta[1]))))
        assert real(h_yz, h_xy, h_xz, mix_a, mix_b) == reference_compose_classes(
            h_yz, h_xy, h_xz, mix_a, mix_b
        )
        seen.append(got)
        return got

    monkeypatch.setattr(suspension, "compose_classes", checking)
    suspend(A, k)
    # composites and the unit checks, zero and nonzero classes among them
    assert len(seen) > 10
    assert any(any(c) for _, c in seen) and not all(any(c) for _, c in seen)


def _connector_cones(E):
    """S1 = Cone(e_{1,1}) and S2 = Cone(e_{2,1}) over a two-level extension of A_2."""
    return cone(E, connector(E, 1, 1)), cone(E, connector(E, 2, 1))


def _recomposed(E, changes):
    """E with the composites in ``changes`` replaced (an empty entry deletes)."""
    entries = dict(E.composition_entries())
    entries.update(changes)
    n = len(E.objects)
    homs = {(i, j): E.hom(i, j) for i in range(n) for j in range(i + 1, n) if E.hom(i, j)}
    return DirectedGradedCategory(E.objects, homs, {k: v for k, v in entries.items() if v})


def test_compose_classes_rejects_a_composite_that_is_not_closed():
    E = directed_extension(a_category(2), 2)
    S1, S2 = _connector_cones(E)
    h12, h22 = hom_complex(S1, S2), hom_complex(S2, S2)
    alpha = (1, (Fraction(1),))
    # the same cones over E with a unit that is not strict: id after x is 2x
    # on the top level, so the unit class no longer fixes the cocycle
    x = MorRef(E.object_index((1, 2)), E.object_index((2, 2)), 0)
    bent = _recomposed(E, {(E.identity(x.tgt), x): {0: 2}})
    B1, B2 = _connector_cones(bent)
    bent12 = rebind(h12, B1, B2)
    args = (rebind(h22, B2, B2), bent12, bent12, identity_class(h22), alpha)
    # the library checks the composite once, in the coordinate map
    for fn, message in ((compose_classes, "not a cocycle"),
                        (reference_compose_classes, "composite of cocycles is not closed")):
        with pytest.raises(ComplexError, match=message):
            fn(*args)


def test_compose_classes_rejects_a_vector_outside_the_span():
    E = directed_extension(a_category(2), 2)
    # without the composites through the connectors every cochain of
    # hom(S1, S2) is closed, so each basis cochain is a representative
    flat = _recomposed(
        E,
        {
            (g, f): {}
            for (g, f), _ in E.composition_entries()
            if not (E.is_identity(g) or E.is_identity(f))
        },
    )
    F1, F2 = _connector_cones(flat)
    h12, h22 = hom_complex(F1, F2), hom_complex(F2, F2)
    assert h12.cohomology.dims == {1: 2, 2: 1}
    # projected with E's cohomology, where a single basis cochain is no cocycle
    S1, S2 = _connector_cones(E)
    target = rebind(h12, F1, F2)
    target.cohomology = hom_complex(S1, S2).cohomology
    args = (h22, h12, target, identity_class(h22), (1, (Fraction(1), Fraction(0))))
    for fn in (compose_classes, reference_compose_classes):
        with pytest.raises(ComplexError, match="not in the span"):
            fn(*args)
