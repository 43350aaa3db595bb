"""Twisted complexes: cones, hom complexes, the stacked-copy case table."""

from fractions import Fraction

import pytest

from bpsing.dgcat import a_category, tensor_bp
from bpsing.suspension import connector, directed_extension
from bpsing.twisted import (
    TwistedObject,
    cohomology,
    compose_classes,
    cone,
    hom_complex,
    identity_class,
    single,
    twisted_hom,
)
from helpers import morphism_by_name


def shift_dims(dims, by):
    return {d + by: v for d, v in dims.items()}


def chi(dims):
    return sum((-1) ** d * v for d, v in dims.items())


def test_single_hom_matches_category_hom():
    C = tensor_bp((2, 3))
    X = single(C, (1, 1))
    Y = single(C, (1, 2))
    H = hom_complex(X, Y)
    assert H.dims() == {1: 1}
    assert cohomology(H).dims == {1: 1}
    assert cohomology(hom_complex(X, X)).dims == {0: 1}
    assert cohomology(hom_complex(Y, X)).dims == {}


def test_cone_requires_a_degree_zero_basis_morphism():
    C = tensor_bp((2, 3))
    arrow = morphism_by_name(C, "(1, 1)->(1, 2)#0")
    with pytest.raises(ValueError):
        cone(C, arrow)


def test_twisted_object_delta_validation():
    E = directed_extension(a_category(2), 3)
    with pytest.raises(ValueError):
        TwistedObject(E, (((1, 1), 0),), {(0, 0): {0: 1}})
    with pytest.raises(ValueError):
        TwistedObject(E, (((1, 2), 1), ((1, 1), 0)), {(1, 0): {0: 1}})
    # a connector copy with mismatched shifts has total degree != 1
    with pytest.raises(ValueError):
        TwistedObject(E, (((1, 2), 0), ((1, 1), 0)), {(0, 1): {0: 1}})
    # two stacked connectors compose to a copy of the identity
    with pytest.raises(ValueError):
        TwistedObject(
            E,
            (((1, 3), 2), ((1, 2), 1), ((1, 1), 0)),
            {(0, 1): {0: 1}, (1, 2): {0: 1}},
        )


def test_cone_of_identity_is_null():
    C = tensor_bp((2, 3))
    N = cone(C, C.identity(0))
    ends = hom_complex(N, N)
    # four nonzero entries: homotopy, two identities, connecting map
    assert ends.dims() == {-1: 1, 0: 2, 1: 1}
    assert cohomology(ends).dims == {}
    for Z in [single(C, (1, 1)), single(C, (1, 2)), N]:
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


def test_case_table_distinguishes_trivial_from_acyclic():
    A = a_category(2)
    E = directed_extension(A, 4)
    high = cone(E, connector(E, 1, 3))
    low = cone(E, connector(E, 2, 1))
    # far apart in the stacking direction: no morphisms at all
    assert hom_complex(low, high).dims() == {}
    # one step against the grain: a nonzero complex with zero cohomology
    against = hom_complex(cone(E, connector(E, 1, 2)), low)
    assert against.dims() != {}
    assert cohomology(against).dims == {}


def test_hom_complex_differential_squares_to_zero():
    A = tensor_bp((2, 3))
    E = directed_extension(A, 3)
    objs = [cone(E, connector(E, x, j)) for x in A.objects for j in (1, 2)]
    objs += [single(E, ((1, 1), 3))]
    for X in objs:
        for Y in objs:
            H = hom_complex(X, Y)
            degs = H.degrees()
            for d in degs:
                assert (H.differential(d) @ H.differential(d - 1)).is_zero()


def test_cohomology_preserves_euler_characteristic():
    A = tensor_bp((2, 3))
    E = directed_extension(A, 3)
    pairs = [
        (cone(E, connector(E, (1, 1), 1)), cone(E, connector(E, (1, 2), 1))),
        (cone(E, connector(E, (1, 1), 2)), cone(E, connector(E, (1, 1), 1))),
        (single(E, ((1, 1), 2)), cone(E, connector(E, (1, 2), 2))),
    ]
    for X, Y in pairs:
        H = hom_complex(X, Y)
        assert chi(H.dims()) == chi(cohomology(H).dims)


def test_identity_class_is_a_unit():
    A = a_category(2)
    E = directed_extension(A, 2)
    S1 = cone(E, connector(E, 1, 1))
    S2 = cone(E, connector(E, 2, 1))
    h11 = twisted_hom(S1, S1)
    h22 = twisted_hom(S2, S2)
    h12 = twisted_hom(S1, S2)
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
    h12 = twisted_hom(S1, S2)
    h23 = twisted_hom(S2, S3)
    h13 = twisted_hom(S1, S3)
    assert h13.cohomology.dims == {}
    out = compose_classes(h23, h12, h13, (1, (Fraction(1),)), (1, (Fraction(1),)))
    assert out == (2, ())
