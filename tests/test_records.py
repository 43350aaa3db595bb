"""The package's result records: named tuples that print, hash and order
exactly as the frozen dataclasses they replaced."""

import random

import pytest

from bpsing.dgcat import MorRef, gauge_isomorphic, tensor_bp
from bpsing.exactlin import RatMatrix, complex_cohomology
from bpsing.grading import FiniteAbelianGroup, LDegree, LGroup, cy_check, orlov_group
from bpsing.lattice import compare, st_gram
from bpsing.singcat import SequenceReport, koszul_perfect_check, lemma_k_check
from bpsing.twisted import cone


def a3():
    return tensor_bp((3,))


# (built record, its repr, a field to replace, the new value); each repr is
# the text the dataclass printed, with Cohomology's fields under their names
RECORDS = {
    "GaugeResult": (
        lambda: gauge_isomorphic(a3(), a3(), {x: x for x in a3().objects}),
        "GaugeResult(ok=True, witness={'id@(1,)': 1, '(1,)->(2,)#0': 1, 'id@(2,)': 1}, "
        "reason=None)",
        "reason", "changed",
    ),
    "Cohomology": (
        lambda: complex_cohomology(RatMatrix([[1], [0]]), RatMatrix([[0, 0]])),
        "Cohomology(dim=1, representatives=(((1, 1),),), space_dim=2, "
        "coord_rows=(((1, 1),),), residual_rows=())",
        "dim", 0,
    ),
    "LDegree": (
        lambda: LGroup((3, 4)).normalize((0, 2, -1)),
        "LDegree(a=(0, 2), b=-1)",
        "b", 5,
    ),
    "FiniteAbelianGroup": (
        lambda: orlov_group((2, 6, 6)),
        "FiniteAbelianGroup(factors=(2, 6))",
        "factors", (3,),
    ),
    "CyReport": (
        lambda: cy_check((3, 3, 3)),
        "CyReport(holds=True, ell=3, weights=(1, 1, 1))",
        "ell", 4,
    ),
    "BilinearLattice": (
        lambda: st_gram((3,)),
        "BilinearLattice(labels=((1,), (2,)), entries=((2, -1), (-1, 2)), symmetric=True)",
        "symmetric", False,
    ),
    "LatticeComparison": (
        lambda: compare((3,)),
        "LatticeComparison(st=BilinearLattice(labels=((1,), (2,)), entries=((2, -1), (-1, 2)), "
        "symmetric=True), euler=BilinearLattice(labels=((1,), (2,)), "
        "entries=((2, -1), (-1, 2)), symmetric=True), disagreements=())",
        "disagreements", (((1,), (1,), 2, 0),),
    ),
    "ResolutionReport": (
        lambda: koszul_perfect_check((2, 3), 2),
        "ResolutionReport(degrees_checked=2, failures=())",
        "failures", ("broken",),
    ),
    "SequenceReport": (
        lambda: lemma_k_check((2, 3), 1, 2),
        "SequenceReport(degrees_checked=2, first_failure=None, failures=(), iso_ok=True)",
        "iso_ok", False,
    ),
    "Cone": (
        lambda: cone(a3(), MorRef(1, 1, 0)),
        "Cone(category=DirectedGradedCategory(2 objects, 3 basis morphisms), "
        "f=MorRef(src=1, tgt=1, idx=0))",
        "f", MorRef(0, 0, 0),
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_record_prints_hashes_and_replaces_as_the_dataclass_did(name):
    build, text, field, value = RECORDS[name]
    record = build()
    assert type(record).__name__ == name
    assert repr(record) == text
    values = tuple(getattr(record, f) for f in record._fields)
    try:
        want = hash(values)
    except TypeError:  # a dict witness or a category: no hash as a dataclass either
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == want
    changed = record._replace(**{field: value})
    assert type(changed) is type(record)
    assert getattr(changed, field) == value
    assert all(getattr(changed, f) is getattr(record, f) for f in record._fields if f != field)


def test_sequence_report_defaults_iso_ok_to_none():
    assert SequenceReport(3, None, ()).iso_ok is None
    assert lemma_k_check((3, 3), 1, 2).iso_ok is None  # j < p_axis: no comparison


def test_replace_keeps_the_invariant_factor_check():
    with pytest.raises(ValueError, match="divisibility chain"):
        FiniteAbelianGroup((2, 6))._replace(factors=(2, 3))


def test_ldegrees_sort_as_their_coefficient_pairs():
    rng = random.Random(38)
    degrees = [LDegree(tuple(rng.randint(0, 2) for _ in range(3)), rng.randint(-2, 2))
               for _ in range(60)]
    assert sorted(degrees) == sorted(degrees, key=lambda d: (d.a, d.b))
    assert [(d.a, d.b) for d in sorted(degrees)] == sorted((d.a, d.b) for d in degrees)
