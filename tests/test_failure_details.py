"""Failure details of the shape, Sebastiani-Thom and formality checks: where, expected and found.

Passing checks print no detail beyond what they printed before, so stdout on
correct input is unchanged; these tests look at the failing side.
"""

import pytest

from bpsing import cli
from bpsing.dgcat import formality_check, tensor_bp
from bpsing.lattice import BilinearLattice, compare, st_gram
from bpsing.suspension import SuspensionError, suspend
from helpers import reference_sebastiani_thom_mismatch, reference_shape_fault
from test_mutations import extra_hom, with_lower_entry


@pytest.mark.parametrize("p", [(2,), (2, 3), (3, 3, 3), (2, 3, 4, 5)])
def test_true_grams_have_their_shape(p):
    cmpr = compare(p)
    odd = len(p) % 2 == 1
    assert cli._shape_fault(cmpr.st, odd) is None
    assert cli._shape_fault(cmpr.euler, odd) is None


def test_a_wrong_symmetric_flag_is_reported_before_any_entry():
    s = st_gram((3, 3, 3))
    flipped = BilinearLattice(s.labels, s.entries, symmetric=False)
    assert cli._shape_fault(flipped, True) == {"flag": "symmetric", "expected": True, "found": False}


def test_the_first_antisymmetry_fault_names_its_entry():
    s = st_gram((3, 3))
    rows = [list(row) for row in s.entries]
    rows[2][1] += 1
    broken = BilinearLattice(s.labels, tuple(map(tuple, rows)), s.symmetric)
    assert cli._shape_fault(broken, False) == {
        "entry": [1, 2], "expected": -rows[2][1], "found": rows[1][2],
    }


def assert_lattice_checks_match_the_oracles(cmpr, odd):
    for gram in (cmpr.st, cmpr.euler):
        assert cli._shape_fault(gram, odd) == reference_shape_fault(gram, odd)
    assert cli._sebastiani_thom_mismatch(cmpr) == reference_sebastiani_thom_mismatch(cmpr)


@pytest.mark.parametrize("orientation", ["E-Et", "Et-E"])
@pytest.mark.parametrize(
    "p", [(2,), (7,), (2, 3), (3, 3, 3), (2, 3, 4, 5), (4, 4, 4, 4), (5, 5, 5, 5)]
)
def test_lattice_checks_on_true_grams_match_the_dense_oracles(p, orientation):
    assert_lattice_checks_match_the_oracles(compare(p, orientation), len(p) % 2 == 1)


def perturbed(gram, kind):
    """``gram`` with one entry changed, or with its ``symmetric`` flag flipped."""
    if kind == "flag":
        return gram._replace(symmetric=not gram.symmetric)
    if kind == "lower":
        return with_lower_entry(gram)
    rows = [list(row) for row in gram.entries]
    a, b = (1, 1) if kind == "diagonal" else (0, 1)
    rows[a][b] += 1
    return gram._replace(entries=tuple(map(tuple, rows)))


@pytest.mark.parametrize("kind", ["diagonal", "upper", "lower", "flag"])
@pytest.mark.parametrize("side", ["st", "euler"])
@pytest.mark.parametrize("p", [(3, 3, 3), (3, 3)])
def test_lattice_checks_on_perturbed_grams_match_the_dense_oracles(p, side, kind):
    cmpr = compare(p)
    odd = len(p) % 2 == 1
    cmpr = cmpr._replace(**{side: perturbed(getattr(cmpr, side), kind)})
    assert reference_shape_fault(getattr(cmpr, side), odd) is not None
    assert_lattice_checks_match_the_oracles(cmpr, odd)


def test_formality_report_names_the_first_chain():
    assert formality_check(tensor_bp((3, 3, 3))) is None
    assert formality_check(extra_hom(4)) == {"from": "1", "to": "4", "length": 3, "degree": 2}


def test_suspend_puts_the_formality_chain_in_its_error():
    with pytest.raises(SuspensionError, match=r"formality scan: .*'length': 3, 'degree': 2"):
        suspend(extra_hom(4), 3)
