"""Lookups that only the tests need."""

from fractions import Fraction

from bpsing import dgcat
from bpsing.dgcat import DirectedGradedCategory, MorRef
from bpsing.twisted import identity_class


def morphism_by_name(C: DirectedGradedCategory, name: str) -> MorRef:
    """The basis morphism of C whose ``C.name`` is ``name``; KeyError if none."""
    for f in C.morphisms():
        if C.name(f) == name:
            return f
    raise KeyError(name)


def assert_exact(values):
    """Each value an int (never a bool) when integral, else a Fraction with
    denominator above 1; a float, or an integral Fraction, fails."""
    values = list(values)
    assert values
    for v in values:
        assert type(v) is int or (type(v) is Fraction and v.denominator > 1), (type(v), v)


def drop_one_composite(C: DirectedGradedCategory) -> DirectedGradedCategory:
    """C without its first composite of two non-identity morphisms; C if it has none."""
    entries = dict(C.composition_entries())
    victims = [(g, f) for (g, f) in entries if not (C.is_identity(g) or C.is_identity(f))]
    if not victims:
        return C
    del entries[victims[0]]
    homs = {(i, j): C.hom(i, j) for i, j in C.hom_pairs() if i < j}
    return DirectedGradedCategory(C.objects, homs, entries)


def scaled_identity_class(factor):
    """``identity_class`` with every coefficient times ``factor``: no unit unless factor is 1."""

    def scaled(h):
        d, coeffs = identity_class(h)
        return d, tuple(factor * c for c in coeffs)

    return scaled


def count_table_builds(monkeypatch) -> list:
    """Wrap the product-table builder; the list gets each built table's hom table.

    The hom tables are kept alive, so two builds of one product table show
    up as the same object twice.
    """
    built = []
    build = dgcat._product_composites

    def counting(A, B, homs):
        built.append(homs)
        return build(A, B, homs)

    monkeypatch.setattr(dgcat, "_product_composites", counting)
    return built
