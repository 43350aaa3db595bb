"""Lookups that only the tests need."""

from bpsing.dgcat import DirectedGradedCategory, MorRef


def morphism_by_name(C: DirectedGradedCategory, name: str) -> MorRef:
    """The basis morphism of C whose ``C.name`` is ``name``; KeyError if none."""
    for f in C.morphisms():
        if C.name(f) == name:
            return f
    raise KeyError(name)


def drop_one_composite(C: DirectedGradedCategory) -> DirectedGradedCategory:
    """C without its first composite of two non-identity morphisms; C if it has none."""
    entries = dict(C.composition_entries())
    victims = [(g, f) for (g, f) in entries if not (C.is_identity(g) or C.is_identity(f))]
    if not victims:
        return C
    del entries[victims[0]]
    homs = {(i, j): C.hom(i, j) for i, j in C.hom_pairs() if i < j}
    return DirectedGradedCategory(C.objects, homs, entries)
