"""Lookups that only the tests need."""

from bpsing.dgcat import DirectedGradedCategory, MorRef


def morphism_by_name(C: DirectedGradedCategory, name: str) -> MorRef:
    """The basis morphism of C whose ``C.name`` is ``name``; KeyError if none."""
    for f in C.morphisms():
        if C.name(f) == name:
            return f
    raise KeyError(name)
