"""Exact computer algebra for Brieskorn-Pham singularities.

Construction and verification of directed graded categories with their
suspension pipeline, twisted-complex cohomology, Milnor-type bilinear
lattices, grading-group arithmetic, and graded Ext computations over the
associated hypersurface rings.  All arithmetic is exact (integers and
rationals); everything is deterministic.
"""

__version__ = "0.1.0"
