"""Exact computer algebra for Brieskorn-Pham singularities.

Construction and verification of directed graded categories with their
suspension pipeline, twisted-complex cohomology, Milnor-type bilinear
lattices, grading-group arithmetic, and graded Ext computations over the
associated hypersurface rings.  All arithmetic is exact (integers and
rationals); everything is deterministic.
"""

from .exactlin import (
    Cohomology,
    ComplexError,
    RatMatrix,
    complex_cohomology,
    det,
    invariant_factors,
    rank,
    rank_kernel,
    rref,
    smith_normal_form,
    solve,
    solve_integer,
    solve_mod2,
)
from .grading import (
    CyReport,
    FiniteAbelianGroup,
    LDegree,
    LGroup,
    cy_check,
    exponent_seq,
    orlov_group,
)
from .dgcat import (
    DirectedGradedCategory,
    EulerMatrix,
    FormalityReport,
    GaugeResult,
    MorRef,
    ValidationReport,
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
from .twisted import (
    HomComplex,
    TwistedCohomology,
    TwistedObject,
    cohomology,
    compose_classes,
    cone,
    hom_complex,
    identity_class,
    single,
)
from .suspension import (
    SuspensionError,
    SuspensionReport,
    connector,
    directed_extension,
    fukaya_bp,
    suspend,
    suspension_tower,
    verify_suspension,
)
from .lattice import (
    BilinearLattice,
    LatticeComparison,
    compare,
    euler_gram,
    index_tuples,
    one_var_form,
    st_gram,
)
from .singcat import (
    FreeComplex,
    GradedModule,
    GradedRing,
    ModuleMap,
    ResolutionReport,
    SequenceReport,
    bp_resolution,
    exact_sequence_check,
    ext_formula,
    ext_formula_row,
    ext_k_k,
    ext_k_k_row,
    graded_module_iso,
    index_set,
    koszul_perfect_check,
    lemma_k_check,
    monomial_label,
    quotient_by_variables,
    resolution_generators,
    truncated_module,
    validate_resolution,
)

__version__ = "0.1.0"
