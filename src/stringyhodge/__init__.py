"""Exact computation of stringy E-functions and stringy Hodge numbers from
combinatorial log-resolution data, with SNC weight-complex and local-defect
tooling and nonnegativity reports.
"""

from .polyalg import (
    BivariatePoly,
    DenominatorSpec,
    StringyFunction,
    exact_divide_test,
)
from .hodge import (
    DiamondError,
    HodgeDiamond,
    curve,
    e_polynomial,
    kunneth,
    projective_space,
    quadric_surface,
    validate,
)
from .stringy import (
    DescriptorError,
    ResolutionDescriptor,
    StringyReport,
    a_pq,
    check_pd_identity,
    check_polynomial_consequences,
    check_symmetry,
    closed_form_h,
    crepant_compare,
    h22st_fourfold,
    stringy_e,
    stringy_hodge_table,
)
from .sncweights import (
    SncComplexData,
    SncComponent,
    SncDataError,
    coboundary_h0,
    exact_rank,
    purity_consequence_check,
    weight_graded_dims,
)
from .analysis import (
    ConjectureReport,
    CrossCheckError,
    ExceptionalFiberDescriptor,
    FiberComponent,
    conjecture_report,
    defect_bound_check,
    local_defect,
    product_stringy,
    threefold_h22_minus_h11,
)
from .descriptors import (
    DescriptorBundle,
    DescriptorFileError,
    load_bundle,
)

__version__ = "0.1.0"
