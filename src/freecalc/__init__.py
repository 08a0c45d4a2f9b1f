"""Free noncommutative functional calculus over matrix tuples.

Polynomials in noncommuting letters, sublevel domains cut out by polynomial
matrices, transfer-function models (colligations) with linear-fractional
evaluation and homogeneous series, a certified sharp evaluation at operator
points, and randomized spectral-set experiments on top.
"""

from .errors import (
    CheckFailure,
    DomainError,
    FreecalcError,
    SeriesCapError,
    ShapeError,
    ValidationError,
)
from .freepoly import (
    FreePoly,
    PolyMatrix,
    compose_with_entries,
    diag_delta,
    e_lambda,
    gap_delta,
    lens_delta,
    row_delta,
    verify_separating_witnesses,
)
from .funcalc import (
    CalcParams,
    CalcReport,
    Certificate,
    PolyConsistencyReport,
    WelldefReport,
    compile_polynomial,
    derive_witnesses,
    path_norm_sup,
    poly_consistency,
    sharp,
    tail_bound,
    welldef_check,
)
from .matrix_core import (
    MatrixTuple,
    ampliate,
    compress,
    cyclic_shift,
    direct_sum,
    op_norm,
    random_matrix,
    random_tuple,
    rng_from,
    shift_matrix,
    similarity,
    task_rng,
)
from .realization import (
    Colligation,
    add_colligations,
    dft_points_for,
    eval_colligation,
    homog_extract_dft,
    homog_series,
    multiply_colligations,
    poly_to_colligation,
    random_isometric,
    scale_colligation,
    state_space_conjugate,
    symbolic_terms,
    xfirst_to_blocks,
)
from .spectral import (
    CompressionReport,
    SampleConfig,
    SpectralReport,
    Violation,
    compress_tuple,
    compression_check,
    family_matrix_polys,
    family_monomials,
    family_random,
    gap_domain_proposal,
    k_spectral_check,
    sample_admissible,
    sigma_cc_falsify,
    sup_norm_estimate,
)
from .version import VERSION as __version__

__all__ = [
    "CheckFailure", "DomainError", "FreecalcError", "SeriesCapError",
    "ShapeError", "ValidationError",
    "FreePoly", "PolyMatrix", "compose_with_entries", "diag_delta", "e_lambda",
    "gap_delta", "lens_delta", "row_delta", "verify_separating_witnesses",
    "CalcParams", "CalcReport", "Certificate", "PolyConsistencyReport",
    "WelldefReport", "compile_polynomial", "derive_witnesses", "path_norm_sup",
    "poly_consistency", "sharp", "tail_bound", "welldef_check",
    "MatrixTuple", "ampliate", "compress", "cyclic_shift",
    "direct_sum", "op_norm", "random_matrix", "random_tuple", "rng_from",
    "shift_matrix", "similarity", "task_rng",
    "Colligation", "add_colligations", "dft_points_for", "eval_colligation",
    "homog_extract_dft", "homog_series", "multiply_colligations",
    "poly_to_colligation", "random_isometric", "scale_colligation",
    "state_space_conjugate", "symbolic_terms", "xfirst_to_blocks",
    "CompressionReport", "SampleConfig", "SpectralReport", "Violation",
    "compress_tuple", "compression_check", "family_matrix_polys",
    "family_monomials", "family_random", "gap_domain_proposal",
    "k_spectral_check", "sample_admissible", "sigma_cc_falsify",
    "sup_norm_estimate",
    "__version__",
]
