"""wachkit: exact arithmetic for Wach-type (phi, Gamma)-modules over Z/p^N.

The library constructs, from a rank-d Fontaine-Laffaille datum (weights
r_1..r_d and an invertible Frobenius matrix A), the pair of matrices (C, G)
of the semilinear Frobenius and Gamma-generator actions over a truncated
power-series ring, certifies the structural axioms exactly at the truncation,
and inverts the construction (reduction, filtration recovery, basis
normalization).
"""

from .errors import WachkitError
from .padic import PMatrix, PScalar, howell_kernel, matrix_inverse_mod, scalar_inverse, teichmueller_lift
from .series import PI, PI0, TruncationProfile, TruncSeries
from .cyclo import CycloContext, OperatorTag, apply_operator, build_context
from .flmod import FLModule, LatticeSub, direct_sum_fl, dual_twist_fl, tensor_fl, validate_fl
from .wach import (
    WachModule,
    build_phi_matrix,
    check_lattice_stability,
    direct_sum_wach,
    solve_gamma_matrix,
    solve_wach,
    tensor_wach,
    verify_wach_axioms,
)
from .reduction import (
    FilteredReduction,
    normalize_basis,
    recover_filtration,
    reduce_mod_pi0,
    roundtrip_check,
)

__version__ = "0.1.0"

__all__ = [
    "WachkitError",
    "PScalar",
    "PMatrix",
    "scalar_inverse",
    "teichmueller_lift",
    "matrix_inverse_mod",
    "howell_kernel",
    "TruncationProfile",
    "TruncSeries",
    "PI",
    "PI0",
    "CycloContext",
    "OperatorTag",
    "build_context",
    "apply_operator",
    "FLModule",
    "LatticeSub",
    "validate_fl",
    "tensor_fl",
    "direct_sum_fl",
    "dual_twist_fl",
    "WachModule",
    "build_phi_matrix",
    "solve_gamma_matrix",
    "solve_wach",
    "verify_wach_axioms",
    "tensor_wach",
    "direct_sum_wach",
    "check_lattice_stability",
    "FilteredReduction",
    "reduce_mod_pi0",
    "recover_filtration",
    "normalize_basis",
    "roundtrip_check",
    "__version__",
]
