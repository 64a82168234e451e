"""Walsh multiplier laboratory.

Finite-resolution realization of Walsh-Paley multiplier operators: fast
transforms and exact step-function analysis, L^p metrics, operator-norm
estimation, spectral membership certificates, and compactness diagnostics
driven by truncation tails.
"""

from .dyadic import (
    CoeffVector,
    Resolution,
    StepFunction,
    analysis,
    coeff_vector,
    fwht,
    rademacher_value,
    step_function,
    synthesis,
    walsh_matrix,
    walsh_step,
    walsh_value,
)
from .metrics import dual_exponent, hy_ratio, lp_norm, lq_norm, pnorm, synthesis_ratio, walsh_distance
from .multiplier import MultiplierMatrix, apply, apply_diag, compose_check
from .opnorm import (
    ConstantProbe,
    MultiplierBoundReport,
    NormEstimate,
    constant_probe,
    multiplier_bound_check,
    opnorm,
    opnorm_upper,
    random_explicit_symbol,
    tail_norm,
)
from .spectral import (
    CompactnessReport,
    MembershipCertificate,
    SpectralQuery,
    SpectralReport,
    compactness_report,
    membership,
    membership_batch,
    point_spectrum,
    resolvent_norm_l2,
    riesz_schauder_check,
    separation_distance,
    spectral_report,
)
from .symbols import (
    AlternatingSymbol,
    ConstantSymbol,
    ExplicitSymbol,
    GeometricSymbol,
    ReciprocalSymbol,
    ResolventSymbol,
    SpectralGapError,
    Symbol,
    TailSymbol,
    UnitDiracSymbol,
    conjugate,
    resolvent_symbol,
    symbol_from_json,
    symbol_to_json,
    tail,
    truncate,
)

__version__ = "0.1.0"
