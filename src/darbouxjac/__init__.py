"""Christoffel and Geronimus (Darboux) transformations of complex Jacobi
matrices, with the zero-location, spectral, and recurrence-relation
machinery to verify their properties at desk scale."""

from .core import (
    CHEBYSHEV_KINDS,
    DEFAULT_N_MAX,
    Family,
    RecurrenceCoeffs,
    SymmetricJacobi,
    family_coeffs,
    moments,
    symmetrize,
)
from .darboux import (
    GeronimusChain,
    TransformPoint,
    TransformedCoeffs,
    cauchy_s0star,
    christoffel,
    christoffel_two,
    geronimus,
    geronimus_cauchy,
    geronimus_eval_from,
    kernel_eval,
)
from .errors import (
    ConfigurationError,
    DarbouxError,
    DegeneracyError,
    EigenSolverError,
    EvaluationRangeError,
    ExistenceError,
    FactorBreakdownError,
    PoleError,
    PrefixError,
    QuadratureError,
    QuasiDefinitenessError,
    ResidualCheckError,
    ZeroHitError,
)
from .factorization import (
    LowerFactor,
    UpperFactor,
    build_JC,
    build_JG,
    lower_from_upper,
    lu_factor,
    ul_factor,
)
from .polyeval import RatioSequence, eval_P, eval_Q, eval_R, ratio_sequence
from .rseq import r1_general, r2_coeffs, rational_eval, varying_measure_polys
from .spectral import (
    NevaiDiagnostics,
    ZeroCloud,
    nevai_diagnostics,
    ratio_asymptotic_check,
    ratio_limit_f,
    strip_check,
    verify_m_identities,
    zero_dynamics,
    zero_sweep,
    zeros,
)

__version__ = "0.1.0"
