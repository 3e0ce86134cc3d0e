"""Christoffel and Geronimus (Darboux) transformations of complex Jacobi
matrices, with the zero-location, spectral, and recurrence-relation
machinery to verify their properties at desk scale."""

import importlib.util as _util
import sys as _sys
from types import ModuleType as _ModuleType

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
from .polyeval import RatioSequence, eval_P, eval_Q, eval_R, ratio_sequence

# spectral, rseq and factorization run on first use: transform needs none of
# them, zeros needs spectral only.  Each sits in sys.modules from here on as
# a lazy module, whose first attribute access executes it; the package
# serves the names below from them through __getattr__, on every read
# (uncached, so a name rebound in its module is read as rebound).
_LAZY = {
    "factorization": ("LowerFactor", "UpperFactor", "build_JC", "build_JG",
                      "lower_from_upper", "lu_factor", "ul_factor"),
    "rseq": ("r1_general", "r2_coeffs", "rational_eval", "varying_measure_polys"),
    "spectral": ("NevaiDiagnostics", "ZeroCloud", "nevai_diagnostics",
                 "ratio_asymptotic_check", "ratio_limit_f", "strip_check",
                 "verify_m_identities", "zero_dynamics", "zero_sweep", "zeros"),
}
_OWNER = {name: module for module, names in _LAZY.items() for name in names}


def _register(module: str):
    spec = _util.find_spec(f"{__name__}.{module}")
    spec.loader = _util.LazyLoader(spec.loader)
    lazy = _util.module_from_spec(spec)
    _sys.modules[spec.name] = lazy
    spec.loader.exec_module(lazy)
    return lazy


factorization, rseq, spectral = (_register(module) for module in _LAZY)


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_OWNER[name]], name)


def __dir__():
    return sorted(set(globals()) | set(_OWNER))


__all__ = sorted(
    [name for name, value in globals().items()
     if not name.startswith("_") and not isinstance(value, _ModuleType)]
    + list(_OWNER)
)

__version__ = "0.1.0"
