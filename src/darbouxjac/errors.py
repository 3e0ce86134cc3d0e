"""Exception hierarchy for darbouxjac."""


class DarbouxError(Exception):
    """Base class for all library errors."""


class ConfigurationError(DarbouxError, ValueError):
    """Invalid input configuration (unknown family, bad transform site, ...)."""


class QuasiDefinitenessError(DarbouxError, ValueError):
    """A recurrence coefficient lambda_n vanishes, so no OPS exists."""


class PrefixError(DarbouxError, ValueError):
    """The stored coefficient prefix is too short for the requested operation."""


class ZeroHitError(DarbouxError, ArithmeticError):
    """A ratio run hit a zero of y_n: y_n(z) cancelled to 1e-13 of its terms."""

    def __init__(self, index: int, which: str):
        self.index = index
        self.which = which
        super().__init__(f"{which}_{index} vanishes at the evaluation point")


class EvaluationRangeError(DarbouxError, OverflowError):
    """A polynomial value of degree n lies beyond the double range."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"the degree-{index} value lies beyond the double range")


class ExistenceError(DarbouxError, ArithmeticError):
    """A transformed OPS does not exist (vanishing denominator at index n)."""

    def __init__(self, message: str, index: int):
        self.index = index
        super().__init__(f"{message} (n={index})")


class FactorBreakdownError(DarbouxError, ArithmeticError):
    """LU/UL factorization breakdown: a pivot d_j or t_j vanished."""

    def __init__(self, index: int, which: str):
        self.index = index
        self.which = which
        super().__init__(f"factorization breakdown: {which}_{index} ~ 0")


class QuadratureError(DarbouxError, ArithmeticError):
    """Quadrature failed to converge to the requested accuracy."""


class PoleError(DarbouxError, ValueError):
    """Evaluation requested at a pole of a rational function."""


class EigenSolverError(DarbouxError, ArithmeticError):
    """Eigenvalue computation or zero refinement failed to converge."""


class ResidualCheckError(DarbouxError, ArithmeticError):
    """A polynomial identity failed its sample-point verification."""


class DegeneracyError(DarbouxError, ArithmeticError):
    """A denominator landed within tolerance of its excluded value."""

