"""Exception hierarchy shared across the toolkit.

Two families matter to the CLI: validation problems (bad config, bad model,
exit code 2) and numerical failures (domain errors, overflow, quadrature
trouble, exit code 3).
"""

__all__ = ["LgError", "ValidationError", "ConfigError", "NumericalError", "ExprSyntaxError",
           "ExprDomainError", "IntegrationError", "QuadratureError", "LagInversionError"]


class LgError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(LgError):
    """Invalid configuration or model specification."""


class ConfigError(ValidationError):
    """Malformed run configuration; carries a JSON-pointer-style path ("" for the whole file)."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class NumericalError(LgError):
    """Base class for failures during numerical computation; carries the coefficient
    or history component it was about, or None.  An ExprDomainError takes its
    expression's symbol, which ModelSpec and InitialHistory set, and
    lag_inverse_gap's LagInversionError its delay's."""

    def __init__(self, message: str, symbol: str | None = None):
        self.symbol = symbol
        super().__init__(message)


class ExprSyntaxError(ValidationError):
    """Expression text could not be parsed; carries the offending position."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} at position {position}")


class ExprDomainError(NumericalError):
    """Expression evaluation hit a domain error (division by zero, sqrt of
    a negative number, overflow)."""


class IntegrationError(NumericalError):
    """Integrator precondition violated or state overflowed."""


class QuadratureError(NumericalError):
    """Quadrature grid cannot satisfy the requested tolerance."""


class LagInversionError(NumericalError):
    """s - delay(s) is not shown increasing, or cannot be inverted at a time."""
