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
    """Base class for failures during numerical computation."""


class ExprSyntaxError(ValidationError):
    """Expression text could not be parsed; carries the offending position."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} at position {position}")


class ExprDomainError(NumericalError):
    """Expression evaluation hit a domain error (division by zero, sqrt of
    a negative number, overflow); carries the position in the program of
    the check that failed (the final non-finite check counts as the one
    after the last instruction), or None, and the coefficient whose search
    raised it (set by validate_model), or None."""

    def __init__(self, message: str, instruction: int | None = None):
        self.instruction = instruction
        self.symbol = None
        super().__init__(message)


class IntegrationError(NumericalError):
    """Integrator precondition violated or state overflowed."""


class QuadratureError(NumericalError):
    """Quadrature grid cannot satisfy the requested tolerance."""


class LagInversionError(NumericalError):
    """The lag map s - delay(s) is not increasing on the bracket."""
