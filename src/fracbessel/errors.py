"""Exception types shared across the library."""


class FracBesselError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(FracBesselError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class PoleError(DomainError):
    """A gamma-family function was evaluated at (or too close to) a pole.

    Poles of Gamma and psi sit at the non-positive integers; arguments
    closer than ``1e-12`` to one are rejected rather than extrapolated.
    """

    def __init__(self, location: float, message: str | None = None):
        self.location = location
        if message is None:
            message = f"argument {location!r} is within 1e-12 of a non-positive integer pole"
        super().__init__(message)


class ToleranceNotMet(FracBesselError, ArithmeticError):
    """Adaptive quadrature exhausted its budget without reaching tolerance."""

    def __init__(self, message: str, estimate: float | None = None):
        self.estimate = estimate
        super().__init__(message)


class SeriesDiverged(FracBesselError, ArithmeticError):
    """A series flagged by the divergence heuristic, as an exception.

    The evaluators no longer raise it: a sum that stops on the heuristic
    returns its partial result with ``stop_reason == "diverging"``, as a
    sum that spends its budget returns ``"budget"``.  It stays exported for
    callers that still catch it; the partial result is ``approximation``.
    """

    def __init__(self, approximation, message: str | None = None):
        self.approximation = approximation
        if message is None:
            message = (
                f"series flagged as diverging after {approximation.terms_used} terms "
                f"(last |term| = {approximation.last_term_abs:.3e})"
            )
        super().__init__(message)
