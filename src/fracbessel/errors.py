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
    """A numerical method spent its budget without reaching its tolerance.

    Raised by the double-exponential rule ``fractional._de_quad`` past its
    level 8, by ``k_oracle``'s trapezoid after 6 halvings of its step, and
    by ``lower_incomplete_gamma``'s series or continued fraction after 500
    steps.  ``estimate`` is the size of the method's last change or term.
    """

    def __init__(self, message: str, estimate: float | None = None):
        self.estimate = estimate
        super().__init__(message)

