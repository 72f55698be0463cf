"""Riemann-Liouville differintegral and closed-form differentiation rules.

The order-s differintegral of f with boundary point a is, for s < 0,

    d^s f(x) = (1/Gamma(-s)) int_a^x (x - t)^{-s-1} f(t) dt,

extended to s >= 0 by composing n classical derivatives with an order
(s - n) integral, n = floor(s) + 1.  Closed forms for power, exponential
and logarithm act as the fast path; the quadrature route stays available
as an independent cross-check.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from math import comb
from typing import Callable, Sequence

from scipy.integrate import IntegrationWarning, quad

from .errors import DomainError, ToleranceNotMet
from .special import (
    EULER_GAMMA,
    POLE_TOL,
    _pole_location,
    digamma,
    gamma_log,
    gen_binomial,
    lower_incomplete_gamma,
)
from .truncation import SeriesApproximation

RealFunction = Callable[[float], float]

#: Assumed noise floor of the inner quadrature, used to balance the
#: finite-difference step of the composition derivative.
_FD_NOISE = 1e-13


@dataclass(frozen=True)
class BoundarySetup:
    """Boundary point a and evaluation point x of the differintegral, a < x."""

    a: float
    x: float

    def __post_init__(self):
        if not (self.a < self.x):
            raise DomainError(f"boundary point must satisfy a < x, got a={self.a!r}, x={self.x!r}")


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budget for the adaptive quadratures.

    ``endpoint_exponent_hint`` may carry a known power-law exponent of f at
    the upper endpoint, (x - t)^hint as t -> x; it is folded into the
    singularity-removing substitution.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_subdivisions: int = 2000
    endpoint_exponent_hint: float | None = None

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise DomainError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be >= 1")


DEFAULT_QUADRATURE = QuadratureSpec()


def adaptive_quad(
    fn: RealFunction,
    lo: float,
    hi: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
    request_rel: float | None = None,
    request_abs: float | None = None,
) -> float:
    """scipy quad with the spec's budget; ToleranceNotMet if the estimate misses.

    ``request_*`` let callers ask the integrator for more accuracy than the
    spec enforces (used by finite-difference stencils, which amplify noise).
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        out = quad(
            fn,
            lo,
            hi,
            epsabs=request_abs if request_abs is not None else spec.abs_tol,
            epsrel=request_rel if request_rel is not None else spec.rel_tol,
            limit=spec.max_subdivisions,
            full_output=1,
        )
    value, abserr = out[0], out[1]
    trouble = len(out) > 3
    if trouble and abserr > 10.0 * max(spec.abs_tol, spec.rel_tol * abs(value)):
        raise ToleranceNotMet(
            f"quadrature error estimate {abserr:.3e} exceeds requested tolerance "
            f"(abs={spec.abs_tol:.1e}, rel={spec.rel_tol:.1e}): {out[3]}",
            estimate=abserr,
        )
    return value


def rl_integral(
    f: RealFunction,
    s: float,
    bounds: BoundarySetup,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
    _request_rel: float | None = None,
    _request_abs: float | None = None,
) -> float:
    """Order-s integral (s < 0) of f over (a, x].

    The kernel singularity (x - t)^{-s-1} at t = x is removed exactly by the
    substitution u = (x - t)^p with p = -s + hint:

        int_a^x (x-t)^{sigma-1} f(t) dt
            = (1/p) int_0^{(x-a)^p} u^{sigma/p - 1} f(x - u^{1/p}) du,

    which for hint = 0 has a constant weight u^0.  Adaptive bisection alone
    converges too slowly for s near 0-.
    """
    if not s < 0:
        raise DomainError(f"rl_integral requires s < 0, got s={s!r}")
    sigma = -s
    hint = spec.endpoint_exponent_hint or 0.0
    p = sigma + hint
    if p <= 0:
        raise DomainError(f"combined endpoint exponent {p!r} is not integrable")
    a, x = bounds.a, bounds.x
    upper = (x - a) ** p
    inv_p = 1.0 / p
    weight_pow = sigma * inv_p - 1.0

    if hint == 0.0:
        def g(u: float) -> float:
            return f(x - u ** inv_p)
    else:
        def g(u: float) -> float:
            return u ** weight_pow * f(x - u ** inv_p)

    raw = adaptive_quad(g, 0.0, upper, spec, request_rel=_request_rel, request_abs=_request_abs)
    lg = gamma_log(sigma)
    return raw / p * lg.sign * math.exp(-lg.log_abs)


def _fd_step(n: int, scale: float) -> float:
    # balances O(h^2) truncation against quadrature noise amplified by h^-n
    return _FD_NOISE ** (1.0 / (n + 2)) * max(1.0, scale)


def rl_derivative(
    f: RealFunction,
    s: float,
    bounds: BoundarySetup,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
    n: int | None = None,
) -> float:
    """Order-s derivative (s >= 0) via n classical derivatives of an order
    (s - n) integral, n = floor(s) + 1 by default.

    The classical derivatives are taken by an (n+1)-point central stencil on
    F(y) = rl_integral(f, s - n, (a, y)); accuracy is O(h^2) plus quadrature
    noise amplified by h^-n, with h chosen to balance the two.  The result
    is independent of the choice of n within that combined tolerance.
    """
    if not s >= 0:
        raise DomainError(f"rl_derivative requires s >= 0, got s={s!r} (use rl_integral)")
    if n is None:
        n = math.floor(s) + 1
    if n <= s:
        raise DomainError(f"need n > s for the composition, got n={n!r}, s={s!r}")
    a, x = bounds.a, bounds.x
    order = s - n
    h = min(_fd_step(n, abs(x - a)), (x - a) / (2.0 * n))

    def F(y: float) -> float:
        return rl_integral(
            f,
            order,
            BoundarySetup(a, y),
            spec,
            _request_rel=min(spec.rel_tol, 1e-13),
            _request_abs=min(spec.abs_tol, 1e-15),
        )

    acc = 0.0
    for i in range(n + 1):
        y = x + (0.5 * n - i) * h
        acc += (-1) ** i * comb(n, i) * F(y)
    return acc / h ** n


def power_rule(s: float, p: float, bounds: BoundarySetup) -> float:
    """d^s (x - a)^p = Gamma(p+1)/Gamma(p+1-s) * (x - a)^{p-s} for p > -1.

    When p + 1 - s is a non-positive integer the reciprocal gamma vanishes
    and the exact result 0 is returned (e.g. integer-order derivatives that
    annihilate the power).
    """
    if not p > -1:
        raise DomainError(f"power rule requires p > -1, got p={p!r}")
    q = p + 1.0 - s
    if _pole_location(q) is not None:
        return 0.0
    num = gamma_log(p + 1.0)
    den = gamma_log(q)
    base = bounds.x - bounds.a
    return num.sign * den.sign * math.exp(num.log_abs - den.log_abs + (p - s) * math.log(base))


def _near_int(s: float) -> int | None:
    if math.isnan(s):
        raise DomainError(f"order s must be a number, got s={s!r}")
    n = round(s)
    return n if abs(s - n) < POLE_TOL else None


def exp_rule(s: float, beta: float, x: float) -> float:
    """d^s exp(beta x) = beta^s exp(beta x) gamma(-s, beta x) / Gamma(-s).

    Boundary point fixed at a = 0.  Integer orders n >= 0 collapse to the
    classical beta^n exp(beta x); otherwise beta x > 0 is required so that
    beta^s is real and the incomplete gamma is on its domain.
    """
    if not (math.isfinite(beta) and math.isfinite(x)):
        raise DomainError(f"exp rule needs finite beta and x, got beta={beta!r}, x={x!r}")
    if beta == 0:
        raise DomainError("beta must be nonzero")
    n = _near_int(s)
    if n is not None and n >= 0:
        return beta ** n * math.exp(beta * x)
    if beta * x <= 0:
        raise DomainError(f"non-integer order needs beta*x > 0, got beta={beta!r}, x={x!r}")
    lig = lower_incomplete_gamma(-s, beta * x)
    lg = gamma_log(-s)
    return beta ** s * math.exp(beta * x) * lig * lg.sign * math.exp(-lg.log_abs)


def log_rule(s: float, x: float) -> float:
    """d^s ln x = x^{-s}/Gamma(1-s) [ln x - psi(-s) - C + 1/s], a = 0.

    Positive integer orders collapse to the classical
    (-1)^{n-1} (n-1)! / x^n; s = 0 is served explicitly as the identity
    operation (the displayed bracket's 1/s term only cancels in the limit).
    """
    if not x > 0:
        raise DomainError(f"log rule requires x > 0, got x={x!r}")
    if s == 0:
        return math.log(x)
    n = _near_int(s)
    if n is not None and n > 0:
        return (-1) ** (n - 1) * math.factorial(n - 1) / x ** n
    lg = gamma_log(1.0 - s)
    bracket = math.log(x) - digamma(-s) - EULER_GAMMA + 1.0 / s
    return x ** (-s) * lg.sign * math.exp(-lg.log_abs) * bracket


def leibniz_series(
    g_derivs: Sequence[RealFunction],
    f_frac: Callable[[float, float], float],
    s: float,
    x: float,
    n_terms: int,
) -> SeriesApproximation:
    """Product rule d^s(fg) = sum_j C(s, j) d^{s-j} f * d^j g, truncated at j = n_terms.

    ``g_derivs[j]`` evaluates the j-th classical derivative of g;
    ``f_frac(order, x)`` evaluates the order-``order`` differintegral of f.
    If fewer than n_terms + 1 evaluators are supplied the sum terminates
    there (the remaining classical derivatives are taken to vanish, as for
    polynomial g), which counts as convergence.
    """
    if n_terms < 1:
        raise DomainError("n_terms must be a positive integer")
    if not g_derivs:
        raise DomainError("need at least one derivative evaluator for g")
    j_stop = min(n_terms, len(g_derivs) - 1)
    terms = []
    for j in range(j_stop + 1):
        terms.append(gen_binomial(s, j) * f_frac(s - j, x) * g_derivs[j](x))
    value = math.fsum(terms)
    terminated = j_stop < n_terms
    last = 0.0 if terminated else abs(terms[-1])
    converged = terminated or last <= 1e-14 * max(abs(value), 1e-300)
    return SeriesApproximation(
        value=value,
        terms_used=j_stop + 1,
        last_term_abs=last,
        converged=converged,
        diverging=False,
    )
