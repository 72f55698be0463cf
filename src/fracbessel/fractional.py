"""Riemann-Liouville differintegral and closed-form differentiation rules.

The order-s differintegral of f with boundary point a is, for s < 0,

    d^s f(x) = (1/Gamma(-s)) int_a^x (x - t)^{-s-1} f(t) dt,

extended to 0 <= s < 4 by composing n classical derivatives with an order
(s - n) integral, n = floor(s) + 1.  Closed forms for power, exponential
and logarithm act as the fast path; the quadrature route stays available
as an independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb
from typing import Callable, Sequence

from scipy.integrate import quad

from .errors import DomainError, ToleranceNotMet
from .special import (
    EULER_GAMMA,
    POLE_TOL,
    _guarded_exp,
    _guarded_lgamma,
    _in_range,
    _pole_location,
    _range_error,
    digamma,
    gamma_log,
    gen_binomial,
    lower_incomplete_gamma,
)
from .truncation import SeriesApproximation, TruncationPolicy, _term_count, sum_with_policy

RealFunction = Callable[[float], float]

#: Tolerances and subdivision budget of every adaptive quadrature.
QUAD_REL_TOL = 1e-10
QUAD_ABS_TOL = 1e-14
QUAD_MAX_SUBDIVISIONS = 2000

#: Tolerances the inner integrals of ``rl_derivative`` are asked for, tighter
#: than the defaults because its stencil amplifies their noise by h^-n; the
#: step h balances that noise against the stencil's O(h^2) truncation.
_STENCIL_REL_TOL = 1e-13
_STENCIL_ABS_TOL = 1e-15


@dataclass(frozen=True)
class BoundarySetup:
    """Boundary point a and evaluation point x of the differintegral, finite and a < x."""

    a: float
    x: float

    def __post_init__(self):
        if not -math.inf < self.a < self.x < math.inf:
            raise DomainError(f"need finite a < x, got a={self.a!r}, x={self.x!r}")


def adaptive_quad(
    fn: RealFunction,
    lo: float,
    hi: float,
    request_rel: float | None = None,
    request_abs: float | None = None,
) -> float:
    """scipy quad within ``QUAD_MAX_SUBDIVISIONS`` at ``QUAD_REL_TOL`` /
    ``QUAD_ABS_TOL``; ``ToleranceNotMet`` whenever QUADPACK reports trouble
    (budget spent, roundoff, a probably divergent integral), and
    ``DomainError`` if the value is not finite (an integrand near the top
    of the float64 range can overflow the quadrature's sums to NaN).

    ``request_*`` let callers ask the integrator for more accuracy than the
    defaults (used by finite-difference stencils, which amplify noise).
    With ``full_output=1`` scipy returns QUADPACK's message as a fourth
    output instead of warning, so no warning filter is needed.
    """
    out = quad(
        fn,
        lo,
        hi,
        epsabs=request_abs if request_abs is not None else QUAD_ABS_TOL,
        epsrel=request_rel if request_rel is not None else QUAD_REL_TOL,
        limit=QUAD_MAX_SUBDIVISIONS,
        full_output=1,
    )
    if len(out) > 3:
        raise ToleranceNotMet(
            f"quadrature reported trouble (error estimate {out[1]:.3e}): {out[3]}",
            estimate=out[1],
        )
    return _in_range(out[0])


def rl_integral(
    f: RealFunction,
    s: float,
    bounds: BoundarySetup,
    _request_rel: float | None = None,
    _request_abs: float | None = None,
) -> float:
    """Order-s integral (s < 0) of f over (a, x].

    The kernel singularity (x - t)^{p-1} at t = x, p = -s, is removed
    exactly by the substitution u = (x - t)^p:

        int_a^x (x-t)^{p-1} f(t) dt = (1/p) int_0^{(x-a)^p} f(x - u^{1/p}) du.

    Adaptive bisection alone converges too slowly for s near 0-.  f is only
    evaluated on [a, x]: near u = (x-a)^p the rounded u^{1/p} can pass
    x - a, and t is clamped to a there.  A range (x - a)^p or a result
    outside float64 raises ``DomainError``.
    """
    if not s < 0:
        raise DomainError(f"rl_integral requires s < 0, got s={s!r}")
    p = -s
    a, x = bounds.a, bounds.x
    try:
        upper = (x - a) ** p
    except OverflowError:
        raise _range_error(f"(x - a)^p = {x - a!r}^{p!r}") from None
    inv_p = 1.0 / p

    def g(u: float) -> float:
        t = x - u ** inv_p
        return f(t if t > a else a)  # a conditional costs less than max() per node

    raw = adaptive_quad(g, 0.0, upper, request_rel=_request_rel, request_abs=_request_abs)
    lg = gamma_log(p)
    return _in_range(raw / p * lg.sign * math.exp(-lg.log_abs))


def rl_derivative(f: RealFunction, s: float, bounds: BoundarySetup) -> float:
    """Order-s derivative, 0 <= s < 4, via n = floor(s) + 1 classical
    derivatives of an order (s - n) integral.

    The classical derivatives are taken by an (n+1)-point central stencil on
    F(y) = rl_integral(f, s - n, (a, y)); accuracy is O(h^2) plus quadrature
    noise amplified by h^-n, with h chosen to balance the two.  The noise
    grows with n, so orders s >= 4 are refused: past n = 4 the error for
    f = t on [0, 1] is 6.4e-4 at s = 4.5 and 1.4e-2 at s = 6.5.  Below that
    it is about 1e-4 at s = 3.5 on [0, 1], but up to 4e-3 on short
    intervals such as [0, 0.2].  The stencil reaches past x, so f is
    evaluated on (a, x + n h / 2].  An order outside [0, 4), a step h that
    rounds to 0, or h^-n or a result outside the float64 range raises
    ``DomainError``.
    """
    if not 0 <= s < 4:
        raise DomainError(f"rl_derivative requires 0 <= s < 4, got s={s!r} (use rl_integral for s < 0)")
    n = math.floor(s) + 1
    a, x = bounds.a, bounds.x
    order = s - n
    h = min(_STENCIL_REL_TOL ** (1.0 / (n + 2)) * max(1.0, x - a), (x - a) / (2.0 * n))
    if not h > 0:
        raise DomainError(f"x - a = {x - a!r} is too small for an order-{n} stencil")
    inv_scale = _guarded_exp(-n * math.log(h))  # h^-n; overflows on tiny intervals

    def F(y: float) -> float:
        return rl_integral(f, order, BoundarySetup(a, y),
                           _request_rel=_STENCIL_REL_TOL, _request_abs=_STENCIL_ABS_TOL)

    acc = 0.0
    for i in range(n + 1):
        y = x + (0.5 * n - i) * h
        acc += (-1) ** i * comb(n, i) * F(y)
    return _in_range(acc * inv_scale)


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
    return num.sign * den.sign * _guarded_exp(num.log_abs - den.log_abs + (p - s) * math.log(base))


def _near_int(s: float) -> int | None:
    if not math.isfinite(s):
        raise DomainError(f"order s must be a finite number, got s={s!r}")
    n = round(s)
    return n if abs(s - n) < POLE_TOL else None


def exp_rule(s: float, beta: float, x: float) -> float:
    """d^s exp(beta x) = beta^s exp(beta x) gamma(-s, beta x) / Gamma(-s).

    Boundary point fixed at a = 0.  Integer orders n >= 0 collapse to the
    classical beta^n exp(beta x); otherwise beta x > 0 is required so that
    the incomplete gamma is on its domain, and beta > 0 unless s is an
    integer, so that beta^s is real.  Powers and exponentials are combined
    in log space, and a result outside the float64 range raises
    ``DomainError``.
    """
    if not (math.isfinite(beta) and math.isfinite(x)):
        raise DomainError(f"exp rule needs finite beta and x, got beta={beta!r}, x={x!r}")
    if beta == 0:
        raise DomainError("beta must be nonzero")
    n = _near_int(s)
    if beta < 0 and n is None:
        raise DomainError(f"beta^s is not real for beta={beta!r} < 0 and non-integer s={s!r}")
    sign = -1.0 if beta < 0 and n % 2 else 1.0  # of beta^s
    if n is not None and n >= 0:
        return sign * _guarded_exp(n * math.log(abs(beta)) + beta * x)
    if beta * x <= 0:
        raise DomainError(f"non-integer order needs beta*x > 0, got beta={beta!r}, x={x!r}")
    lig = lower_incomplete_gamma(-s, beta * x)
    lg = gamma_log(-s)
    power = _guarded_exp(s * math.log(abs(beta)) + beta * x - lg.log_abs)
    return _in_range(sign * lg.sign * lig * power)


def log_rule(s: float, x: float) -> float:
    """d^s ln x = x^{-s}/Gamma(1-s) [ln x - psi(-s) - C + 1/s], a = 0.

    Positive integer orders collapse to the classical
    (-1)^{n-1} (n-1)! / x^n; s = 0 is served explicitly as the identity
    operation (the displayed bracket's 1/s term only cancels in the limit).
    Powers are formed in log space, and a result outside the float64 range
    raises ``DomainError``.
    """
    if not 0 < x < math.inf:
        raise DomainError(f"log rule requires finite x > 0, got x={x!r}")
    if s == 0:
        return math.log(x)
    n = _near_int(s)
    if n is not None and n > 0:
        return (-1) ** (n - 1) * _guarded_exp(_guarded_lgamma(float(n)) - n * math.log(x))
    lg = gamma_log(1.0 - s)
    bracket = math.log(x) - digamma(-s) - EULER_GAMMA + 1.0 / s
    return _in_range(lg.sign * bracket * _guarded_exp(-s * math.log(x) - lg.log_abs))


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
    Terms are evaluated lazily and stop like every sum (``sum_with_policy``):
    at ``STOP_RUN`` negligible terms in a row (converged), or at j = n_terms
    (budget; never diverging).  Fewer evaluators end the sum early (the
    remaining derivatives vanish, as for polynomial g), which counts as
    convergence.  A term or sum outside float64, NaN included, or an
    ``n_terms`` that is not an integer >= 1 raises ``DomainError``.
    """
    n_terms = _term_count(n_terms, "n_terms")
    if not g_derivs:
        raise DomainError("need at least one derivative evaluator for g")
    terms = (
        _in_range(gen_binomial(s, j) * f_frac(s - j, x) * g_derivs[j](x))
        for j in range(min(n_terms, len(g_derivs) - 1) + 1)
    )
    # n_terms + 1 terms hold at most n_terms increases: the window never trips
    return sum_with_policy(terms, TruncationPolicy(n_terms + 1, n_terms + 1))
