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
from .truncation import STOP_RATIO, SeriesApproximation

RealFunction = Callable[[float], float]

#: Assumed noise floor of the inner quadrature, used to balance the
#: finite-difference step of the composition derivative.
_FD_NOISE = 1e-13

#: Tolerances and subdivision budget of every adaptive quadrature.
QUAD_REL_TOL = 1e-10
QUAD_ABS_TOL = 1e-14
QUAD_MAX_SUBDIVISIONS = 2000

#: Largest stencil order n of ``rl_derivative`` whose weights C(n, i) are
#: all doubles: C(1029, 514) ~ 1.4e308, C(1030, 515) overflows.
_STENCIL_MAX_N = 1029


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
    """scipy quad within ``QUAD_MAX_SUBDIVISIONS``; ToleranceNotMet if the
    error estimate misses ``QUAD_REL_TOL`` / ``QUAD_ABS_TOL``, and
    ``DomainError`` if the value is not finite (an integrand near the top
    of the float64 range can overflow the quadrature's sums to NaN).

    ``request_*`` let callers ask the integrator for more accuracy than the
    gate enforces (used by finite-difference stencils, which amplify noise).
    With ``full_output=1`` scipy returns its message as a fourth output
    instead of warning, so no warning filter is needed.
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
    value, abserr = out[0], out[1]
    trouble = len(out) > 3
    if trouble and abserr > 10.0 * max(QUAD_ABS_TOL, QUAD_REL_TOL * abs(value)):
        raise ToleranceNotMet(
            f"quadrature error estimate {abserr:.3e} exceeds requested tolerance "
            f"(abs={QUAD_ABS_TOL:.1e}, rel={QUAD_REL_TOL:.1e}): {out[3]}",
            estimate=abserr,
        )
    return _in_range(value)


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


def _fd_step(n: int, scale: float) -> float:
    # balances O(h^2) truncation against quadrature noise amplified by h^-n
    return _FD_NOISE ** (1.0 / (n + 2)) * max(1.0, scale)


def rl_derivative(
    f: RealFunction,
    s: float,
    bounds: BoundarySetup,
    n: int | None = None,
) -> float:
    """Order-s derivative (s >= 0) via n classical derivatives of an order
    (s - n) integral, n = floor(s) + 1 by default.

    The classical derivatives are taken by an (n+1)-point central stencil on
    F(y) = rl_integral(f, s - n, (a, y)); accuracy is O(h^2) plus quadrature
    noise amplified by h^-n, with h chosen to balance the two.  The result
    is independent of the choice of n within that combined tolerance.  The
    stencil reaches past x, so f is evaluated on (a, x + n h / 2].  A
    non-finite s, a step h that rounds to 0, or a stencil weight C(n, i),
    h^-n or result outside the float64 range raises ``DomainError``.
    """
    if not 0 <= s < math.inf:
        raise DomainError(f"rl_derivative requires finite s >= 0, got s={s!r} (use rl_integral)")
    if n is None:
        n = math.floor(s) + 1
    if n <= s:
        raise DomainError(f"need n > s for the composition, got n={n!r}, s={s!r}")
    if n > _STENCIL_MAX_N:
        raise _range_error(f"stencil weight C({n}, {n // 2})")
    a, x = bounds.a, bounds.x
    order = s - n
    h = min(_fd_step(n, abs(x - a)), (x - a) / (2.0 * n))
    if not h > 0:
        raise DomainError(f"x - a = {x - a!r} is too small for an order-{n} stencil")
    inv_scale = _guarded_exp(-n * math.log(h))  # h^-n; overflows for large n

    def F(y: float) -> float:
        return rl_integral(f, order, BoundarySetup(a, y), _request_rel=1e-13, _request_abs=1e-15)

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
    If fewer than n_terms + 1 evaluators are supplied the sum terminates
    there (the remaining classical derivatives are taken to vanish, as for
    polynomial g), which counts as convergence.  A term or sum outside the
    float64 range, NaN included, raises ``DomainError``.
    """
    if n_terms < 1:
        raise DomainError("n_terms must be a positive integer")
    if not g_derivs:
        raise DomainError("need at least one derivative evaluator for g")
    j_stop = min(n_terms, len(g_derivs) - 1)
    terms = [
        _in_range(gen_binomial(s, j) * f_frac(s - j, x) * g_derivs[j](x))
        for j in range(j_stop + 1)
    ]
    try:
        value = math.fsum(terms)
    except OverflowError:  # finite terms whose exact sum leaves the float64 range
        raise _range_error("Leibniz sum") from None
    terminated = j_stop < n_terms
    last = 0.0 if terminated else abs(terms[-1])
    converged = terminated or last <= STOP_RATIO * max(abs(value), 1e-300)
    return SeriesApproximation(
        value=value,
        terms_used=j_stop + 1,
        last_term_abs=last,
        converged=converged,
        diverging=False,
    )
