"""Overflow-safe gamma-family primitives on the real line.

Everything downstream (fractional-derivative rules, polynomial coefficient
sums, series prefactors) funnels its gamma arithmetic through this module.
Ratios of gammas are never formed as quotients of raw values: callers get
``(log|Gamma|, sign)`` pairs and combine them in log space, which keeps k-th
series terms finite far past the ~171 overflow point of Gamma itself.
Exponentials and log-gammas that can overflow go through ``_guarded_exp``
and ``_guarded_lgamma``, and products that can through ``_in_range``; all
raise ``DomainError`` naming the float64 range instead of returning inf or
raising ``OverflowError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import psi

from .errors import DomainError, PoleError, ToleranceNotMet

#: Euler-Mascheroni constant C.
EULER_GAMMA = 0.5772156649015329

#: Arguments closer than this to a non-positive integer are treated as poles.
POLE_TOL = 1e-12

#: Largest index for which Pochhammer / binomial use the direct product form.
_PRODUCT_MAX = 64

#: Continuation series for the lower incomplete gamma: term cutoff and cap.
_LIG_REL_CUTOFF = 1e-16
_LIG_MAX_TERMS = 500


@dataclass(frozen=True)
class LogGammaValue:
    """Gamma(x) stored as ``sign * exp(log_abs)``.

    ``sign`` is +1 for x > 0 and alternates between pole intervals on the
    negative axis: ``(-1)**ceil(-x)`` for non-integer x < 0.
    """

    log_abs: float
    sign: int


def _pole_location(x: float) -> float | None:
    """Return the nearest non-positive integer if x is within POLE_TOL of it.

    NaN and +-inf have no place relative to the poles and raise ``DomainError``.
    """
    if not math.isfinite(x):
        raise DomainError(f"gamma-family argument must be a finite number, got {x!r}")
    if x > 0.5:
        return None
    n = round(x)
    if n <= 0 and abs(x - n) < POLE_TOL:
        return float(n)
    return None


def _guarded_exp(x: float) -> float:
    """exp(x), or ``DomainError`` naming the float64 range where it overflows
    (x = +inf or NaN included: a log-space sum that overflowed lands there)."""
    try:
        value = math.exp(x)
    except OverflowError:
        value = math.inf
    if not value < math.inf:
        raise DomainError(
            f"exp({x:.6g}) is outside the float64 range (largest finite double ~1.8e308)"
        )
    return value


def _guarded_lgamma(x: float) -> float:
    """log|Gamma(x)|, or ``DomainError`` naming the float64 range where it overflows."""
    try:
        return math.lgamma(x)
    except OverflowError:
        raise DomainError(
            f"log|Gamma({x!r})| is outside the float64 range (largest finite double ~1.8e308)"
        ) from None


def _in_range(value: float) -> float:
    """value, or ``DomainError`` naming the float64 range where a product left it."""
    if not math.isfinite(value):
        raise DomainError("result is outside the float64 range (largest finite double ~1.8e308)")
    return value


def _check_pole(x: float) -> None:
    loc = _pole_location(x)
    if loc is not None:
        raise PoleError(loc)


def _gamma_sign(x: float) -> int:
    if x > 0:
        return 1
    return -1 if math.ceil(-x) % 2 else 1


def gamma_log(x: float) -> LogGammaValue:
    """log|Gamma(x)| with explicit sign; raises PoleError at non-positive integers.

    For |x| small enough that Gamma(x) is a normal double, the value is taken
    from ``math.gamma`` directly so the reconstruction is correct to ~1 ulp;
    outside that range ``math.lgamma`` plus the interval sign rule is used.
    """
    _check_pole(x)
    try:
        g = math.gamma(x)
    except (OverflowError, ValueError):
        g = None
    if g is not None and math.isfinite(g) and abs(g) > 1e-300:
        return LogGammaValue(math.log(abs(g)), 1 if g > 0 else -1)
    return LogGammaValue(_guarded_lgamma(x), _gamma_sign(x))


def pochhammer(a: float, k: int) -> float:
    """Rising factorial (a)_k = a (a+1) ... (a+k-1), with (a)_0 = 1.

    Total: non-positive integer ``a`` simply yields 0 once the factor chain
    crosses zero.  The direct product is used up to k = 64; larger k fall
    back to a log-space gamma ratio (product form stays in use for integer
    ``a`` where the ratio would sit on a pole).
    """
    if k < 0:
        raise DomainError("pochhammer index k must be a non-negative integer")
    if not math.isfinite(a):
        raise DomainError(f"pochhammer base must be a finite number, got a={a!r}")
    if k == 0:
        return 1.0
    a_int = round(a)
    is_nonpos_int = a <= 0 and a == a_int
    if is_nonpos_int and a_int + k - 1 >= 0:
        return 0.0
    if k <= _PRODUCT_MAX or is_nonpos_int:
        out = 1.0
        for m in range(k):
            out *= a + m
        return _in_range(out)
    num = gamma_log(a + k)
    den = gamma_log(a)
    return num.sign * den.sign * _guarded_exp(num.log_abs - den.log_abs)


def gen_binomial(s: float, j: int) -> float:
    """Generalized binomial coefficient C(s, j) = s(s-1)...(s-j+1) / j!.

    Defined by the falling product, hence total in ``s``;  reduces to the
    ordinary binomial coefficient for integer s >= j and vanishes for
    integer 0 <= s < j.
    """
    if j < 0:
        raise DomainError("binomial index j must be a non-negative integer")
    if not math.isfinite(s):
        raise DomainError(f"binomial top must be a finite number, got s={s!r}")
    if j == 0:
        return 1.0
    if j <= _PRODUCT_MAX:
        out = 1.0
        for i in range(j):
            out *= (s - i) / (i + 1)
        return _in_range(out)
    log_abs = 0.0
    sign = 1
    for i in range(j):
        f = s - i
        if f == 0.0:
            return 0.0
        if f < 0:
            sign = -sign
        log_abs += math.log(abs(f))
    return sign * _guarded_exp(log_abs - math.lgamma(j + 1))


def digamma(x: float) -> float:
    """psi(x), the logarithmic derivative of Gamma; PoleError at 0, -1, -2, ..."""
    _check_pole(x)
    return float(psi(x))


def lower_incomplete_gamma(a: float, x: float) -> float:
    """gamma(a, x), continued to negative non-integer a.

    Evaluated through the cancellation-free series

        gamma(a, x) = x^a e^{-x} sum_{n>=0} x^n / (a (a+1) ... (a+n)),

    which agrees with ``int_0^x t^{a-1} e^{-t} dt`` for a > 0 and with the
    analytic continuation ``x^a sum (-x)^n / (n! (a+n))`` for negative
    non-integer a.  Terms stop once |term| < 1e-16 * |partial sum|; a hard
    cap of 500 terms guards pathological inputs.
    """
    if not x > 0:
        raise DomainError(f"lower_incomplete_gamma requires x > 0, got {x!r}")
    _check_pole(a)
    term = 1.0 / a
    total = term
    for n in range(1, _LIG_MAX_TERMS):
        term *= x / (a + n)
        total += term
        if abs(term) < _LIG_REL_CUTOFF * abs(total):
            break
    else:
        raise ToleranceNotMet(
            f"incomplete-gamma series did not settle within {_LIG_MAX_TERMS} terms "
            f"(a={a!r}, x={x!r})",
            estimate=abs(term),
        )
    return _guarded_exp(a * math.log(x) - x) * total

