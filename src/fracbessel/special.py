"""Overflow-safe gamma-family primitives on the real line.

Everything downstream (fractional-derivative rules, polynomial coefficient
sums, series prefactors) funnels its gamma arithmetic through this module.
Ratios of gammas are never formed as quotients of raw values: callers get
``(log|Gamma|, sign)`` pairs and combine them in log space, which keeps k-th
series terms finite far past the ~171 overflow point of Gamma itself.
Exponentials and log-gammas that can overflow go through ``_guarded_exp``
and ``_guarded_lgamma``, and products that can through ``_in_range``; all
raise ``DomainError`` naming the float64 range instead of returning inf or
raising ``OverflowError``.  ``_range_error`` is the one range error: the
only place its message is written, and what every module raises for a
value past float64.  The module uses ``math`` alone: numpy is imported only
where a quadrature builds arrays, in ``fractional`` and ``oracle``.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError, PoleError, ToleranceNotMet

#: Euler-Mascheroni constant C.
EULER_GAMMA = 0.5772156649015329

#: Arguments closer than this to a non-positive integer are treated as poles.
POLE_TOL = 1e-12

#: Largest index for which Pochhammer / binomial use the direct product form.
_PRODUCT_MAX = 64

#: Both arguments of a log-gamma ratio at least this large take the
#: differenced Stirling series, whose coefficients B_{2k} / (2k (2k-1)) follow;
#: the first omitted term is below 3e-17 there.
_STIRLING_MIN = 10.0
_STIRLING_COEFFS = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)

#: digamma lifts its argument to at least this before the asymptotic series of
#: DLMF 5.11.2, whose coefficients B_{2k} / (2k) follow; the first omitted term
#: is below 5e-17 there.
_DIGAMMA_ASYMPTOTIC_MIN = 10.0
_DIGAMMA_COEFFS = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12)

#: psi(1 - s) + C = -sum_{k>=2} zeta(k) s^{k-1} (DLMF 5.7.4) is summed for
#: |s| <= this, over the zeta(k), k = 2 to 18, that follow; the first omitted
#: term is below 7e-18 of the sum there.
_ZETA_SERIES_MAX = 0.1
_ZETAS = (1.6449340668482264, 1.2020569031595942, 1.0823232337111381, 1.03692775514337,
          1.0173430619844492, 1.008349277381923, 1.0040773561979444, 1.0020083928260821,
          1.000994575127818, 1.0004941886041194, 1.000246086553308, 1.0001227133475785,
          1.0000612481350588, 1.000030588236307, 1.0000152822594086, 1.0000076371976379,
          1.000003817293265)

#: Lower incomplete gamma, series and continued fraction alike: cutoff and cap.
_LIG_REL_CUTOFF = 1e-16
_LIG_MAX_TERMS = 500


class LogGammaValue(NamedTuple):
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


def _range_error(what: str) -> DomainError:
    """The ``DomainError`` for a value past float64; ``what`` names the value."""
    return DomainError(f"{what} is outside the float64 range (largest finite double ~1.8e308)")


def _guarded_exp(x: float) -> float:
    """exp(x), or ``DomainError`` naming the float64 range where it overflows
    (x = +inf or NaN included: a log-space sum that overflowed lands there)."""
    try:
        value = math.exp(x)
    except OverflowError:
        value = math.inf
    if not value < math.inf:
        raise _range_error(f"exp({x:.6g})")
    return value


def _guarded_lgamma(x: float) -> float:
    """log|Gamma(x)|, or ``DomainError`` naming the float64 range where it overflows."""
    try:
        return math.lgamma(x)
    except OverflowError:
        raise _range_error(f"log|Gamma({x!r})|") from None


def _in_range(value: float) -> float:
    """value, or ``DomainError`` naming the float64 range where a product left it."""
    if not math.isfinite(value):
        raise _range_error("result")
    return value


def _integer_at_least(value: int, low: int, name: str, high: int | None = None) -> int:
    """``value`` as an int if it is an integer >= ``low`` (and <= ``high``,
    when given), else ``DomainError``; a float (inf, NaN, 2.0) never is.  The
    one check of every integer argument."""
    try:
        n = operator.index(value)
    except TypeError:
        n = low - 1
    if n < low:
        raise DomainError(f"{name} must be an integer >= {low}, got {value!r}")
    if high is not None and n > high:
        raise DomainError(f"{name} must be an integer <= {high}, got {value!r}")
    return n


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
    except OverflowError:  # |Gamma(x)| past float64: take the log-space branch
        g = 0.0
    if abs(g) > 1e-300:
        return LogGammaValue(math.log(abs(g)), 1 if g > 0 else -1)
    return LogGammaValue(_guarded_lgamma(x), _gamma_sign(x))


def _gamma_log_off_pole(x: float) -> LogGammaValue:
    """``gamma_log(x)`` for x not a non-positive integer, also within
    POLE_TOL of one: there ``gamma_log`` refuses x, but Gamma(x) is large
    and finite, and log|Gamma| and its sign come from ``math.lgamma``."""
    if _pole_location(x) is None:
        return gamma_log(x)
    return LogGammaValue(_guarded_lgamma(x), _gamma_sign(x))


def pochhammer(a: float, k: int) -> float:
    """Rising factorial (a)_k = a (a+1) ... (a+k-1), with (a)_0 = 1.

    Total: non-positive integer ``a`` simply yields 0 once the factor chain
    crosses zero.  The direct product is used up to k = 64; larger k fall
    back to a log-space gamma ratio (product form stays in use for integer
    ``a`` where the ratio would sit on a pole; a base next to a pole but
    not on it takes the ratio).  For a > 0 that ratio is
    ``_lgamma_ratio(a, k)``, which does not cancel when a is large.  A k past
    float64 raises the float64-range ``DomainError``, as the value is past
    it too.  The product stops at its first infinite partial product: a
    non-positive integer base takes it at any k, but each of its factors has
    magnitude >= 1, so it leaves float64 within ~171 of them.
    """
    k = _integer_at_least(k, 0, "pochhammer index k")
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
            if math.isinf(out):
                break
        return _in_range(out)
    try:
        top = a + k
    except OverflowError:  # k past float64, and so (a)_k
        raise _range_error("pochhammer index k") from None
    if a > 0:
        return _guarded_exp(_lgamma_ratio(a, float(k)))
    num = _gamma_log_off_pole(top)
    den = _gamma_log_off_pole(a)
    return num.sign * den.sign * _guarded_exp(num.log_abs - den.log_abs)


def _lgamma_ratio(x: float, d: float) -> float:
    """log Gamma(x + d) - log Gamma(x) for x > 0 and x + d > 0.

    Two large log-gammas of nearby arguments cancel: at x = 1e5 each is
    about 1e6, so their difference keeps only ~1e-10 of absolute accuracy.
    Once both arguments reach ``_STIRLING_MIN``, Stirling's series is
    differenced term by term instead,

        (y - 1/2) log1p(d/x) + d (log x - 1) + R(y) - R(x),   y = x + d,

    whose error is a few ulps of its largest term.
    """
    y = x + d
    if min(x, y) < _STIRLING_MIN:
        return _guarded_lgamma(y) - _guarded_lgamma(x)
    return (y - 0.5) * math.log1p(d / x) + d * (math.log(x) - 1.0) + _stirling_tail(y) - _stirling_tail(x)


def _stirling_tail(y: float) -> float:
    """sum_k B_{2k} / (2k (2k-1) y^{2k-1}) through k = 7, for y >= ``_STIRLING_MIN``."""
    v = 1.0 / (y * y)
    acc = 0.0
    for c in reversed(_STIRLING_COEFFS):
        acc = acc * v + c
    return acc / y


def _log_binom(a: float, r: float) -> float:
    """log[Gamma(a + r + 1) / (Gamma(a + 1) Gamma(r + 1))] for a, r > -1.

    The larger of a and r carries the Stirling difference, so only the
    log-gamma of the smaller, which bounds the result, is taken alone.
    """
    lo, hi = sorted((a, r))
    return _lgamma_ratio(hi + 1.0, lo) - _guarded_lgamma(lo + 1.0)


def gen_binomial(s: float, j: int) -> float:
    """Generalized binomial coefficient C(s, j) = s(s-1)...(s-j+1) / j!.

    Defined by the falling product, hence total in ``s``;  reduces to the
    ordinary binomial coefficient for integer s >= j and vanishes for
    integer 0 <= s < j.  Up to j = 64 the product is formed directly.  Past
    that, C(s, j) = Gamma(s+1) / (Gamma(j+1) Gamma(s-j+1)) is taken in log
    space at O(1) cost, in the form that touches no gamma pole: as it
    stands for s > j - 1; through C(s, j) = (-1)^j C(j-s-1, j) for s <= -1
    (so s = -n gives (-1)^j C(n+j-1, j)); and through the reflection
    formula, |C(s, j)| = |sin(pi s)| / (pi j C(j-1, s)), for non-integer
    -1 < s < j - 1, whose sign is (-1)^m over the m = j - floor(s) - 1
    negative falling factors.
    """
    j = _integer_at_least(j, 0, "binomial index j")
    if not math.isfinite(s):
        raise DomainError(f"binomial top must be a finite number, got s={s!r}")
    if j == 0:
        return 1.0
    if j <= _PRODUCT_MAX:
        out = 1.0
        for i in range(j):
            out *= (s - i) / (i + 1)
        return _in_range(out)
    try:
        jf = float(j)
    except OverflowError:
        raise _range_error("binomial index j") from None
    if s > j - 1:
        # all j falling factors positive; s - j is exact, j may exceed 2^53
        return _guarded_exp(_log_binom(jf, float(Fraction(s) - j)))
    if s <= -1.0:
        return (-1.0 if j % 2 else 1.0) * _guarded_exp(_log_binom(jf, -s - 1.0))
    fl = math.floor(s)
    if s == fl:
        return 0.0
    # |sin(pi s)| from the exact distance to the nearest integer, in (0, 1/2]
    log_sin = math.log(math.sin(math.pi * abs(s - round(s))) / math.pi)
    sign = -1.0 if (j - fl - 1) % 2 else 1.0
    return sign * _guarded_exp(log_sin - math.log(jf) - _log_binom(s, jf - s - 1.0))


def digamma(x: float) -> float:
    """psi(x), the logarithmic derivative of Gamma; PoleError at 0, -1, -2, ...

    For x >= 1/2 the recurrence psi(x) = psi(x + n) - sum_{k<n} 1/(x + k)
    lifts the argument to x + n >= ``_DIGAMMA_ASYMPTOTIC_MIN``, where the
    asymptotic series of DLMF 5.11.2,

        psi(y) ~ ln y - 1/(2y) - sum_k B_{2k} / (2k y^{2k}),

    takes over; every part is summed exactly and rounded once.  Below 1/2
    the reflection psi(x) = psi(1 - x) - pi cot(pi x) of DLMF 5.5.4 applies,
    with cot(pi x) taken from the exact distance of x to the nearest integer,
    so that pi x is never rounded next to a pole.
    """
    _check_pole(x)
    if x < 0.5:
        d = x - round(x)  # exact, in [-1/2, 1/2]
        return math.fsum(_digamma_parts(1.0 - x) + [-math.pi * math.cos(math.pi * d) / math.sin(math.pi * d)])
    return math.fsum(_digamma_parts(x))


def _digamma_from_one(s: float) -> float:
    """psi(1 - s) - psi(1) = psi(1 - s) + C, to a few ulps of itself also
    where it is small.  For |s| <= ``_ZETA_SERIES_MAX`` it is the power
    series of DLMF 5.7.4, whose terms fall tenfold or more from one to the
    next, so it does not cancel; past that, ``digamma(1 - s) + C`` cancels
    by less than a digit."""
    if not abs(s) <= _ZETA_SERIES_MAX:
        return digamma(1.0 - s) + EULER_GAMMA
    acc = 0.0
    for zeta in reversed(_ZETAS):
        acc = acc * s + zeta
    return -s * acc


def _digamma_parts(x: float) -> list[float]:
    """Terms whose exact sum is psi(x) to within 5e-17 relative, for x >= 1/2."""
    n = max(0, math.ceil(_DIGAMMA_ASYMPTOTIC_MIN - x))
    y = x + n
    v = 1.0 / (y * y)
    acc = 0.0
    for c in reversed(_DIGAMMA_COEFFS):
        acc = acc * v + c
    return [math.log(y), -0.5 / y, -acc * v] + [-1.0 / (x + k) for k in range(n)]


def lower_incomplete_gamma(a: float, x: float) -> float:
    """gamma(a, x), continued to negative non-integer a.

    For x <= max(a, 0) + 1, evaluated through the cancellation-free series

        gamma(a, x) = x^a e^{-x} sum_{n>=0} x^n / (a (a+1) ... (a+n)),

    which agrees with ``int_0^x t^{a-1} e^{-t} dt`` for a > 0 and with the
    analytic continuation ``x^a sum (-x)^n / (n! (a+n))`` for negative
    non-integer a.  Past that the series needs about x terms, so there
    gamma(a, x) = Gamma(a) - Gamma(a, x), with the continued fraction of
    DLMF 8.9.2

        Gamma(a, x) = e^{-x} x^a / (x + 1 - a - 1 (1 - a) / (x + 3 - a - 2 (2 - a) / ...)).

    Either stops once a step changes the result by less than 1e-16 of it,
    and raises ``ToleranceNotMet`` after 500 steps.  A result outside the
    float64 range, Gamma(a) included, raises ``DomainError``; for a > 0 the
    series' first term is a lower bound, so that is decided before summing.
    """
    if not x > 0:
        raise DomainError(f"lower_incomplete_gamma requires x > 0, got {x!r}")
    _check_pole(a)
    if x > max(a, 0.0) + 1.0:
        lg = gamma_log(a)
        return _in_range(lg.sign * _guarded_exp(lg.log_abs) - _upper_incomplete_gamma_cf(a, x))
    log_prefactor = a * math.log(x) - x
    if a > 0:
        # every term is positive, so the first, x^a e^{-x} / a, bounds the sum
        # from below: past float64 it raises here, not at the term cap
        _guarded_exp(log_prefactor - math.log(a))
    term = 1.0 / a
    total = term
    for n in range(1, _LIG_MAX_TERMS):
        term *= x / (a + n)
        total += term
        if abs(term) < _LIG_REL_CUTOFF * abs(total):
            break
    else:
        raise ToleranceNotMet(f"incomplete-gamma series did not settle within {_LIG_MAX_TERMS} "
                              f"terms (a={a!r}, x={x!r})", estimate=abs(term))
    return _in_range(_guarded_exp(log_prefactor) * total)


def _upper_incomplete_gamma_cf(a: float, x: float) -> float:
    """Gamma(a, x) for x > max(a, 0) + 1, by modified Lentz on DLMF 8.9.2."""
    tiny = 1e-300  # stands in for a zero denominator
    b = x + 1.0 - a
    c, d = 1.0 / tiny, 1.0 / b
    h = d
    for n in range(1, _LIG_MAX_TERMS):
        an = -n * (n - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) >= tiny else tiny)
        c = b + an / c
        c = c if abs(c) >= tiny else tiny
        h *= c * d
        if abs(c * d - 1.0) < _LIG_REL_CUTOFF:
            return _guarded_exp(a * math.log(x) - x) * h
    raise ToleranceNotMet(f"incomplete-gamma continued fraction did not settle within "
                          f"{_LIG_MAX_TERMS} steps (a={a!r}, x={x!r})", estimate=abs(c * d - 1.0))
