"""Hypergeometric-like series evaluation of the McDonald function K_s(z).

Every evaluator has one shape: validate the inputs, form one prefactor in
log space and exponentiate it once through ``special._guarded_exp`` (one
outside the float64 range raises ``DomainError``), then hand an inner stream
E_k and a Pochhammer pair (a, b) to the one engine,
``truncation.sum_with_policy``.  The engine forms each term (a)_k/(b)_k * E_k
with a running product, in the loop that decides where the sum stops, and
ends the sum when a + k hits zero; a sum that this end closes inside the
budget it sums whole, with no stop to test.  Every evaluator returns the
engine's result as it is: why the sum stopped is its ``stop_reason``, and a
sum the divergence heuristic stops comes back as ``"diverging"``, its
partial sum the value, never as an exception.  E_k comes from
``vk._e_values(alpha, w)``, the one place that picks its construction:

* the rearranged form (and so ``k_mcdonald`` at orders past 100, below)
  and M9 read alpha = -1 at w = 2z, the float64 recurrence in k;
* M10 reads alpha = -1/2 at w = z, an exact recurrence in k;
* M7 reads its own alpha at w = beta x^alpha: one of those two
  recurrences, or at any other alpha the exact coefficient rows.

The three K series share one shape, ``_KForm``: a prefactor in (s, z) and
the sum of (1/2-s)_k/(1/2+s)_k over the inner stream of one alpha at
w = c z.  Each evaluation builds its own stream.

* ``general_expansion_m7`` - the order-s derivative of x^nu exp(-beta x^alpha),
  the expansion the K series descend from; its reciprocal gamma
  1/Gamma(k+b), b = nu + 1 - s, is 1/Gamma(b) in the prefactor times
  1/(b)_k in the ratio;
* ``k_series_rearranged`` - the double-sum form
  2^{s-1} Gamma(s) z^{-s} e^{-z} sum_k (1/2-s)_k/(1/2+s)_k S_k(z),
  S_k(z) = sum_{j=1}^{k} C(k-1, j-1) (-2z)^j / j! and S_0 = 1, over the
  alpha = -1 recurrence in k at w = 2z;
* ``k_series_m9`` - the raw k-sum, printed with the prefactor
  sqrt(pi) (2z)^{-s} e^{-z} Gamma(2s)/Gamma(1/2-s) and terms
  (-1)^k/k! * Gamma(k+1/2-s)/Gamma(k+1/2+s) * V_k^{(-1)}(2z); the k = 0
  gamma ratio folded into the prefactor leaves Gamma(2s)/Gamma(1/2+s) and
  the ratio stream over the alpha = -1 recurrence at w = 2z.
  E_k(2z) = S_k(z), so M9 and the rearranged form sum one inner stream
  and differ only in their prefactors;
* ``k_series_m10`` - the companion expansion in V_k^{(-1/2)}(z), whose
  printed prefactor becomes 2^{3s-2} Gamma(s) once the constant gamma ratio
  is folded in.  Its correctness is deliberately not presumed: it feeds
  ``adjudicate_m10``, which measures it against the quadrature oracle and
  reports deviations.

No prefactor carries the printed Gamma(1/2-s) pole, so half-integer orders
need no special case: at s = m + 1/2 the factor (1/2-s)_k vanishes from
k = m + 1 on and each K series ends by itself after m + 1 terms, summed
whole (``"terminated"``) however its terms rise or fall on the way.

``k_mcdonald`` alone has a second route, Temme's method, at
ZERO_ORDER_TOL <= |s| <= ``CORNER_MAX_ORDER`` (100) and every finite z > 0.
There the rearranged form's sum ends by itself only at half-integers: at
0 < z <= ``CORNER_MAX_Z`` (2) its terms fall only algebraically, like
k^{-2s} z, and past it they climb a hump and then oscillate, so it runs
out of budget or trips the divergence window.
Temme's method finds K_mu and K_{mu+1}, |mu| <= 1/2, by Temme's series at
z <= 2 (at most ~14 terms) and by Steed's continued fraction CF2 past it
(at most ~81 increments), and climbs to |s| by the recurrence of DLMF
10.29.1.  Temme's method is not a formula of the paper:
``k_series_rearranged``, M9, M10 and the CLI sum the paper's series
everywhere, and the oracle never reads it.
"""

from __future__ import annotations

import math
import sys
from itertools import islice
from typing import Callable, NamedTuple

from . import vk
from .errors import DomainError, ToleranceNotMet
from .oracle import VerificationRecord, k_oracle
from .special import (
    _gamma_log_off_pole,
    _guarded_exp,
    _guarded_lgamma,
    _in_range,
    _pole_location,
    _range_error,
    gamma_log,
)
from .truncation import DEFAULT_POLICY, SeriesApproximation, TruncationPolicy, sum_with_policy

#: Orders closer than this to 0 (after |s| reduction) are rejected: the
#: Gamma(s) prefactor blows up and K_0 carries a log z structure these
#: expansions cannot represent.
ZERO_ORDER_TOL = 1e-10

#: ``k_mcdonald`` runs Temme's method at |s| up to this order and any finite
#: z > 0 ...
CORNER_MAX_ORDER = 100.0
#: ... by Temme's series at 0 < z up to this argument, the small-z corner
#: where the rearranged form's terms fall only algebraically, and by Steed's
#: continued fraction past it.
CORNER_MAX_Z = 2.0


class OrderArg(NamedTuple):
    """One (order, argument) evaluation point, z > 0."""

    s: float
    z: float


# --- validation helpers -----------------------------------------------------

def _require_positive_z(z: float) -> None:
    if not 0 < z < math.inf:
        raise DomainError(f"argument z must be finite and positive, got z={z!r}")


def _require_positive_order(s: float) -> None:
    if not ZERO_ORDER_TOL <= s < math.inf:
        raise DomainError(
            f"order s={s!r} rejected: need finite s >= {ZERO_ORDER_TOL} "
            "(Gamma(s) prefactor pole at 0)"
        )


# --- the three K series --------------------------------------------------------

class _KForm(NamedTuple):
    """One K series: the log of its prefactor at (s, z), and the alpha and
    the ratio w / z of the inner stream it sums."""

    log_prefactor: Callable[[float, float], float]
    alpha: float
    w_per_z: float


#: ln 2 and ln sqrt(pi), the constants of the prefactors below.
_LN2 = math.log(2.0)
_HALF_LN_PI = 0.5 * math.log(math.pi)

_REARRANGED = _KForm(
    lambda s, z: (s - 1.0) * _LN2 + _guarded_lgamma(s) - s * math.log(z) - z,
    -1.0,
    2.0,
)
_M9 = _KForm(
    lambda s, z: (
        _HALF_LN_PI
        - s * math.log(2.0 * z)
        - z
        + _guarded_lgamma(2.0 * s)
        - _guarded_lgamma(0.5 + s)
    ),
    -1.0,
    2.0,
)
_M10 = _KForm(
    lambda s, z: (3.0 * s - 2.0) * _LN2 + _guarded_lgamma(s) - s * math.log(z) - z,
    -0.5,
    1.0,
)


def _sum_k_series(form: _KForm, s: float, z: float, policy: TruncationPolicy) -> SeriesApproximation:
    """``form`` at order s and argument z: the prefactor times the sum of
    (1/2-s)_k/(1/2+s)_k over the form's inner stream at w = ``w_per_z`` z."""
    _require_positive_order(s)
    _require_positive_z(z)
    pref = _guarded_exp(form.log_prefactor(s, z))
    return sum_with_policy(vk._e_values(form.alpha, form.w_per_z * z), policy, pref, 0.5 - s, 0.5 + s)


# --- Temme's method: Temme's series at z <= 2, Steed's CF2 past it -----------

#: Taylor coefficients g_j of 1/Gamma(1+x) = sum_j g_j x^j for j = 0..21
#: (DLMF 5.7.1), rounded from 40-digit mpmath and paired (g_{2i}, g_{2i+1})
#: from the highest i down, for Horner's rule in x^2.  At |x| <= 1/2 the
#: omitted terms are below 1e-20.
_RGAMMA_PAIRS = (
    (-3.696805618642206e-12, 5.100370287454476e-13),
    (1.0434267116911005e-10, 7.782263439905071e-12),
    (5.002007644469223e-09, -1.18127457048702e-09),
    (-2.056338416977607e-07, 6.116095104481416e-09),
    (-1.2504934821426706e-06, 1.133027231981696e-06),
    (0.0001280502823881162, -2.013485478078824e-05),
    (-0.0011651675918590652, -0.00021524167411495098),
    (-0.009621971527876973, 0.0072189432466631),
    (0.16653861138229148, -0.04219773455554433),
    (-0.6558780715202539, -0.04200263503409524),
    (1.0, 0.5772156649015329),
)

#: Temme's sums, and Steed's continued fraction, stop once a term of each
#: sum is below this share of its sum.
_TEMME_EPS = 1e-16


def _temme_series(mu: float, z: float, left: int) -> tuple:
    """Temme's series for K_mu(z) and K_{mu+1}(z), |mu| <= 1/2, 0 < z <= 2.

    One loop sums both from Gamma1(mu) = (1/Gamma(1-mu) - 1/Gamma(1+mu))/(2 mu)
    and Gamma2(mu) = (1/Gamma(1-mu) + 1/Gamma(1+mu))/2, both from the Taylor
    coefficients of 1/Gamma(1+x), in the first term and at most ``left``
    more.  Returns (K_mu, K_{mu+1}, |last term| of each, terms, stop).
    """
    mu2 = mu * mu
    gam1 = gam2 = 0.0
    for even, odd in _RGAMMA_PAIRS:
        gam2 = gam2 * mu2 + even
        gam1 = gam1 * mu2 - odd
    d = _LN2 - math.log(z)  # ln(2/z), with no ln 0 at a subnormal z
    e = mu * d
    # exp(e) = (2/z)^mu by two powers: exp would turn the rounding of a large
    # e (up to 373) into a relative error of its size
    ee = 2.0 ** mu * z ** -mu
    ie = 1.0 / ee
    # sinh(e)/e from the powers where it does not cancel, else by sinh
    sinhc = (ee - ie) / (2.0 * e) if abs(e) > 1.0 else math.sinh(e) / e if e else 1.0
    pimu = math.pi * mu
    fact = pimu / math.sin(pimu) if mu else 1.0
    ff = fact * (gam1 * 0.5 * (ee + ie) + gam2 * d * sinhc)
    p = 0.5 * ee / (gam2 - mu * gam1)  # (z/2)^-mu Gamma(1+mu) / 2
    q = 0.5 * ie / (gam2 + mu * gam1)  # (z/2)^mu Gamma(1-mu) / 2
    total = t = ff
    total1 = t1 = p
    y = 0.25 * z * z
    c = i = 1.0
    terms = left + 1
    stop = "budget"
    eps = _TEMME_EPS
    while left:
        ff = (i * ff + p + q) / (i * i - mu2)
        c *= y / i
        p /= i - mu
        q /= i + mu
        t = c * ff
        t1 = c * (p - i * ff)
        total += t
        total1 += t1
        left -= 1
        if abs(t) <= eps * abs(total) and abs(t1) <= eps * abs(total1):
            stop = "converged"
            break
        i += 1.0
    # K_{mu+1} = (2/z) total1; past float64 it is inf, and so is every K above it
    return total, 2.0 * total1 / z, abs(t), 2.0 * abs(t1) / z, terms - left, stop


def _steed_cf2(mu: float, z: float, left: int) -> tuple:
    """Steed's continued fraction CF2 for e^z K_mu(z) and e^z K_{mu+1}(z),
    |mu| <= 1/2, z > 2 (Numerical Recipes section 6.7, after Temme).

    The sum S = 1 + sum_k C_k Q_k, with e^z K_mu = sqrt(pi/(2z)) / S, and
    the continued fraction h of K_{mu+1} / K_mu are formed together, in a
    first increment and at most ``left`` more; it stops once an increment
    of S is below ``_TEMME_EPS`` of S.  Returns the two scaled values, the
    same two times the last increment's share of S, the increments summed
    and the stop.  At z past ~9e307, b = 2(1 + z) overflows; ``_k_temme``
    never calls it beyond z ~ 1490.
    """
    b = 2.0 * (1.0 + z)
    d = h = delh = 1.0 / b
    q1, q2 = 0.0, 1.0
    a1 = 0.25 - mu * mu
    q = c = a1
    a = -a1
    dels = q * delh
    total = 1.0 + dels
    terms = left + 1
    i = 1.0
    stop = "budget"
    eps = _TEMME_EPS
    while left:
        a -= 2.0 * i
        c = -a * c / (i + 1.0)
        q1, q2 = q2, (q1 - b * q2) / a
        q += c * q2
        b += 2.0
        d = 1.0 / (b + a * d)
        delh *= b * d - 1.0
        h += delh
        dels = q * delh
        total += dels
        left -= 1
        if abs(dels) <= eps * abs(total):
            stop = "converged"
            break
        i += 1.0
    k0 = math.sqrt(0.5 * math.pi / z) / total
    k1 = k0 * (mu + z + 0.5 - a1 * h) / z
    share = abs(dels / total)
    return k0, k1, share * k0, share * k1, terms - left, stop


def _k_temme(s: float, z: float, policy: TruncationPolicy) -> SeriesApproximation:
    """K_s(z) for ZERO_ORDER_TOL <= s <= CORNER_MAX_ORDER and finite z > 0,
    by Temme's method (N. M. Temme, J. Comput. Phys. 19 (1975) 324-337;
    Numerical Recipes section 6.7, ``bessik``).

    Both branches find K_mu(z) and K_{mu+1}(z) at mu = s - round(s),
    |mu| <= 1/2: Temme's series at z <= CORNER_MAX_Z (at most ~14 terms),
    Steed's continued fraction CF2 past it (at most ~81 increments just
    above z = 2, 16 at z = 20, 6 at z = 700).  Both then climb to s by
    K_{nu+1} = K_{nu-1} + (2 nu/z) K_nu (DLMF 10.29.1), stable upward; the
    continued fraction's values are e^z K, and e^{-z} is applied after the
    climb, as e^{-z/2} twice where it is subnormal, so a subnormal K is
    rounded only once.  Where e^{-z/2} underflows, K_s(z) is 0.0 at every
    order up to 100, and no term is formed.

    Each term or increment counts toward ``policy.max_terms``; the sum is
    ``"converged"`` once the last term of each of its sums is below
    ``_TEMME_EPS`` of that sum, and ``"budget"`` if the budget runs out
    first.  It never reports ``"diverging"``.  ``last_term_abs`` is what the
    climb makes of the two last terms' magnitudes (for the continued
    fraction, of the last increment's share of each value), in the scale of
    K_s.
    """
    n = round(s)
    mu = s - n  # exact at every s >= 0 (Sterbenz)
    left = policy.max_terms - 1  # terms the budget allows after the first
    scale = rest = 1.0  # the climb's values times scale times rest are K
    if z <= CORNER_MAX_Z:
        k0, value, l0, last, terms, stop = _temme_series(mu, z, left)
    else:
        scale = math.exp(-z)
        if scale < sys.float_info.min:  # e^{-z/2} twice: one subnormal rounding
            scale = rest = math.exp(-0.5 * z)
            if not scale:
                return SeriesApproximation(0.0, 0, 0.0, "converged")
        k0, value, l0, last, terms, stop = _steed_cf2(mu, z, left)
    if not n:
        value, last = k0, l0
    # the recurrence carries the two last terms as it carries the two values
    nu = mu + 1.0
    for _ in range(n - 1):
        k0, value = value, k0 + 2.0 * nu * value / z
        l0, last = last, l0 + 2.0 * nu * last / z
        nu += 1.0
    return SeriesApproximation(_in_range(value * scale * rest), terms, last * scale * rest, stop)


# --- public evaluators -------------------------------------------------------

def k_series_rearranged(
    s: float, z: float, policy: TruncationPolicy = DEFAULT_POLICY
) -> SeriesApproximation:
    """Canonical evaluator: the pole-free double-sum form of K_s(z).

    K_s(z) = 2^{s-1} Gamma(s) z^{-s} e^{-z}
             [1 + sum_{k>=1} (1/2-s)_k/(1/2+s)_k S_k(z)],

    with S_k(z) = E_k(2z) from the alpha = -1 recurrence in k, run in
    float64.  The Pochhammer ratio is built as a running product, so at
    half-integer s = m + 1/2 the factor (1/2-s+k-1) hits exact zero and the
    sum terminates after m + 1 outer terms.
    """
    return _sum_k_series(_REARRANGED, s, z, policy)


def k_series_m9(
    s: float, z: float, policy: TruncationPolicy = DEFAULT_POLICY
) -> SeriesApproximation:
    """The raw k-sum over V_k^{(-1)}(2z).

    As printed, sqrt(pi) (2z)^{-s} e^{-z} Gamma(2s)/Gamma(1/2-s) times
    sum_k (-1)^k/k! Gamma(k+1/2-s)/Gamma(k+1/2+s) V_k^{(-1)}(2z).  The
    k = 0 gamma ratio Gamma(1/2-s)/Gamma(1/2+s) is folded into the
    prefactor, which leaves

        sqrt(pi) (2z)^{-s} e^{-z} Gamma(2s)/Gamma(1/2+s)
        sum_k (1/2-s)_k/(1/2+s)_k (-1)^k/k! V_k^{(-1)}(2z),

    free of the printed Gamma(1/2-s) pole: at s = m + 1/2 it terminates
    after m + 1 terms.  (-1)^k V_k^{(-1)}(2z) / k! = S_k(z), so its inner
    stream is the rearranged form's, alpha = -1 at 2z, and the two
    differ only in the prefactor: the Gamma(2s) here checks the
    duplication formula against the rearranged 2^{s-1} Gamma(s).
    """
    return _sum_k_series(_M9, s, z, policy)


def k_series_m10(
    s: float, z: float, policy: TruncationPolicy = DEFAULT_POLICY
) -> SeriesApproximation:
    """The companion expansion over V_k^{(-1/2)}(z).

    As printed it reads
    2^{s-1} sqrt(pi) Gamma(2s)/Gamma(1/2-s) z^{-s} e^{-z}
    sum_k (-1)^k/k! Gamma(k+1/2-s)/Gamma(k+1/2+s) V_k^{(-1/2)}(z).
    Folding the k = 0 gamma ratio into the prefactor and applying the
    duplication formula turns this into

        2^{3s-2} Gamma(s) z^{-s} e^{-z}
        sum_k (-1)^k/k! (1/2-s)_k/(1/2+s)_k V_k^{(-1/2)}(z),

    which is total at half-integers and terminates there.  The result is
    not presumed equal to K_s(z); ``adjudicate_m10`` decides empirically.
    """
    return _sum_k_series(_M10, s, z, policy)


def k_mcdonald(
    s: float, z: float, policy: TruncationPolicy = DEFAULT_POLICY
) -> SeriesApproximation:
    """Front-door evaluator of K_s(z).

    Reduces s -> |s| (the function is even in its order) and routes by
    (|s|, z):

    * ZERO_ORDER_TOL <= |s| <= ``CORNER_MAX_ORDER`` (100), at every finite
      z > 0, goes to Temme's method (``_k_temme``): Temme's series at
      z <= ``CORNER_MAX_Z`` (2), at most ~14 terms, and Steed's continued
      fraction past it, at most ~81 increments, then the climb to |s|.
      Past z = 760 the value is 0.0, ``"converged"``.  Temme's method is
      not a formula of the paper, and the oracle never reads it;
    * every other point goes to the rearranged form, bit for bit
      ``k_series_rearranged(|s|, z, policy)``: at orders past 100 it
      terminates after m + 1 terms at s = m + 1/2 and truncates adaptively
      elsewhere.  A z <= 0, NaN or inf is its ``DomainError``.

    Orders within 1e-10 of zero are rejected, although Temme's method would
    give K_0: the domain stays that of the paper's forms.
    """
    s = abs(s)
    if ZERO_ORDER_TOL <= s <= CORNER_MAX_ORDER and 0.0 < z < math.inf:
        return _k_temme(s, z, policy)
    return _sum_k_series(_REARRANGED, s, z, policy)


def general_expansion_m7(
    s: float,
    nu: float,
    alpha: float,
    beta: float,
    x: float,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> SeriesApproximation:
    """Order-s derivative of x^nu exp(-beta x^alpha), boundary point 0.

    x^{nu-s} Gamma(nu+1) e^{-beta x^alpha}
        sum_k (-s)_k / Gamma(k-s+nu+1) * (-1)^k/k! * V_k^{(alpha)}(beta x^alpha),

    with the printed Gamma(k-s)/Gamma(-s) ratio carried as the pole-safe
    Pochhammer (-s)_k.  The constant part of the reciprocal gamma joins the
    prefactor and the rest is a Pochhammer ratio.  Where Gamma(k-s+nu+1)
    sits exactly on a pole, the term is the reciprocal-gamma zero and the
    sum continues; next to a pole the term is kept.  At non-negative
    integer s the Pochhammer chain hits zero and the sum terminates (the
    classical derivative).
    """
    if not nu > -1.0:
        raise DomainError(f"need nu > -1 for the termwise power rule, got nu={nu!r}")
    if not (math.isfinite(alpha) and alpha != 0):
        raise DomainError(f"alpha must be finite and nonzero, got alpha={alpha!r}")
    if not beta > 0:
        raise DomainError(f"need beta > 0, got beta={beta!r}")
    if not 0 < x < math.inf:
        raise DomainError(f"need finite x > 0, got x={x!r}")

    try:
        w = beta * x ** alpha
    except OverflowError:
        w = math.inf
    if not math.isfinite(w):
        raise _range_error(f"w = beta x^alpha for beta={beta!r}, x={x!r}, alpha={alpha!r}")
    b = nu + 1.0 - s
    pole = _pole_location(b)
    if pole is None or b != pole:
        # (-s)_k / Gamma(k + b) = (-s)_k / (b)_k / Gamma(b), b next to a
        # pole included
        zeros, top, bottom = 0, -s, b
        lg = _gamma_log_off_pole(b)
        log_head, sign = -lg.log_abs, lg.sign
    else:
        # b = -n: 1/Gamma(k + b) vanishes for k <= n, and past that
        # (-s)_k / (k-n-1)! = (-s)_{n+1} (n+1-s)_j / (1)_j with j = k-n-1,
        # where (-s)_{n+1} = (-1)^{n+1} Gamma(s+1) / Gamma(s-n)
        zeros, top, bottom = 1 - int(pole), 1.0 - pole - s, 1.0
        num, den = gamma_log(s + 1.0), gamma_log(s + pole)
        log_head, sign = num.log_abs - den.log_abs, (-1) ** zeros * num.sign * den.sign
    pref = sign * _guarded_exp((nu - s) * math.log(x) + _guarded_lgamma(nu + 1.0) - w + log_head)
    # the engine counts the zeros as terms, budget included, and reads E_k
    # only past them; no policy sums past sys.maxsize terms
    zeros = min(zeros, sys.maxsize)
    return sum_with_policy(islice(vk._e_values(alpha, w), zeros, None), policy, pref, top, bottom, zeros)


def adjudicate_m10(
    grid: list[OrderArg] | list[tuple[float, float]],
    tol: float = 1e-9,
) -> list[VerificationRecord]:
    """Measure the companion expansion against the oracle.

    One record per grid point, in input order.  No pass/fail claim is made
    beyond the s = 1/2 rows, whose k = 0 term is analytically forced; all
    other rows are informational and survive any deviation.  Per-point
    numerical failures are recorded, not raised.
    """
    records = []
    for point in grid:
        s, z = point
        params = {"s": float(s), "z": float(z)}
        try:
            lhs = k_series_m10(s, z).value
        except DomainError:
            lhs = math.nan
        try:
            rhs = k_oracle(s, z)
        except (DomainError, ToleranceNotMet):
            rhs = math.nan
        records.append(VerificationRecord.build("M10_ADJ", params, lhs, rhs, tol))
    return records
