"""Hypergeometric-like series evaluation of the McDonald function K_s(z).

Every evaluator has one shape: validate the inputs, form one prefactor in
log space and exponentiate it once through ``special._guarded_exp`` (one
outside the float64 range raises ``DomainError``), then sum the one term
stream (a)_k/(b)_k * E_k of ``_ratio_terms``.  E_k is a polynomial value
built exactly in integers and rounded once, so the heavily cancelling inner
sums are never formed in plain float64.  It comes from one of four
constructions in ``vk``:

* the rearranged form (and so ``k_mcdonald``) reads the alpha = -1
  recurrence in k, ``vk._m1_values``, at w = 2z;
* M9 reads the partial-sum recurrence ``vk._m1_partial_sums`` (the
  alpha = 0 Laguerre recurrence summed into L^{(1)}) at w = 2z;
* M10 reads the alpha = -1/2 recurrence in k, ``vk._mhalf_values``, at z;
* M7 reads ``vk._m1_values`` at alpha = -1 and ``vk._mhalf_values`` at
  alpha = -1/2, and at any other alpha the coefficient rows
  ``vk._vk_rows(alpha)`` through ``_e_stream``.

The three fixed-argument streams cost a fixed number of big-integer
operations per term, but the integers grow: at w = p / 2^e the k-th term
works on integers of about k (e + log2 k) bits, and e is about 50 for a
generic double, so N terms cost O(N^2 e) bit operations.  ``_e_stream``
evaluates row_k(w) / (k! q^k) with ``vk._exact_poly``, O(k) big-integer
work per term.  The rearranged form and M9 sum one polynomial built by two
independent recurrences.

The three K series share one shape, ``_KForm``: a prefactor in (s, z) and
the sum of (1/2-s)_k/(1/2+s)_k over an inner stream that depends on z
alone.  The public evaluators build that stream for their one order; a
caller evaluating many orders at one z (the CLI's ``table`` and
``converge``) builds it once and hands each order a replay of it.

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
  the ratio stream over the partial-sum recurrence at w = 2z.
  E_k(2z) = S_k(z), so M9 and the rearranged form sum one polynomial
  built two ways;
* ``k_series_m10`` - the companion expansion in V_k^{(-1/2)}(z), whose
  printed prefactor becomes 2^{3s-2} Gamma(s) once the constant gamma ratio
  is folded in.  Its correctness is deliberately not presumed: it feeds
  ``adjudicate_m10``, which measures it against the quadrature oracle and
  reports deviations.

No prefactor carries the printed Gamma(1/2-s) pole, so half-integer orders
need no special case: at s = m + 1/2 the factor (1/2-s)_k vanishes from
k = m + 1 on and each K series ends by itself after m + 1 terms.
"""

from __future__ import annotations

import math
import sys
from itertools import chain, islice, repeat
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import DomainError, SeriesDiverged, ToleranceNotMet
from .oracle import VerificationRecord, k_oracle
from .special import (
    _gamma_log_off_pole,
    _guarded_exp,
    _guarded_lgamma,
    _pole_location,
    _range_error,
    gamma_log,
)
from .truncation import DEFAULT_POLICY, SeriesApproximation, TruncationPolicy, sum_with_policy
from .vk import _exact_poly, _m1_partial_sums, _m1_values, _mhalf_values, _vk_rows

#: Orders closer than this to 0 (after |s| reduction) are rejected: the
#: Gamma(s) prefactor blows up and K_0 carries a log z structure these
#: expansions cannot represent.
ZERO_ORDER_TOL = 1e-10

#: The alphas whose E_k M7 reads from a fixed-argument recurrence in k, bit
#: for bit the values of the coefficient rows at a fixed cost per term.
_FIXED_W_STREAMS = {-1.0: _m1_values, -0.5: _mhalf_values}


class OrderArg(NamedTuple):
    """One (order, argument) evaluation point, z > 0."""

    s: float
    z: float


# --- term streams ---------------------------------------------------------

def _e_stream(rows: Iterable[list[int]], q: int, w: float) -> Iterator[float]:
    """Yield E_k = row_k(w) / (k! q^k), k = 0, 1, ..., each correctly rounded.

    ``rows`` holds integer coefficients, highest degree first, as yielded by
    ``vk._vk_rows`` (alpha = a / q; E_k = (-1)^k V_k^{(alpha)}(w) / k!).
    w must be finite.
    """
    den = 1
    for k, row in enumerate(rows, 1):
        yield _exact_poly(row, den, w)
        den *= k * q


def _ratio_terms(a: float, b: float, inner: Iterable[float]) -> Iterator[float]:
    """Yield (a)_k/(b)_k * inner_k for k = 0, 1, ...

    The Pochhammer ratio is a running product, so when a + k is exactly
    zero every later term vanishes and the stream ends there, after k + 1
    terms.  ``inner`` is pulled lazily, one value per yielded term.
    """
    ratio = 1.0
    for k, value in enumerate(inner):
        yield ratio * value
        if a + k == 0.0:
            return
        ratio *= (a + k) / (b + k)


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


def _finalize(gen: Iterator[float], policy: TruncationPolicy, scale: float) -> SeriesApproximation:
    approx = sum_with_policy(gen, policy, scale=scale)
    if approx.diverging:
        raise SeriesDiverged(approx)
    return approx


# --- the three K series --------------------------------------------------------

class _KForm(NamedTuple):
    """One K series: the log of its prefactor at (s, z), and the inner stream
    it sums, which depends on z alone."""

    log_prefactor: Callable[[float, float], float]
    inner: Callable[[float], Iterator[float]]


# each ``inner`` names its ``vk`` stream when called, not when defined, so a
# stream replaced on this module (as the tests that pin which recurrence a
# form reads do) is the one that runs
_REARRANGED = _KForm(
    lambda s, z: (s - 1.0) * math.log(2.0) + _guarded_lgamma(s) - s * math.log(z) - z,
    lambda z: _m1_values(2.0 * z),
)
_M9 = _KForm(
    lambda s, z: (
        0.5 * math.log(math.pi)
        - s * math.log(2.0 * z)
        - z
        + _guarded_lgamma(2.0 * s)
        - _guarded_lgamma(0.5 + s)
    ),
    lambda z: _m1_partial_sums(2.0 * z),
)
_M10 = _KForm(
    lambda s, z: (3.0 * s - 2.0) * math.log(2.0) + _guarded_lgamma(s) - s * math.log(z) - z,
    lambda z: _mhalf_values(z),
)


def _sum_k_series(
    form: _KForm,
    s: float,
    z: float,
    policy: TruncationPolicy,
    inner: Iterator[float] | None = None,
) -> SeriesApproximation:
    """``form`` at order s and argument z: the prefactor times the sum of
    (1/2-s)_k/(1/2+s)_k * inner_k, where ``inner`` is the form's stream at z,
    built here when not given."""
    _require_positive_order(s)
    _require_positive_z(z)
    pref = _guarded_exp(form.log_prefactor(s, z))
    if inner is None:
        inner = form.inner(z)
    return _finalize(_ratio_terms(0.5 - s, 0.5 + s, inner), policy, pref)


# --- public evaluators -------------------------------------------------------

def k_series_rearranged(
    s: float, z: float, policy: TruncationPolicy = DEFAULT_POLICY
) -> SeriesApproximation:
    """Canonical evaluator: the pole-free double-sum form of K_s(z).

    K_s(z) = 2^{s-1} Gamma(s) z^{-s} e^{-z}
             [1 + sum_{k>=1} (1/2-s)_k/(1/2+s)_k S_k(z)],

    with S_k(z) = E_k(2z) from the alpha = -1 recurrence in k,
    ``vk._m1_values``, at a fixed cost per term.  The Pochhammer ratio is
    built as a running product, so at half-integer s = m + 1/2 the factor
    (1/2-s+k-1) hits exact zero and the sum terminates after m + 1 outer
    terms.
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
    after m + 1 terms.  Kept as the independent partner of the rearranged
    form: its values come from the partial-sum recurrence
    (``vk._m1_partial_sums``) rather than the rearranged form's
    ``vk._m1_values``, the two must agree term by term, and the Gamma(2s)
    prefactor checks the duplication formula against the rearranged
    2^{s-1} Gamma(s).
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

    Reduces s -> |s| (the function is even in its order) and dispatches to
    the rearranged form, which terminates at half-integers and truncates
    adaptively elsewhere.  Orders within 1e-10 of zero are rejected.
    """
    return _sum_k_series(_REARRANGED, abs(s), z, policy)


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
    sum continues; next to a pole the term is kept.  At non-negative integer s the Pochhammer chain hits zero
    and the sum terminates (the classical derivative).
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
    zeros = min(zeros, sys.maxsize)  # no policy sums past sys.maxsize terms
    e = islice(_FIXED_W_STREAMS[alpha](w) if alpha in _FIXED_W_STREAMS
               else _e_stream(_vk_rows(alpha), alpha.as_integer_ratio()[1], w), zeros, None)
    return _finalize(chain(repeat(0.0, zeros), _ratio_terms(top, bottom, e)), policy, pref)


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
        except SeriesDiverged as exc:
            lhs = exc.approximation.value
        except DomainError:
            lhs = math.nan
        try:
            rhs = k_oracle(s, z)
        except (DomainError, ToleranceNotMet):
            rhs = math.nan
        records.append(VerificationRecord.build("M10_ADJ", params, lhs, rhs, tol))
    return records
