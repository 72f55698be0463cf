"""Hypergeometric-like series evaluation of the McDonald function K_s(z).

Three related expansions are implemented.  Each is one stream of terms
(1/2-s)_k/(1/2+s)_k * inner_k, where the Pochhammer ratio is what remains of
Gamma(k+1/2-s)/Gamma(k+1/2+s) once its k = 0 value is moved into the
prefactor, and inner_k is a polynomial in z:

* ``k_series_m9``   - the raw k-sum with the printed prefactor
  sqrt(pi) (2z)^{-s} e^{-z} Gamma(2s)/Gamma(1/2-s) and terms
  (-1)^k/k! * Gamma(k+1/2-s)/Gamma(k+1/2+s) * V_k^{(-1)}(2z), summed as
  sqrt(pi) (2z)^{-s} e^{-z} Gamma(2s)/Gamma(1/2+s) times the ratio stream;
* ``k_series_rearranged`` - the algebraically equivalent double-sum form
  2^{s-1} Gamma(s) z^{-s} e^{-z} [1 + sum_k (1/2-s)_k/(1/2+s)_k S_k(z)],
  S_k(z) = sum_{j=1}^{k} C(k-1, j-1) (-2z)^j / j!, which is pole-free and
  terminates after s + 1/2 outer terms at half-integer s;
* ``k_series_m10``  - the companion expansion in V_k^{(-1/2)}(z).  Once the
  constant gamma ratio is folded in, its printed prefactor equals the
  duplication-regularized 2^{3s-2} Gamma(s), so both readings share one
  path.  Its correctness is deliberately not presumed: it feeds
  ``adjudicate_m10``, which measures it against the quadrature oracle and
  reports deviations.

``general_expansion_m7`` evaluates the underlying order-s derivative of
x^nu exp(-beta x^alpha) for any alpha, the expansion the K series descend
from.

Prefactors are summed in log space and exponentiated once; one outside the
float64 range raises ``DomainError``.  Only M7's reciprocal gamma is still
carried per term in log space with an explicit sign.  The heavily
cancelling inner sums are never formed in plain float64: S_k(z) and the
V_k stream both carry integer coefficients, and one shared evaluator sums
each polynomial exactly and rounds it once.
"""

from __future__ import annotations

import math
from itertools import chain, count, repeat
from typing import Iterable, Iterator, NamedTuple

from .errors import DomainError, SeriesDiverged, ToleranceNotMet
from .fractional import DEFAULT_QUADRATURE, QuadratureSpec
from .oracle import VerificationRecord, k_oracle
from .special import _pole_location, gamma_log
from .truncation import DEFAULT_POLICY, SeriesApproximation, TruncationPolicy, sum_with_policy

#: Orders closer than this to 0 (after |s| reduction) are rejected: the
#: Gamma(s) prefactor blows up and K_0 carries a log z structure these
#: expansions cannot represent.
ZERO_ORDER_TOL = 1e-10

#: Half-integer detection tolerance for the raw-prefactor paths.
HALF_INTEGER_TOL = 1e-10


class OrderArg(NamedTuple):
    """One (order, argument) evaluation point, z > 0."""

    s: float
    z: float


def half_integer_offset(s: float) -> int | None:
    """Return m if s is within tolerance of m + 1/2 (m >= 0), else None."""
    m = round(s - 0.5)
    if m >= 0 and abs(s - 0.5 - m) < HALF_INTEGER_TOL:
        return m
    return None


# --- term streams ---------------------------------------------------------

def _scaled_vk(alpha: float, w: float) -> Iterator[float]:
    """Streams E_k(w) = (-1)^k V_k^{(alpha)}(w) / k!, k = 0, 1, ..., each correctly rounded.

    On the coefficient recurrence A_{k+1,j} = (alpha j - k) A_{k,j} - alpha A_{k,j-1}
    the scaled coefficients follow

        E_{k+1,j} = [ -(alpha j - k) E_{k,j} + alpha E_{k,j-1} ] / (k + 1).

    With alpha = a / 2^f exactly, M_{k,j} = E_{k,j} k! 2^{fk} are integers,
    M_{k+1,j} = (k 2^f - a j) M_{k,j} + a M_{k,j-1} with M_{0,0} = 1, so
    each E_k is one exact polynomial value, see ``_exact_poly``.  The row
    is kept highest degree first.  alpha and w must be finite.
    """
    a, q = alpha.as_integer_ratio()
    f = q.bit_length() - 1
    row, den = [1], 1
    for k in count(0):
        yield _exact_poly(row, den, w)
        b = k << f
        row = [(b - a * j) * m + a * lower
               for j, m, lower in zip(count(k + 1, -1), [0] + row, row + [0])]
        den = den * (k + 1) << f


def _exact_poly(coeffs: list[int], den: int, w: float) -> float:
    """The polynomial with integer coefficients ``coeffs`` (highest degree
    first, as in ``numpy.polyval``) at w, divided by the integer den > 0,
    correctly rounded.

    The alternating terms of the inner polynomials cancel heavily, so
    nothing is rounded until the end.  With w = p / 2^e exactly, Horner's
    scheme builds the integer sum_j c_j p^j 2^{e(n-j)}, n the degree, and
    one correctly rounded division by den 2^{en} gives the value.
    """
    try:
        p, q = w.as_integer_ratio()
        e = q.bit_length() - 1
        acc, shift = 0, -e
        for c in coeffs:
            shift += e
            acc = acc * p + (c << shift)
        return acc / (den << shift)
    except OverflowError:
        raise DomainError(
            f"degree-{len(coeffs) - 1} polynomial at w={w!r} is outside the float64 range "
            "(largest finite double ~1.8e308)"
        ) from None


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


def _inner_binomial_sum(k: int, z: float) -> float:
    """S_k(z) = sum_{j=1}^k C(k-1, j-1) (-2z)^j / j!, summed exactly.

    k! S_k has the integer coefficients c_j = C(k-1, j-1) k!/j! in -2z,
    built from c_k = 1 down through c_{j-1} = c_j j (j-1) / (k-j+1), an
    exact division; ``_exact_poly`` sums them and rounds once.
    """
    c = 1
    coeffs = [c]
    for j in range(k, 1, -1):
        c = c * j * (j - 1) // (k - j + 1)
        coeffs.append(c)
    coeffs.append(0)
    return _exact_poly(coeffs, math.factorial(k), -2.0 * z)


# --- validation helpers -----------------------------------------------------

def _require_positive_z(z: float) -> None:
    if not z > 0:
        raise DomainError(f"argument z must be positive, got z={z!r}")


def _require_positive_order(s: float) -> None:
    if not ZERO_ORDER_TOL <= s < math.inf:
        raise DomainError(
            f"order s={s!r} rejected: need finite s >= {ZERO_ORDER_TOL} "
            "(Gamma(s) prefactor pole at 0)"
        )


def _reject_half_integer(s: float, which: str) -> None:
    if half_integer_offset(s) is not None:
        raise DomainError(
            f"{which} has a Gamma(1/2-s) pole in its printed prefactor at "
            f"half-integer s={s!r}; use the rearranged/regularized form"
        )


def _exp_prefactor(log_pref: float) -> float:
    try:
        return math.exp(log_pref)
    except OverflowError:
        raise DomainError(
            f"series prefactor exp({log_pref:.6g}) is outside the float64 range "
            "(largest finite double ~1.8e308)"
        ) from None


def _finalize(gen: Iterator[float], policy: TruncationPolicy, scale: float) -> SeriesApproximation:
    approx = sum_with_policy(gen, policy, scale=scale)
    if approx.diverging:
        raise SeriesDiverged(approx)
    return approx


# --- public evaluators -------------------------------------------------------

def k_series_rearranged(
    s: float, z: float, policy: TruncationPolicy = DEFAULT_POLICY
) -> SeriesApproximation:
    """Canonical evaluator: the pole-free double-sum form of K_s(z).

    K_s(z) = 2^{s-1} Gamma(s) z^{-s} e^{-z}
             [1 + sum_{k>=1} (1/2-s)_k/(1/2+s)_k S_k(z)].

    The Pochhammer ratio is built as a running product, so at half-integer
    s = m + 1/2 the factor (1/2-s+k-1) hits exact zero and the sum
    terminates after m + 1 outer terms.
    """
    _require_positive_order(s)
    _require_positive_z(z)
    pref = _exp_prefactor((s - 1.0) * math.log(2.0) + math.lgamma(s) - s * math.log(z) - z)
    inner = chain([1.0], map(_inner_binomial_sum, count(1), repeat(z)))
    return _finalize(_ratio_terms(0.5 - s, 0.5 + s, inner), policy, pref)


def k_series_m9(
    s: float, z: float, policy: TruncationPolicy = DEFAULT_POLICY
) -> SeriesApproximation:
    """The raw k-sum over V_k^{(-1)}(2z).

    As printed, sqrt(pi) (2z)^{-s} e^{-z} Gamma(2s)/Gamma(1/2-s) times
    sum_k (-1)^k/k! Gamma(k+1/2-s)/Gamma(k+1/2+s) V_k^{(-1)}(2z).  The
    k = 0 gamma ratio Gamma(1/2-s)/Gamma(1/2+s) is folded into the
    prefactor, which leaves

        sqrt(pi) (2z)^{-s} e^{-z} Gamma(2s)/Gamma(1/2+s)
        sum_k (1/2-s)_k/(1/2+s)_k (-1)^k/k! V_k^{(-1)}(2z).

    Kept as the independent partner of the rearranged form: the two must
    agree term by term up to rounding, and the Gamma(2s) prefactor checks
    the duplication formula against the rearranged 2^{s-1} Gamma(s).
    Half-integer s is rejected, as the printed prefactor sits on a
    Gamma(1/2-s) pole there.
    """
    _require_positive_order(s)
    _require_positive_z(z)
    _reject_half_integer(s, "the raw k-sum")
    pref = _exp_prefactor(
        0.5 * math.log(math.pi)
        - s * math.log(2.0 * z)
        - z
        + math.lgamma(2.0 * s)
        - math.lgamma(0.5 + s)
    )
    return _finalize(_ratio_terms(0.5 - s, 0.5 + s, _scaled_vk(-1.0, 2.0 * z)), policy, pref)


def k_series_m10(
    s: float,
    z: float,
    policy: TruncationPolicy = DEFAULT_POLICY,
    *,
    regularized: bool = False,
) -> SeriesApproximation:
    """The companion expansion over V_k^{(-1/2)}(z).

    As printed it reads
    2^{s-1} sqrt(pi) Gamma(2s)/Gamma(1/2-s) z^{-s} e^{-z}
    sum_k (-1)^k/k! Gamma(k+1/2-s)/Gamma(k+1/2+s) V_k^{(-1/2)}(z).
    Folding the k = 0 gamma ratio into the prefactor and applying the
    duplication formula turns this into

        2^{3s-2} Gamma(s) z^{-s} e^{-z}
        sum_k (-1)^k/k! (1/2-s)_k/(1/2+s)_k V_k^{(-1/2)}(z),

    which is total at half-integers and terminates there.  Both readings
    evaluate this one form; ``regularized=False`` only rejects half-integer
    s, where the printed prefactor has a Gamma(1/2-s) pole.  The result is
    not presumed equal to K_s(z); ``adjudicate_m10`` decides empirically.
    """
    _require_positive_order(s)
    _require_positive_z(z)
    if not regularized:
        _reject_half_integer(s, "the printed companion expansion")
    pref = _exp_prefactor((3.0 * s - 2.0) * math.log(2.0) + math.lgamma(s) - s * math.log(z) - z)
    return _finalize(_ratio_terms(0.5 - s, 0.5 + s, _scaled_vk(-0.5, z)), policy, pref)


def k_mcdonald(
    s: float, z: float, policy: TruncationPolicy = DEFAULT_POLICY
) -> SeriesApproximation:
    """Front-door evaluator of K_s(z).

    Reduces s -> |s| (the function is even in its order) and dispatches to
    the rearranged form, which terminates at half-integers and truncates
    adaptively elsewhere.  Orders within 1e-10 of zero are rejected.
    """
    return k_series_rearranged(abs(s), z, policy)


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
    Pochhammer (-s)_k.  At non-negative integer s the Pochhammer chain hits
    zero and the sum terminates (the classical derivative).  Terms whose
    Gamma(k-s+nu+1) argument sits on a non-positive integer contribute the
    reciprocal-gamma zero and the sum continues.
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
        raise DomainError(
            f"w = beta x^alpha for beta={beta!r}, x={x!r}, alpha={alpha!r} is outside "
            "the float64 range (largest finite double ~1.8e308)"
        )
    pref = _exp_prefactor((nu - s) * math.log(x) + math.lgamma(nu + 1.0) - w)

    def gen() -> Iterator[float]:
        log_poch = 0.0
        sign_poch = 1
        for k, e_k in enumerate(_scaled_vk(alpha, w)):
            arg = k - s + nu + 1.0
            if _pole_location(arg) is not None:
                yield 0.0  # reciprocal-gamma zero for this k only
            else:
                lg = gamma_log(arg)
                yield sign_poch * lg.sign * math.exp(log_poch - lg.log_abs) * e_k
            f = -s + k
            if f == 0.0:
                return  # (-s)_{k+1} and beyond vanish identically
            log_poch += math.log(abs(f))
            if f < 0:
                sign_poch = -sign_poch

    return _finalize(gen(), policy, pref)


def adjudicate_m10(
    grid: list[OrderArg] | list[tuple[float, float]],
    policy: TruncationPolicy = DEFAULT_POLICY,
    tol: float = 1e-9,
    quadrature: QuadratureSpec = DEFAULT_QUADRATURE,
) -> list[VerificationRecord]:
    """Measure the regularized companion expansion against the oracle.

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
            approx = k_series_m10(s, z, policy, regularized=True)
            lhs = approx.value
        except SeriesDiverged as exc:
            lhs = exc.approximation.value
        except DomainError:
            lhs = math.nan
        try:
            rhs = k_oracle(s, z, quadrature)
        except (DomainError, ToleranceNotMet):
            rhs = math.nan
        records.append(VerificationRecord.build("M10_ADJ", params, lhs, rhs, tol))
    return records
