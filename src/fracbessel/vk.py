"""The polynomial family V_k behind the exponential-power derivatives.

V_k^{(alpha)} is defined by the product

    V_k^{(alpha)}(beta x^alpha) = x^k exp(beta x^alpha) d^k/dx^k exp(-beta x^alpha),

which, despite appearances, is a degree-k polynomial in z = beta x^alpha.
Three independent constructions are provided and cross-checked by the test
suite:

* ``vk_coeffs_sum`` - the explicit double-sum coefficient formula,
* ``vk_coeffs_closed_m1`` - the integer closed form at alpha = -1,
* ``vk_coeffs_recurrence`` - a first-order recurrence obtained from the
  definition by a single differentiation step.

Deriving the recurrence: write W_k(x) = d^k/dx^k exp(-beta x^alpha), so
W_k = x^{-k} e^{-beta x^alpha} V_k(z) with z = beta x^alpha.  Differentiating
once and multiplying back by x^{k+1} e^{beta x^alpha} gives

    V_{k+1}(z) = alpha z V_k'(z) - (k + alpha z) V_k(z),     V_0 = 1,

equivalently A_{k+1,j} = (alpha j - k) A_{k,j} - alpha A_{k,j-1} on the
coefficients.

All three are exact at every k (alpha = a/q exactly; ints and Fractions).

The series evaluators need the values E_k = (-1)^k V_k(w) / k! at one
double w = p / 2^e, each correctly rounded.  Four integer constructions
supply them, one per evaluator:

* ``_m1_values`` and ``_mhalf_values`` - recurrences in k at fixed w for
  alpha = -1 and alpha = -1/2, a fixed number of big-integer operations
  per value; the inner streams of the rearranged series (and so of
  ``k_mcdonald``; at 2z, its values are the inner sums S_k) and of M10
  (at z);
* ``_m1_partial_sums`` - the same alpha = -1 values from the alpha = 0
  Laguerre recurrence summed into L^{(1)}, also a fixed cost per value;
  the inner stream of M9 (at 2z).  It shares no recurrence with
  ``_m1_values``, so acceptance criterion 5 compares two constructions;
* ``_vk_rows`` - the coefficient recurrence above, written once, for any
  alpha; the rows of M7.

``_closed_m1_row``, the alpha = -1 closed-form rows, feeds no evaluator: it
is the third construction behind ``vk_coeffs_closed_m1`` and the check the
two alpha = -1 streams are tested against.

``_exact_poly``, the one evaluator of coefficient rows, rounds once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice
from math import factorial
from typing import Iterator

from .errors import DomainError
from .special import _range_error


@dataclass(frozen=True)
class Polynomial:
    """Polynomial in one variable, ascending-degree coefficients.

    Coefficients may be ints, Fractions or floats; ``coeffs[j]`` multiplies
    z**j and the stored length is degree + 1.
    """

    coeffs: tuple

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def _simplify(c) -> object:
    """Collapse Fractions with unit denominator to ints."""
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


def _validate_alpha_k(alpha, k: int) -> Fraction:
    """alpha as an exact Fraction, once alpha is finite and nonzero and k >= 0."""
    if k < 0:
        raise DomainError("k must be a non-negative integer")
    try:
        a = Fraction(alpha)
    except (ValueError, OverflowError):
        raise DomainError(f"alpha must be a finite number, got alpha={alpha!r}") from None
    if a == 0:
        raise DomainError("alpha must be nonzero (alpha = 0 degenerates to a constant)")
    return a


def _vk_rows(alpha) -> Iterator[list[int]]:
    """Yield the integer rows M_{k,j} = (-1)^k A_{k,j} q^k, k = 0, 1, ...,
    highest degree first, with alpha = a / q exactly (finite and nonzero).

    The coefficient recurrence reads M_{k+1,j} = (k q - a j) M_{k,j} + a M_{k,j-1},
    M_{0,0} = 1; row k over k! q^k holds the coefficients of (-1)^k V_k / k!.
    """
    a, q = alpha.as_integer_ratio()
    row = [1]
    for k in count(0):
        yield row
        b = k * q
        row = [(b - a * j) * m + a * lower
               for j, m, lower in zip(count(k + 1, -1), [0] + row, row + [0])]


def _exact_poly(coeffs: list[int], den: int, w: float) -> float:
    """The polynomial with integer coefficients ``coeffs`` (highest degree
    first, as in ``numpy.polyval``) at w, divided by the integer den > 0,
    correctly rounded.

    The alternating terms of the V_k and S_k polynomials cancel heavily, so
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
        raise _range_error(f"degree-{len(coeffs) - 1} polynomial at w={w!r}") from None


def _m1_values(w: float) -> Iterator[float]:
    """Yield E_k = (-1)^k V_k^{(-1)}(w) / k!, k = 0, 1, ..., each correctly
    rounded, for finite w.

    At fixed w = p / 2^e (exact) the integers N_k = k! 2^{ek} E_k obey

        N_{k+1} = (2k 2^e - p) N_k - k (k-1) 2^{2e} N_{k-1},   N_0 = 1, N_1 = -p,

    which is Leibniz's rule on x^2 y' = beta y (DLMF 18.9 for the Laguerre
    polynomials L_{k-1}^{(1)}).  Each value costs a fixed number of
    big-integer operations and one correctly rounded division.
    """
    k = 0
    try:
        p, q = w.as_integer_ratio()
        e = q.bit_length() - 1
        old, cur, den = 0, 1, 1  # N_{k-1}, N_k, k! 2^{ek}
        for k in count(0):
            yield cur / den
            old, cur = cur, ((k << e + 1) - p) * cur - (k * (k - 1) << 2 * e) * old
            den = den * (k + 1) << e
    except OverflowError:
        raise _range_error(f"E_{k} at w={w!r}") from None


def _m1_partial_sums(w: float) -> Iterator[float]:
    """Yield the same values as ``_m1_values``, E_k = -(w/k) L_{k-1}^{(1)}(w)
    and E_0 = 1, each correctly rounded, for finite w, by another recurrence.

    At fixed w = p / 2^e (exact) the integers A_m = m! 2^{em} L_m^{(0)}(w)
    follow the alpha = 0 Laguerre recurrence (DLMF 18.9)

        A_{m+1} = ((2m+1) 2^e - p) A_m - m^2 2^{2e} A_{m-1},   A_0 = 1, A_{-1} = 0,

    and L_n^{(1)} = sum_{m<=n} L_m^{(0)} (DLMF 18.18 at y = 0) gives
    C_m = m! 2^{em} L_m^{(1)}(w) as C_m = m 2^e C_{m-1} + A_m, C_0 = 1.
    Then E_k = -p C_{k-1} / (k! 2^{ek}): a fixed number of big-integer
    operations and one correctly rounded division per value.
    """
    k = 0
    try:
        p, q = w.as_integer_ratio()
        e = q.bit_length() - 1
        yield 1.0
        old, cur, acc, den = 0, 1, 1, 1  # A_{k-2}, A_{k-1}, C_{k-1}, (k-1)! 2^{e(k-1)}
        for k in count(1):
            den = den * k << e
            yield -p * acc / den
            old, cur = cur, (((2 * k - 1) << e) - p) * cur - ((k - 1) ** 2 << 2 * e) * old
            acc = (acc * k << e) + cur
    except OverflowError:
        raise _range_error(f"E_{k} at w={w!r}") from None


def _mhalf_values(w: float) -> Iterator[float]:
    """Yield E_k = (-1)^k V_k^{(-1/2)}(w) / k!, k = 0, 1, ..., each correctly
    rounded, for finite w.

    y = exp(-beta / sqrt(x)) solves 4 x^3 y'' + 6 x^2 y' - beta^2 y = 0;
    Leibniz's rule on its k-th derivative gives, at fixed w = p / 2^e
    (exact), for the integers N_k = 2^{(e+1)k} V_k(w),

        N_{k+2} = -[(6k+3) 2^e N_{k+1} + (12 k^2 2^{2e} - p^2) N_k
                    + k (k-1) (2k-1) 2^{3e+2} N_{k-1}],   N_0 = 1, N_1 = p.

    Run in floats this recurrence is unstable; in integers it is exact, and
    E_k = (-1)^k N_k / (k! 2^{(e+1)k}) is rounded once.
    """
    k = 0
    try:
        p, q = w.as_integer_ratio()
        e = q.bit_length() - 1
        p2 = p * p
        older, old, cur, den = 0, 1, p, 1  # N_{k-1}, N_k, N_{k+1}, k! 2^{(e+1)k}
        for k in count(0):
            yield (-old if k & 1 else old) / den
            older, old, cur = old, cur, -(
                ((6 * k + 3) * cur << e)
                + ((12 * k * k << 2 * e) - p2) * old
                + (k * (k - 1) * (2 * k - 1) << 3 * e + 2) * older
            )
            den = den * (k + 1) << e + 1
    except OverflowError:
        raise _range_error(f"E_{k} at w={w!r}") from None


def vk_coeffs_sum(alpha, k: int) -> Polynomial:
    """Coefficients A_{k,j} from the explicit double sum.

    A_{k,j} = (-1)^k sum_{i=0}^{j} (-1)^i / (i! (j-i)!) * (-alpha i)_k,
    the gamma ratio Gamma(k - alpha i)/Gamma(-alpha i) written as a rising
    product so the i = 0 summand is exactly zero for k >= 1 (and 1 for
    k = 0, giving V_0 = 1 without a special case).
    """
    a = _validate_alpha_k(alpha, k)
    # (-alpha i)_k does not depend on j, so each rising product is formed once
    rising = [math.prod((m - a * i for m in range(k)), start=Fraction(1)) for i in range(k + 1)]
    coeffs = []
    for j in range(k + 1):
        acc = sum(Fraction((-1) ** i, factorial(i) * factorial(j - i)) * rising[i]
                  for i in range(j + 1))
        coeffs.append(_simplify((-1) ** k * acc))
    return Polynomial(tuple(coeffs))


def _closed_m1_row(k: int) -> list[int]:
    """Magnitudes c_j = C(k-1, j-1) k!/j! of the alpha = -1 row k, highest degree first.

    sum_j c_j (-w)^j = (-1)^k V_k^{(-1)}(w) = k! S_k(w/2), with S_k the inner
    binomial sum of the rearranged K series.  Built from c_k = 1 down through
    c_{j-1} = c_j j (j-1) / (k-j+1), an exact division, with c_0 = 0 for
    k >= 1 and row 0 = [1]; independent of the recurrence in ``_vk_rows``.
    """
    c = 1
    row = [c]
    for j in range(k, 1, -1):
        c = c * j * (j - 1) // (k - j + 1)
        row.append(c)
    if k:
        row.append(0)
    return row


def vk_coeffs_closed_m1(k: int) -> Polynomial:
    """Exact integer coefficients at alpha = -1.

    A_{k,j} = (-1)^{k+j} / (k-j)! * k! (k-1)! / (j! (j-1)!) for 1 <= j <= k,
    with A_{k,0} = 0 for k >= 1 and V_0 = 1: the magnitudes of
    ``_closed_m1_row`` with their signs put back.
    """
    if k < 0:
        raise DomainError("k must be a non-negative integer")
    return Polynomial(tuple(-c if (k + j) % 2 else c
                            for j, c in enumerate(reversed(_closed_m1_row(k)))))


def vk_coeffs_recurrence(alpha, k: int) -> Polynomial:
    """Coefficients via A_{k+1,j} = (alpha j - k) A_{k,j} - alpha A_{k,j-1}.

    Row k of ``_vk_rows`` divided by (-q)^k, alpha = a / q exactly.
    """
    a = _validate_alpha_k(alpha, k)
    row = next(islice(_vk_rows(a), k, None))
    scale = (-a.denominator) ** k
    return Polynomial(tuple(_simplify(Fraction(m, scale)) for m in reversed(row)))


def vk_eval(p: Polynomial, z: float) -> float:
    """p at a finite z, correctly rounded: ``_exact_poly`` over the common denominator."""
    if not math.isfinite(z):
        raise DomainError(f"vk_eval needs a finite z, got z={z!r}")
    coeffs = [Fraction(c) for c in reversed(p.coeffs)]
    den = math.lcm(*(c.denominator for c in coeffs))
    return _exact_poly([c.numerator * (den // c.denominator) for c in coeffs], den, z)
