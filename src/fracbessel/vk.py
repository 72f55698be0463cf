"""The polynomial family V_k behind the exponential-power derivatives.

V_k^{(alpha)} is defined by the product

    V_k^{(alpha)}(beta x^alpha) = x^k exp(beta x^alpha) d^k/dx^k exp(-beta x^alpha),

which, despite appearances, is a degree-k polynomial in z = beta x^alpha.
Three independent constructions are provided and cross-checked by the test
suite:

* ``vk_coeffs_sum`` - the explicit double-sum coefficient formula, summed
  in integers,
* ``vk_coeffs_closed_m1`` - the integer closed form at alpha = -1,
* ``vk_coeffs_recurrence`` - a first-order recurrence obtained from the
  definition by a single differentiation step.

Deriving the recurrence: write W_k(x) = d^k/dx^k exp(-beta x^alpha), so
W_k = x^{-k} e^{-beta x^alpha} V_k(z) with z = beta x^alpha.  Differentiating
once and multiplying back by x^{k+1} e^{beta x^alpha} gives

    V_{k+1}(z) = alpha z V_k'(z) - (k + alpha z) V_k(z),     V_0 = 1,

equivalently A_{k+1,j} = (alpha j - k) A_{k,j} - alpha A_{k,j-1} on the
coefficients.

All three are exact at every k (alpha = a/q exactly; ints and Fractions),
for k up to ``sys.maxsize``.

The series evaluators need the values E_k = (-1)^k V_k(w) / k! at one
double w = p / 2^e.  ``_e_values(alpha, w)`` is the one place that picks
their construction:

* ``_m1_values`` - the recurrence in k at fixed w for alpha = -1; the inner
  stream of the rearranged series (and so of ``k_mcdonald`` at orders past
  100) and of M9, both at 2z, where its values are the inner sums S_k(z), and
  of M7 at alpha = -1;
* ``_mhalf_values`` - the recurrence in k at fixed w for alpha = -1/2; the
  inner stream of M10 (at z) and of M7 at alpha = -1/2;
* ``_e_stream`` over ``_vk_rows`` - the coefficient recurrence above,
  written once, for any alpha; the rows of M7 at any other alpha.

``_m1_values`` runs its three-term recurrence in float64.  Its values are
not correctly rounded; their accuracy is asserted where it matters, on the
K values the rearranged form and M9 return, against mpmath and against the
same sums over exact integer values.  ``_mhalf_values`` and the coefficient
rows stay exact, each value correctly rounded: in floats the alpha = -1/2
recurrence is unstable.  Exact, a fixed-w recurrence works on integers of
about k (e + log2 k) bits at its k-th value, so N values cost O(N^2 e) bit
operations; e is about 50 for a generic double.  On a 2-core Intel Xeon
host with CPython 3.11, 400 alpha = -1 values at w = 6.6 take 0.06 ms in
float64, against 2.5 ms for the same recurrence in exact integers.

``_closed_m1_row``, the alpha = -1 closed-form rows, feeds no evaluator: it
is the third construction behind ``vk_coeffs_closed_m1`` and the check the
alpha = -1 stream is tested against.

``_exact_poly``, the one evaluator of coefficient rows, rounds once.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice
from typing import Iterable, Iterator

from .errors import DomainError
from .special import _integer_at_least, _range_error


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


def _exact_quotient(num: int, den: int) -> int | Fraction:
    """num / den exactly: an int where den divides num, else a Fraction."""
    quotient, remainder = divmod(num, den)
    return Fraction(num, den) if remainder else quotient


def _validate_alpha_k(alpha, k: int) -> tuple[Fraction, int]:
    """(alpha as an exact Fraction, k as an int), once k is an integer >= 0
    and alpha is finite and nonzero."""
    k = _integer_at_least(k, 0, "k", sys.maxsize)
    try:
        a = Fraction(alpha)
    except (ValueError, OverflowError):
        raise DomainError(f"alpha must be a finite number, got alpha={alpha!r}") from None
    if a == 0:
        raise DomainError("alpha must be nonzero (alpha = 0 degenerates to a constant)")
    return a, k


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
    """Yield E_k = (-1)^k V_k^{(-1)}(w) / k!, k = 0, 1, ...

    E_{k+1} = ((2k - w) E_k - (k-1) E_{k-1}) / (k+1), E_0 = 1, E_1 = -w, is
    Leibniz's rule on x^2 y' = beta y (DLMF 18.9: E_k = -w L_{k-1}^{(1)}(w) / k
    for k >= 1).  It runs in float64 on G_k = E_k / (-w) from G_1 = 1, and
    yields -w G_k: E_0 never enters E_2, so a tiny or subnormal w loses
    nothing.  These values are not correctly rounded; their accuracy is
    asserted on the K sums that read them.  The first value that is not
    finite raises the range error instead.
    """
    yield 1.0
    neg_w, inf = -w, math.inf
    old, cur = 0.0, 1.0  # G_{k-1}, G_k
    k = 1.0  # integer-valued: every sum and product below rounds as with an int k
    while True:
        value = neg_w * cur
        if not -inf < value < inf:
            raise _range_error(f"E_{int(k)} at w={w!r}")
        yield value
        old, cur = cur, ((k + k - w) * cur - (k - 1.0) * old) / (k + 1.0)
        k += 1.0


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


def _e_stream(rows: Iterable[list[int]], q: int, w: float) -> Iterator[float]:
    """Yield E_k = row_k(w) / (k! q^k), k = 0, 1, ..., each correctly rounded.

    ``rows`` holds integer coefficients, highest degree first, as yielded by
    ``_vk_rows`` (alpha = a / q; E_k = (-1)^k V_k^{(alpha)}(w) / k!).
    w must be finite.
    """
    den = 1
    for k, row in enumerate(rows, 1):
        yield _exact_poly(row, den, w)
        den *= k * q


def _e_values(alpha, w: float) -> Iterator[float]:
    """E_k = (-1)^k V_k^{(alpha)}(w) / k!, k = 0, 1, ..., for alpha finite
    and nonzero and w finite (at alpha = -1 an infinite w raises the range
    error at E_1): the one choice of construction.

    alpha = -1 reads the float64 recurrence ``_m1_values``, alpha = -1/2 the
    exact ``_mhalf_values``, each at a fixed cost per value, and any other
    alpha the coefficient rows of ``_vk_rows``.
    """
    if alpha == -1:
        return _m1_values(w)
    if alpha == -0.5:
        return _mhalf_values(w)
    return _e_stream(_vk_rows(alpha), alpha.as_integer_ratio()[1], w)


def vk_coeffs_sum(alpha, k: int) -> Polynomial:
    """Coefficients A_{k,j} from the explicit double sum.

    A_{k,j} = (-1)^k sum_{i=0}^{j} (-1)^i / (i! (j-i)!) * (-alpha i)_k,
    the gamma ratio Gamma(k - alpha i)/Gamma(-alpha i) written as a rising
    product so the i = 0 summand is exactly zero for k >= 1 (and 1 for
    k = 0, giving V_0 = 1 without a special case).

    The sum is formed in integers: with alpha = n / q exactly,
    (-alpha i)_k = R_i / q^k with R_i = prod_{m<k} (m q - n i), and
    1 / (i! (j-i)!) = C(j, i) / j!, so

        A_{k,j} = (-1)^k sum_i (-1)^i C(j, i) R_i / (j! q^k),

    one exact division per coefficient.  This is still the explicit double
    sum: its inner sum over i is (-1)^j Delta^j R_0, the j-th forward
    difference of R at 0, and all of them are read off one difference
    table of the R_i, built by subtraction alone.
    """
    a, k = _validate_alpha_k(alpha, k)
    n, q = a.numerator, a.denominator
    # R_i does not depend on j, so each rising product is formed once
    diffs = [math.prod(m * q - n * i for m in range(k)) for i in range(k + 1)]
    den = q ** k  # j! q^k
    coeffs = []
    for j in range(k + 1):
        if j:
            den *= j
            diffs = [upper - lower for lower, upper in zip(diffs, diffs[1:])]
        acc = diffs[0]  # Delta^j R_0
        coeffs.append(_exact_quotient(-acc if (k + j) % 2 else acc, den))
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
    k = _integer_at_least(k, 0, "k", sys.maxsize)
    return Polynomial(tuple(-c if (k + j) % 2 else c
                            for j, c in enumerate(reversed(_closed_m1_row(k)))))


def vk_coeffs_recurrence(alpha, k: int) -> Polynomial:
    """Coefficients via A_{k+1,j} = (alpha j - k) A_{k,j} - alpha A_{k,j-1}.

    Row k of ``_vk_rows`` divided by (-q)^k, alpha = a / q exactly.
    """
    a, k = _validate_alpha_k(alpha, k)
    row = next(islice(_vk_rows(a), k, None))
    scale = (-a.denominator) ** k
    return Polynomial(tuple(_exact_quotient(m, scale) for m in reversed(row)))


def vk_eval(p: Polynomial, z: float) -> float:
    """p at a finite z, correctly rounded: ``_exact_poly`` over the common
    denominator.  Every coefficient must be a finite number; the empty
    (zero) polynomial is 0.0."""
    if not math.isfinite(z):
        raise DomainError(f"vk_eval needs a finite z, got z={z!r}")
    coeffs = []
    for j, c in enumerate(p.coeffs):
        try:
            coeffs.append(Fraction(c))
        except (TypeError, ValueError, OverflowError):
            raise DomainError(f"vk_eval needs finite coefficients, got coeffs[{j}]={c!r}") from None
    if not coeffs:
        return 0.0
    den = math.lcm(*(c.denominator for c in coeffs))
    return _exact_poly([c.numerator * (den // c.denominator) for c in reversed(coeffs)], den, z)
