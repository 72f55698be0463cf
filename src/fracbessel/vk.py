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
double w = p / 2^e, each correctly rounded.  Three integer constructions
supply them:

* ``_m1_values`` - the recurrence in k at fixed w for alpha = -1; the inner
  stream of the rearranged series (and so of ``k_mcdonald``) and of M9,
  both at 2z, where its values are the inner sums S_k(z), and of M7 at
  alpha = -1;
* ``_mhalf_values`` - the recurrence in k at fixed w for alpha = -1/2; the
  inner stream of M10 (at z) and of M7 at alpha = -1/2;
* ``_vk_rows`` - the coefficient recurrence above, written once, for any
  alpha; the rows of M7 at any other alpha.

Exact, a fixed-w recurrence works on integers of about k (e + log2 k) bits
at its k-th value, so N values cost O(N^2 e) bit operations; e is about
50 for a generic double.  ``_m1_values`` keeps exact integers only while
they stay small (``_EXACT_HEADS``): at a w whose mantissa uses most of its
53 bits, only E_0 and E_1; at an integer or a short dyadic w, until they
reach about 900 bits.  Past them it runs the same recurrence on integers
scaled by 2^F, with a floor division a step, in windows whose F follows
the proved growth of the error: about 100 + 2.9 sqrt(max(1, |w|) n) bits
for n values, whatever e (``_window_precision``).  It yields a value only when
its error allowance leaves one correctly rounded double, a check made
with two integer-to-float conversions and no division, and otherwise goes
back to the exact integers, so its values are bit for bit those of
``exact=True``, which keeps exact integers throughout.  On a 2-core Intel
Xeon host with CPython 3.11, 400 values at w = 6.6 take 0.31 ms from
``_m1_values`` and 2.8 ms exact.  ``_mhalf_values`` stays exact: in
floats its recurrence is unstable, and bounded integers would need a far
larger F to follow it.

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
from math import comb, factorial, ldexp
from typing import Iterator

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


def _simplify(c) -> object:
    """Collapse Fractions with unit denominator to ints."""
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


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


#: H, the number of values ``_m1_values`` reads from exact integers before
#: its bounded-precision windows, indexed by m = max(e, the bit length of p)
#: at w = p / 2^e, p odd or zero (m is at most 1074 for a double).  The
#: exact N_k grow by about m + log2 k bits a value.  At m <= 20, an integer
#: or a dyadic w with a short mantissa, H = 900 // (m + 8), so the head ends
#: once those integers reach about 900 bits: 64 values at w = 40, 90 at 2,
#: 100 at 1 and 112 at 0.  At larger m, a w whose mantissa uses most of its
#: 53 bits, a window value costs no more than an exact one, and H = 2: the
#: windows start from E_0 = 1 and E_1 = -w, with no division.
_EXACT_HEADS = tuple(900 // (m + 8) if m <= 20 else 2 for m in range(1075))

#: The first bounded window ends before this value, the default budget of a
#: sum (``TruncationPolicy.max_terms``); each later one ends twice as far.
_FIRST_STOP = 200

#: Bits a bounded window carries past its error allowance and the 53 of a
#: double, so that the rounding check almost never leaves a value in doubt.
_GUARD_BITS = 40


def _window_precision(w: float, stop: int) -> tuple[int, int]:
    """(F, b): the scale 2^F and the error allowance 2^b of the bounded
    windows of ``_m1_values`` that end before value ``stop``.

    With W = max(1, |w|), the proof in ``_m1_values`` bounds the error by
    2 stop T_{stop-1}, with T_{stop-1} < exp(2 sqrt(W stop)) and
    < (1 + W)^stop.  So b = L + 2 + ceil(g), L the bit length of ``stop``
    and g the smaller of 2.8854 sqrt(W stop) (2.8854 > 2 / ln 2) and
    stop log2(1 + W) (the smaller only past W = stop): one bit for the
    factor 2 and one for the rounding of the float work.  F keeps
    53 + ``_GUARD_BITS`` bits past b, and at |w| < 1 another
    a = 1 - frexp(w)[1] >= -log2 |w| (at most 1022 - ``_GUARD_BITS``), so
    that values of about w keep the guard bits.
    At w = 6.6, F is 208 bits for a 200-value window, 253 for 400 and 315
    for 800, where the exact N_k reach about k (e + log2 k) bits.
    """
    W = abs(w)
    if W < 1.0:
        W, extra = 1.0, min(1 - math.frexp(w)[1], 1022 - _GUARD_BITS)
    else:
        extra = 0
    growth = min(2.8854 * math.sqrt(W * stop), stop * math.log2(1.0 + W))
    bits = stop.bit_length() + 2 + math.ceil(growth)
    return bits + 53 + _GUARD_BITS + extra, bits


def _m1_values(w: float, exact: bool = False) -> Iterator[float]:
    """Yield E_k = (-1)^k V_k^{(-1)}(w) / k!, k = 0, 1, ..., each correctly
    rounded, for finite w.

    E_{k+1} = ((2k - w) E_k - (k-1) E_{k-1}) / (k+1), E_0 = 1, E_1 = -w, is
    Leibniz's rule on x^2 y' = beta y (DLMF 18.9 for the Laguerre
    polynomials L_{k-1}^{(1)}).  At w = p / 2^e (exact) the integers
    N_k = k! 2^{ek} E_k obey

        N_{k+1} = (2k 2^e - p) N_k - k (k-1) 2^{2e} N_{k-1},   N_0 = 1, N_1 = -p,

    which is exact but grows by about e + log2 k bits a step.  So only the
    first H = ``_EXACT_HEADS[m]`` values come from N_k, m = max(e, the bit
    length of p), and all of them when ``exact``.  Past them, X_k ~ 2^F E_k
    run the recurrence with one floor division a step,

        X_k = floor(((2(k-1) - w) X_{k-1} - (k-2) X_{k-2}) / k),

    from X_j = floor(2^F E_j) at j = H - 2 and H - 1, on integers of about F
    bits, in windows that end before ``_FIRST_STOP``, then twice, four
    times, ... as far.  Each window begins again from that exact state, with
    the F of ``_window_precision``, and yields the values past the last.

    The allowance.  Let d_k = X_k - 2^F E_k, u_k = d_k and v_k = d_k - d_{k-1}.
    As k E_k obeys the same step exactly, a step carries the errors as

        v_k = ((k-2) v_{k-1} - w u_{k-1}) / k - theta_k,   u_k = u_{k-1} + v_k,

    with theta_k in [0, 1) from the floor.  Let W = max(1, |w|) and

        V_k = ((k-2) V_{k-1} + W U_{k-1}) / k + 1,   U_k = U_{k-1} + V_k,

    from U_{H-1} = V_{H-1} = 1.  The start has |u_{H-1}|, |v_{H-1}| < 1,
    and the step's coefficients are nonnegative at k >= 2, so by induction
    |u_k| <= U_k and |v_k| <= V_k.  Without its + 1 the step maps
    (T_{k-1}, s_{k-1}) to (T_k, s_k), where s_k = T_k - T_{k-1} and
    T_k = sum_{j=1}^{k} C(k-1, j-1) W^j / j! is E_k at -W (the closed form
    of ``_closed_m1_row``).  At j >= 2, T_j >= W >= 1 and s_j >= W^2 / 2 >= 1/2,
    so the (1, 1) each step adds is at most 2 (T_j, s_j), and so is the
    start at H - 1 >= 2; at H = 2 the start's first step gives
    (1 + W/2, W/2) = (T_2, s_2) / W.  The step is linear and
    nonnegative, so each of these k - H + 2 parts stays at most 2 T_k in
    U_k, and every value k < stop of a window has

        |d_k| <= 2 (k - H + 2) T_k < 2 stop T_{stop-1}.

    C(n-1, j-1) <= n^j / j! and sum_j x^{2j} / (j!)^2 = I_0(2x) <= e^{2x}
    give T_n < exp(2 sqrt(W n)), and dropping the 1/j! gives
    T_n <= W (1 + W)^{n-1} < (1 + W)^n; either gives the b of
    ``_window_precision``, so |d_k| < 2^b.  (The error grows like the
    stream at -|w|, as the signs that make E_k oscillate no longer cancel
    it: Perron's formula for Laguerre polynomials off the positive axis,
    Szego, Orthogonal Polynomials, 8.22.)

    The check.  With t = floor(X_k / 2^b), 2^F E_k lies in
    [(t - 1) 2^b, (t + 2) 2^b].  A value is yielded only when t - 1 and
    t + 2 round to the same double, which rounding, being monotone, makes
    the correctly rounded 2^{F-b} E_k.  That asks |t| > 2^53, so the
    double times 2^{b-F} = 2^{-53-G-a}, G = ``_GUARD_BITS`` and a the extra
    bits at |w| < 1, is at least 2^{-G-a} >= 2^{-1022} in size, a normal
    double, and needs no second rounding.  Where they do not round alike,
    or t is past float64, every value from that k on comes from N_k: an E_k
    past float64 raises the range error of the exact stream, and a zero,
    whose sign the interval cannot tell, is the exact one.
    """
    k = 0
    try:
        p, q = w.as_integer_ratio()
        e = q.bit_length() - 1
        m = p.bit_length()
        head = _EXACT_HEADS[e if e > m else m]  # max(e, m), with no call
        yield 1.0
        old, cur, den = 0, 1, 1  # N_{k-2}, N_{k-1}, (k-1)! 2^{e(k-1)}
        for k in count(1) if exact else range(1, head):
            old, cur = cur, ((k - 1 << e + 1) - p) * cur - ((k - 1) * (k - 2) << 2 * e) * old
            den = den * k << e
            yield cur / den
    except OverflowError:
        raise _range_error(f"E_{k} at w={w!r}") from None
    shift = e * (head - 1)
    factorial, step = den >> shift, 2 << e  # den = (H-1)! 2^{e(H-1)}
    first, stop = head, _FIRST_STOP
    while True:
        scale, bits = _window_precision(w, stop)
        x_old = (old * (head - 1) << scale + e >> shift) // factorial
        x = (cur << scale >> shift) // factorial
        c, unit = (head - 1 << e + 1) - p, bits - scale  # c = 2(k-1) 2^e - p
        for k in range(head, first):  # the values the window before yielded
            x_old, x = x, ((c * x >> e) - (k - 2) * x_old) // k
            c += step
        for k in range(first, stop):
            x_old, x = x, ((c * x >> e) - (k - 2) * x_old) // k
            c += step
            t = x >> bits
            try:
                low = float(t - 1)
                settled = low == float(t + 2)
            except OverflowError:
                settled = False
            if not settled:
                yield from islice(_m1_values(w, exact=True), k, None)
                return
            yield ldexp(low, unit)
        first, stop = stop, 2 * stop


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

    The sum is formed in integers: with alpha = n / q exactly,
    (-alpha i)_k = R_i / q^k with R_i = prod_{m<k} (m q - n i), and
    1 / (i! (j-i)!) = C(j, i) / j!, so

        A_{k,j} = (-1)^k sum_i (-1)^i C(j, i) R_i / (j! q^k),

    one exact division per coefficient.
    """
    a, k = _validate_alpha_k(alpha, k)
    n, q = a.numerator, a.denominator
    # R_i does not depend on j, so each rising product is formed once
    rising = [math.prod(m * q - n * i for m in range(k)) for i in range(k + 1)]
    coeffs = []
    for j in range(k + 1):
        acc = sum((-1) ** i * comb(j, i) * rising[i] for i in range(j + 1))
        coeffs.append(_simplify(Fraction((-1) ** k * acc, factorial(j) * q ** k)))
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
    return Polynomial(tuple(_simplify(Fraction(m, scale)) for m in reversed(row)))


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
