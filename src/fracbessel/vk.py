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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import DomainError

#: Coefficient growth is factorial-like; exact rational arithmetic is used up
#: to this k and plain floats beyond it.
EXACT_MAX_K = 25


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


def _validate_alpha_k(alpha: float, k: int) -> None:
    if alpha == 0:
        raise DomainError("alpha must be nonzero (alpha = 0 degenerates to a constant)")
    if k < 0:
        raise DomainError("k must be a non-negative integer")


def vk_coeffs_sum(alpha, k: int) -> Polynomial:
    """Coefficients A_{k,j} from the explicit double sum.

    A_{k,j} = (-1)^k sum_{i=0}^{j} (-1)^i / (i! (j-i)!) * (-alpha i)_k,
    the gamma ratio Gamma(k - alpha i)/Gamma(-alpha i) written as a rising
    product so the i = 0 summand is exactly zero for k >= 1 (and 1 for
    k = 0, giving V_0 = 1 without a special case).
    """
    _validate_alpha_k(alpha, k)
    exact = k <= EXACT_MAX_K
    a = Fraction(alpha) if exact else float(alpha)
    coeffs = []
    for j in range(k + 1):
        acc = Fraction(0) if exact else 0.0
        for i in range(j + 1):
            rising = Fraction(1) if exact else 1.0
            base = -a * i
            for m in range(k):
                rising *= base + m
            if rising == 0:
                continue
            weight = Fraction((-1) ** i, factorial(i) * factorial(j - i))
            acc += (weight if exact else float(weight)) * rising
        acc = (-1) ** k * acc
        coeffs.append(_simplify(acc) if exact else acc)
    return Polynomial(tuple(coeffs))


def vk_coeffs_closed_m1(k: int) -> Polynomial:
    """Exact integer coefficients at alpha = -1.

    A_{k,j} = (-1)^{k+j} / (k-j)! * k! (k-1)! / (j! (j-1)!) for 1 <= j <= k,
    with A_{k,0} = 0 for k >= 1 and V_0 = 1.  Python integers are unbounded,
    so no overflow threshold applies.
    """
    if k < 0:
        raise DomainError("k must be a non-negative integer")
    if k == 0:
        return Polynomial((1,))
    coeffs = [0]
    kf, km1f = factorial(k), factorial(k - 1)
    for j in range(1, k + 1):
        num = kf * km1f
        den = factorial(k - j) * factorial(j) * factorial(j - 1)
        coeffs.append((-1) ** (k + j) * (num // den))
    return Polynomial(tuple(coeffs))


def vk_coeffs_recurrence(alpha, k: int) -> Polynomial:
    """Coefficients via A_{k+1,j} = (alpha j - k) A_{k,j} - alpha A_{k,j-1}.

    Exact rational arithmetic up to k = 25 (alpha converted exactly via
    Fraction), floating point beyond.
    """
    _validate_alpha_k(alpha, k)
    exact = k <= EXACT_MAX_K
    a = Fraction(alpha) if exact else float(alpha)
    coeffs = [Fraction(1) if exact else 1.0]
    for m in range(k):
        nxt = []
        for j in range(m + 2):
            c = (a * j - m) * coeffs[j] if j <= m else 0
            if j >= 1:
                c -= a * coeffs[j - 1]
            nxt.append(c)
        coeffs = nxt
    if exact:
        coeffs = [_simplify(c) for c in coeffs]
    return Polynomial(tuple(coeffs))


def vk_eval(p: Polynomial, z: float) -> float:
    """Evaluate by Horner's scheme in float arithmetic."""
    acc = 0.0
    for c in reversed(p.coeffs):
        acc = acc * z + float(c)
    return acc
