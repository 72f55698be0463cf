"""Compensated (double-double) arithmetic for heavily cancelling sums.

The alternating inner sums of the series evaluators combine terms whose
magnitudes exceed the final result by up to ~1e22, far past what plain
float64 parts can survive even under exact (fsum) accumulation.  Each part
is therefore carried as an unevaluated pair ``hi + lo`` of doubles
(~32 significant digits) built with the classic error-free transforms of
Dekker and Knuth; the final reduction feeds every hi/lo component through
``math.fsum``, which is exact.

Scalar helpers operate on ``(hi, lo)`` tuples; the ``_vec`` variants do the
same elementwise on numpy arrays and back the polynomial-coefficient
recurrences in :mod:`fracbessel.series`.
"""

from __future__ import annotations

import math

import numpy as np

_SPLIT = 134217729.0  # 2**27 + 1, Dekker splitting constant for float64


def two_sum(a: float, b: float) -> tuple[float, float]:
    """Error-free sum: returns (s, e) with s + e == a + b exactly."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def two_prod(a: float, b: float) -> tuple[float, float]:
    """Error-free product: returns (p, e) with p + e == a * b exactly."""
    p = a * b
    t = _SPLIT * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLIT * b
    bh = t - (t - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def dd_mul(xh: float, xl: float, yh: float, yl: float) -> tuple[float, float]:
    p, e = two_prod(xh, yh)
    e += xh * yl + xl * yh
    hi = p + e
    return hi, (p - hi) + e


def dd_mul_f(xh: float, xl: float, f: float) -> tuple[float, float]:
    p, e = two_prod(xh, f)
    e += xl * f
    hi = p + e
    return hi, (p - hi) + e


def dd_div_f(xh: float, xl: float, f: float) -> tuple[float, float]:
    q = xh / f
    ph, pe = two_prod(q, f)
    r = ((xh - ph) - pe) + xl
    return two_sum(q, r / f)


def fsum_dd(parts: list[tuple[float, float]]) -> float:
    """Exactly reduce a list of double-double parts to the nearest double."""
    flat = []
    for hi, lo in parts:
        flat.append(hi)
        flat.append(lo)
    return math.fsum(flat)


# --- vectorised variants (elementwise on float64 arrays) ---

def _two_sum_vec(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_prod_vec(a, b):
    p = a * b
    t = _SPLIT * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLIT * b
    bh = t - (t - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _renorm_vec(h, l):
    s = h + l
    return s, (h - s) + l


def dd_scale_vec(xh, xl, c):
    """(xh, xl) * c for a plain float64 array c."""
    p, e = _two_prod_vec(xh, c)
    return _renorm_vec(p, e + xl * c)


def dd_add_vec(xh, xl, yh, yl):
    s, e = _two_sum_vec(xh, yh)
    return _renorm_vec(s, e + xl + yl)


def dd_mul_vec(xh, xl, yh, yl):
    p, e = _two_prod_vec(xh, yh)
    return _renorm_vec(p, e + xh * yl + xl * yh)


def dd_dot(xh, xl, yh, yl) -> float:
    """Exact-to-rounding dot product of two double-double vectors."""
    ph, pl = dd_mul_vec(xh, xl, yh, yl)
    return math.fsum(np.concatenate([ph, pl]))
