"""Compensated (double-double) arithmetic for the V_k coefficient recurrences.

The scaled V_k polynomials of :mod:`fracbessel.series` combine coefficients
and powers whose magnitudes exceed the final value by many orders, far past
what plain float64 parts can survive even under exact (fsum) accumulation.
Each coefficient and power is therefore carried as an unevaluated pair
``hi + lo`` of doubles (~32 significant digits) built with the classic
error-free transforms of Dekker and Knuth, and the final dot product feeds
every hi/lo component through ``math.fsum``, which is exact.

Every operation acts elementwise on float64 numpy arrays; plain floats
pass through the same code.  The Dekker split overflows for magnitudes
above ``_SPLIT_MAX``, so callers keep their values below it.
"""

from __future__ import annotations

import math
import sys

import numpy as np

_SPLIT = 134217729.0  # 2**27 + 1, Dekker splitting constant for float64

#: Largest magnitude whose Dekker split (``_SPLIT * a``) stays finite, ~1.3e300.
_SPLIT_MAX = sys.float_info.max / _SPLIT


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


def _dd_div_f_vec(xh, xl, f):
    """(xh, xl) / f for a plain float f."""
    q = xh / f
    ph, pe = _two_prod_vec(q, f)
    r = ((xh - ph) - pe) + xl
    return _two_sum_vec(q, r / f)


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
