"""The test references for the alpha = -1 inner stream: every value from
exact integers, rounded once, and the float64 recurrence with an int index."""

import math
from itertools import count

from fracbessel.special import _range_error


def m1_exact(w):
    """Yield E_k = (-1)^k V_k^{(-1)}(w) / k!, k = 0, 1, ..., each correctly
    rounded, for finite w.

    At w = p / 2^e (exact) the integers N_k = k! 2^{ek} E_k follow

        N_{k+1} = (2k 2^e - p) N_k - k (k-1) 2^{2e} N_{k-1},   N_0 = 1, N_1 = -p,

    the library's three-term recurrence scaled to integers; each E_k is one
    rounded division, and the k-th works on integers of about k (e + log2 k)
    bits.  The first value past float64 raises the library's range error.
    """
    k = 0
    try:
        p, q = w.as_integer_ratio()
        e = q.bit_length() - 1
        yield 1.0
        old, cur, den = 0, 1, 1  # N_{k-2}, N_{k-1}, (k-1)! 2^{e(k-1)}
        for k in count(1):
            old, cur = cur, ((k - 1 << e + 1) - p) * cur - ((k - 1) * (k - 2) << 2 * e) * old
            den = den * k << e
            yield cur / den
    except OverflowError:
        raise _range_error(f"E_{k} at w={w!r}") from None


def m1_int_indexed(w):
    """Yield the library's float64 values of E_k, k = 0, 1, ..., from the
    recurrence on G_k = E_k / (-w) written with an int k: the values, and
    the range error, that ``vk._m1_values`` must reproduce bit for bit."""
    yield 1.0
    old, cur = 0.0, 1.0  # G_{k-1}, G_k
    for k in count(1):
        value = -w * cur
        if not -math.inf < value < math.inf:
            raise _range_error(f"E_{k} at w={w!r}")
        yield value
        old, cur = cur, ((2 * k - w) * cur - (k - 1) * old) / (k + 1)
