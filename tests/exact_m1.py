"""The test reference for the alpha = -1 inner stream: every value from exact
integers, rounded once."""

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
