"""The V_k polynomial family: three constructions against each other and
against the defining derivative product, and the exact evaluator."""

import math
import sys
from fractions import Fraction
from itertools import islice

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracbessel import (
    DomainError,
    Polynomial,
    vk_coeffs_closed_m1,
    vk_coeffs_recurrence,
    vk_coeffs_sum,
    vk_eval,
)
from fracbessel import vk
from fracbessel.vk import (
    _EXACT_HEADS,
    _FIRST_STOP,
    _m1_values,
    _window_precision,
)


class TestSmallCases:
    def test_v0_is_one(self):
        for builder in (vk_coeffs_sum, vk_coeffs_recurrence):
            assert builder(-1.0, 0).coeffs == (1,)
        assert vk_coeffs_closed_m1(0).coeffs == (1,)

    @pytest.mark.parametrize("alpha", [-1.0, -0.5, 0.25, 2.0])
    def test_v1_is_minus_alpha_z(self, alpha):
        for builder in (vk_coeffs_sum, vk_coeffs_recurrence):
            poly = builder(alpha, 1)
            assert poly.coeffs[0] == 0
            assert float(poly.coeffs[1]) == pytest.approx(-alpha, rel=1e-15)

    def test_k2_alpha_m1(self):
        # z^2 - 2z, hand-computable from the second derivative of e^{-beta/x}
        assert vk_coeffs_recurrence(-1.0, 2).coeffs == (0, -2, 1)
        assert vk_coeffs_sum(-1.0, 2).coeffs == (0, -2, 1)
        assert vk_coeffs_closed_m1(2).coeffs == (0, -2, 1)

    def test_k3_alpha_m1(self):
        assert vk_coeffs_closed_m1(3).coeffs == (0, 6, -6, 1)

    def test_k1_alpha_half(self):
        poly = vk_coeffs_recurrence(-0.5, 1)
        assert poly.coeffs == (0, Fraction(1, 2))

    def test_alpha_one_k2(self):
        # d^2/dx^2 e^{-beta x} = beta^2 e^{-beta x}; times x^2 e^{beta x} gives (beta x)^2
        assert vk_coeffs_recurrence(1.0, 2).coeffs == (0, 0, 1)

    def test_validation(self):
        with pytest.raises(DomainError):
            vk_coeffs_sum(0.0, 3)
        with pytest.raises(DomainError):
            vk_coeffs_recurrence(-1.0, -1)
        with pytest.raises(DomainError):
            vk_coeffs_closed_m1(-2)
        for alpha in (math.nan, math.inf, -math.inf):
            for builder in (vk_coeffs_sum, vk_coeffs_recurrence):
                with pytest.raises(DomainError):
                    builder(alpha, 3)
        for z in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                vk_eval(vk_coeffs_closed_m1(3), z)


class TestTripleAgreement:
    def test_alpha_m1_exact_to_k20(self):
        for k in range(21):
            a = vk_coeffs_sum(-1.0, k).coeffs
            b = vk_coeffs_closed_m1(k).coeffs
            c = vk_coeffs_recurrence(-1.0, k).coeffs
            assert a == b == c, f"k={k}"
            assert all(isinstance(x, int) for x in b)

    @pytest.mark.parametrize("alpha", [-0.5, 1.0 / 3.0, 1.0, -2.0])
    def test_generic_alpha_to_k15(self, alpha):
        # both exact paths start from the same Fraction(alpha), so equality is exact
        for k in range(16):
            assert vk_coeffs_sum(alpha, k).coeffs == vk_coeffs_recurrence(alpha, k).coeffs

    def test_recurrence_matches_closed_form_at_k26(self):
        # every construction is exact at every k, so k = 26 agrees to the last digit
        assert vk_coeffs_recurrence(-1.0, 26).coeffs == vk_coeffs_closed_m1(26).coeffs

    @pytest.mark.parametrize("alpha", [Fraction(1, 3), 0.7, Fraction(2, 3), 3, -7])
    def test_sum_matches_recurrence_exactly_to_k30(self, alpha):
        # the integer double sum and the recurrence give the same ints and
        # Fractions: equal values and equal types
        for k in range(31):
            by_sum = vk_coeffs_sum(alpha, k).coeffs
            by_rec = vk_coeffs_recurrence(alpha, k).coeffs
            assert by_sum == by_rec, f"k={k}"
            assert [type(c) for c in by_sum] == [type(c) for c in by_rec], f"k={k}"

    @pytest.mark.parametrize("k", [26, 30, 40])
    def test_alpha_m1_exact_past_k25(self, k):
        a = vk_coeffs_sum(-1.0, k).coeffs
        assert a == vk_coeffs_closed_m1(k).coeffs == vk_coeffs_recurrence(-1.0, k).coeffs
        assert all(isinstance(x, int) for x in a)

    def test_fraction_alpha_to_k10(self):
        alpha = Fraction(1, 3)
        for k in range(11):
            assert vk_coeffs_recurrence(alpha, k).coeffs == vk_coeffs_sum(alpha, k).coeffs


class TestStructure:
    @given(k=st.integers(0, 15), alpha=st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 3.0]))
    @settings(max_examples=60, deadline=None)
    def test_leading_coefficient(self, k, alpha):
        poly = vk_coeffs_recurrence(alpha, k)
        assert poly.degree == k
        assert poly.coeffs[k] == Fraction(-alpha) ** k

    @given(k=st.integers(1, 15), alpha=st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0]))
    @settings(max_examples=40, deadline=None)
    def test_zero_constant_term(self, k, alpha):
        assert vk_coeffs_sum(alpha, k).coeffs[0] == 0
        assert vk_coeffs_recurrence(alpha, k).coeffs[0] == 0


class TestEval:
    def test_examples(self):
        assert vk_eval(vk_coeffs_closed_m1(0), 17.3) == 1.0
        assert vk_eval(vk_coeffs_closed_m1(2), 2.0) == 0.0  # root of z^2 - 2z
        assert vk_eval(vk_coeffs_closed_m1(3), 1.0) == 1.0  # 1 - 6 + 6

    def test_correctly_rounded_at_k40(self):
        poly = vk_coeffs_closed_m1(40)
        with mpmath.workdps(300):
            exact = mpmath.polyval([mpmath.mpf(c) for c in reversed(poly.coeffs)], mpmath.mpf(6.6))
        want = float(exact)
        assert vk_eval(poly, 6.6) == want


class TestWholeDomain:
    @given(alpha=st.floats(), k=st.integers(0, 6))
    @settings(max_examples=200, deadline=None)
    def test_builders_agree_or_both_reject(self, alpha, k):
        try:
            by_sum = vk_coeffs_sum(alpha, k).coeffs
        except DomainError:
            with pytest.raises(DomainError):
                vk_coeffs_recurrence(alpha, k)
            return
        assert by_sum == vk_coeffs_recurrence(alpha, k).coeffs

    @given(
        alpha=st.sampled_from([-1.0, -0.5, 1.0 / 3.0, 2.0]),
        k=st.integers(0, 6),
        z=st.floats(),
    )
    @settings(max_examples=200, deadline=None)
    def test_eval_is_finite_or_rejected(self, alpha, k, z):
        try:
            value = vk_eval(vk_coeffs_recurrence(alpha, k), z)
        except DomainError:
            return
        assert isinstance(value, float) and math.isfinite(value)

    @given(coeffs=st.lists(st.floats() | st.integers(-10**30, 10**30), max_size=6), z=st.floats())
    @example(coeffs=[math.nan], z=1.0)
    @example(coeffs=[math.inf, 1.0], z=1.0)
    @example(coeffs=[], z=0.5)
    @example(coeffs=[], z=1.0)
    @settings(max_examples=300, deadline=None)
    def test_any_coefficients_are_evaluated_or_refused(self, coeffs, z):
        # a non-finite coefficient is named; the empty (zero) polynomial is 0.0
        bad = [j for j, c in enumerate(coeffs) if isinstance(c, float) and not math.isfinite(c)]
        if not math.isfinite(z):
            with pytest.raises(DomainError, match="finite z"):
                vk_eval(Polynomial(tuple(coeffs)), z)
        elif bad:
            with pytest.raises(DomainError, match=rf"coeffs\[{bad[0]}\]={coeffs[bad[0]]!r}"):
                vk_eval(Polynomial(tuple(coeffs)), z)
        elif not coeffs:
            assert vk_eval(Polynomial(()), z) == 0.0
        else:
            try:
                value = vk_eval(Polynomial(tuple(coeffs)), z)
            except DomainError as exc:
                assert "float64 range" in str(exc)
                return
            assert isinstance(value, float) and math.isfinite(value)


class TestDefiningProduct:
    """x^k e^{beta x^alpha} d^k/dx^k e^{-beta x^alpha} must equal V_k(beta x^alpha)."""

    @pytest.mark.parametrize("alpha", [-1.0, -0.5])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_numeric_derivative_spot_check(self, alpha, k):
        beta, x = 1.0, 1.7
        mpmath.mp.dps = 30
        deriv = mpmath.diff(lambda t: mpmath.e ** (-beta * t ** alpha), mpmath.mpf(x), k)
        direct = float(x ** k * math.exp(beta * x ** alpha) * float(deriv))
        z = beta * x ** alpha
        assert direct == pytest.approx(vk_eval(vk_coeffs_recurrence(alpha, k), z), rel=1e-5)


#: The bounded alpha = -1 stream.
BOUNDED = {"m1": _m1_values}


def _exponent(w: float) -> int:
    """e of w = p / 2^e, p odd or zero."""
    return w.as_integer_ratio()[1].bit_length() - 1


def _head(w: float) -> int:
    """The number of values ``_m1_values`` reads from exact integers at w."""
    return _EXACT_HEADS[max(_exponent(w), w.as_integer_ratio()[0].bit_length())]


def _count_restarts(monkeypatch, bounded) -> list:
    """Route the stream's own fallback through a wrapper that records each
    call; ``bounded`` itself, called directly, is not recorded."""
    restarts = []

    def counting(w, exact=False):
        restarts.append(exact)
        return bounded(w, exact)

    monkeypatch.setattr(vk, bounded.__name__, counting)
    return restarts


def _doubt_at(monkeypatch, doubt: int) -> list:
    """Make the rounding check of a window leave value ``doubt`` in doubt, as
    an end of its interval past float64 would, and record each time it does.

    The check converts the ends of a value's interval with ``float``; a
    conversion the window makes at k = ``doubt`` raises OverflowError."""
    doubted = []

    def checking(x):
        if sys._getframe(1).f_locals.get("k") == doubt:
            doubted.append(doubt)
            raise OverflowError("int too large to convert to float")
        return float(x)

    monkeypatch.setattr(vk, "float", checking, raising=False)
    return doubted


#: The head the rule picks at 6.6, a w with a full 53-bit mantissa: E_0 and
#: E_1, so E_2 is the first window value.
HEAD_AT_6_6 = _head(6.6)


class TestBoundedStreams:
    """Past an exact head, the alpha = -1 stream runs on integers of a fixed
    size per window; every value must still be the exact integers' value."""

    @pytest.mark.parametrize("name", BOUNDED)
    @given(w=st.floats(2.0 ** -30, 80.0), n=st.integers(1, 600))
    # reads that end just past the first window and the second, and a long one
    @example(w=6.6, n=_FIRST_STOP + 1)
    @example(w=0.2, n=2 * _FIRST_STOP + 1)
    @example(w=79.99, n=600)
    @settings(max_examples=60, deadline=None)
    def test_bit_for_bit_the_exact_values(self, name, w, n):
        bounded = BOUNDED[name]
        assert list(islice(bounded(w), n)) == list(islice(bounded(w, exact=True), n))

    @pytest.mark.parametrize("name", BOUNDED)
    @pytest.mark.parametrize("guard,w", [(0, 0.2), (0, 6.6), (-40, 0.2), (-40, 6.6), (-40, 40.0)])
    def test_a_value_left_in_doubt_comes_from_the_exact_integers(self, monkeypatch, name, guard, w):
        # with no guard bits the check leaves a value in doubt in the first
        # window at these w, and with -40 every value; the stream then starts
        # its exact form once
        bounded = BOUNDED[name]
        monkeypatch.setattr(vk, "_GUARD_BITS", guard)
        restarts = _count_restarts(monkeypatch, bounded)
        assert list(islice(bounded(w), 300)) == list(islice(bounded(w, exact=True), 300))
        assert restarts == [True]

    @pytest.mark.parametrize("name", BOUNDED)
    @pytest.mark.parametrize("doubt", [HEAD_AT_6_6, 47, _FIRST_STOP, 2 * _FIRST_STOP + 7])
    def test_doubt_inside_a_later_window(self, monkeypatch, name, doubt):
        # doubt at the first window value (E_2, right past the head), inside
        # the first window, at the first value of the second, and inside the
        # third; the stream restarts its exact form once
        bounded = BOUNDED[name]
        w, n = 6.6, 3 * _FIRST_STOP
        want = list(islice(bounded(w, exact=True), n))
        doubted = _doubt_at(monkeypatch, doubt)
        restarts = _count_restarts(monkeypatch, bounded)
        assert list(islice(bounded(w), n)) == want
        assert doubted == [doubt]
        assert restarts == [True]

    @pytest.mark.parametrize("name", BOUNDED)
    @pytest.mark.parametrize("w", [5e-324, 1e-300, 1e-100, 2.0 ** -30])
    def test_tiny_arguments(self, monkeypatch, name, w):
        # the windows start at E_2, and their F carries -log2 w more bits, so
        # values of about -w keep their guard bits; only at 5e-324, where
        # every E_k past E_0 is -5e-324, a subnormal the check never yields,
        # do they come from the exact integers (e > 300 bits a value)
        bounded = BOUNDED[name]
        want = list(islice(bounded(w, exact=True), 250))
        restarts = _count_restarts(monkeypatch, bounded)
        assert list(islice(bounded(w), 250)) == want
        assert restarts == ([True] if w == 5e-324 else [])

    @pytest.mark.parametrize("name", BOUNDED)
    @pytest.mark.parametrize("w", [2.0 ** -30, 2e-10])
    def test_values_of_about_w_are_not_left_in_doubt(self, monkeypatch, name, w):
        # without the extra bits at |w| < 1 the check's t kept only about
        # 93 + log2 w bits, and these streams restarted at k = 257 and 175
        bounded = BOUNDED[name]
        want = list(islice(bounded(w, exact=True), 600))
        restarts = _count_restarts(monkeypatch, bounded)
        assert list(islice(bounded(w), 600)) == want
        assert restarts == []

    def test_precision_stays_bounded(self):
        # a 400-value window at a w with a full 53-bit mantissa keeps under
        # 300 bits, where the exact N_400 has about 22 500
        w = 6.6
        scale, bits = _window_precision(w, 400)
        assert bits < scale < 300
        # N_400 = 400! 2^{400e} E_400 at w = p / 2^e, and |E_400| < 1 here
        assert math.log2(math.factorial(400)) + 400 * _exponent(w) > 80 * scale
        # and grows like the square root of the window
        assert _window_precision(w, 800)[1] < math.sqrt(2) * bits
        # past W = stop the bound (1 + W)^stop takes over: at w = 2e12,
        # exp(2 sqrt(W stop)) would ask for 1.8 million bits
        assert _window_precision(2e12, 200)[1] < 200 * 42

    @pytest.mark.parametrize("name", BOUNDED)
    # every w here but inf reads windows from E_2, so E_63 overflows inside one
    @pytest.mark.parametrize("w", [2e6, 2000000.1, 2e12, math.inf])
    def test_values_past_float64_raise_the_exact_range_error(self, name, w):
        bounded = BOUNDED[name]
        with pytest.raises(DomainError) as want:
            list(islice(bounded(w, exact=True), 100))
        with pytest.raises(DomainError) as got:
            list(islice(bounded(w), 100))
        assert str(got.value) == str(want.value)
        assert "outside the float64 range" in str(got.value)


class TestHeadRule:
    """At a w whose mantissa uses most of its 53 bits the windows start right
    after E_1; at a short mantissa, an integer or a dyadic w, the exact
    integers stay small, and the head ends once they reach about 900 bits."""

    def test_heads(self):
        for w in (6.6, 0.2, 79.9, 2000000.1, 2.0 ** -30, 5e-324, 1e300, 1.0 + 2.0 ** -20):
            assert _head(w) == 2
        assert _head(0.5) == 100
        assert _head(0.375) == 81
        # an integer w: 90 values at 2, 75 at 10 and 64 at 40
        assert (_head(2.0), _head(10.0), _head(40.0)) == (90, 75, 64)
        # the longest head, at 0, still ends before the first stop
        assert _head(1.0) == 100 and _head(0.0) == 112 < _FIRST_STOP
        # and every head is a pure function of w: a table read, no state
        assert _EXACT_HEADS == tuple(900 // (m + 8) if m <= 20 else 2 for m in range(1075))

    @pytest.mark.parametrize("name", BOUNDED)
    @pytest.mark.parametrize("w", [0.5, 40.0])
    def test_short_mantissas_read_windows_after_a_long_head(self, monkeypatch, name, w):
        bounded = BOUNDED[name]
        n = 2 * _FIRST_STOP + 1
        want = list(islice(bounded(w, exact=True), n))
        restarts = _count_restarts(monkeypatch, bounded)
        assert list(islice(bounded(w), n)) == want
        assert restarts == []  # every value past the head came from a window


def _m1_window_errors(w: float, stop: int) -> tuple[int, int]:
    """(max_k |X_k - 2^F E_k|, rounded up, and b) over the window of
    ``_m1_values`` at w that ends before ``stop``, replayed from its
    docstring's recurrence against the exact N_k = k! 2^{ek} E_k."""
    p, e = w.as_integer_ratio()[0], _exponent(w)
    head = _head(w)
    scale, bits = _window_precision(w, stop)
    exact, den = [1, -p], [1, 1 << e]
    for k in range(1, stop):
        exact.append(((2 * k << e) - p) * exact[k] - (k * (k - 1) << 2 * e) * exact[k - 1])
        den.append(den[k] * (k + 1) << e)
    x_old, x = ((exact[j] << scale) // den[j] for j in (head - 2, head - 1))
    worst = 0
    for k in range(head, stop):
        # X_k = floor(((2(k-1) - w) X_{k-1} - (k-2) X_{k-2}) / k), one floor
        x_old, x = x, ((((2 * k - 2 << e) - p) * x - ((k - 2) * x_old << e)) // (k << e))
        worst = max(worst, -(-abs((x * den[k]) - (exact[k] << scale)) // den[k]))
    return worst, bits


class TestWindowAllowance:
    """The proved allowance 2^b of ``_window_precision`` bounds the real error
    of a window's integers against the exact values, and follows the error's
    growth rather than a fixed number of bits a value."""

    # Measured over the first three windows: the largest error is about
    # 2^39 units, at w = 79.9, against allowances from 2^51 (w = 0.2, first
    # window) to 2^742 (w = 79.9, third); the proof leaves at least 42 bits
    # of margin (w = 0.2, first window, an error of 492 units)
    @pytest.mark.parametrize("w", [0.2, 6.6, 40.0, 79.9])
    def test_the_real_error_stays_inside_the_allowance(self, w):
        for stop in (_FIRST_STOP, 2 * _FIRST_STOP, 4 * _FIRST_STOP):
            worst, bits = _m1_window_errors(w, stop)
            assert 0 < worst < 2 ** bits

    def test_the_closed_form_bounds_the_difference_basis_recursion(self):
        # the docstring's majorant, V_k = ((k-2) V_{k-1} + W U_{k-1}) / k + 1
        # and U_k = U_{k-1} + V_k from U_1 = V_1 = 1, run in integers scaled
        # by 2^64 and rounded up at every step, so it is at least the exact
        # recursion; the closed form 2^b must stay above it at every stop,
        # and within 96 bits of it where windows run in the workloads (17 to
        # 34 bits at |w| <= 6.6, up to 89 at 79.9)
        stops = [_FIRST_STOP << j for j in range(6)]
        one = 1 << 64
        for w in (2.0 ** -30, 0.2, 1.0, 6.6, 40.0, 79.9, 1000.5, -50.25, 2.0 ** 16):
            p, q = max(Fraction(1), abs(Fraction(w))).as_integer_ratio()
            u = v = one
            for k in range(2, stops[-1]):
                v = -(((k - 2) * v * q + p * u) // -(k * q)) + one
                u += v
                if k + 1 in stops:
                    bits = _window_precision(w, k + 1)[1]
                    assert u < 2 ** bits * one, (w, k + 1)
                    if abs(w) < 100:
                        assert 2 ** bits * one < 2 ** 96 * u, (w, k + 1)


class TestIndexBound:
    @pytest.mark.parametrize("k", [sys.maxsize + 1, 10 ** 400])
    def test_k_past_the_largest_index_is_refused(self, k):
        for call in (lambda: vk_coeffs_recurrence(-1.0, k), lambda: vk_coeffs_sum(-1.0, k),
                     lambda: vk_coeffs_closed_m1(k)):
            with pytest.raises(DomainError, match=f"k must be an integer <= {sys.maxsize}, got {k}"):
                call()
