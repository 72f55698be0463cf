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
    _EXACT_HEAD,
    _FIRST_STOP,
    _m1_partial_sums,
    _m1_values,
    _m1_window,
    _partial_window,
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


#: Each bounded alpha = -1 stream and its window.
BOUNDED = {"m1": (_m1_values, _m1_window), "partial_sums": (_m1_partial_sums, _partial_window)}


class TestBoundedStreams:
    """Past an exact head, the alpha = -1 streams run on integers of a fixed
    size per window; every value must still be the exact integers' value."""

    @pytest.mark.parametrize("name", BOUNDED)
    @given(w=st.floats(2.0 ** -30, 80.0), n=st.integers(1, 600))
    # reads that end just past the first window and the second, and a long one
    @example(w=6.6, n=_FIRST_STOP + 1)
    @example(w=0.2, n=2 * _FIRST_STOP + 1)
    @example(w=79.99, n=600)
    @settings(max_examples=60, deadline=None)
    def test_bit_for_bit_the_exact_values(self, name, w, n):
        bounded, _ = BOUNDED[name]
        assert list(islice(bounded(w), n)) == list(islice(bounded(w, exact=True), n))

    @pytest.mark.parametrize("name", BOUNDED)
    @pytest.mark.parametrize("w", [5e-324, 1e-300, 1e-100])
    def test_tiny_arguments(self, name, w):
        # values about w in size are below a window's allowance, so these
        # streams read the exact integers (e > 300 bits a value) past the head
        bounded, _ = BOUNDED[name]
        assert list(islice(bounded(w), 250)) == list(islice(bounded(w, exact=True), 250))

    @pytest.mark.parametrize("name", BOUNDED)
    @pytest.mark.parametrize("guard,w", [(0, 0.2), (0, 6.6), (-40, 0.2), (-40, 6.6), (-40, 40.0)])
    def test_a_value_left_in_doubt_comes_from_the_exact_integers(self, monkeypatch, name, guard, w):
        # with no guard bits the check leaves a value in doubt in the first
        # window at these w, and with -40 every value; the stream then starts
        # its exact form once
        bounded, _ = BOUNDED[name]
        monkeypatch.setattr(vk, "_GUARD_BITS", guard)
        restarts = []

        def counting(w, exact=False):
            restarts.append(exact)
            return bounded(w, exact)

        monkeypatch.setattr(vk, bounded.__name__, counting)
        assert list(islice(bounded(w), 300)) == list(islice(bounded(w, exact=True), 300))
        assert restarts == [True]

    @pytest.mark.parametrize("name", BOUNDED)
    @pytest.mark.parametrize("doubt", [_EXACT_HEAD + 5, _FIRST_STOP, 2 * _FIRST_STOP + 7])
    def test_doubt_inside_a_later_window(self, monkeypatch, name, doubt):
        # a window that reports doubt at a chosen value: in the first window,
        # at the first value of the second, and inside the third
        bounded, window = BOUNDED[name]

        def doubting(p, e, head, first, stop, scale, bits):
            end = min(stop, doubt)
            yield from islice(window(p, e, head, first, stop, scale, bits), end - first)
            return end

        monkeypatch.setattr(vk, window.__name__, doubting)
        w = 6.6
        assert list(islice(bounded(w), 3 * _FIRST_STOP)) == list(islice(bounded(w, exact=True), 3 * _FIRST_STOP))

    def test_precision_stays_bounded(self):
        # a 400-value window at a w with a full 53-bit mantissa keeps under
        # 1000 bits, where the exact N_400 has about 22 500
        w = 6.6
        scale, bits = _window_precision(w, 400)
        assert bits < scale < 1000
        # N_400 = 400! 2^{400e} E_400 at w = p / 2^e, and |E_400| < 1 here
        e = w.as_integer_ratio()[1].bit_length() - 1
        assert math.log2(math.factorial(400)) + 400 * e > 20 * scale
        # and grows linearly with the window
        assert _window_precision(w, 800)[0] < 2 * scale

    @pytest.mark.parametrize("name", BOUNDED)
    @pytest.mark.parametrize("w", [2e6, 2e12, math.inf])
    def test_values_past_float64_raise_the_exact_range_error(self, name, w):
        bounded, _ = BOUNDED[name]
        with pytest.raises(DomainError) as want:
            list(islice(bounded(w, exact=True), 100))
        with pytest.raises(DomainError) as got:
            list(islice(bounded(w), 100))
        assert str(got.value) == str(want.value)
        assert "outside the float64 range" in str(got.value)


class TestIndexBound:
    @pytest.mark.parametrize("k", [sys.maxsize + 1, 10 ** 400])
    def test_k_past_the_largest_index_is_refused(self, k):
        for call in (lambda: vk_coeffs_recurrence(-1.0, k), lambda: vk_coeffs_sum(-1.0, k),
                     lambda: vk_coeffs_closed_m1(k)):
            with pytest.raises(DomainError, match=f"k must be an integer <= {sys.maxsize}, got {k}"):
                call()
