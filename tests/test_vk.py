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
    general_expansion_m7,
    vk_coeffs_closed_m1,
    vk_coeffs_recurrence,
    vk_coeffs_sum,
    vk_eval,
)
from fracbessel import vk
from fracbessel.vk import _m1_values

from exact_m1 import m1_exact, m1_int_indexed


def _rounding_envelope(w: float, k: int) -> float:
    """k^2 rounding units on the scale w e^{w/2} of |E_k|, k >= 1: the bound
    the float stream's error is held to at any w, tiny ones included (the
    rounding of 2k - w costs G_k an absolute, not a relative, error; the
    largest measured error is a quarter of it, at k = 2)."""
    return k * k * 2.0 ** -52 * abs(w) * math.exp(abs(w) / 2)


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


class TestFloatStream:
    """The alpha = -1 stream runs its recurrence in float64; against the exact
    integers it stays inside the Laguerre envelope, is exact where w is tiny,
    and raises their range error at the k where E_k leaves float64."""

    # 0.5 and 40.0 are short mantissas, a dyadic w and an integer
    @pytest.mark.parametrize("w", [0.2, 0.37, 0.5, 1.0, 2.0, 6.6, 34.6, 40.0, 60.0])
    def test_within_the_laguerre_envelope(self, w):
        # E_k = -w L_{k-1}^{(1)}(w) / k, and |L_n^{(1)}(w)| <= (n+1) e^{w/2}
        # (DLMF 18.14.8), so |E_k| <= w e^{w/2}: the float error is measured
        # on that scale, where it stays under 6e-15
        bound = 1e-13 * w * math.exp(w / 2)
        floats = islice(_m1_values(w), 400)
        exact = islice(m1_exact(w), 400)
        for k, (got, want) in enumerate(zip(floats, exact)):
            assert abs(got - want) <= bound, (w, k)

    @given(w=st.floats(2.0 ** -30, 80.0), n=st.integers(1, 600))
    # reads that end past 200 and 400 values, a long one near the top of the
    # workloads' range, and long ones at tiny w
    @example(w=6.6, n=201)
    @example(w=0.2, n=401)
    @example(w=79.99, n=600)
    @example(w=2.0 ** -30, n=600)
    @example(w=2e-10, n=600)
    @settings(max_examples=60, deadline=None)
    def test_close_to_the_exact_values(self, w, n):
        floats = list(islice(_m1_values(w), n))
        exact = list(islice(m1_exact(w), n))
        assert floats[:2] == exact[:2]  # E_0 = 1 and E_1 = -w
        for k in range(2, n):
            assert abs(floats[k] - exact[k]) <= _rounding_envelope(w, k), (w, k)

    @given(w=st.floats(5e-324, 2000.0), n=st.integers(1, 700))
    @example(w=1738.774375885025, n=300)  # raises at E_265
    @settings(max_examples=200, deadline=None)
    def test_bit_for_bit_the_int_indexed_recurrence(self, w, n):
        # the float index k = 1.0, 2.0, ... rounds every step as an int k does
        def read(stream):
            values = []
            try:
                values.extend(repr(value) for value in islice(stream, n))
            except DomainError as err:
                return values, str(err)
            return values, None

        assert read(_m1_values(w)) == read(m1_int_indexed(w))

    @pytest.mark.parametrize("w", [5e-324, 1e-300, 1e-100])
    def test_tiny_arguments_are_exact(self, w):
        # G_k = E_k / (-w) starts from G_1 = 1, so every E_k past E_0 is -w
        # times a value within rounding of 1, as the exact E_k is
        assert list(islice(_m1_values(w), 250)) == list(islice(m1_exact(w), 250))

    @pytest.mark.parametrize("w", [2.0 ** -30, 2e-10])
    def test_values_of_about_w_keep_their_relative_accuracy(self, w):
        # every E_k past E_0 is about -w; the float stream works on G_k of
        # about 1, so its error is a few k^2 rounding units of w (measured:
        # 2.6e-14 w and 3.7e-12 w at k = 599)
        floats = islice(_m1_values(w), 600)
        exact = islice(m1_exact(w), 600)
        for k, (got, want) in enumerate(zip(floats, exact)):
            assert abs(got - want) <= k * k * 2.0 ** -52 * w, (w, k)

    def test_m7_where_w_underflows_to_zero(self, monkeypatch):
        # beta x^alpha = 5e-324 / 4 rounds to 0.0, where every E_k past E_0 is 0
        args = (0.7, 0.5, -1.0, 5e-324, 4.0)
        got = general_expansion_m7(*args)
        monkeypatch.setattr(vk, "_m1_values", m1_exact)
        assert got == general_expansion_m7(*args)

    # E_2 leaves float64 at 1e300, E_311 at 1500 and 1500.3, E_63 at 2e6
    # and 2000000.1, E_28 at 2e12
    @pytest.mark.parametrize("w", [1e300, 1500.0, 1500.3, 2e6, 2000000.1, 2e12])
    def test_values_past_float64_raise_the_exact_range_error(self, w):
        exact = []
        with pytest.raises(DomainError) as want:
            exact.extend(m1_exact(w))
        k = len(exact)
        stream = _m1_values(w)
        assert all(math.isfinite(value) for value in islice(stream, k))
        with pytest.raises(DomainError) as got:
            next(stream)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(f"E_{k} at w={w!r} is outside the float64 range")

    def test_an_infinite_argument_fails_at_e1(self):
        stream = _m1_values(math.inf)
        assert next(stream) == 1.0
        with pytest.raises(DomainError, match=r"^E_1 at w=inf is outside the float64 range"):
            next(stream)


class TestIndexBound:
    @pytest.mark.parametrize("k", [sys.maxsize + 1, 10 ** 400])
    def test_k_past_the_largest_index_is_refused(self, k):
        for call in (lambda: vk_coeffs_recurrence(-1.0, k), lambda: vk_coeffs_sum(-1.0, k),
                     lambda: vk_coeffs_closed_m1(k)):
            with pytest.raises(DomainError, match=f"k must be an integer <= {sys.maxsize}, got {k}"):
                call()
