"""Series evaluators: termination, rearrangement equivalence, honest flags."""

import math
import sys
from itertools import accumulate, count, islice

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import kv

from fracbessel import (
    BoundarySetup,
    DomainError,
    FracBesselError,
    OrderArg,
    SeriesApproximation,
    TruncationPolicy,
    adjudicate_m10,
    general_expansion_m7,
    k_mcdonald,
    k_oracle,
    k_series_m9,
    k_series_m10,
    k_series_rearranged,
    power_rule,
    rl_integral,
)
from fracbessel import series as series_module
from fracbessel import vk
from fracbessel.special import _guarded_exp, _guarded_lgamma
from fracbessel.vk import (
    _closed_m1_row,
    _e_stream,
    _exact_poly,
    _mhalf_values,
    _vk_rows,
)
from fracbessel.truncation import STOP_RATIO, STOP_RUN, sum_with_policy

from exact_m1 import m1_exact

#: Wide-window policy for probing truncation behaviour past the conservative
#: default divergence heuristic (the policy is a public knob).
EXPLORE = TruncationPolicy(max_terms=200, divergence_window=10**6)

#: Any float, with extra weight on moderate magnitudes, where the series and
#: the oracle do their work; ``st.floats()`` alone rarely draws them.
REALS = st.floats() | st.floats(-1e3, 1e3)


def k_half_integer_closed_form(m: int, z: float) -> float:
    """K_{m+1/2}(z) = sqrt(pi/(2z)) e^{-z} sum_{i<=m} (m+i)!/(i!(m-i)!(2z)^i).

    Obtainable by induction from K_{1/2}, K_{3/2} and the standard three-term
    recurrence; validated against the quadrature oracle below before use.
    """
    total = math.fsum(
        math.factorial(m + i) / (math.factorial(i) * math.factorial(m - i) * (2.0 * z) ** i)
        for i in range(m + 1)
    )
    return math.sqrt(math.pi / (2.0 * z)) * math.exp(-z) * total


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("z", [0.1, 0.5, 1.0, 2.0, 5.0, 10.0])
def test_closed_form_oracle_is_itself_valid(m, z):
    assert k_half_integer_closed_form(m, z) == pytest.approx(k_oracle(m + 0.5, z), rel=1e-10)


class TestRearranged:
    @pytest.mark.parametrize(
        "s,z,expected",
        [
            (0.5, 1.0, math.sqrt(math.pi / 2.0) * math.exp(-1.0)),
            (1.5, 2.0, math.sqrt(math.pi / 4.0) * math.exp(-2.0) * 1.5),
            (2.5, 1.0, 7.0 * math.sqrt(math.pi / 2.0) * math.exp(-1.0)),
        ],
    )
    def test_half_integer_values(self, s, z, expected):
        approx = k_series_rearranged(s, z)
        assert approx.value == pytest.approx(expected, rel=1e-12)
        assert approx.converged and not approx.diverging

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("z", [0.1, 1.0, 10.0])
    def test_half_integer_termination_count(self, m, z):
        approx = k_series_rearranged(m + 0.5, z)
        assert approx.terms_used == m + 1
        assert approx.last_term_abs == 0.0  # the omitted tail is identically zero
        assert approx.value == pytest.approx(k_half_integer_closed_form(m, z), rel=1e-12)

    def test_generic_order_against_oracle(self):
        # slow algebraic tail: not converged in 200 terms, but the partial sum
        # already sits within its own truncation estimate of the oracle
        approx = k_series_rearranged(2.6, 1.0, EXPLORE)
        assert approx.converged
        assert approx.value == pytest.approx(k_oracle(2.6, 1.0), rel=1e-11)

    def test_validation(self):
        with pytest.raises(DomainError):
            k_series_rearranged(0.0, 1.0)
        with pytest.raises(DomainError):
            k_series_rearranged(1e-12, 1.0)
        with pytest.raises(DomainError):
            k_series_rearranged(0.5, -1.0)
        with pytest.raises(DomainError):
            k_series_rearranged(math.inf, 1.0)
        with pytest.raises(DomainError):
            k_series_rearranged(0.5, math.nan)


class TestRawM9:
    def test_agrees_with_rearranged_at_equal_term_counts(self):
        pol = TruncationPolicy(max_terms=120, divergence_window=10**6)
        raw = k_series_m9(0.7, 1.3, pol)
        re = k_series_rearranged(0.7, 1.3, pol)
        assert raw.terms_used == re.terms_used == 120
        assert raw.value == pytest.approx(re.value, rel=1e-12)

    @pytest.mark.parametrize("s", [0.25, 0.7, 1.2, 2.6])
    @pytest.mark.parametrize("z", [0.5, 1.0, 2.0])
    def test_equal_cap_grid(self, s, z):
        raw = k_series_m9(s, z, EXPLORE)
        re = k_series_rearranged(s, z, EXPLORE)
        # early convergence stops may differ by a term or two right at the
        # STOP_RATIO threshold; the values must agree regardless
        assert abs(raw.terms_used - re.terms_used) <= 2
        assert raw.value == pytest.approx(re.value, rel=1e-11)

    def test_oracle_agreement_when_converged(self):
        approx = k_series_m9(0.25, 1.0, EXPLORE)
        if approx.converged:
            assert approx.value == pytest.approx(k_oracle(0.25, 1.0), rel=1e-6)

    def test_large_argument_is_summed_not_rejected(self):
        # w = 2z = 36: w^k passes 1e300 near k = 194 and the V_k terms cancel
        # heavily; 200 terms are not enough, 1000 reach K
        approx = k_series_m9(2.3, 18.0, EXPLORE)
        assert math.isfinite(approx.value)
        assert not approx.converged and approx.terms_used == 200
        longer = k_series_m9(2.3, 18.0, _capped(1000))
        assert longer.value == pytest.approx(kv(2.3, 18.0), rel=1e-9)

    def test_half_integer_terminates(self):
        # no Gamma(1/2-s) pole is left in the prefactor: (1/2-s)_k ends the sum
        for m in range(6):
            for z in (0.1, 1.0, 7.0, 25.0):
                approx = k_series_m9(m + 0.5, z)
                assert approx.converged and approx.terms_used == m + 1, (m, z)
                assert approx.value == pytest.approx(kv(m + 0.5, z), rel=1e-14, abs=0.0), (m, z)


def _mp_e(alpha, w, n):
    """E_k(w) = (-1)^k V_k^{(alpha)}(w) / k! for k < n as mpmath numbers, from
    the unscaled coefficient recurrence at the working precision."""
    a, x = mpmath.mpf(alpha), mpmath.mpf(w)
    coeffs = [mpmath.mpf(1)]
    out = []
    for k in range(n):
        out.append((-1) ** k * mpmath.polyval(coeffs[::-1], x) / mpmath.factorial(k))
        coeffs = [
            (a * j - k) * (coeffs[j] if j <= k else 0) - (a * coeffs[j - 1] if j else 0)
            for j in range(k + 2)
        ]
    return out


def _mp_scaled_vk(alpha, w, n):
    """``_mp_e`` at 400 digits, each value rounded to double."""
    with mpmath.workdps(400):
        return [float(e_k) for e_k in _mp_e(alpha, w, n)]


class _StreamRead(Exception):
    """Raised by a stand-in inner stream that must not be read."""


def _unreadable(*args):
    raise _StreamRead


def _then_unreadable(values):
    """A stand-in inner stream: ``values``, then a read that raises."""
    yield from values
    raise _StreamRead


def _pochhammer_products(a, b, inner):
    """(a)_k/(b)_k * inner_k for k = 0, 1, ..., from a running product of the
    test's own, ending after the term where a + k == 0 (every later term
    vanishes): the sum the engine forms from (a, b, inner)."""
    ratio = 1.0
    for k, value in enumerate(inner):
        yield ratio * value
        if a + k == 0.0:
            return
        ratio *= (a + k) / (b + k)


def _over_the_exact_stream(evaluate, s, z, policy):
    """``evaluate(s, z, policy)`` with its alpha = -1 inner stream read from
    exact integers throughout."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vk, "_m1_values", m1_exact)
        return evaluate(s, z, policy)


def _assert_sums_the_closed_form_rows(evaluate, pref, s, z, policy):
    """``evaluate(s, z, policy)`` over the exact alpha = -1 stream equals,
    bit for bit, the sum over the alpha = -1 closed-form rows at -2z under
    the prefactor ``pref``, with the Pochhammer ratio formed here rather
    than by the engine."""
    rows = _e_stream(map(_closed_m1_row, count()), 1, -2.0 * z)
    want = sum_with_policy(_pochhammer_products(0.5 - s, 0.5 + s, rows), policy, scale=pref)
    assert _over_the_exact_stream(evaluate, s, z, policy) == want


class TestAlphaMinusOnePaths:
    """The rearranged form and M9 sum one inner stream, the alpha = -1
    recurrence in k at 2z, and neither reads the closed-form rows they are
    both checked against; over the exact stream both are, bit for bit, the
    sum over those rows."""

    def test_all_three_read_the_fixed_argument_recurrence(self, monkeypatch):
        monkeypatch.setattr("fracbessel.vk._m1_values", _unreadable)
        for evaluate in (k_series_rearranged, k_mcdonald, k_series_m9):
            with pytest.raises(_StreamRead):
                evaluate(2.5, 1.3)

    def test_neither_reads_the_closed_form_rows(self, monkeypatch):
        assert not hasattr(series_module, "_closed_m1_row")
        monkeypatch.setattr("fracbessel.vk._closed_m1_row", _unreadable)
        assert k_series_rearranged(2.5, 1.3).converged
        assert k_mcdonald(2.5, 1.3).converged
        assert k_series_m9(2.5, 1.3).converged

    @pytest.mark.parametrize("policy", [TruncationPolicy(), EXPLORE], ids=["default", "wide"])
    @pytest.mark.parametrize("s", [0.3, 1.3, 2.5, 4.9])
    @pytest.mark.parametrize("z", [0.1, 1.0, 3.3, 20.0])
    def test_rearranged_is_bit_identical_to_the_closed_form_rows(self, s, z, policy):
        pref = _guarded_exp((s - 1.0) * math.log(2.0) + _guarded_lgamma(s) - s * math.log(z) - z)
        _assert_sums_the_closed_form_rows(k_series_rearranged, pref, s, z, policy)

    @pytest.mark.parametrize("policy", [TruncationPolicy(), EXPLORE], ids=["default", "wide"])
    @pytest.mark.parametrize("s", [0.3, 1.3, 2.5, 4.9])
    @pytest.mark.parametrize("z", [0.1, 1.0, 3.3, 20.0])
    def test_m9_is_bit_identical_to_the_closed_form_rows(self, s, z, policy):
        pref = _guarded_exp(
            0.5 * math.log(math.pi) - s * math.log(2.0 * z) - z
            + _guarded_lgamma(2.0 * s) - _guarded_lgamma(0.5 + s)
        )
        _assert_sums_the_closed_form_rows(k_series_m9, pref, s, z, policy)

    @pytest.mark.parametrize("evaluate", [k_mcdonald, k_series_m9])
    @pytest.mark.parametrize("z,k", [(1e6, 63), (1000000.05, 63), (1e12, 28)])
    def test_a_value_past_float64_is_the_exact_streams_range_error(self, evaluate, z, k):
        # E_63 and E_28 overflow in float64, where the exact values do
        w = 2.0 * z
        with pytest.raises(DomainError) as want:
            list(m1_exact(w))
        message = f"E_{k} at w={w!r} is outside the float64 range (largest finite double ~1.8e308)"
        assert str(want.value) == message
        with pytest.raises(DomainError) as got:
            evaluate(1.3, z, EXPLORE)
        assert str(got.value) == message


def _record_choices(monkeypatch) -> list:
    """Route every choice of inner stream through a wrapper that records
    its (alpha, w)."""
    calls = []
    choose = vk._e_values

    def recording(alpha, w):
        calls.append((alpha, w))
        return choose(alpha, w)

    monkeypatch.setattr(vk, "_e_values", recording)
    return calls


class TestStreamChoice:
    """Every evaluator takes its E_k from ``vk._e_values`` at its own
    (alpha, w): the K series at alpha = -1 and w = 2z, or alpha = -1/2 and
    w = z; M7 at its alpha and w = beta x^alpha."""

    @pytest.mark.parametrize(
        "evaluate,alpha,w",
        [
            (k_series_rearranged, -1.0, 2.0 * 1.3),
            (k_mcdonald, -1.0, 2.0 * 1.3),
            (k_series_m9, -1.0, 2.0 * 1.3),
            (k_series_m10, -0.5, 1.3),
        ],
    )
    def test_each_k_series_reads_its_alpha_at_its_argument(self, monkeypatch, evaluate, alpha, w):
        calls = _record_choices(monkeypatch)
        assert evaluate(2.5, 1.3).converged
        assert calls == [(alpha, w)]

    @pytest.mark.parametrize("alpha", [-1.0, -0.5, 1.0 / 3.0])
    def test_m7_reads_its_alpha_at_beta_x_to_the_alpha(self, monkeypatch, alpha):
        calls = _record_choices(monkeypatch)
        assert general_expansion_m7(2.0, 0.5, alpha, 1.5, 2.0).converged
        assert calls == [(alpha, 1.5 * 2.0 ** alpha)]


#: Generic orders across (0.05, 4.95] and the first ten half-integers,
#: against log-spaced arguments from 0.1 to 20.
K_ORDERS = [0.05 + i * 4.9 / 13 for i in range(14)] + [m + 0.5 for m in range(10)]
K_ARGS = [float(z) for z in np.geomspace(0.1, 20.0, 12)]


class TestKAgainstMpmath:
    """The float64 alpha = -1 stream costs K no accuracy: the rearranged form
    and M9 stop where the same sums over the exact stream stop, and every
    value they report converged or terminated is as close to K.  (In the
    small-z corner ``k_mcdonald`` reads no stream, so the rearranged form is
    checked by name.)"""

    @pytest.mark.parametrize("s", K_ORDERS)
    def test_as_accurate_as_the_exact_stream(self, s):
        for z in K_ARGS:
            with mpmath.workdps(40):
                k = float(mpmath.besselk(s, z))
            for evaluate in (k_series_rearranged, k_series_m9):
                got = evaluate(s, z)
                want = _over_the_exact_stream(evaluate, s, z, TruncationPolicy())
                assert (got.stop_reason, got.terms_used) == (want.stop_reason, want.terms_used), (z, evaluate)
                if got.stop_reason in ("converged", "terminated"):
                    err = abs(got.value - k)
                    assert err <= abs(want.value - k) + 1e-15 * k, (z, evaluate)
                    assert err <= 1e-12 * k, (z, evaluate)


#: The two sums whose terms read the alpha = -1 stream at w = 2z, with the
#: form whose prefactor each applies.
OVER_M1 = {k_series_rearranged: series_module._REARRANGED, k_series_m9: series_module._M9}

#: At s = 0.3 the ratio (1/2-s)_k/(1/2+s)_k decays like k^-0.6, so a sum at a
#: z of order one reads its whole budget of inner values.
SLOW_S = 0.3


def _float_stream_allowance(evaluate, s, z, n):
    """What the float stream may move the first n terms' sum by: each E_k,
    k >= 1, by k^2 rounding units of w e^{w/2} (``test_vk``'s envelope), and
    each of the two sums' roundings by n units of its largest term."""
    w = 2.0 * z
    scale = w * math.exp(w / 2)
    pref = math.exp(OVER_M1[evaluate].log_prefactor(s, z))
    ratios = islice(accumulate(range(n - 1), lambda r, k: r * (0.5 - s + k) / (0.5 + s + k), initial=1.0), n)
    weights = (abs(r) * (k * k * scale + 2 * n * max(1.0, scale)) for k, r in enumerate(ratios))
    return 2.0 ** -52 * pref * sum(weights)


def _assert_sums_the_float_stream_closely(evaluate, s, z, policy):
    """``evaluate`` stops where its sum over the exact stream stops, within
    ``_float_stream_allowance`` of that sum's value."""
    got = evaluate(s, z, policy)
    want = _over_the_exact_stream(evaluate, s, z, policy)
    assert (got.stop_reason, got.terms_used) == (want.stop_reason, want.terms_used)
    assert abs(got.value - want.value) <= _float_stream_allowance(evaluate, s, z, want.terms_used)


class TestFloatStreamInTheSeries:
    """The rearranged form and M9 sum the float64 stream's values: under any
    budget they stop where the sums over the exact integers stop, and their
    values move by no more than the stream's error allows."""

    @pytest.mark.parametrize("evaluate", OVER_M1)
    @given(s=st.floats(0.05, 4.9), z=st.floats(2.0 ** -31, 40.0), n=st.integers(1, 450))
    # sums that read past 200 and 400 values, one at the top of the range,
    # and one at a z whose values of about -2z carry k^2 rounding units
    @example(s=SLOW_S, z=3.3, n=201)
    @example(s=SLOW_S, z=0.1, n=401)
    @example(s=2.0925702859470876, z=33.339084799923434, n=294)
    @example(s=SLOW_S, z=2.0 ** -31, n=250)
    @settings(max_examples=20, deadline=None)
    def test_stops_where_the_sum_over_the_exact_values_stops(self, evaluate, s, z, n):
        _assert_sums_the_float_stream_closely(evaluate, s, z, _capped(n))

    @pytest.mark.parametrize("evaluate", OVER_M1)
    @pytest.mark.parametrize("z", [5e-324, 1e-300, 1e-100])
    def test_tiny_arguments_sum_the_exact_values(self, evaluate, z):
        # every E_k past E_0 is -2z times a G_k that rounds as the exact one
        policy = _capped(250)
        assert evaluate(SLOW_S, z, policy) == _over_the_exact_stream(evaluate, SLOW_S, z, policy)

    @pytest.mark.parametrize("evaluate", OVER_M1)
    @pytest.mark.parametrize("z", [0.25, 20.0])
    def test_long_sums_at_short_mantissas(self, evaluate, z):
        # w = 0.5 and 40.0, a dyadic w and an integer, over 401 terms
        policy = _capped(401)
        _assert_sums_the_float_stream_closely(evaluate, SLOW_S, z, policy)
        assert evaluate(SLOW_S, z, policy).terms_used == 401


#: The fixed-argument integer recurrences in k: at alpha = -1 the tests'
#: reference for the float64 stream the rearranged form and M9 read (checked
#: on K above), at alpha = -1/2 M10's own stream.
_FIXED_W = {-1.0: (m1_exact,), -0.5: (_mhalf_values,)}


class TestVkStream:
    @pytest.mark.parametrize("alpha", [-1.0, -0.5, 1.0 / 3.0])
    def test_correctly_rounded(self, alpha):
        for w in (0.74, 6.6, 35.8):
            want = _mp_scaled_vk(alpha, w, 120)
            stream = _e_stream(_vk_rows(alpha), alpha.as_integer_ratio()[1], w)
            assert list(islice(stream, 120)) == want, w
            for fixed_w in _FIXED_W.get(alpha, ()):
                assert list(islice(fixed_w(w), 120)) == want, (fixed_w.__name__, w)

    def test_alpha_minus_one_is_the_inner_binomial_sum(self):
        # three constructions of one polynomial value: the recurrence rows
        # are the closed-form rows with signs (-1)^j, so E_k(2z) = S_k(z),
        # and the recurrence in k at fixed w = 2z gives the same doubles
        for k, row in zip(range(151), _vk_rows(-1.0)):
            closed = _closed_m1_row(k)
            assert row == [-c if (k - i) % 2 else c for i, c in enumerate(closed)], k
        for z in (0.37, 1.0, 3.3, 8.0, 17.9, 29.5):
            by_recurrence = _e_stream(_vk_rows(-1.0), 1, 2.0 * z)
            by_closed_form = _e_stream(map(_closed_m1_row, count()), 1, -2.0 * z)
            by_fixed_w = m1_exact(2.0 * z)
            for k in range(151):
                assert next(by_recurrence) == next(by_closed_form) == next(by_fixed_w), (z, k)

    @pytest.mark.parametrize("alpha,q", [(-1.0, 1), (-0.5, 2)])
    def test_fixed_argument_stream_is_the_coefficient_rows(self, alpha, q):
        # w with a 53-bit mantissa, a tiny w and a large one, at the
        # arguments the alpha = -1 streams (2z) and M10 (z) use
        rows = list(islice(_vk_rows(alpha), 301))
        for z in (0.123456789, 1e-5, 123.4):
            w = 2.0 * z if alpha == -1.0 else z
            want = list(_e_stream(rows, q, w))
            if alpha == -1.0:
                closed = _e_stream(map(_closed_m1_row, count()), 1, -w)
                assert list(islice(closed, 301)) == want, z
            for fixed_w in _FIXED_W[alpha]:
                assert list(islice(fixed_w(w), 301)) == want, (fixed_w.__name__, z)

    @pytest.mark.parametrize("z", [3.3, 20.0])
    def test_alpha_minus_one_streams_at_large_k(self, z):
        # k = 1000, far past the rows checked above: the largest term of the
        # inner sum is ~1e66 (z = 3.3) and ~1e155 (z = 20) times the value
        want = _exact_poly(_closed_m1_row(1000), math.factorial(1000), -2.0 * z)
        for fixed_w in _FIXED_W[-1.0]:
            assert next(islice(fixed_w(2.0 * z), 1000, None)) == want, fixed_w.__name__


class TestM10:
    def test_half_integer_regularized_k0(self):
        approx = k_series_m10(0.5, 1.0)
        assert approx.value == pytest.approx(math.sqrt(math.pi / 2.0) * math.exp(-1.0), rel=1e-12)
        assert approx.terms_used == 1

    def test_terminating_value_recorded_not_asserted(self):
        # s = 3/2 terminates after two outer terms; whether it matches the
        # oracle is the adjudicator's question, not this test's
        approx = k_series_m10(1.5, 2.0)
        assert approx.converged
        assert approx.terms_used == 2
        assert math.isfinite(approx.value)


class TestKMcdonald:
    def test_symmetry_reduction(self):
        neg = k_mcdonald(-0.5, 1.0)
        pos = k_mcdonald(0.5, 1.0)
        assert neg.value == pos.value

    def test_terminating_high_order(self):
        approx = k_mcdonald(3.5, 5.0)
        assert approx.converged
        assert approx.value == pytest.approx(k_oracle(3.5, 5.0), rel=1e-9)

    def test_zero_order_rejected(self):
        with pytest.raises(DomainError):
            k_mcdonald(0.0, 1.0)

    @pytest.mark.parametrize(
        "s,z", [(math.inf, 1.0), (-math.inf, 1.0), (math.nan, 1.0), (1.3, math.nan), (1.3, math.inf)]
    )
    def test_non_finite_input_rejected(self, s, z):
        for evaluate in (k_mcdonald, k_series_m9, k_series_m10):
            with pytest.raises(DomainError, match=r"^(order|argument)"):
                evaluate(s, z)

    @pytest.mark.parametrize(
        "evaluate,args",
        [
            (k_mcdonald, (2.5, 1e-200)),
            (k_mcdonald, (200.5, 1.0)),
            (k_series_m9, (2.7, 1e-200)),
            (k_series_m10, (2.7, 1e-200)),
            (general_expansion_m7, (5.0, 0.5, 1.0, 1.0, 1e-100)),
            (k_mcdonald, (2.5, 1e200)),  # the inner sum S_2 overflows
            (general_expansion_m7, (0.5, 1.0, -1.0, 1.0, 1e-320)),  # x^alpha overflows
            (k_series_m9, (2.5, 1e200)),  # E_2 of each fixed-w recurrence overflows
            (k_series_m10, (2.5, 1e200)),
            (k_series_m9, (2.5, 1e308)),  # w = 2z is inf
            (k_mcdonald, (3e305, 1.0)),  # lgamma(s) overflows
            (k_series_m9, (2.6e305, 1.0)),  # lgamma(2s) overflows
            (k_series_m10, (2.552435777557833e305, 1.0)),  # the log prefactor sums to inf
        ],
    )
    def test_overflowing_prefactor_is_a_domain_error(self, evaluate, args):
        with pytest.raises(DomainError, match="float64 range"):
            evaluate(*args)

    def test_more_terms_do_not_lose_accuracy(self):
        # the inner sums are exact, so a longer tail can only move closer to K;
        # k_mcdonald answers (1.3, 1) by Temme's series, which ends long before
        # either budget, so the sum it keeps outside the corner is checked
        ref = kv(1.3, 1.0)
        errors = [
            abs(k_series_rearranged(1.3, 1.0, _capped(n)).value - ref) / ref for n in (200, 1000)
        ]
        assert errors[1] <= errors[0]

    def test_divergence_heuristic_returns_the_partial_sum(self):
        # large z: term magnitudes climb through the initial hump, which the
        # conservative default window flags; the flagged partial sum is the result
        approx = k_mcdonald(0.7, 40.0)
        assert approx.stop_reason == "diverging" and approx.terms_used == 6
        assert approx.diverging and not approx.converged
        assert math.isfinite(approx.value)


#: The corner that ``k_mcdonald`` sums by Temme's series: orders across
#: (0, 5], next to 0, 1/2 and the integers, against arguments up to its edge.
CORNER_ORDERS = [1e-10, 1e-6, 0.05, 0.3, 0.5 - 1e-10, 0.5 + 1e-10, 0.999999999, 1.0, 1.000000001,
                 2.0, 2.3, 3.0, 3.7, 4.0, 4.95, 5.0]
CORNER_ARGS = [1e-20, 1e-8, 1e-3, 0.1, 0.5, 1.0, 1.5, 1.99, 2.0]
#: Arguments below 1e-20, down to the smallest subnormal, where K_s leaves
#: float64 at every order but the smallest.
TINY_ARGS = [1e-50, 1e-100, 1e-200, 2.7e-295, 1e-310, 5e-324]

#: Points ``k_mcdonald`` leaves to the rearranged form: half-integers inside
#: the corner, orders past 5 or next to 0, arguments past 2, and inputs that
#: are rejected or leave float64.
OUTSIDE_THE_CORNER = [
    (0.5, 0.1), (2.5, 1.0), (-1.5, 0.3), (4.5, 2.0), (2.5, 1e-200),
    (5.000000000000001, 1.0), (7.3, 0.5), (200.5, 1.0),
    (1.3, 2.0000000000000004), (2.6, 2.5), (0.7, 40.0), (3.3, 20.0),
    (0.0, 1.0), (5e-11, 1.0), (1.3, 0.0), (1.3, -1.0),
    (math.nan, 1.0), (1.3, math.nan), (math.inf, 1.0), (1.3, math.inf),
]


def _rel_to_mpmath(value, s, z):
    """|value - K_s(z)| / K_s(z) against 40-digit mpmath."""
    with mpmath.workdps(40):
        k = mpmath.besselk(s, z)
        return float(abs(mpmath.mpf(value) - k) / k)


def _outcome(evaluate, *args):
    """What ``evaluate(*args)`` returns, or the type and message it raises."""
    try:
        return evaluate(*args)
    except FracBesselError as exc:
        return type(exc), str(exc)


class TestTemmeCorner:
    """At 0 < z <= 2 and orders up to 5 that are not half-integers,
    ``k_mcdonald`` sums Temme's series and reads no inner stream; everywhere
    else it is the rearranged form, bit for bit."""

    @pytest.mark.parametrize("s", CORNER_ORDERS)
    def test_converged_within_1e_14_of_mpmath(self, s):
        for z in CORNER_ARGS:
            approx = k_mcdonald(s, z)
            assert approx.stop_reason == "converged" and approx.terms_used <= 15, z
            assert approx.last_term_abs <= STOP_RATIO * abs(approx.value), z
            assert _rel_to_mpmath(approx.value, s, z) <= 1e-14, z

    @pytest.mark.parametrize("s", CORNER_ORDERS)
    def test_below_1e_20_in_range_or_the_range_error(self, s):
        for z in TINY_ARGS:
            with mpmath.workdps(40):
                inside = mpmath.besselk(s, z) < sys.float_info.max
            if inside:
                assert _rel_to_mpmath(k_mcdonald(s, z).value, s, z) <= 1e-13, z
            else:
                with pytest.raises(DomainError, match="float64 range"):
                    k_mcdonald(s, z)

    def test_the_smallest_subnormal_argument(self):
        # ln(z/2) is ln 0 there: the series forms ln(2/z) as ln 2 - ln z
        with pytest.raises(DomainError, match="float64 range"):
            k_mcdonald(1.3, 5e-324)
        assert _rel_to_mpmath(k_mcdonald(0.3, 5e-324).value, 0.3, 5e-324) <= 1e-13

    def test_no_inner_stream_is_read(self, monkeypatch):
        monkeypatch.setattr(vk, "_m1_values", _unreadable)
        for s in CORNER_ORDERS:
            for z in CORNER_ARGS:
                assert k_mcdonald(s, z).converged, (s, z)
                assert k_mcdonald(-s, z) == k_mcdonald(s, z), (s, z)

    @pytest.mark.parametrize("policy", [TruncationPolicy(), EXPLORE, TruncationPolicy(max_terms=3)],
                             ids=["default", "wide", "three"])
    @pytest.mark.parametrize("s,z", OUTSIDE_THE_CORNER)
    def test_outside_it_is_the_rearranged_form(self, s, z, policy):
        assert _outcome(k_mcdonald, s, z, policy) == _outcome(k_series_rearranged, abs(s), z, policy)

    @pytest.mark.parametrize("z", [0.1, 1.0, 2.0])
    def test_a_short_budget_is_budget(self, z):
        approx = k_mcdonald(1.3, z, TruncationPolicy(max_terms=3))
        assert approx.stop_reason == "budget" and approx.terms_used <= 3
        assert math.isfinite(approx.value)

    def test_a_first_term_of_zero_divides_nothing(self):
        # at z = 2 exp(-gamma) ln(2/z) rounds to gamma, and K_0's first term is 0.0
        for s in (1e-10, 1.0):
            approx = k_mcdonald(s, 1.1229189671337703, TruncationPolicy(max_terms=1))
            assert approx.stop_reason == "budget" and approx.terms_used == 1
            assert math.isfinite(approx.last_term_abs)

    @given(
        s=st.floats(series_module.ZERO_ORDER_TOL, series_module.CORNER_MAX_ORDER),
        z=st.floats(0.0, series_module.CORNER_MAX_Z, exclude_min=True),
        n=st.integers(1, 20),
        window=st.integers(1, 5),
    )
    @settings(max_examples=200, deadline=None)
    def test_never_diverging_and_inside_the_budget(self, s, z, n, window):
        assume(s % 1.0 != 0.5)  # half-integers are the rearranged form's
        try:
            approx = k_mcdonald(s, z, TruncationPolicy(max_terms=n, divergence_window=window))
        except DomainError as exc:
            assert "float64 range" in str(exc)
            return
        assert approx.terms_used <= n and math.isfinite(approx.value)
        assert approx.last_term_abs >= 0.0
        assert approx.stop_reason in ("converged", "budget")
        assert approx.stop_reason == "converged" or approx.terms_used == n
        if approx.converged:
            assert approx.last_term_abs <= STOP_RATIO * abs(approx.value)

    def test_the_reciprocal_gamma_coefficients_are_mpmaths(self):
        # g_j = c_{j+1} of 1/Gamma(x) = sum_k c_k x^k, rounded from 40 digits, bit
        # for bit: c_1 = 1, c_2 = gamma, and for k >= 3 (DLMF 5.7.2)
        # (k-1) c_k = gamma c_{k-1} - zeta(2) c_{k-2} + ... + (-1)^k zeta(k-1) c_1
        with mpmath.workdps(40):
            c = [None, mpmath.mpf(1), +mpmath.euler]
            for k in range(3, 26):
                acc = mpmath.euler * c[k - 1]
                acc += mpmath.fsum((-1) ** (j + 1) * mpmath.zeta(j) * c[k - j] for j in range(2, k))
                c.append(acc / (k - 1))
            want = [float(c_k) for c_k in c[1:]]
        got = [g for pair in reversed(series_module._RGAMMA_PAIRS) for g in pair]
        assert got == want[: len(got)]
        # the ones left out weigh less than 1e-20 at |x| = 1/2
        assert max(abs(g) * 0.5 ** j for j, g in enumerate(want) if j >= len(got)) < 1e-20


class TestGeneralExpansion:
    def test_integer_order_is_classical(self):
        # d/dx [x^2 e^{-x}] at x = 1 equals e^{-1}; the Pochhammer chain
        # terminates after two terms
        approx = general_expansion_m7(1.0, 2.0, 1.0, 1.0, 1.0)
        assert approx.value == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert approx.converged
        assert approx.terms_used == 2

    def test_small_beta_reduces_to_power_rule(self):
        s, nu = -0.4, 1.2
        for x in (0.7, 1.0):
            approx = general_expansion_m7(s, nu, -1.0, 1e-8, x)
            ref = power_rule(s, nu, BoundarySetup(0.0, x))
            assert approx.value == pytest.approx(ref, rel=1e-6)

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
    def test_against_quadrature(self, x):
        s, nu, alpha, beta = -0.4, 1.2, -1.0, 1.0

        def f(t):
            if t <= 0.0:
                return 0.0
            e = nu * math.log(t) - beta / t
            return math.exp(e) if e > -700.0 else 0.0

        ref = rl_integral(f, s, BoundarySetup(0.0, x))
        # the tail oscillates slowly around the limit: 60 terms are enough to
        # land within 1e-5, though not at every truncation point
        best = min(
            abs(general_expansion_m7(s, nu, alpha, beta, x, _capped(k)).value - ref)
            for k in range(1, 61)
        )
        assert best <= 1e-5 * abs(ref)

    def test_leading_gamma_zeros_do_not_fake_convergence(self):
        # s - nu = 3 makes the first three terms reciprocal-gamma zeros; the
        # sum must push past them instead of declaring convergence at 0
        from fracbessel import rl_derivative

        approx = general_expansion_m7(3.5, 0.5, -1.0, 1.0, 1.0, _capped(120))
        assert approx.value != 0.0

        def f(t):
            if t <= 0.0:
                return 0.0
            e = 0.5 * math.log(t) - 1.0 / t
            return math.exp(e) if e > -700.0 else 0.0

        ref = rl_derivative(f, 3.5, BoundarySetup(0.0, 1.0))
        assert approx.value == pytest.approx(ref, rel=1e-3)  # n=4 stencil limited

    @pytest.mark.parametrize("s,nu", [(1.5, 0.5), (2.5, 0.5), (3.25, 0.25), (4.0, 0.0)])
    def test_reciprocal_gamma_zeros(self, s, nu):
        # nu + 1 - s = 0, -1, -2, -3: the first terms are reciprocal-gamma
        # zeros and 1/Gamma(nu + 1 - s) cannot go into the prefactor
        alpha, beta, x = -1.0, 1.0, 1.3
        approx = general_expansion_m7(s, nu, alpha, beta, x, _capped(60))
        with mpmath.workdps(50):
            w = mpmath.mpf(beta) * mpmath.mpf(x) ** alpha
            terms = [
                mpmath.rf(-s, k) * mpmath.rgamma(k - s + nu + 1) * e_k
                for k, e_k in enumerate(_mp_e(alpha, w, approx.terms_used))
            ]
            ref = x ** (nu - s) * mpmath.gamma(nu + 1) * mpmath.exp(-w) * mpmath.fsum(terms)
        assert approx.value == pytest.approx(float(ref), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("s,nu", [(0.0, -1 + 1e-13), (1.0, -1 + 1e-10)])
    def test_next_to_a_reciprocal_gamma_pole(self, s, nu):
        # b = nu + 1 - s lies within POLE_TOL of 0 or -1 but not on it, so
        # 1/Gamma(b) is small, not zero, and the leading term stays.  At
        # integer s the classical derivative of x^nu e^{-w}, w = 1/x:
        # x^nu e^{-w} at s = 0 and x^{nu-1} e^{-w} (nu + w) at s = 1
        x = 1.3
        w = 1.0 / x
        approx = general_expansion_m7(s, nu, -1.0, 1.0, x)
        ref = x ** nu * math.exp(-w) if s == 0.0 else x ** (nu - 1.0) * math.exp(-w) * (nu + w)
        assert approx.converged
        assert approx.value == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_more_reciprocal_gamma_zeros_than_any_budget(self):
        # b = nu + 1 - s = -(2^63 + ...): more leading zeros than sys.maxsize,
        # all of them inside any term budget
        approx = general_expansion_m7(9.223372036856873e18, 2097151.0, 1.0, 1.0, 1.4e19, _capped(60))
        assert approx.value == 0.0
        assert approx.terms_used == 60
        assert not approx.converged and not approx.diverging

    def test_validation(self):
        with pytest.raises(DomainError):
            general_expansion_m7(0.5, -1.0, -1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            general_expansion_m7(0.5, 1.0, 0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            general_expansion_m7(0.5, 1.0, -1.0, -1.0, 1.0)
        with pytest.raises(DomainError):
            general_expansion_m7(math.nan, 1.0, -1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            general_expansion_m7(0.5, 1.0, math.nan, 1.0, 1.0)
        with pytest.raises(DomainError):
            general_expansion_m7(0.5, 1.0, math.inf, 1.0, 1.0)
        with pytest.raises(DomainError):
            general_expansion_m7(0.5, 1.0, -1.0, 1.0, math.inf)


def _capped(n):
    return TruncationPolicy(max_terms=n, divergence_window=10**6)


def _reference_stop(terms, max_terms, window):
    """(stop_reason, terms_used) of the documented stop rule, decided afresh
    on each prefix of ``terms`` instead of from running counters."""
    sums = list(accumulate(terms, initial=0.0))[1:]
    mags = [abs(t) for t in terms]
    for n in range(1, len(terms) + 1):
        # a term whose partial sum is zero is no evidence either way
        evidence = [mags[i] <= STOP_RATIO * abs(sums[i]) for i in range(n) if sums[i] != 0.0]
        if len(evidence) >= STOP_RUN and all(evidence[-STOP_RUN:]):
            return "converged", n
        if n > window and all(mags[i] > mags[i - 1] for i in range(n - window, n)):
            return "diverging", n
        if n >= max_terms:
            return "budget", n
    return "terminated", len(terms)


#: Finite terms that make every stop likely: zeros and negligible terms for
#: a convergence run, doublings for a divergence streak.
TERM_LISTS = st.lists(
    st.sampled_from([0.0, 1e-20, -1e-20, 1.0, -1.0, 2.0, 4.0, 8.0]) | st.floats(-1e3, 1e3), max_size=20
)


class TestTruncationEngine:
    def test_convergence_needs_consecutive_small_terms(self):
        terms = iter([1.0, 0.5, 1e-20, 0.5, 1e-20, 1e-20, 1e-20, 0.4])
        approx = sum_with_policy(terms, TruncationPolicy(max_terms=50))
        assert approx.converged
        assert approx.terms_used == 7  # stops inside the zero run

    def test_zero_partial_sum_is_neutral(self):
        # structurally zero leading terms carry no convergence evidence
        terms = iter([0.0, 0.0, 0.0, 0.0, 5.0, 1.0, 0.2])
        approx = sum_with_policy(terms, TruncationPolicy(max_terms=7))
        assert not approx.converged
        assert approx.value == pytest.approx(6.2)

    def test_divergence_window(self):
        growing = iter([1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0])
        approx = sum_with_policy(growing, TruncationPolicy(divergence_window=5, max_terms=50))
        assert approx.diverging and not approx.converged
        assert approx.terms_used == 6  # five strict increases past the first term

    def test_budget_exhaustion_sets_no_flags(self):
        approx = sum_with_policy((0.9 ** k for k in range(10**6)), TruncationPolicy(max_terms=30))
        assert not approx.converged and not approx.diverging
        assert approx.terms_used == 30

    def test_structural_termination(self):
        approx = sum_with_policy(iter([1.0, 2.0, 3.0]), TruncationPolicy(max_terms=50))
        assert approx.converged
        assert approx.last_term_abs == 0.0
        assert approx.value == 6.0

    def test_scale_applies_to_value_and_last_term(self):
        approx = sum_with_policy((0.5 ** k for k in range(10**6)), TruncationPolicy(max_terms=10), scale=-2.0)
        assert approx.value == pytest.approx(-2.0 * (2.0 - 0.5 ** 9 / 0.5 * 0.5), rel=1e-12)
        assert approx.last_term_abs == pytest.approx(2.0 * 0.5 ** 9, rel=1e-12)

    def test_policy_validation(self):
        with pytest.raises(DomainError):
            TruncationPolicy(max_terms=0)
        # a NaN cap never trips: 10^6 growing terms came back flagged converged
        with pytest.raises(DomainError):
            TruncationPolicy(max_terms=math.nan)
        with pytest.raises(DomainError):
            TruncationPolicy(divergence_window=math.nan)
        # an infinite budget never stops a convergent-looking slow sum
        for bad in (math.inf, 2.5):
            with pytest.raises(DomainError, match="integer"):
                TruncationPolicy(max_terms=bad)
            with pytest.raises(DomainError, match="integer"):
                TruncationPolicy(divergence_window=bad)

    def test_opposite_infinities_raise(self):
        # math.fsum raises a raw ValueError on inf + -inf
        with pytest.raises(DomainError, match="float64 range"):
            sum_with_policy(iter([math.inf, -math.inf]), TruncationPolicy(max_terms=5))
        with pytest.raises(DomainError, match="float64 range"):
            general_expansion_m7(9007199254740632.0, 9007199254740631.0, 1.1125369292536007e-308,
                                 3.218884834580098e+17, 1.0, _capped(60))

    def test_stream_ending_at_the_budget_reads_as_budget(self):
        # no term past max_terms is evaluated, so the end of the stream is not seen
        approx = sum_with_policy(iter([1.0, 2.0, 3.0]), TruncationPolicy(max_terms=3))
        assert approx.stop_reason == "budget"
        assert not approx.converged and not approx.diverging
        assert approx.last_term_abs == 3.0
        approx = k_series_rearranged(2.5, 1.0, TruncationPolicy(max_terms=3))
        assert approx.terms_used == 3 and not approx.converged
        assert k_series_rearranged(2.5, 1.0, TruncationPolicy(max_terms=4)).converged

    def test_the_result_stores_one_stop_reason(self):
        # converged and diverging are read from it, not stored beside it
        assert list(SeriesApproximation._fields) == [
            "value", "terms_used", "last_term_abs", "stop_reason"]

    @pytest.mark.parametrize("name", SeriesApproximation._fields)
    def test_the_result_is_immutable(self, name):
        approx = k_series_rearranged(2.5, 1.0)
        with pytest.raises(AttributeError):
            setattr(approx, name, 0)

    @pytest.mark.parametrize("values, policy, a, b, reason", [
        ([1.0, 1.0, 1.0], TruncationPolicy(50), -2.0, 0.5, "terminated"),
        ([1.0, 1e-20, 1e-20, 1e-20], TruncationPolicy(50), 0.5, 1.5, "converged"),
        ([1.0, 4.0, 16.0, 64.0, 256.0, 1024.0], TruncationPolicy(50, 5), 0.5, 1.5, "diverging"),
        # the ratio of term 4, (a + 3)/(b + 3), would divide by zero
        ([1.0] * 4, TruncationPolicy(4), 0.5, -3.0, "budget"),
    ])
    def test_nothing_past_the_stop_is_read_or_formed(self, values, policy, a, b, reason):
        approx = sum_with_policy(_then_unreadable(values), policy, a=a, b=b)
        assert (approx.stop_reason, approx.terms_used) == (reason, len(values))

    @given(terms=TERM_LISTS, max_terms=st.integers(1, 25), window=st.integers(1, 8),
           scale=st.floats(-1e3, 1e3),
           a=st.sampled_from([1.0, 0.0, -2.0, -0.5, 0.5, -7.0]) | st.floats(-10, 10),
           b=st.sampled_from([1.0, 0.5, 2.5, -2.5]) | st.floats(0.01, 50),
           zeros=st.integers(0, 6))
    @example(terms=[1.0, 2.0, 0.5], max_terms=5, window=5, scale=2.0, a=1.0, b=1.0, zeros=0)  # terminated
    @example(terms=[], max_terms=5, window=5, scale=2.0, a=1.0, b=1.0, zeros=0)  # terminated, empty
    @example(terms=[1.0, 1e-20, 0.0, -1e-20, 3.0], max_terms=9, window=5, scale=-1.0,
             a=1.0, b=1.0, zeros=0)  # converged
    @example(terms=[1.0, 2.0, 4.0, 8.0, 1e-20], max_terms=4, window=3, scale=1.0,
             a=1.0, b=1.0, zeros=0)  # diverging at the budget
    @example(terms=[0.9 ** k for k in range(12)], max_terms=6, window=2, scale=0.5,
             a=1.0, b=1.0, zeros=0)  # budget
    @example(terms=[1.0] * 5, max_terms=3, window=5, scale=1.0, a=-2.0, b=1.0, zeros=0)  # budget
    @example(terms=[1.0] * 5, max_terms=5, window=5, scale=1.0, a=-2.0, b=1.0, zeros=0)  # terminated, 3 terms
    @example(terms=[1.0, 2.0, 4.0, 8.0, 16.0, 32.0], max_terms=20, window=3, scale=1.0,
             a=1.0, b=1.0, zeros=3)  # diverging: the zeros are the first magnitudes
    @example(terms=[1.0], max_terms=4, window=5, scale=-1.0, a=1.0, b=1.0, zeros=6)  # budget in the zeros
    @example(terms=[1.0, 1e-20, 2e-20, 3e-20], max_terms=9, window=2, scale=1.0,
             a=1.0, b=1.0, zeros=0)  # converged: the third small term is also the second increase
    @example(terms=[2.0, 1.0], max_terms=1, window=1, scale=1.0, a=1.0, b=1.0, zeros=0)  # budget at once
    @settings(max_examples=300, deadline=None)
    def test_stop_reason_matches_a_reference_classifier(self, terms, max_terms, window, scale, a, b, zeros):
        approx = sum_with_policy(iter(terms), TruncationPolicy(max_terms, window), scale, a, b, zeros)
        full = [0.0] * zeros + list(_pochhammer_products(a, b, terms))
        reason, n = _reference_stop(full, max_terms, window)
        assert (approx.stop_reason, approx.terms_used) == (reason, n)
        assert approx.last_term_abs == (0.0 if reason == "terminated" else abs(scale) * abs(full[n - 1]))
        assert approx.value == scale * math.fsum(full[:n])
        assert approx.converged == (reason in ("terminated", "converged"))
        assert approx.diverging == (reason == "diverging")


class TestAdjudication:
    def test_empty_grid(self):
        assert adjudicate_m10([]) == []

    def test_forced_half_row_passes(self):
        records = adjudicate_m10([OrderArg(0.5, 1.0), OrderArg(0.5, 2.0)])
        for rec in records:
            assert rec.identity_id == "M10_ADJ"
            assert rec.rel_dev <= 1e-9
            assert rec.passed

    def test_other_rows_record_deviation_without_claims(self):
        records = adjudicate_m10([OrderArg(1.5, 2.0), OrderArg(0.7, 1.0)])
        for rec in records:
            assert math.isfinite(rec.rel_dev)
            # record arithmetic is self-consistent
            assert rec.abs_dev == pytest.approx(abs(rec.lhs - rec.rhs))
            assert rec.rel_dev == pytest.approx(
                rec.abs_dev / max(abs(rec.lhs), abs(rec.rhs), 1e-300)
            )

    def test_input_order_preserved(self):
        grid = [OrderArg(0.5, 1.0), OrderArg(1.5, 1.0), OrderArg(0.5, 2.0)]
        records = adjudicate_m10(grid)
        assert [(r.params["s"], r.params["z"]) for r in records] == [(0.5, 1.0), (1.5, 1.0), (0.5, 2.0)]


class TestWholeDomain:
    """Any float s and z: a finite value with truthful flags, or a FracBesselError."""

    @pytest.mark.parametrize("evaluate", [k_mcdonald, k_series_m9, k_series_m10])
    @given(s=st.floats(), z=st.floats())
    @settings(max_examples=150, deadline=None)
    def test_finite_value_or_rejected(self, evaluate, s, z):
        try:
            approx = evaluate(s, z, _capped(60))
        except FracBesselError:
            return
        assert isinstance(approx.value, float) and math.isfinite(approx.value)
        assert not (approx.converged and approx.diverging)
        assert approx.terms_used <= 60

    @given(
        s=st.floats(), nu=st.floats(), alpha=st.floats(), beta=st.floats(), x=st.floats()
    )
    @settings(max_examples=200, deadline=None)
    def test_general_expansion_finite_value_or_rejected(self, s, nu, alpha, beta, x):
        try:
            approx = general_expansion_m7(s, nu, alpha, beta, x, _capped(60))
        except FracBesselError:
            return
        assert isinstance(approx.value, float) and math.isfinite(approx.value)
        assert not (approx.converged and approx.diverging)
        assert approx.terms_used <= 60

    @given(s=REALS, z=REALS)
    @settings(max_examples=60, deadline=None)
    def test_adjudicate_m10_one_record_or_rejected(self, s, z):
        # per-point failures are recorded as NaN sides, so each point gives one record
        try:
            records = adjudicate_m10([OrderArg(s, z)])
        except FracBesselError:
            return
        assert len(records) == 1 and records[0].identity_id == "M10_ADJ"


def _assert_returned_verdict(approx):
    """A sum's result carries its verdict: a finite value, and flags that
    read exactly what ``stop_reason`` says."""
    assert math.isfinite(approx.value)
    assert approx.diverging == (approx.stop_reason == "diverging")
    assert approx.converged == (approx.stop_reason in ("terminated", "converged"))


class TestVerdictIsReturned:
    """Every truncated sum returns why it stopped, a diverging stop included:
    no evaluator raises its verdict."""

    @pytest.mark.parametrize("evaluate", [k_mcdonald, k_series_rearranged, k_series_m9, k_series_m10])
    @given(s=st.floats(series_module.ZERO_ORDER_TOL, 5.0), z=st.floats(0.1, 50.0))
    @example(s=0.7, z=40.0)  # diverging after 6 terms
    @example(s=10.3, z=20.0)  # diverging after 6 terms
    @settings(max_examples=100, deadline=None)
    def test_k_series(self, evaluate, s, z):
        _assert_returned_verdict(evaluate(s, z))

    @given(
        s=st.floats(-0.9, -0.1, exclude_min=True, exclude_max=True),
        nu=st.floats(0.2, 2.0, exclude_min=True, exclude_max=True),
        beta=st.floats(0.5, 2.0, exclude_min=True, exclude_max=True),
        x=st.floats(0.5, 2.0, exclude_min=True, exclude_max=True),
    )
    @example(s=-0.4, nu=1.2, beta=1.0, x=1.0)  # diverging after 32 terms
    @settings(max_examples=100, deadline=None)
    def test_general_expansion_at_alpha_minus_one(self, s, nu, beta, x):
        _assert_returned_verdict(general_expansion_m7(s, nu, -1.0, beta, x))


class TestMetadataInvariants:
    @pytest.mark.parametrize("s,z", [(0.5, 1.0), (2.6, 0.5), (0.7, 1.0), (1.2, 2.0)])
    def test_flags_and_counts(self, s, z):
        pol = TruncationPolicy(max_terms=150, divergence_window=10**6)
        approx = k_series_rearranged(s, z, pol)
        assert approx.terms_used <= pol.max_terms
        assert not (approx.converged and approx.diverging)
        if approx.converged and approx.last_term_abs > 0.0:
            assert approx.last_term_abs <= STOP_RATIO * abs(approx.value)
