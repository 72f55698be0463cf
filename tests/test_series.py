"""Series evaluators: termination, rearrangement equivalence, honest flags."""

import math
from itertools import count, islice

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import kv

from fracbessel import (
    BoundarySetup,
    DomainError,
    FracBesselError,
    OrderArg,
    SeriesDiverged,
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
from fracbessel.series import _e_stream, _ratio_terms
from fracbessel.special import _guarded_exp, _guarded_lgamma
from fracbessel.vk import (
    _closed_m1_row,
    _exact_poly,
    _m1_partial_sums,
    _m1_values,
    _mhalf_values,
    _vk_rows,
)
from fracbessel.truncation import STOP_RATIO, sum_with_policy

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


def _assert_sums_the_closed_form_rows(evaluate, pref, s, z, policy):
    """``evaluate(s, z, policy)`` equals, bit for bit, the sum over the
    alpha = -1 closed-form rows at -2z under the prefactor ``pref``."""
    rows = _e_stream(map(_closed_m1_row, count()), 1, -2.0 * z)
    want = sum_with_policy(_ratio_terms(0.5 - s, 0.5 + s, rows), policy, scale=pref)
    try:
        got = evaluate(s, z, policy)
    except SeriesDiverged as exc:
        got = exc.approximation
    assert got == want


class TestAlphaMinusOnePaths:
    """The rearranged form and M9 sum one polynomial built by two independent
    recurrences; neither may quietly start reading the other's, and neither
    reads the closed-form rows they are both checked against."""

    def test_rearranged_reads_only_the_fixed_argument_recurrence(self, monkeypatch):
        monkeypatch.setattr("fracbessel.series._m1_partial_sums", _unreadable)
        assert k_series_rearranged(2.5, 1.3).converged
        assert k_mcdonald(-2.5, 1.3).converged
        with pytest.raises(_StreamRead):
            k_series_m9(2.5, 1.3)

    def test_m9_reads_only_the_closed_form_rows(self, monkeypatch):
        # M9 reads the partial-sum recurrence; the name predates it
        monkeypatch.setattr("fracbessel.series._m1_values", _unreadable)
        assert k_series_m9(2.5, 1.3).converged
        with pytest.raises(_StreamRead):
            k_series_rearranged(2.5, 1.3)
        with pytest.raises(_StreamRead):
            k_mcdonald(2.5, 1.3)

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


#: The fixed-argument integer recurrences in k that feed the rearranged
#: form and M9 (alpha = -1) and M10 (alpha = -1/2).
_FIXED_W = {-1.0: (_m1_values, _m1_partial_sums), -0.5: (_mhalf_values,)}


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
            by_fixed_w = _m1_values(2.0 * z)
            by_partial_sums = _m1_partial_sums(2.0 * z)
            for k in range(151):
                assert (
                    next(by_recurrence) == next(by_closed_form)
                    == next(by_fixed_w) == next(by_partial_sums)
                ), (z, k)

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
        # the inner sums are exact, so a longer tail can only move closer to K
        ref = kv(1.3, 1.0)
        errors = [
            abs(k_mcdonald(1.3, 1.0, _capped(n)).value - ref) / ref for n in (200, 1000)
        ]
        assert errors[1] <= errors[0]

    def test_divergence_heuristic_raises_with_partial(self):
        # large z: term magnitudes climb through the initial hump, which the
        # conservative default window flags
        with pytest.raises(SeriesDiverged) as info:
            k_mcdonald(0.7, 40.0)
        approx = info.value.approximation
        assert approx.diverging and not approx.converged
        assert math.isfinite(approx.value)


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


class TestMetadataInvariants:
    @pytest.mark.parametrize("s,z", [(0.5, 1.0), (2.6, 0.5), (0.7, 1.0), (1.2, 2.0)])
    def test_flags_and_counts(self, s, z):
        pol = TruncationPolicy(max_terms=150, divergence_window=10**6)
        approx = k_series_rearranged(s, z, pol)
        assert approx.terms_used <= pol.max_terms
        assert not (approx.converged and approx.diverging)
        if approx.converged and approx.last_term_abs > 0.0:
            assert approx.last_term_abs <= STOP_RATIO * abs(approx.value)
