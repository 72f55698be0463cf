"""Gamma-family primitives: examples, poles, and the classical identities."""

import math
import random
import time

import mpmath
import pytest
import scipy.special as sc
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracbessel import (
    EULER_GAMMA,
    DomainError,
    FracBesselError,
    PoleError,
    TruncationPolicy,
    digamma,
    exp_rule,
    gamma_log,
    gen_binomial,
    leibniz_series,
    lower_incomplete_gamma,
    pochhammer,
    vk_coeffs_closed_m1,
    vk_coeffs_recurrence,
    vk_coeffs_sum,
)

SQRT_PI = math.sqrt(math.pi)


def gamma_from_log(x):
    lg = gamma_log(x)
    return lg.sign * math.exp(lg.log_abs)


class TestGammaLog:
    @pytest.mark.parametrize(
        "x,expected",
        [
            (0.5, SQRT_PI),
            (5.0, 24.0),
            (-0.5, -2.0 * SQRT_PI),
        ],
    )
    def test_reference_points(self, x, expected):
        assert gamma_from_log(x) == pytest.approx(expected, rel=1e-14)

    def test_reconstruction_against_scipy(self):
        # scipy's cephes gamma is an independent implementation
        xs = [x / 7.0 for x in range(-1180, 1190) if abs(round(x / 7.0) - x / 7.0) > 1e-3]
        for x in xs:
            ref = float(sc.gamma(x))
            if not math.isfinite(ref) or ref == 0.0:
                continue
            assert gamma_from_log(x) == pytest.approx(ref, rel=1e-13), x

    def test_sign_alternates_between_pole_intervals(self):
        assert gamma_log(-0.5).sign == -1
        assert gamma_log(-1.5).sign == 1
        assert gamma_log(-2.5).sign == -1
        assert gamma_log(3.7).sign == 1

    def test_large_argument_stays_finite(self):
        lg = gamma_log(250.0)
        assert math.isfinite(lg.log_abs)
        assert lg.log_abs == pytest.approx(math.lgamma(250.0), rel=1e-15)

    @pytest.mark.parametrize("x", [0.0, -1.0, -7.0, -3.0 + 1e-13])
    def test_pole_rejection(self, x):
        with pytest.raises(PoleError):
            gamma_log(x)

    def test_nan_rejected(self):
        for x in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                gamma_log(x)

    def test_reflection(self):
        # Gamma(x) Gamma(1-x) = pi / sin(pi x) on (0, 1)
        for i in range(1, 20):
            x = i / 20.0
            if abs(x - 0.5) < 1e-9:
                continue
            lhs = gamma_from_log(x) * gamma_from_log(1.0 - x)
            assert lhs == pytest.approx(math.pi / math.sin(math.pi * x), rel=1e-11)

    def test_duplication(self):
        # Gamma(2s) = 2^{2s-1} pi^{-1/2} Gamma(s) Gamma(s + 1/2), compared in log space
        for s in [0.1, 0.35, 1.0, 2.7, 5.5, 11.0, 20.0]:
            lhs = gamma_log(2.0 * s).log_abs
            rhs = (
                (2.0 * s - 1.0) * math.log(2.0)
                - 0.5 * math.log(math.pi)
                + gamma_log(s).log_abs
                + gamma_log(s + 0.5).log_abs
            )
            assert math.exp(lhs - rhs) == pytest.approx(1.0, rel=1e-11)


class TestPochhammer:
    def test_examples(self):
        assert pochhammer(3.0, 2) == 12.0
        assert pochhammer(-4.2, 0) == 1.0
        assert pochhammer(-1.0, 3) == 0.0

    def test_matches_scipy_poch(self):
        for a in [-3.5, -0.7, 0.3, 2.0, 9.9]:
            for k in [1, 2, 5, 17]:
                assert pochhammer(a, k) == pytest.approx(float(sc.poch(a, k)), rel=1e-12)

    def test_large_k_log_path(self):
        # k > 64 switches to the log-space gamma ratio
        assert pochhammer(0.5, 100) == pytest.approx(float(sc.poch(0.5, 100)), rel=1e-11)

    @pytest.mark.parametrize("a,k", [(3e4, 65), (2e4, 65), (1000.5, 70), (0.035, 165)])
    def test_large_k_keeps_its_digits_at_a_large_base(self, a, k):
        # lgamma(a + k) - lgamma(a) cancelled: 4.5e-11 relative at (3e4, 65)
        with mpmath.workdps(50):
            want = float(mpmath.rf(mpmath.mpf(a), k))
        assert pochhammer(a, k) == pytest.approx(want, rel=1e-12)

    def test_negative_integer_base_large_k(self):
        assert pochhammer(-200.0, 100) == pytest.approx(float(sc.poch(-200.0, 100)), rel=1e-10)

    @pytest.mark.parametrize(
        "a,k", [(-3 + 1e-13, 100), (-3 - 1e-13, 100), (-100 + 1e-13, 80), (-1e-13, 70)]
    )
    def test_large_k_next_to_a_pole(self, a, k):
        # a within POLE_TOL of a pole but not on it: the value is finite, and
        # for a = -100 + 1e-13, k = 80 the top a + k sits next to a pole too
        with mpmath.workdps(50):
            want = float(mpmath.rf(mpmath.mpf(a), k))
        assert pochhammer(a, k) == pytest.approx(want, rel=1e-12)

    def test_nan_rejected(self):
        for a in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                pochhammer(a, 3)

    def test_overflow_rejected(self):
        # (100)_200 = Gamma(300)/Gamma(100) ~ 1e456 on the log path; the
        # other two overflow the direct product
        for a, k in [(100.0, 200), (1e10, 64), (1e200, 2)]:
            with pytest.raises(DomainError, match="float64 range"):
                pochhammer(a, k)

    @given(
        a=st.floats(-10, 10, allow_nan=False),
        k=st.integers(0, 20),
        m=st.integers(0, 20),
    )
    @settings(max_examples=150, deadline=None)
    def test_index_additivity(self, a, k, m):
        # (a)_k (a+k)_m = (a)_{k+m}
        lhs = pochhammer(a, k) * pochhammer(a + k, m)
        rhs = pochhammer(a, k + m)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-280)


class TestGenBinomial:
    def test_examples(self):
        assert gen_binomial(-7.7, 0) == 1.0
        assert gen_binomial(0.5, 2) == pytest.approx(-1.0 / 8.0, rel=1e-15)
        assert gen_binomial(4.0, 2) == 6.0

    def test_integer_collapse(self):
        assert gen_binomial(6.0, 9) == 0.0
        assert gen_binomial(10.0, 4) == pytest.approx(210.0, rel=1e-14)

    @pytest.mark.parametrize("s", [-2.3, -0.5, 0.5, 4.7])
    def test_three_forms_agree(self, s):
        # falling product (implementation) vs the two gamma-ratio forms
        for j in range(16):
            val = gen_binomial(s, j)
            f1 = _binom_gamma_form1(s, j)
            f2 = _binom_gamma_form2(s, j)
            assert val == pytest.approx(f1, rel=1e-11)
            assert val == pytest.approx(f2, rel=1e-11)
            assert f1 == pytest.approx(f2, rel=1e-11)

    def test_large_index_log_path(self):
        ref = math.comb(200, 80)
        assert gen_binomial(200.0, 80) == pytest.approx(ref, rel=1e-11)
        # finite only through the log path: the falling product passes 1e308
        assert gen_binomial(2000.0, 1990) == pytest.approx(math.comb(2000, 10), rel=1e-10)

    @pytest.mark.parametrize("j", [65, 100, 1000, 10**5])
    @pytest.mark.parametrize("s", [0.5, -2.5, 3.7, -3.0, 200.0])
    def test_large_index_against_mpmath(self, s, j):
        # mpmath, not the former O(j) loop of logs: that loop was itself
        # off by ~3e-9 at j = 1e5
        with mpmath.workdps(30):
            ref = mpmath.binomial(mpmath.mpf(s), j)
        value = gen_binomial(s, j)
        if ref == 0:
            assert value == 0.0
        else:
            assert abs((value - ref) / ref) < 1e-11

    def test_large_index_cost_is_independent_of_j(self):
        t0 = time.perf_counter()
        try:
            gen_binomial(0.5, 10**306)
        except DomainError:
            pass
        assert time.perf_counter() - t0 < 1.0
        with pytest.raises(DomainError, match="float64 range"):
            gen_binomial(0.5, 10**400)

    def test_nan_rejected(self):
        for s in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                gen_binomial(s, 3)

    def test_overflow_rejected(self):
        for s, j in [(3000.5, 1500), (1e10, 60)]:
            with pytest.raises(DomainError, match="float64 range"):
                gen_binomial(s, j)


def _binom_gamma_form1(s, j):
    # Gamma(1+s) / (j! Gamma(1+s-j))
    num = gamma_log(1.0 + s)
    den = gamma_log(1.0 + s - j)
    return num.sign * den.sign * math.exp(num.log_abs - den.log_abs - math.lgamma(j + 1))


def _binom_gamma_form2(s, j):
    # (-1)^j Gamma(j-s) / (j! Gamma(-s))
    num = gamma_log(j - s)
    den = gamma_log(-s)
    return (-1) ** j * num.sign * den.sign * math.exp(num.log_abs - den.log_abs - math.lgamma(j + 1))


class TestDigamma:
    def test_reference_points(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, rel=1e-13)
        assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, rel=1e-13)
        # duplication identity: psi(1/2) = -C - 2 ln 2
        assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2.0 * math.log(2.0), rel=1e-12)

    def test_recurrence(self):
        for x in [0.3, 1.7, -2.4, 13.0, 87.5]:
            assert digamma(x + 1.0) == pytest.approx(digamma(x) + 1.0 / x, rel=1e-12)

    def test_pole_rejection(self):
        with pytest.raises(PoleError):
            digamma(-2.0)

    def test_nan_rejected(self):
        for x in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                digamma(x)

    def test_against_mpmath(self):
        # 50-digit reference on [-20, 200], next to every pole there and just
        # above 0.  Each zero of psi (one near 1.4616 and one between each pair
        # of negative poles) cancels the recurrence or the reflection to an
        # absolute error of a few ulp of the parts, so below |psi| = 1/2 the
        # bound is absolute (1e-15); everywhere else it is relative
        rng = random.Random(5)
        xs = [rng.uniform(-20.0, 200.0) for _ in range(1500)]
        xs += [n + side * 10.0 ** rng.uniform(-11.5, -6.0) for n in range(-20, 1) for side in (-1, 1)]
        xs += [10.0 ** rng.uniform(-11.5, -8.0) for _ in range(20)]
        with mpmath.workdps(50):
            for x in xs:
                ref = float(mpmath.digamma(x))
                assert abs(digamma(x) - ref) <= 2e-15 * max(abs(ref), 0.5), x


#: Any float, with extra weight on moderate magnitudes, where the series do
#: their work; ``st.floats()`` alone rarely draws them.
REALS = st.floats() | st.floats(-1e3, 1e3)


class TestWholeDomain:
    @staticmethod
    def _finite_or_rejected(fn, *args):
        try:
            value = fn(*args)
        except FracBesselError:
            return
        assert isinstance(value, float) and math.isfinite(value)

    @given(a=REALS, x=REALS)
    @settings(max_examples=100, deadline=None)
    def test_lower_incomplete_gamma(self, a, x):
        self._finite_or_rejected(lower_incomplete_gamma, a, x)

    @given(x=REALS)
    @settings(max_examples=100, deadline=None)
    def test_digamma(self, x):
        self._finite_or_rejected(digamma, x)

    @given(x=REALS)
    @settings(max_examples=100, deadline=None)
    def test_gamma_log(self, x):
        try:
            lg = gamma_log(x)
        except FracBesselError:
            return
        assert math.isfinite(lg.log_abs) and lg.sign in (1, -1)

    @given(a=st.floats(), k=st.integers(0, 300))
    @settings(max_examples=200, deadline=None)
    def test_pochhammer_is_finite_or_rejected(self, a, k):
        try:
            value = pochhammer(a, k)
        except FracBesselError:
            return
        assert isinstance(value, float) and math.isfinite(value)

    @given(s=st.floats(), j=st.integers(0, 10**18))
    @settings(max_examples=200, deadline=None)
    def test_gen_binomial_is_finite_or_rejected(self, s, j):
        try:
            value = gen_binomial(s, j)
        except FracBesselError:
            return
        assert isinstance(value, float) and math.isfinite(value)


#: Whatever may arrive as an integer argument: any float, NaN and inf
#: included, and integers around the lower bounds.
INDEXES = st.floats() | st.integers(-3, 8)


class TestIntegerArguments:
    """Every integer argument has one check, ``special._integer_at_least``:
    an int at or above its lower bound passes it, and anything else, a
    float such as 2.0 included, raises ``DomainError``."""

    CALLS = {
        "pochhammer": (0, lambda k: pochhammer(1.5, k)),
        "gen_binomial": (0, lambda j: gen_binomial(1.5, j)),
        "vk_coeffs_sum": (0, lambda k: vk_coeffs_sum(-0.5, k)),
        "vk_coeffs_recurrence": (0, lambda k: vk_coeffs_recurrence(-0.5, k)),
        "vk_coeffs_closed_m1": (0, vk_coeffs_closed_m1),
        "max_terms": (1, lambda n: TruncationPolicy(max_terms=n)),
        "divergence_window": (1, lambda n: TruncationPolicy(divergence_window=n)),
        "leibniz_series": (1, lambda n: leibniz_series([lambda x: 1.0], lambda o, x: 1.0, 0.5, 1.0, n)),
    }

    @pytest.mark.parametrize("name", CALLS)
    @given(value=INDEXES)
    # each answered a value, or raised a raw TypeError or ValueError, for
    # some of the functions before the check was shared
    @example(value=100.0)
    @example(value=2.0)
    @example(value=2.5)
    @example(value=math.nan)
    @settings(max_examples=60, deadline=None)
    def test_an_integer_at_the_bound_or_a_domain_error(self, name, value):
        low, call = self.CALLS[name]
        if isinstance(value, int) and value >= low:
            call(value)
        else:
            with pytest.raises(DomainError, match=f"must be an integer >= {low}, got "):
                call(value)


    @pytest.mark.parametrize("call", [pochhammer, gen_binomial], ids=["pochhammer", "gen_binomial"])
    def test_an_index_past_float64_is_a_range_error(self, call):
        with pytest.raises(DomainError, match="index [kj] is outside the float64 range"):
            call(0.5, 10 ** 400)


def _lig_alternating_series(a, x):
    """Independent oracle: x^a sum_n (-x)^n / (n! (a+n)), 1e-14 term cutoff."""
    total = 0.0
    power = 1.0  # (-x)^n / n!
    for n in range(400):
        if n > 0:
            power *= -x / n
        term = power / (a + n)
        total += term
        if abs(term) < 1e-14 * abs(total) and n > 4:
            break
    return x ** a * total


class TestLowerIncompleteGamma:
    def test_unit_shape(self):
        assert lower_incomplete_gamma(1.0, 2.0) == pytest.approx(1.0 - math.exp(-2.0), rel=1e-13)

    def test_saturates_to_gamma(self):
        assert lower_incomplete_gamma(0.5, 30.0) == pytest.approx(SQRT_PI, rel=1e-10)

    def test_continuation_against_series_oracle(self):
        for a, x in [(-0.5, 1.0), (-1.3, 0.7), (-2.7, 2.0), (0.8, 1.5)]:
            assert lower_incomplete_gamma(a, x) == pytest.approx(
                _lig_alternating_series(a, x), rel=1e-12
            )

    def test_positive_a_against_scipy(self):
        for a, x in [(0.5, 1.0), (2.2, 4.0), (7.0, 3.0)]:
            ref = float(sc.gammainc(a, x)) * math.gamma(a)
            assert lower_incomplete_gamma(a, x) == pytest.approx(ref, rel=1e-12)

    def test_recurrence_grid(self):
        # gamma(a+1, x) = a gamma(a, x) - x^a e^{-x}
        a_values = [-2.25, -1.75, -1.25, -0.75, -0.25, 0.25, 0.75, 1.5, 2.25, 3.0]
        for a in a_values:
            for x in [0.1, 0.9, 2.7, 10.0]:
                lhs = lower_incomplete_gamma(a + 1.0, x)
                rhs = a * lower_incomplete_gamma(a, x) - x ** a * math.exp(-x)
                assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_domain_errors(self):
        with pytest.raises(PoleError):
            lower_incomplete_gamma(-2.0, 1.0)
        with pytest.raises(DomainError):
            lower_incomplete_gamma(0.5, -1.0)
        with pytest.raises(DomainError):
            lower_incomplete_gamma(math.nan, 1.0)
        with pytest.raises(DomainError):
            lower_incomplete_gamma(0.5, math.nan)
        with pytest.raises(DomainError, match="float64 range"):
            lower_incomplete_gamma(200.5, 300.0)  # ~Gamma(200.5) ~ 1e373

    @pytest.mark.parametrize(
        "a,x",
        [
            (172.0, 300.0),  # Gamma(172) ~ 1.2e309 overflows
        ],
    )
    def test_overflow_is_a_domain_error(self, a, x):
        with pytest.raises(DomainError, match="float64 range"):
            lower_incomplete_gamma(a, x)

    def test_series_past_float64_is_refused_before_summing(self):
        # about Gamma(1e4)/2: the series needs ~sqrt(74 a) terms here and
        # raised ToleranceNotMet at its 500-term cap instead
        with pytest.raises(DomainError, match="float64 range"):
            lower_incomplete_gamma(1e4, 1e4)
        with pytest.raises(DomainError, match="float64 range"):
            exp_rule(-1e4, 1.0, 1e4)

    @pytest.mark.parametrize(
        "a,x,expected",
        [
            (0.5, 720.0, SQRT_PI),  # the series would need more than 500 terms
            (3.0, 800.0, 2.0),  # the series' partial sums pass 1e308
            (0.5, 1000.0, SQRT_PI),
            (-0.5, 900.0, -2.0 * SQRT_PI),
        ],
    )
    def test_large_x_saturates_to_gamma(self, a, x, expected):
        assert lower_incomplete_gamma(a, x) == pytest.approx(expected, rel=1e-14)

    def test_continued_fraction_against_mpmath(self):
        # x > max(a, 0) + 1 takes Gamma(a) - Gamma(a, x); the first x of
        # each row sits just past the switch, where the two cancel most
        for a in (-5.5, -2.5, -0.5, 0.3, 2.0, 7.5, 20.0, 50.0):
            for x in (max(a, 0.0) + 1.0 + 1e-9, max(a, 0.0) + 3.0, 2.0 * abs(a) + 10.0, 400.0):
                with mpmath.workdps(50):
                    ref = float(mpmath.gamma(a) - mpmath.gammainc(a, x))
                assert lower_incomplete_gamma(a, x) == pytest.approx(ref, rel=2e-14), (a, x)
