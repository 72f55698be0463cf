"""Differintegral quadrature against the closed-form rules, and the rules
against their classical limits."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracbessel import (
    BoundarySetup,
    DomainError,
    FracBesselError,
    ToleranceNotMet,
    exp_rule,
    leibniz_series,
    log_rule,
    lower_incomplete_gamma,
    power_rule,
    rl_derivative,
    rl_integral,
)
from fracbessel import fractional

SQRT_PI = math.sqrt(math.pi)

#: Any float, with extra weight on moderate magnitudes, where the sums and
#: quadratures do their work; ``st.floats()`` alone rarely draws them.
REALS = st.floats() | st.floats(-1e3, 1e3)


def power_on(p, top, bottom=0.0):
    """t^p on [bottom, top], inf where it overflows; a call outside fails the test.

    Below t = 0 a non-integer p makes t^p complex, which the library refuses.
    """

    def f(t):
        assert bottom <= t <= top, f"f called at t={t!r}, outside [{bottom!r}, {top!r}]"
        try:
            return t ** p
        except (OverflowError, ZeroDivisionError):
            return math.inf

    return f


class TestRlIntegral:
    def test_constant(self):
        # order -1 of f == 1 is the plain antiderivative
        assert rl_integral(lambda t: 1.0, -1.0, BoundarySetup(0.0, 2.0)) == pytest.approx(
            2.0, rel=1e-12
        )

    def test_half_order_of_t(self):
        # Gamma(2)/Gamma(2.5) * x^{1.5} = 4/(3 sqrt(pi)) at x = 1
        got = rl_integral(lambda t: t, -0.5, BoundarySetup(0.0, 1.0))
        assert got == pytest.approx(4.0 / (3.0 * SQRT_PI), rel=1e-11)

    def test_shifted_boundary(self):
        got = rl_integral(lambda t: (t - 1.0) ** 2, -0.3, BoundarySetup(1.0, 2.0))
        assert got == pytest.approx(math.gamma(3.0) / math.gamma(3.3), rel=1e-11)

    def test_validation(self):
        with pytest.raises(DomainError):
            rl_integral(lambda t: 1.0, 0.5, BoundarySetup(0.0, 1.0))
        with pytest.raises(DomainError):
            rl_integral(lambda t: 1.0, math.nan, BoundarySetup(0.0, 1.0))
        with pytest.raises(DomainError):
            BoundarySetup(2.0, 1.0)
        for a, x in [(math.nan, 1.0), (0.0, math.nan), (0.0, math.inf), (-math.inf, 0.0)]:
            with pytest.raises(DomainError):
                BoundarySetup(a, x)

    def test_budget_exhaustion(self, monkeypatch):
        # capped at its first accepted level, the rule cannot resolve 40 turns
        monkeypatch.setattr(fractional, "_DE_MAX_LEVEL", fractional._DE_MIN_LEVEL)
        with pytest.raises(ToleranceNotMet) as info:
            rl_integral(lambda t: math.sin(40.0 * t) ** 2 / math.sqrt(t + 1e-12), -0.5,
                        BoundarySetup(0.0, 1.0))
        assert info.value.estimate > 0

    def test_divergent_integral_raises(self):
        # int_0^1 (1-t)^{-1/2} t^{-1.2} dt diverges at t = 0: the rule's
        # levels keep moving, and its message names divergence as one cause
        with pytest.raises(ToleranceNotMet, match="divergent"):
            rl_integral(lambda t: t ** -1.2, -0.5, BoundarySetup(0.0, 1.0))

    @pytest.mark.parametrize("s", [-0.5, -0.05, -1.7, -6.0])
    def test_log_is_never_evaluated_at_the_boundary_point(self, s):
        # math.log(0.0) raises; the gap t - a is formed without cancellation
        seen = []

        def f(t):
            seen.append(t)
            return math.log(t)

        got = rl_integral(f, s, BoundarySetup(0.0, 1.3))
        assert min(seen) > 0.0 and max(seen) <= 1.3
        assert got == pytest.approx(log_rule(s, 1.3), rel=1e-12)

    def test_f_overflowing_next_to_the_boundary_point_is_a_domain_error(self):
        # the rule's nodes come within ~1e-102 of a, where t ** -3.5 raises
        # OverflowError; the integral diverges anyway
        with pytest.raises(DomainError, match="float64 range"):
            rl_integral(lambda t: t ** -3.5, -0.5, BoundarySetup(0.0, 1.0))

    @pytest.mark.parametrize("rule,s", [(rl_integral, -0.5), (rl_derivative, 0.5)])
    def test_complex_value_of_f_is_a_domain_error(self, rule, s):
        # t ** 0.5 is complex below t = 0; it raised a raw TypeError from the adapter
        with pytest.raises(DomainError, match=r"f\(-[0-9.e-]+\) = \(.*j\) is not a real number"):
            rule(lambda t: t ** 0.5, s, BoundarySetup(-1.0, 1.0))

    @pytest.mark.parametrize("rule,s", [(rl_integral, -0.5), (rl_derivative, 0.5)])
    @pytest.mark.parametrize("cls", [np.complex128, np.complex64])
    def test_numpy_complex_value_of_f_is_a_domain_error(self, rule, s, cls):
        # numpy cast the value to float and kept t ** 2, 0.7446922567493411
        # for rl_integral, with only a ComplexWarning
        with pytest.raises(DomainError, match=r"f\([0-9.e-]+\) = .*j\) is not a real number"):
            rule(lambda t: cls(t) ** 2 + 1j, s, BoundarySetup(-1.0, 1.0))

    @pytest.mark.parametrize("error", [TypeError, ValueError])
    def test_exceptions_of_f_propagate_as_they_are(self, error):
        calls = []

        def f(t):
            calls.append(t)
            raise error("raised by f")

        with pytest.raises(error, match="raised by f"):
            rl_integral(f, -0.5, BoundarySetup(0.0, 1.0))
        assert len(calls) == 1  # not run again to look for a complex value

    def test_f_is_only_evaluated_on_the_interval(self):
        # the rounded u^(1/p) passed x - a, so f was called at t = -4.4e-16
        with pytest.raises(FracBesselError):
            rl_integral(power_on(-1.0, 2.0), -0.5, BoundarySetup(0.0, 2.0))

    def test_range_overflow(self):
        # (x - a)^200 = 1e2000: the substituted range leaves float64
        with pytest.raises(DomainError, match="float64 range"):
            rl_integral(lambda t: 1.0, -200.0, BoundarySetup(0.0, 1e10))


def _level_by_level(fn):
    """The double-exponential rule on [0, 1] with one integrand call per
    level: level 0 on all of |tau| <= 5 sets the range, each finer level is
    evaluated only inside it, and each level's terms are added one by one in
    tau order.  Returns (value, estimate, the number of nodes of each level)."""
    ends = (-math.inf, math.inf)
    total, previous, sizes = 0.0, math.nan, []
    for m in range(fractional._DE_MAX_LEVEL + 1):
        step = 0.5 ** m
        tau = np.arange(-5.0, 6.0) if m == 0 else np.arange(-(5 << m) + 1, 5 << m, 2) * step
        tau = tau[(ends[0] <= tau) & (tau < ends[1])]
        y = np.pi * np.sinh(np.abs(tau))
        near, far = 1.0 / (1.0 + np.exp(y)), 1.0 / (1.0 + np.exp(-y))
        d_lo, d_hi = np.where(tau > 0, far, near), np.where(tau > 0, near, far)
        w = np.pi * np.cosh(tau) * near * far
        with np.errstate(all="ignore"):
            terms = w * fn(d_lo, d_hi)
        sizes.append(tau.size)
        part = 0.0
        for term in terms:
            part += term
        total += float(part)
        value = total * step
        change = abs(value - previous)
        if m >= fractional._DE_MIN_LEVEL and change <= fractional._DE_REL_TOL * abs(value):
            return value, change, sizes
        previous = value
        if m == 0:
            size = np.abs(terms)
            significant = tau[size > fractional._DE_TAIL * size.sum()]
            ends = (significant[0] - 1.0, significant[-1] + 1.0)
    raise AssertionError("the reference rule did not settle")


def _counted(fn):
    """fn, recording the size of each node array it is handed."""
    sizes = []

    def g(u, r):
        sizes.append(u.size)
        return fn(u, r)

    return g, sizes


#: Integrands on [0, 1]: smooth, and singular at both ends; then two that
#: need one and two levels past the first call.
DE_CASES = [
    lambda u, r: np.exp(-u) * np.cos(3.0 * u),
    lambda u, r: u ** -0.5 * r ** -0.5,
    lambda u, r: np.sin(40.0 * u) ** 2 / np.sqrt(u),
    lambda u, r: np.sin(100.0 * u) ** 2,
]

#: Nodes of the first call: levels 0 to ``_DE_FIRST_TOP`` over |tau| <= 5.
FIRST_CALL = 10 * 2 ** fractional._DE_FIRST_TOP + 1


class TestDoubleExponentialRule:
    @pytest.mark.parametrize("fn", DE_CASES)
    def test_matches_the_rule_one_level_per_call(self, fn):
        value, estimate, levels = _level_by_level(fn)
        g, sizes = _counted(fn)
        got, _, got_estimate = fractional._de_quad(g)
        assert (got, got_estimate) == (value, estimate)
        # the first call is all of |tau| <= 5; each later one, that level's range
        assert sizes == [FIRST_CALL] + levels[fractional._DE_FIRST_TOP + 1:]

    def test_stages_are_laid_out_level_by_level(self):
        top = fractional._DE_FIRST_TOP
        stages = [fractional._stage(0, top), *(fractional._stage(m, m)
                                               for m in range(top + 1, fractional._DE_MAX_LEVEL + 1))]
        for first, arrays in zip([0, *range(top + 1, fractional._DE_MAX_LEVEL + 1)], stages):
            tau, level = arrays[:2]
            assert not any(array.flags.writeable for array in arrays)
            with pytest.raises(ValueError):
                arrays[2][0] = 0.5
            # each level is one block, ascending in tau, of the odd multiples of its h
            assert (np.diff(level) >= 0).all()
            for m in range(level[-1] + 1):
                block = tau[level == m]
                assert (np.diff(block) > 0).all()
                if first + m:
                    multiples = block * 2.0 ** (first + m)
                    assert (multiples % 2 == 1).all() and block.size == 10 * 2 ** (first + m - 1)
        tau, level = stages[0][:2]
        # level 0 is the first 11 nodes: the first call reads it as a slice
        assert tau[:11].tolist() == list(range(-5, 6))
        assert not level[:11].any() and level[11:].all()
        # the cached mask of the first call is the rule level 0 | range
        ranges = [(a, b) for a in range(-6, 7) for b in range(a + 1, 7)] + [(-math.inf, math.inf)]
        for start, stop in ranges:
            kept, kept_level = fractional._first_kept(top, start, stop)
            rule = (level == 0) | ((start <= tau) & (tau < stop))
            assert (kept == rule).all() and (kept_level == level[rule]).all()

    def test_cases_cut_the_range_and_reach_past_the_first_call(self):
        levels = [_level_by_level(fn)[2] for fn in DE_CASES]
        # level 1 has 10 nodes on |tau| < 5; the cut leaves fewer
        assert all(sizes[1] < 10 for sizes in levels)
        assert [len(sizes) - 1 for sizes in levels] == [4, 3, 6, 7]

    @pytest.mark.parametrize("fn", DE_CASES)
    def test_nodes_are_those_handed_to_the_integrand(self, fn):
        g, sizes = _counted(fn)
        assert fractional._de_quad(g)[1] == sum(sizes)

    def test_smooth_integrand_takes_one_call(self):
        g, sizes = _counted(lambda u, r: np.exp(-u) * np.cos(3.0 * u))
        value = fractional._de_quad(g)[0]
        assert len(sizes) == 1
        assert value == pytest.approx((1.0 - math.exp(-1.0) * (math.cos(3.0) - 3.0 * math.sin(3.0))) / 10.0,
                                      rel=1e-14)

    @pytest.mark.parametrize("top", [1, fractional._DE_MIN_LEVEL])
    def test_levels_stop_at_the_maximum_inside_the_first_call(self, top, monkeypatch):
        monkeypatch.setattr(fractional, "_DE_MAX_LEVEL", top)
        g, sizes = _counted(DE_CASES[2])
        with pytest.raises(ToleranceNotMet) as info:
            fractional._de_quad(g)
        assert sizes == [10 * 2 ** top + 1]
        assert info.value.estimate > 0

    def test_numpy_error_state_is_restored(self):
        def raising(u, r):
            raise DomainError("refused by the integrand")

        with np.errstate(all="raise", under="warn"):
            before = np.geterr()
            fractional._de_quad(lambda u, r: np.log(u) / u ** 0.5)
            assert np.geterr() == before
            with pytest.raises(ToleranceNotMet):
                fractional._de_quad(lambda u, r: 1.0 / u ** 1.2)
            assert np.geterr() == before
            with pytest.raises(DomainError, match="refused"):
                fractional._de_quad(raising)
            assert np.geterr() == before


class TestPowerRuleConsistency:
    @pytest.mark.parametrize("s", [-0.2, -0.5, -0.8])
    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.3])
    @pytest.mark.parametrize("a", [0.0, 1.0])
    def test_quadrature_matches_closed_form(self, s, p, a):
        x = a + 1.5
        bounds = BoundarySetup(a, x)
        quad_val = rl_integral(lambda t: (t - a) ** p, s, bounds)
        assert quad_val == pytest.approx(power_rule(s, p, bounds), rel=1e-6)


class TestPowerRule:
    def test_integer_order(self):
        # second derivative of t^3 at x = 2: 3!/1! * 2 = 12
        assert power_rule(2.0, 3.0, BoundarySetup(0.0, 2.0)) == pytest.approx(12.0, rel=1e-13)

    def test_half_order(self):
        assert power_rule(0.5, 1.0, BoundarySetup(0.0, 1.0)) == pytest.approx(
            2.0 / SQRT_PI, rel=1e-13
        )

    def test_gamma_pole_gives_zero(self):
        # d^2 of a linear function vanishes through the reciprocal-gamma zero
        assert power_rule(2.0, 1.0, BoundarySetup(0.0, 5.0)) == 0.0

    # p + 1 - s within 1e-12 of 0, -1 and -2, on either side
    @pytest.mark.parametrize("s,p,x", [(2 + 1e-13, 1.0, 1.5), (2 - 1e-13, 1.0, 1.5), (3 + 2e-13, 1.0, 2.0),
                                       (3.5 + 1e-13, 0.5, 1.7), (4 - 5e-13, 2.0, 0.7)])
    def test_next_to_a_gamma_pole_the_value_is_kept(self, s, p, x):
        got = power_rule(s, p, BoundarySetup(0.0, x))
        with mpmath.workdps(40):
            big_s, big_p = mpmath.mpf(s), mpmath.mpf(p)
            want = mpmath.gamma(big_p + 1) * mpmath.rgamma(big_p + 1 - big_s) * mpmath.mpf(x) ** (big_p - big_s)
            want = float(want)
        assert got != 0.0
        assert abs(got - want) <= 1e-14 * abs(want)

    def test_domain(self):
        with pytest.raises(DomainError):
            power_rule(0.5, -1.0, BoundarySetup(0.0, 1.0))
        with pytest.raises(DomainError):
            power_rule(math.nan, 1.0, BoundarySetup(0.0, 1.0))
        with pytest.raises(DomainError):
            power_rule(0.5, math.nan, BoundarySetup(0.0, 1.0))
        with pytest.raises(DomainError):
            power_rule(0.5, 1.0, BoundarySetup(0.0, math.inf))
        with pytest.raises(DomainError, match="float64 range"):
            power_rule(-0.5, 300.0, BoundarySetup(0.0, 1e10))

    def test_semigroup_on_powers(self):
        # order s1 then s2 equals order s1 + s2 in one step (exact gamma identity):
        # the first application rescales t^p to c1 t^{p-s1}, so the chain is
        # c1 * power_rule(s2, p - s1).
        for s1, s2 in [(-0.3, -0.4), (0.5, 0.25), (-0.5, 1.2), (1.5, -0.7)]:
            p = 2.6
            bounds = BoundarySetup(0.0, 1.7)
            span = bounds.x - bounds.a
            c1 = power_rule(s1, p, bounds) / span ** (p - s1)
            chained = c1 * power_rule(s2, p - s1, bounds)
            assert chained == pytest.approx(power_rule(s1 + s2, p, bounds), rel=1e-11)


class TestRlDerivative:
    def test_half_derivative_of_t(self):
        got = rl_derivative(lambda t: t, 0.5, BoundarySetup(0.0, 1.0))
        assert got == pytest.approx(2.0 / SQRT_PI, rel=1e-7)

    def test_integer_order(self):
        got = rl_derivative(lambda t: t * t, 1.0, BoundarySetup(0.0, 3.0))
        assert got == pytest.approx(6.0, rel=1e-7)

    def test_matches_exp_rule(self):
        got = rl_derivative(math.exp, 0.5, BoundarySetup(0.0, 1.0))
        assert got == pytest.approx(exp_rule(0.5, 1.0, 1.0), rel=1e-7)

    @pytest.mark.parametrize("s", [0.5, 1.5, 2.5, 3.5, 3.9])
    @pytest.mark.parametrize("top", [1.0, 2.5])
    def test_accuracy_over_the_accepted_orders(self, s, top):
        # one stencil order per integer part of s, up to n = 4: worst measured 9e-5
        bounds = BoundarySetup(0.0, top)
        for f, exact in [
            (lambda t: t, power_rule(s, 1.0, bounds)),
            (lambda t: t ** 2.7, power_rule(s, 2.7, bounds)),
            (math.exp, exp_rule(s, 1.0, top)),
        ]:
            assert rl_derivative(f, s, bounds) == pytest.approx(exact, rel=1e-4)

    @pytest.mark.parametrize("s", [0.3, 0.7, 1.4])
    def test_composition_independence(self, s):
        # D^{s+1}[t^3/3] = D^s[t^2]: the same value through stencils of
        # orders n and n + 1
        bounds = BoundarySetup(0.0, 1.5)
        lifted = rl_derivative(lambda t: t ** 3 / 3.0, s + 1.0, bounds)
        direct = rl_derivative(lambda t: t * t, s, bounds)
        assert lifted == pytest.approx(direct, rel=1e-6)
        assert direct == pytest.approx(power_rule(s, 2.0, bounds), rel=1e-5)

    def test_validation(self):
        with pytest.raises(DomainError):
            rl_derivative(lambda t: t, -0.5, BoundarySetup(0.0, 1.0))
        with pytest.raises(DomainError):
            rl_derivative(lambda t: t, math.nan, BoundarySetup(0.0, 1.0))
        with pytest.raises(DomainError, match="float64 range"):
            rl_derivative(lambda t: t, 3.5, BoundarySetup(0.0, 1e-100))  # h^-4 overflows
        with pytest.raises(DomainError, match="too small"):
            rl_derivative(lambda t: t, 0.5, BoundarySetup(0.0, 5e-324))  # the step h rounds to 0
        with pytest.raises(DomainError, match="s < 4"):
            rl_derivative(lambda t: t, math.inf, BoundarySetup(0.0, 1.0))  # math.floor(inf) raised

    @pytest.mark.parametrize("s", [4.0, 4.5, 200.5, 1029.0])
    def test_refuses_orders_from_four(self, s):
        # past n = 4 the amplified quadrature noise dominates (1.4e-2 at s = 6.5
        # for f = t); at 200.5 and 1029, h^-n or the weights C(n, i) would leave float64
        with pytest.raises(DomainError, match=r"0 <= s < 4"):
            rl_derivative(lambda t: t, s, BoundarySetup(0.0, 1.0))


class TestExpRule:
    def test_integer_orders(self):
        assert exp_rule(1.0, 2.0, 0.5) == pytest.approx(2.0 * math.e, rel=1e-12)
        assert exp_rule(0.0, 1.0, 1.0) == pytest.approx(math.e, rel=1e-12)
        assert exp_rule(3.0, -2.0, 0.25) == pytest.approx(-8.0 * math.exp(-0.5), rel=1e-12)

    def test_order_minus_one_is_the_integral(self):
        # int_0^1 e^t dt = e - 1
        assert exp_rule(-1.0, 1.0, 1.0) == pytest.approx(math.e - 1.0, rel=1e-12)
        # int_0^{-1} e^{-t} dt = 1 - e: a negative beta is fine at integer order
        assert exp_rule(-1.0, -1.0, -1.0) == pytest.approx(1.0 - math.e, rel=1e-12)

    def test_against_quadrature(self):
        for s, beta, x in [(-0.5, 1.0, 1.0), (-0.25, 2.0, 0.8), (-1.7, 1.0, 2.0)]:
            ref = rl_integral(lambda t: math.exp(beta * t), s, BoundarySetup(0.0, x))
            assert exp_rule(s, beta, x) == pytest.approx(ref, rel=1e-9)

    def test_gamma_identity_form(self):
        # beta^s e^{beta x} gamma(-s, beta x)/Gamma(-s) reproduced from parts
        s, beta, x = 0.5, 1.0, 1.0
        expected = (
            beta ** s
            * math.exp(beta * x)
            * lower_incomplete_gamma(-s, beta * x)
            / math.gamma(-s)
        )
        assert exp_rule(s, beta, x) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize(
        "s,beta,x,expected",
        [
            (-2.0, 1.0, 400.0, 5.221469689764144e173),  # mpmath
            (0.5, 1.0, 450.0, 2.7071782767869983e195),
        ],
    )
    def test_large_argument(self, s, beta, x, expected):
        # the incomplete gamma at beta x = 400, 450 comes from its continued fraction
        assert exp_rule(s, beta, x) == pytest.approx(expected, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            exp_rule(0.5, -1.0, 1.0)  # beta x < 0 with non-integer order
        with pytest.raises(DomainError):
            exp_rule(math.nan, 1.0, 1.0)
        with pytest.raises(DomainError):
            exp_rule(1.0, math.nan, 1.0)  # the integer-order branch
        with pytest.raises(DomainError):
            exp_rule(1.0, 1.0, math.nan)
        with pytest.raises(DomainError, match="float64 range"):
            exp_rule(2.0, 1000.0, 1.0)  # e^1000 overflows, integer order
        with pytest.raises(DomainError, match="float64 range"):
            exp_rule(-1.5, 800.0, 1.0)  # and non-integer order
        with pytest.raises(DomainError, match="float64 range"):
            exp_rule(-200.5, 1.0, 300.0)  # the incomplete gamma's own factor overflows
        with pytest.raises(DomainError, match="float64 range"):
            exp_rule(400.0, 10.0, 0.1)  # beta^n overflows on its own
        with pytest.raises(DomainError, match="float64 range"):
            exp_rule(300.0, 10.0, 20.0)  # 1e300 e^20: the product overflows
        with pytest.raises(DomainError, match="float64 range"):
            exp_rule(400.5, 10.0, 0.1)  # beta^s, non-integer order
        with pytest.raises(DomainError, match="not real"):
            exp_rule(0.5, -1.0, -1.0)  # beta^s would be complex
        for s in (math.inf, -math.inf):
            with pytest.raises(DomainError, match="finite"):
                exp_rule(s, 1.0, 1.0)


class TestLogRule:
    def test_classical_orders(self):
        assert log_rule(1.0, 2.0) == pytest.approx(0.5, rel=1e-14)
        assert log_rule(2.0, 1.0) == pytest.approx(-1.0, rel=1e-14)
        assert log_rule(3.0, 0.5) == pytest.approx(2.0 / 0.125, rel=1e-13)

    def test_identity_order(self):
        assert log_rule(0.0, 3.0) == math.log(3.0)

    @staticmethod
    def printed_form(s, x):
        """x^{-s}/Gamma(1-s) [ln x - psi(-s) - C + 1/s] at 40 digits."""
        with mpmath.workdps(40):
            big_s, big_x = mpmath.mpf(s), mpmath.mpf(x)
            bracket = mpmath.log(big_x) - mpmath.digamma(-big_s) - mpmath.euler + 1 / big_s
            return float(big_x ** -big_s * mpmath.rgamma(1 - big_s) * bracket)

    # the printed bracket cancels as s -> 0; within 1e-12 of 0, psi(-s) is at a pole
    @pytest.mark.parametrize("s", [1e-13, -1e-13, 1e-10, 1e-8, 1e-6, 1e-4])
    @pytest.mark.parametrize("x", [0.3, 2.0, 7.0])
    def test_orders_next_to_zero_keep_their_digits(self, s, x):
        want = self.printed_form(s, x)
        assert abs(log_rule(s, x) - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("s", [1e-13, -1e-13, 1e-8])
    def test_at_x_one_the_error_is_absolute(self, s):
        # the value is about zeta(2) s there
        assert abs(log_rule(s, 1.0) - self.printed_form(s, 1.0)) <= 1e-15

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("magnitude", [10.0 ** -e for e in range(13, 1, -1)])
    def test_at_x_one_small_orders_keep_their_relative_digits(self, sign, magnitude):
        # ln x - psi(1-s) - C cancelled to 1.3e-3 relative at s = 1e-13
        s = sign * magnitude
        want = self.printed_form(s, 1.0)
        assert abs(log_rule(s, 1.0) - want) <= 1e-14 * abs(want)

    def test_order_minus_one_is_the_integral(self):
        # int_0^1 ln t dt = -1
        assert log_rule(-1.0, 1.0) == pytest.approx(-1.0, rel=1e-12)

    def test_against_quadrature(self):
        for s, x in [(-0.5, 1.0), (-0.3, 2.0), (-1.2, 0.7)]:
            ref = rl_integral(lambda t: math.log(t), s, BoundarySetup(0.0, x))
            assert log_rule(s, x) == pytest.approx(ref, rel=1e-8)

    def test_half_order(self):
        # fractional orders cross-checked against the composition route
        got = rl_derivative(math.log, 0.5, BoundarySetup(0.0, 2.0))
        assert log_rule(0.5, 2.0) == pytest.approx(got, rel=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_rule(0.5, -2.0)
        with pytest.raises(DomainError):
            log_rule(math.nan, 2.0)
        with pytest.raises(DomainError):
            log_rule(0.5, math.nan)
        with pytest.raises(DomainError):
            log_rule(0.5, math.inf)
        with pytest.raises(DomainError, match="float64 range"):
            log_rule(-200.5, 1e10)  # x^{-s} overflows
        with pytest.raises(DomainError, match="float64 range"):
            log_rule(200.0, 2.0)  # 199! / 2^200, integer order
        with pytest.raises(DomainError, match="float64 range"):
            log_rule(40.0, 1e-10)  # x^40 underflows to 0 in the classical form
        with pytest.raises(DomainError, match="float64 range"):
            log_rule(1.7976931348623157e308, 2.0)  # log (n-1)! overflows
        for s in (math.inf, -math.inf):
            with pytest.raises(DomainError, match="finite"):
                log_rule(s, 2.0)


class TestLeibniz:
    def test_constant_g_is_single_term(self):
        # g == 1 kills every j >= 1 term; the sum must be d^s f bit-for-bit
        bounds = BoundarySetup(0.0, 1.3)
        f_frac = lambda order, x: power_rule(order, 2.0, BoundarySetup(0.0, x))
        direct = f_frac(0.6, 1.3)
        approx = leibniz_series([lambda x: 1.0], f_frac, 0.6, 1.3, 10)
        assert approx.value == direct
        assert approx.terms_used == 1
        assert approx.converged

    def test_reproduces_integral_of_t(self):
        # f == 1, g = t, s = -1: the product rule must rebuild int_0^x t dt
        x = 1.7
        f_frac = lambda order, y: power_rule(order, 0.0, BoundarySetup(0.0, y))
        g_derivs = [lambda y: y, lambda y: 1.0]
        approx = leibniz_series(g_derivs, f_frac, -1.0, x, 12)
        assert approx.value == pytest.approx(x * x / 2.0, rel=1e-12)
        assert approx.converged  # terminated on the exhausted derivative list

    def test_fractional_order_against_quadrature(self):
        # f = t^0.5, g = t^2, s = -0.4 assembled by the product rule
        s, x = -0.4, 1.2
        f_frac = lambda order, y: power_rule(order, 0.5, BoundarySetup(0.0, y))
        g_derivs = [lambda y: y * y, lambda y: 2.0 * y, lambda y: 2.0]
        approx = leibniz_series(g_derivs, f_frac, s, x, 3)
        ref = rl_integral(lambda t: t ** 2.5, s, BoundarySetup(0.0, x))
        assert approx.value == pytest.approx(ref, rel=1e-9)

    def test_validation(self):
        with pytest.raises(DomainError):
            leibniz_series([], lambda o, x: 0.0, 0.5, 1.0, 3)
        with pytest.raises(DomainError):
            leibniz_series([lambda x: 1.0], lambda o, x: 0.0, 0.5, 1.0, 0)
        g_derivs = [lambda x: 1.0] * 10
        for bad in (math.inf, 2.5):
            with pytest.raises(DomainError, match="integer"):
                leibniz_series(g_derivs, lambda o, x: 0.0, 0.5, 1.0, bad)

    def test_stops_once_converged(self):
        # f = t^0.5, g = e^t: every g-derivative is available, and the sum
        # stops on STOP_RUN negligible terms instead of running to j = 60
        s, x = -0.4, 1.2
        calls = []

        def f_frac(order, y):
            calls.append(order)
            return power_rule(order, 0.5, BoundarySetup(0.0, y))

        approx = leibniz_series([math.exp] * 61, f_frac, s, x, 60)
        ref = rl_integral(lambda t: math.sqrt(t) * math.exp(t), s, BoundarySetup(0.0, x))
        assert approx.value == pytest.approx(ref, rel=1e-12)
        assert approx.converged and not approx.diverging
        assert len(calls) == approx.terms_used < 61

    def test_a_zero_tail_stops_by_the_run_or_by_the_end_of_the_stream(self):
        # g = 2y + 1, so every derivative past g' is zero.  Given as functions,
        # the zero terms make a run of three negligible terms; left out, the
        # stream of terms ends
        f_frac = lambda order, y: power_rule(order, 0.5, BoundarySetup(0.0, y))
        g_derivs = [lambda y: 2.0 * y + 1.0, lambda y: 2.0]
        zero = lambda y: 0.0
        by_run = leibniz_series(g_derivs + [zero] * 8, f_frac, 0.3, 1.2, 10)
        by_end = leibniz_series(g_derivs + [zero], f_frac, 0.3, 1.2, 10)
        assert (by_run.stop_reason, by_run.terms_used) == ("converged", 5)
        assert (by_end.stop_reason, by_end.terms_used) == ("terminated", 3)
        assert by_run.value == by_end.value
        assert by_run.last_term_abs == by_end.last_term_abs == 0.0

    def test_cut_at_n_terms_is_budget(self):
        # g = e^{2y}, d^j g = 2^j e^{2y}: at j = 4 the terms are still large
        g_derivs = [lambda y, j=j: 2.0 ** j * math.exp(2.0 * y) for j in range(10)]
        f_frac = lambda order, y: power_rule(order, 0.5, BoundarySetup(0.0, y))
        approx = leibniz_series(g_derivs, f_frac, 0.7, 3.0, 4)
        assert approx.terms_used == 5
        assert not approx.converged and not approx.diverging

    @pytest.mark.parametrize(
        "g_derivs,f_frac",
        [
            ([lambda x: 1e300, lambda x: 1e300], lambda o, x: 1e300),  # terms overflow
            ([lambda x: 1e308, lambda x: -1e308], lambda o, x: 1e300),  # inf and -inf
            ([lambda x: 1e308, lambda x: 1e308], lambda o, x: 1.5),  # finite terms, sum overflows
            ([lambda x: math.nan, lambda x: 1.0], lambda o, x: 1.0),
        ],
        ids=["terms-overflow", "inf-and-minus-inf", "sum-overflows", "nan-derivative"],
    )
    def test_non_finite_sums_raise(self, g_derivs, f_frac):
        with pytest.raises(DomainError, match="float64 range"):
            leibniz_series(g_derivs, f_frac, 0.5, 1.0, 3)


class TestWholeDomain:
    """Any float inputs: a finite value, or a FracBesselError."""

    @staticmethod
    def _finite_or_rejected(rule, *args):
        try:
            value = rule(*args)
        except FracBesselError:
            return
        assert isinstance(value, float) and math.isfinite(value)

    @given(s=st.floats(), beta=st.floats(), x=st.floats())
    @settings(max_examples=200, deadline=None)
    def test_exp_rule(self, s, beta, x):
        self._finite_or_rejected(exp_rule, s, beta, x)

    @given(s=st.floats(), x=st.floats())
    @settings(max_examples=200, deadline=None)
    def test_log_rule(self, s, x):
        self._finite_or_rejected(log_rule, s, x)

    @given(s=st.floats(), p=st.floats(), a=st.floats(), x=st.floats())
    @settings(max_examples=200, deadline=None)
    def test_power_rule(self, s, p, a, x):
        self._finite_or_rejected(lambda: power_rule(s, p, BoundarySetup(a, x)))

    @given(p=REALS, s=REALS, x=REALS)
    @settings(max_examples=100, deadline=None)
    def test_rl_integral(self, p, s, x):
        self._finite_or_rejected(lambda: rl_integral(power_on(p, x), s, BoundarySetup(0.0, x)))

    @given(p=REALS, s=REALS, x=REALS)
    @settings(max_examples=60, deadline=None)
    def test_rl_derivative(self, p, s, x):
        # the central stencil evaluates f past x
        self._finite_or_rejected(
            lambda: rl_derivative(power_on(p, math.inf), s, BoundarySetup(0.0, x))
        )

    @given(p=REALS, s=REALS, a=REALS, x=REALS)
    @settings(max_examples=100, deadline=None)
    def test_rl_integral_any_boundary(self, p, s, a, x):
        self._finite_or_rejected(lambda: rl_integral(power_on(p, x, a), s, BoundarySetup(a, x)))

    @given(p=REALS, s=REALS, a=REALS, x=REALS)
    @settings(max_examples=60, deadline=None)
    def test_rl_derivative_any_boundary(self, p, s, a, x):
        self._finite_or_rejected(
            lambda: rl_derivative(power_on(p, math.inf, a), s, BoundarySetup(a, x))
        )

    @given(
        c=st.lists(REALS, min_size=1, max_size=4),
        p=REALS,
        s=REALS,
        x=REALS,
        n_terms=st.integers(-2, 10),
    )
    @settings(max_examples=100, deadline=None)
    def test_leibniz_series(self, c, p, s, x, n_terms):
        # g = sum_i c_i y^i with its classical derivatives; f = t^p by the power rule
        def derivative(j):
            def g(y):
                try:
                    return sum(ci * math.perm(i, j) * y ** (i - j) for i, ci in enumerate(c) if i >= j)
                except OverflowError:
                    return math.inf

            return g

        g_derivs = [derivative(j) for j in range(len(c))]

        def f_frac(order, y):
            return power_rule(order, p, BoundarySetup(0.0, y))

        self._finite_or_rejected(lambda: leibniz_series(g_derivs, f_frac, s, x, n_terms).value)
