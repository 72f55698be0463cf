"""The quadrature oracle and the definite-integral identity audit."""

import ast
import itertools
import math
import sys

import mpmath
import pytest
import scipy.special as sc
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fracbessel import (
    DomainError,
    FracBesselError,
    ToleranceNotMet,
    VerificationRecord,
    k_oracle,
    verify_m4a,
    verify_m4b,
    verify_m5a,
    verify_m5b,
)
from fracbessel import oracle

SQRT_PI = math.sqrt(math.pi)

#: The reference grid: s in [0, 50] by z in [1e-3, 700], z geometric.
GRID_S = (0.0, 0.3, 1.7, 4.5, 8.8, 13.1, 21.4, 33.3, 50.0)
GRID_Z = tuple(1e-3 * 7e5 ** (i / 14) for i in range(15))


def _mp_k(s: float, z: float) -> float:
    """K_s(z) from mpmath at 40 digits, rounded once."""
    with mpmath.workdps(40):
        return float(mpmath.besselk(s, z))


def _tol(z: float) -> float:
    # the oracle's accuracy target; scipy's kv is within 5e-14 on the grid
    return 1e-13 if z < 100 else 3e-13


def _adaptive_cosh_kernel(s: float, z: float) -> float:
    """K_s(z) by QUADPACK's adaptive quadrature of the same cosh integral,
    cut where the integrand underflows: the oracle's former method, asked
    for a relative tolerance only, since an absolute floor swamps K once z
    is large.  scipy is a test dependency; the package itself imports none."""
    cut = 1.0
    while z * math.cosh(cut) - abs(s) * cut <= 745.0:
        cut += 0.5

    def integrand(t: float) -> float:
        m = -z * math.cosh(t)
        return 0.5 * (math.exp(m + abs(s * t)) + math.exp(m - abs(s * t)))

    value, _ = quad(integrand, 0.0, cut, epsabs=0.0, epsrel=1e-13, limit=2000)
    return value


class TestKOracle:
    def test_half_integer_closed_forms(self):
        assert k_oracle(0.5, 1.0) == pytest.approx(math.sqrt(math.pi / 2.0) * math.exp(-1.0), rel=1e-12)
        assert k_oracle(1.5, 2.0) == pytest.approx(math.sqrt(math.pi / 4.0) * math.exp(-2.0) * 1.5, rel=1e-12)

    def test_against_scipy(self):
        # scipy.special.kv is a third, fully independent implementation
        for s, z in [(0.25, 1.0), (2.6, 2.0), (0.0, 0.5), (10.3, 0.7), (7.5, 5.0)]:
            assert k_oracle(s, z) == pytest.approx(float(sc.kv(s, z)), rel=1e-10)

    @pytest.mark.parametrize("s", [0.3, 0.7, 2.5, 11.0])
    @pytest.mark.parametrize("z", [0.5, 1.0, 5.0])
    def test_even_in_order(self, s, z):
        # cosh(st) is even in s, so the symmetry costs nothing
        assert k_oracle(-s, z) == pytest.approx(k_oracle(s, z), rel=1e-12)

    @pytest.mark.parametrize("s", [0.3, 1.0, 2.5])
    @pytest.mark.parametrize("z", [0.5, 1.0, 5.0])
    def test_three_term_recurrence(self, s, z):
        # K_{s+1}(z) = K_{s-1}(z) + (2s/z) K_s(z)
        lhs = k_oracle(s + 1.0, z)
        rhs = k_oracle(s - 1.0, z) + 2.0 * s / z * k_oracle(s, z)
        assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            k_oracle(0.5, 0.0)
        with pytest.raises(DomainError):
            k_oracle(51.0, 1.0)
        with pytest.raises(DomainError):
            k_oracle(1.0, math.nan)
        with pytest.raises(DomainError):
            k_oracle(math.nan, 1.0)
        with pytest.raises(DomainError, match="float64 range"):
            k_oracle(50.0, 1e-5)  # K_50(1e-5) ~ 3e327; the integrand overflows
        with pytest.raises(DomainError, match="tail cut"):
            k_oracle(0.0, 5e-324)  # cosh would overflow before the cut

    @pytest.mark.parametrize("call", [lambda: k_oracle(9.5, 5e-101),
                                      lambda: verify_m4a(10.0, 1e-200, 1e-100)],
                             ids=["k_oracle", "verify_m4a"])
    def test_overflow_names_the_whole_exponent(self, call):
        # ln K_{9.5}(5e-101) = 2211.62; the message named half of it, exp(1106)
        with mpmath.workdps(40):
            assert f"{float(mpmath.log(mpmath.besselk(9.5, 5e-101))):.6g}" == "2211.62"
        with pytest.raises(DomainError, match=r"^exp\(2211\.62\) is outside the float64 range"):
            call()

    @given(s=st.floats(-50.0, 50.0), z=st.floats())
    @settings(max_examples=40, deadline=None)
    def test_whole_domain(self, s, z):
        try:
            value = k_oracle(s, z)
        except FracBesselError:
            return
        assert isinstance(value, float) and math.isfinite(value)


class TestOracleAccuracy:
    """k_oracle against two independent references: 40-digit mpmath and scipy's kv."""

    @pytest.mark.parametrize("s", GRID_S)
    def test_grid_against_mpmath_and_kv(self, s):
        for z in GRID_Z:
            ref = _mp_k(s, z)
            if not sys.float_info.min < ref < sys.float_info.max:
                continue
            value = k_oracle(s, z)
            assert abs(value - ref) <= _tol(z) * ref, (s, z, value, ref)
            kv = float(sc.kv(s, z))
            if kv:  # kv underflows to 0 near z = 700, where K is still ~1e-305
                assert abs(value - kv) <= _tol(z) * kv, (s, z, value, kv)

    @pytest.mark.parametrize("s,z", [(0.0, 30.0), (2.5, 50.0), (0.0, 100.0), (8.8, 683.0)])
    def test_large_z(self, s, z):
        # an absolute quadrature floor of 1e-14 once left these 1e-8 ... 2e-6 off
        ref = _mp_k(s, z)
        assert abs(k_oracle(s, z) - ref) <= _tol(z) * ref

    @pytest.mark.parametrize("s", [0.0, 0.5, 2.6, 7.5, 15.0])
    @pytest.mark.parametrize("z", [0.01, 0.5, 2.0, 8.0, 20.0])
    def test_against_adaptive_quadrature(self, s, z):
        assert k_oracle(s, z) == pytest.approx(_adaptive_cosh_kernel(s, z), rel=1e-12)

    @pytest.mark.parametrize("s", [0.0, 0.3, 1.7, 4.5, 8.8])
    def test_error_estimate_bounds_the_error(self, s):
        # at the default settings the rule's own error is below rounding, which
        # the 4e-15 (about 20 ulp) allows for
        for z in (0.01, 0.1, 1.0, 5.0, 20.0, 50.0):
            value, nodes, estimate = oracle._trapezoid(s, z)
            ref = _mp_k(s, z)
            assert abs(value - ref) <= estimate + 4e-15 * ref, (s, z)
            assert estimate <= oracle._TRAPEZOID_REL_TOL * value
            assert nodes > 0

    @pytest.mark.parametrize("s", [0.0, 1.7, 8.8, 20.0])
    def test_error_estimate_bounds_a_coarse_rule(self, s, monkeypatch):
        # one node per peak width, accepted at once: the truncation error shows,
        # and the estimate (the change from the rule at twice the step) covers it
        monkeypatch.setattr(oracle, "_NODES_PER_WIDTH", 1)
        monkeypatch.setattr(oracle, "_TRAPEZOID_REL_TOL", 1.0)
        for z in (0.01, 0.1, 1.0, 5.0, 20.0, 50.0):
            value, _, estimate = oracle._trapezoid(s, z)
            assert abs(value - _mp_k(s, z)) <= estimate, (s, z)

    def test_a_first_pass_that_does_not_settle_is_halved(self, monkeypatch):
        # the first pass (57 nodes) moves by 2.4e-10, past the tolerance, and
        # one halving settles it
        s, z = 2.0413331567207313, 0.009719087289018841
        value, nodes, estimate = oracle._trapezoid(s, z)
        assert nodes == 113
        assert abs(value - _mp_k(s, z)) <= 1e-14 * value
        assert estimate <= oracle._TRAPEZOID_REL_TOL * value
        monkeypatch.setattr(oracle, "_MAX_HALVINGS", 0)
        with pytest.raises(ToleranceNotMet, match="trapezoid"):
            oracle._trapezoid(s, z)

    def test_unsettled_rule_raises(self, monkeypatch):
        monkeypatch.setattr(oracle, "_NODES_PER_WIDTH", 1)
        monkeypatch.setattr(oracle, "_MAX_HALVINGS", 0)
        with pytest.raises(ToleranceNotMet, match="trapezoid") as info:
            k_oracle(0.3, 1.0)
        assert info.value.estimate > 0


def test_oracle_imports_no_series_code():
    # the oracle is the ground truth the series are measured against, so it
    # must not share their algebra
    tree = ast.parse(open(oracle.__file__, encoding="utf-8").read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    for name in imported:
        assert not {"series", "vk", "truncation"} & set(name.split(".")), name


class TestRecordArithmetic:
    def test_build_computes_deviations(self):
        rec = VerificationRecord.build("M4A", {"mu": 1.0}, 2.0, 2.5, 0.3)
        assert rec.abs_dev == pytest.approx(0.5)
        assert rec.rel_dev == pytest.approx(0.5 / 2.5)
        assert rec.passed
        assert not VerificationRecord.build("M4A", {}, 2.0, 2.5, 0.1).passed

    @pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
    def test_build_rejects_a_tolerance_that_is_not_positive_and_finite(self, tol):
        # a NaN or infinite tol would switch the verdict off instead of gating it
        with pytest.raises(DomainError, match="tol"):
            VerificationRecord.build("M4A", {}, 2.0, 2.0, tol)

    def test_as_dict_roundtrip(self):
        rec = verify_m4a(1.0, 1.0, 1.0, tol=1e-10)
        d = rec.as_dict()
        assert d["identity"] == "M4A"
        assert d["pass"] is True
        assert d["rel_dev"] == rec.rel_dev


class TestM4A:
    def test_analytic_anchor(self):
        # both sides are e^{-1} in closed form at mu = beta = x = 1
        rec = verify_m4a(1.0, 1.0, 1.0, tol=1e-10)
        assert rec.lhs == pytest.approx(math.exp(-1.0), rel=1e-11)
        assert rec.rhs == pytest.approx(math.exp(-1.0), rel=1e-11)
        assert rec.passed

    @pytest.mark.parametrize("mu,beta,x", [(0.5, 2.0, 1.0), (2.5, 1.0, 0.5), (1.5, 0.5, 2.0)])
    def test_grid(self, mu, beta, x):
        rec = verify_m4a(mu, beta, x, tol=1e-7)
        assert rec.passed, rec

    @pytest.mark.parametrize("mu,beta,x", [(2.0, 100.0, 1.0), (1.5, 80.0, 1.0)])
    def test_tiny_integral_keeps_its_relative_accuracy(self, mu, beta, x):
        # lhs ~ 3.5e-48 and 2.2e-38: an absolute quadrature floor of 1e-14
        # once read rel_dev 8.8e-2 and 2.9e-3 here
        rec = verify_m4a(mu, beta, x, tol=1e-7)
        assert rec.passed, rec

    def test_domain(self):
        with pytest.raises(DomainError):
            verify_m4a(-1.0, 1.0, 1.0)
        with pytest.raises(DomainError, match="float64 range"):
            verify_m4a(50.0, 0.01, 1.0)  # the left side is 9.4e351

    @pytest.mark.parametrize(
        "mu,beta,x",
        [
            (50.0, 1.0, 0.001),
        ],
    )
    def test_power_overflow_is_a_domain_error(self, mu, beta, x):
        # the left side at (50, 1, 0.001) is 5.7e-399
        with pytest.raises(DomainError, match="float64 range"):
            verify_m4a(mu, beta, x)

    def test_prefactor_below_float64_times_a_large_k(self):
        # the prefactor e^{-769} is below float64 and K_{49.5}(4) = 5.0e46:
        # only their product, 6.24e-288 like the left side, is a double
        mu, beta, x = 50.0, 8e7, 1e7
        rec = verify_m4a(mu, beta, x)
        with mpmath.workdps(40):
            m, b, t = mpmath.mpf(mu), mpmath.mpf(beta), mpmath.mpf(x)
            want = (b ** (0.5 - m) / mpmath.sqrt(mpmath.pi * t) * mpmath.exp(-b / (2 * t))
                    * mpmath.gamma(m) * mpmath.besselk(m - 0.5, b / (2 * t)))
        for side in (rec.lhs, rec.rhs):
            assert abs(side - want) <= 1e-13 * want, (side, want)
        assert rec.passed

    def test_order_past_the_oracle_raises_before_any_quadrature(self, monkeypatch):
        # K is evaluated first: mu - 1/2 = 161.5 is past the oracle's |s| <= 50
        def no_quadrature(*args, **kwargs):
            raise AssertionError("quadrature ran before the order check")

        monkeypatch.setattr(oracle, "_rl_quadrature", no_quadrature)
        with pytest.raises(DomainError, match="k_oracle supports"):
            verify_m4a(162.0, 163.0, 160.0)

    @pytest.mark.parametrize("verify", [verify_m4a, verify_m4b])
    @pytest.mark.parametrize(
        "mu,beta,x",
        [(1.0, math.inf, 1.0), (math.inf, 1.0, 1.0), (1.0, 1.0, math.inf), (math.nan, 1.0, 1.0)],
    )
    def test_non_finite_rejected(self, verify, mu, beta, x):
        # verify_m4a(1, inf, 1) returned a passed record with lhs = rhs = 0
        with pytest.raises(DomainError, match="identity domain"):
            verify(mu, beta, x)


class TestM4B:
    def test_analytic_anchor(self):
        rec = verify_m4b(1.0, 1.0, 1.0, tol=1e-10)
        assert rec.lhs == pytest.approx(math.exp(-1.0), rel=1e-11)
        assert rec.passed

    @pytest.mark.parametrize("mu,beta,x", [(1.5, 1.0, 2.0), (0.7, 3.0, 1.0)])
    def test_grid(self, mu, beta, x):
        assert verify_m4b(mu, beta, x, tol=1e-7).passed

    def test_domain(self):
        with pytest.raises(DomainError, match="float64 range"):
            verify_m4b(50.0, 0.01, 1.0)  # the lhs integrand overflows
        with pytest.raises(DomainError):
            verify_m4b(172.0, 1000.0, 1.0)  # the order 171.5 is past the oracle's |s| <= 50

    def test_power_overflow_is_a_domain_error(self):
        with pytest.raises(DomainError, match="float64 range"):
            verify_m4b(50.0, 1.0, 0.001)  # the left side rounds to 0


class TestM5A:
    @pytest.mark.parametrize("s,beta,x", [(-0.5, 1.0, 1.0), (-0.25, 2.0, 1.0), (-0.9, 1.0, 2.0)])
    def test_grid(self, s, beta, x):
        # the s = -1/2 row exercises K_0, which no series method reaches
        rec = verify_m5a(s, beta, x, tol=1e-7)
        assert rec.passed, rec

    def test_k0_row_really_uses_zero_order(self):
        rec = verify_m5a(-0.5, 1.0, 1.0, tol=1e-7)
        expected_rhs = (1.0 / SQRT_PI) * math.exp(-0.5) * k_oracle(0.0, 0.5)
        assert rec.rhs == pytest.approx(expected_rhs, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            verify_m5a(0.3, 1.0, 1.0)

    def test_prefactor_below_float64_times_a_large_k(self):
        # the prefactor e^{-816} is below float64 and K_50(0.05) = 4e142:
        # only their product, 2.07e-212 like the left side, is a double
        s, beta, x = -50.5, 1e7, 1e8
        rec = verify_m5a(s, beta, x)
        with mpmath.workdps(40):
            v, b, t = mpmath.mpf(s), mpmath.mpf(beta), mpmath.mpf(x)
            want = (b ** (v + 0.5) / mpmath.sqrt(mpmath.pi * t) * mpmath.exp(-b / (2 * t))
                    * mpmath.besselk(v + 0.5, b / (2 * t)))
        for side in (rec.lhs, rec.rhs):
            assert abs(side - want) <= 1e-13 * want, (side, want)
        assert rec.passed


class TestM5B:
    def test_readings_coincide_at_x1(self):
        printed, alt = verify_m5b(-0.25, 1.0, 1.0, tol=1e-9)
        assert printed.params["k_arg"] == alt.params["k_arg"] == 1.0
        assert printed.rhs == alt.rhs
        # the common value is analytically forced and must match quadrature
        assert printed.passed and alt.passed

    def test_readings_split_away_from_x1(self):
        printed, alt = verify_m5b(-0.25, 1.0, 4.0, tol=1e-7)
        assert printed.params["k_arg"] == 0.25
        assert alt.params["k_arg"] == 0.5
        # measured outcome: neither printed reading matches the quadrature
        # (the x-power would need correction as well); both recorded, no claim
        assert not printed.passed
        assert not alt.passed
        assert printed.rel_dev > 1e-2 and alt.rel_dev > 1e-2

    @pytest.mark.parametrize("x, calls", [(1.0, 1), (4.0, 2), (0.3, 2)])
    def test_oracle_runs_once_per_distinct_reading(self, x, calls, monkeypatch):
        # at x = 1 both readings take K at the same argument, so one value serves
        expected = verify_m5b(-0.25, 1.3, x)
        seen = []

        def counted(s, z):
            seen.append(z)
            return k_oracle(s, z)

        monkeypatch.setattr(oracle, "k_oracle", counted)
        assert verify_m5b(-0.25, 1.3, x) == expected
        assert len(seen) == calls

    def test_domain(self):
        with pytest.raises(DomainError):
            verify_m5b(-0.7, 1.0, 1.0)
        with pytest.raises(DomainError):
            verify_m5b(0.1, 1.0, 1.0)
        with pytest.raises(DomainError, match="identity domain"):
            verify_m5b(-0.15, math.inf, 1.0)
        with pytest.raises(DomainError, match="float64 range"):
            verify_m5b(-0.25, 1e308, 1e308)  # the prefactor overflows

    def test_subnormal_prefactor_keeps_its_digits(self):
        # the float-power prefactor is about 1e-320, a subnormal with a few
        # significant bits; times K it read 1e-4 off in both readings
        s, beta, x = -0.1, 1e-300, 1e-250
        with mpmath.workdps(40):
            v, b, t = mpmath.mpf(s), mpmath.mpf(beta), mpmath.mpf(x)
            pref = 2 / mpmath.sqrt(mpmath.pi) * (b / 2) ** (v + 0.5) * t ** (0.75 - v / 2)
            wants = [pref * mpmath.besselk(v + 0.5, arg) for arg in (b / t, b / mpmath.sqrt(t))]
        for rec, want in zip(verify_m5b(s, beta, x), wants):
            assert abs(rec.rhs - want) <= 1e-13 * want, (rec.rhs, want)


#: A grid over the box mu, beta, x in [0.3, 3] that the audit workload draws from.
BOX = (0.3, 0.9, 1.7, 3.0)


def _m4_lhs_reference(mu, beta, x, squared):
    """int_0^x t^{-2mu} (x - t)^{mu-1} [(x + t)^{mu-1}] e^{-beta/t} dt at 40 digits.

    u = (x - t)^mu removes the endpoint singularity of the kernel, and the
    integrand is scaled by e^{beta/x}, its value at u = 0, so that mpmath's
    absolute tolerance acts as a relative one on integrals as small as 1e-48.
    """
    with mpmath.workdps(40):
        mu, beta, x = map(mpmath.mpf, (mu, beta, x))

        def g(u):
            t = x - u ** (1 / mu)
            if t <= 0:
                return mpmath.mpf(0)
            value = t ** (-2 * mu) * mpmath.exp(beta / x - beta / t)
            return value * (x + t) ** (mu - 1) if squared else value

        top = x ** mu
        integral = mpmath.quad(g, [0] + [top * f for f in (0.001, 0.01, 0.1, 0.5)] + [top])
        return float(integral * mpmath.exp(-beta / x) / mu)


def _m4_log_lhs_reference(mu, beta, x, squared):
    """ln int_0^x t^{-2mu} (x - t)^{mu-1} [(x + t)^{mu-1}] e^{-beta/t} dt at 40 digits.

    Taken in t and in log space, so that it holds past the float64 range:
    the integrand is scaled by its largest value on the breakpoints, which
    crowd toward both ends on a log scale, so that a peak next to either end
    falls between two of them.
    """
    with mpmath.workdps(40):
        mu, beta, x = map(mpmath.mpf, (mu, beta, x))

        def log_integrand(t):
            value = -2 * mu * mpmath.log(t) + (mu - 1) * mpmath.log(x - t) - beta / t
            return value + (mu - 1) * mpmath.log(x + t) if squared else value

        steps = [mpmath.mpf(10) ** (-k / mpmath.mpf(2)) for k in range(1, 41)]
        points = sorted({mpmath.mpf(0), x, *(x * k / 16 for k in range(1, 16)),
                         *(x * d for d in steps), *(x - x * d for d in steps)})
        c = max(log_integrand(t) for t in points[1:-1])
        scaled = mpmath.quad(lambda t: mpmath.exp(log_integrand(t) - c) if 0 < t < x else 0, points)
        return mpmath.log(scaled) + c


class TestIdentityAccuracy:
    """Both sides agree far inside the 1e-7 default, so lost digits show."""

    @pytest.mark.parametrize("verify", [verify_m4a, verify_m4b])
    def test_m4_over_the_audit_box(self, verify):
        worst = max(verify(*p).rel_dev for p in itertools.product(BOX, BOX, BOX))
        assert worst <= 1e-13

    def test_m5a_over_the_audit_box(self):
        points = itertools.product((-0.95, -0.6, -0.3, -0.05), BOX, BOX)
        assert max(verify_m5a(*p).rel_dev for p in points) <= 1e-13

    def test_m5b_at_x_one(self):
        # the only x at which both readings are the identity
        for s, beta in itertools.product((-0.45, -0.3, -0.15, -0.05), BOX):
            for rec in verify_m5b(s, beta, 1.0):
                assert rec.rel_dev <= 1e-13, rec

    @pytest.mark.parametrize("verify, squared", [(verify_m4a, False), (verify_m4b, True)])
    @pytest.mark.parametrize(
        "mu,beta,x",
        [(1.0, 1.0, 1.0), (2.0, 100.0, 1.0), (1.5, 80.0, 1.0), (0.3, 3.0, 0.3), (3.0, 3.0, 0.3),
         (0.3, 0.3, 3.0), (3.0, 0.3, 3.0)],
    )
    def test_m4_left_side_against_mpmath(self, verify, squared, mu, beta, x):
        # (2, 100, 1) and (1.5, 80, 1) are integrals of 3.8e-48 and 2.2e-38
        want = _m4_lhs_reference(mu, beta, x, squared)
        assert verify(mu, beta, x).lhs == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize(
        "verify, args",
        [(verify_m5a, (-0.5, 1e3, 1.0)), (verify_m5b, (-0.25, 2e3, 1.0)),
         (verify_m4a, (2.0, 1e3, 1.0)), (verify_m4b, (2.0, 1e3, 1.0))],
    )
    def test_a_side_that_rounds_to_zero_is_a_range_error(self, verify, args):
        # both sides are positive; these returned lhs = rhs = 0.0 with passed=True
        with pytest.raises(DomainError, match="float64 range"):
            verify(*args)

    @pytest.mark.parametrize("verify, args", [(verify_m4a, (1e-300, 1.0, 1.0)), (verify_m4b, (50.0, 8e7, 1e7))])
    def test_large_left_sides_inside_float64_are_returned(self, verify, args):
        # left sides of 3.7e299 and 2.7e57; an intermediate power raised a range error here
        assert verify(*args).rel_dev <= 1e-12

    @pytest.mark.parametrize(
        "verify, squared, args",
        [(verify_m4a, False, (50.0, 0.01, 0.01)), (verify_m4a, False, (50.0, 500.0, 1.0)),
         (verify_m4b, True, (50.0, 500.0, 1.0))],
    )
    def test_left_sides_whose_integrand_leaves_float64(self, verify, squared, args):
        # 5.7e253, 6.4e-288 and 3.2e-274: the unscaled integrand passed e^709
        # at t = 1e-4, or each of its values rounded to 0, and these raised
        want = float(mpmath.exp(_m4_log_lhs_reference(*args, squared)))
        rec = verify(*args)
        assert rec.lhs == pytest.approx(want, rel=1e-13)
        assert rec.rhs == pytest.approx(want, rel=1e-13)

    def test_m5a_at_a_large_order(self):
        # d^-50 of t^-100 e^{-0.01/t} at 0.01 is the M4A integral over Gamma(50): 9.4e190
        with mpmath.workdps(40):
            want = float(mpmath.exp(_m4_log_lhs_reference(50.0, 0.01, 0.01, False) - mpmath.loggamma(50)))
        rec = verify_m5a(-50.0, 0.01, 0.01)
        assert rec.lhs == pytest.approx(want, rel=1e-13)
        assert rec.rhs == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize(
        "verify, squared, args",
        [(verify_m4a, False, (50.0, 0.01, 1.0)), (verify_m4a, False, (50.0, 1.0, 0.001)),
         (verify_m4b, True, (50.0, 1.0, 0.001))],
    )
    def test_a_left_side_past_float64_still_raises(self, verify, squared, args):
        # 9.4e351, 5.7e-399 and 5.9e-533
        log_lhs = _m4_log_lhs_reference(*args, squared)
        assert not math.log(5e-324) < log_lhs < math.log(sys.float_info.max)
        with pytest.raises(DomainError, match="float64 range"):
            verify(*args)


class TestWholeDomain:
    """Any float triple: a record whose two sides are finite, or a FracBesselError."""

    @pytest.mark.parametrize("verify", [verify_m4a, verify_m4b, verify_m5a, verify_m5b])
    @given(a=st.floats(), b=st.floats(), c=st.floats())
    @settings(max_examples=100, deadline=None)
    def test_finite_record_or_rejected(self, verify, a, b, c):
        try:
            out = verify(a, b, c)
        except FracBesselError:
            return
        for rec in out if isinstance(out, tuple) else (out,):
            assert math.isfinite(rec.lhs) and math.isfinite(rec.rhs)

