"""The quadrature oracle and the definite-integral identity audit."""

import math

import pytest
import scipy.special as sc
from hypothesis import given, settings
from hypothesis import strategies as st

from fracbessel import (
    DomainError,
    FracBesselError,
    VerificationRecord,
    k_oracle,
    verify_m4a,
    verify_m4b,
    verify_m5a,
    verify_m5b,
)

SQRT_PI = math.sqrt(math.pi)


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

    @given(s=st.floats(-50.0, 50.0), z=st.floats())
    @settings(max_examples=40, deadline=None)
    def test_whole_domain(self, s, z):
        try:
            value = k_oracle(s, z)
        except FracBesselError:
            return
        assert isinstance(value, float) and math.isfinite(value)


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

    def test_domain(self):
        with pytest.raises(DomainError):
            verify_m4a(-1.0, 1.0, 1.0)
        with pytest.raises(DomainError, match="float64 range"):
            verify_m4a(172.0, 1.0, 1.0)

    @pytest.mark.parametrize(
        "mu,beta,x",
        [
            (162.0, 163.0, 160.0),  # the upper limit (x/2)^mu
            (96.11562459018143, 3.159080858019146, 0.007024004158693277),  # t^(-2 mu)
        ],
    )
    def test_power_overflow_is_a_domain_error(self, mu, beta, x):
        with pytest.raises(DomainError, match="float64 range"):
            verify_m4a(mu, beta, x)

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
            verify_m4b(172.0, 1.0, 1.0)  # the lhs integrand overflows
        with pytest.raises(DomainError):
            verify_m4b(172.0, 1000.0, 1.0)  # finite lhs; Gamma(172) overflowed the rhs

    def test_power_overflow_is_a_domain_error(self):
        with pytest.raises(DomainError, match="float64 range"):
            verify_m4b(463.5412579163402, 299.1327523582113, 0.4301187237146097)


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

    def test_domain(self):
        with pytest.raises(DomainError):
            verify_m5b(-0.7, 1.0, 1.0)
        with pytest.raises(DomainError):
            verify_m5b(0.1, 1.0, 1.0)
        with pytest.raises(DomainError, match="identity domain"):
            verify_m5b(-0.15, math.inf, 1.0)
        with pytest.raises(DomainError, match="float64 range"):
            verify_m5b(-0.25, 1e308, 1e308)  # the prefactor overflows


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

