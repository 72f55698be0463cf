"""Independent ground truth for K_s(z) plus the definite-integral identity audit.

The oracle is the cosh-kernel integral representation

    K_s(z) = int_0^inf exp(-z cosh t) cosh(s t) dt,   z > 0,

evaluated by adaptive quadrature with an explicit tail cut.  It shares no
code or algebra with the series evaluators, so a bug cannot validate
itself.  The verify_* operations quadrature both sides of the library's
catalogued integral identities (IDs M4A, M4B, M5A, M5B) and return
structured deviation records; M5B is measured under both plausible readings
of its K argument rather than assuming either.  Each evaluates K first, so
an order the oracle refuses raises before any left-hand-side quadrature
runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .fractional import BoundarySetup, adaptive_quad, rl_integral
from .special import _guarded_exp, _in_range, _range_error

_TINY = 1e-300

#: exp underflow margin for the tail cut of the oracle integrand.
_EXP_UNDERFLOW = 745.0

#: Largest tail cut T; cosh(T) stays inside the float64 range.
_T_MAX = 710.0


@dataclass(frozen=True)
class VerificationRecord:
    """One identity check: inputs, both sides, deviations, verdict.

    ``rel_dev = |lhs - rhs| / max(|lhs|, |rhs|, tiny)`` and
    ``passed <=> rel_dev <= tol``; the flag is plain arithmetic, whether a
    failed record should fail a run is the caller's policy.
    """

    identity_id: str
    params: dict[str, float]
    lhs: float
    rhs: float
    abs_dev: float
    rel_dev: float
    passed: bool
    tol: float

    @classmethod
    def build(
        cls, identity_id: str, params: dict[str, float], lhs: float, rhs: float, tol: float
    ) -> "VerificationRecord":
        if not 0 < tol < math.inf:
            raise DomainError(f"tol must be positive and finite, got tol={tol!r}")
        abs_dev = abs(lhs - rhs)
        rel_dev = abs_dev / max(abs(lhs), abs(rhs), _TINY)
        return cls(
            identity_id=identity_id,
            params=dict(params),
            lhs=lhs,
            rhs=rhs,
            abs_dev=abs_dev,
            rel_dev=rel_dev,
            passed=bool(rel_dev <= tol),
            tol=tol,
        )

    def as_dict(self) -> dict:
        return {
            "identity": self.identity_id,
            "params": dict(self.params),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "abs_dev": self.abs_dev,
            "rel_dev": self.rel_dev,
            "pass": self.passed,
            "tol": self.tol,
        }


def k_oracle(s: float, z: float) -> float:
    """K_s(z) by quadrature of the cosh integral representation.

    The integrand is even in s, so negative orders come for free.  The tail
    is truncated at the first T with z cosh T - |s| T > 745 (double
    underflow margin); |s| <= 50 keeps that cut well behaved.  A z so small
    that the cut would pass T = 710, where cosh leaves the float64 range,
    and an integrand or value outside that range raise ``DomainError``.
    """
    if not z > 0:
        raise DomainError(f"k_oracle requires a positive z, got z={z!r}")
    if not abs(s) <= 50:
        raise DomainError(f"k_oracle supports |s| <= 50 (tail control), got s={s!r}")
    T = 1.0
    while z * math.cosh(T) - abs(s) * T <= _EXP_UNDERFLOW:
        T += 0.5
        if T > _T_MAX:
            raise DomainError(f"k_oracle needs a tail cut below T = {_T_MAX}, got z={z!r}")

    def integrand(t: float) -> float:
        m = -z * math.cosh(t)
        a = s * t
        hi = m + abs(a)
        lo = m - abs(a)
        return 0.5 * (_guarded_exp(hi) + math.exp(lo))  # lo <= hi: no overflow

    return adaptive_quad(integrand, 0.0, T)


def _m4_lhs(mu: float, beta: float, x: float, squared: bool) -> float:
    """int_0^x t^{-2 mu} (x - t)^{mu-1} e^{-beta/t} dt, or the (x^2 - t^2) variant.

    Two substitutions, split at t = x/2: u = 1/t maps the essential decay at
    t -> 0 onto plain exponential decay, and u = (x - t)^mu removes the
    endpoint singularity at t = x exactly.  Adaptive bisection alone stalls
    on both features.  A power, x^2 or the result outside the float64 range
    raises ``DomainError``.
    """
    if squared and not 0.0 < x * x < math.inf:
        raise _range_error(f"x^2 at x={x!r}")
    power = "t^(-2 mu) (x + t)^(mu - 1)" if squared else "t^(-2 mu)"

    def near_zero(u: float) -> float:
        base = x * x - 1.0 / (u * u) if squared else x - 1.0 / u
        return _guarded_exp((2.0 * mu - 2.0) * math.log(u) + (mu - 1.0) * math.log(base) - beta * u)

    def near_x(u: float) -> float:
        t = x - u ** (1.0 / mu)
        try:
            kernel = (x + t) ** (mu - 1.0) if squared else 1.0
            return t ** (-2.0 * mu) * kernel * _guarded_exp(-beta / t)
        except OverflowError:
            raise _range_error(f"{power} at t={t!r}, mu={mu!r}") from None

    try:
        upper = (0.5 * x) ** mu
    except OverflowError:
        raise _range_error(f"(x/2)^mu = {0.5 * x!r}^{mu!r}") from None
    i_zero = adaptive_quad(near_zero, 2.0 / x, math.inf)
    i_x = adaptive_quad(near_x, 0.0, upper)
    return _in_range(i_zero + i_x / mu)


def verify_m4a(
    mu: float,
    beta: float,
    x: float,
    tol: float = 1e-7,
) -> VerificationRecord:
    """Check int_0^x t^{-2mu}(x-t)^{mu-1} e^{-beta/t} dt against its K form.

    RHS: beta^{1/2-mu}/sqrt(pi x) e^{-beta/(2x)} Gamma(mu) K_{mu-1/2}(beta/(2x)),
    valid for mu > 0, beta > 0, x > 0.
    """
    _require_positive(mu=mu, beta=beta, x=x)
    k = k_oracle(mu - 0.5, beta / (2.0 * x))
    lhs = _m4_lhs(mu, beta, x, squared=False)
    pref = (0.5 - mu) * math.log(beta) - 0.5 * math.log(math.pi * x) - beta / (2.0 * x)
    rhs = _in_range(_guarded_exp(pref + math.lgamma(mu)) * k)
    return VerificationRecord.build("M4A", {"mu": mu, "beta": beta, "x": x}, lhs, rhs, tol)


def verify_m4b(
    mu: float,
    beta: float,
    x: float,
    tol: float = 1e-7,
) -> VerificationRecord:
    """Check int_0^x t^{-2mu}(x^2-t^2)^{mu-1} e^{-beta/t} dt against its K form.

    RHS: (1/sqrt(pi)) (2/beta)^{mu-1/2} x^{mu-3/2} Gamma(mu) K_{mu-1/2}(beta/x).
    """
    _require_positive(mu=mu, beta=beta, x=x)
    k = k_oracle(mu - 0.5, beta / x)
    lhs = _m4_lhs(mu, beta, x, squared=True)
    pref = (mu - 0.5) * math.log(2.0 / beta) + (mu - 1.5) * math.log(x) - 0.5 * math.log(math.pi)
    rhs = _in_range(_guarded_exp(pref + math.lgamma(mu)) * k)
    return VerificationRecord.build("M4B", {"mu": mu, "beta": beta, "x": x}, lhs, rhs, tol)


def _require_positive(**params: float) -> None:
    """Each of ``params`` finite and positive (NaN rejected), else ``DomainError``."""
    if not all(0 < v < math.inf for v in params.values()):
        raise DomainError(f"identity domain is finite {', '.join(params)} > 0; got {params!r}")


def verify_m5a(
    s: float,
    beta: float,
    x: float,
    tol: float = 1e-7,
) -> VerificationRecord:
    """Fractional-derivative reading of the first integral identity.

    LHS: d^s [x^{2s} e^{-beta/x}] by the order-s integral (s < 0 applies
    directly, no composition);
    RHS: beta^{s+1/2}/sqrt(pi x) e^{-beta/(2x)} K_{s+1/2}(beta/(2x)).
    The order s + 1/2 may have either sign; the oracle is even in it.
    """
    if s >= 0:
        raise DomainError(f"verify_m5a requires s < 0, got s={s!r}")
    _require_positive(beta=beta, x=x)

    def f(t: float) -> float:
        if t <= 0.0:
            return 0.0
        return _guarded_exp(2.0 * s * math.log(t) - beta / t)

    k = k_oracle(s + 0.5, beta / (2.0 * x))
    lhs = rl_integral(f, s, BoundarySetup(0.0, x))
    pref = (s + 0.5) * math.log(beta) - 0.5 * math.log(math.pi * x) - beta / (2.0 * x)
    rhs = _in_range(_guarded_exp(pref) * k)
    return VerificationRecord.build("M5A", {"s": s, "beta": beta, "x": x}, lhs, rhs, tol)


def verify_m5b(
    s: float,
    beta: float,
    x: float,
    tol: float = 1e-7,
) -> tuple[VerificationRecord, VerificationRecord]:
    """Second fractional-derivative identity, measured under both readings.

    LHS: d^s [x^{s-1/2} e^{-beta/sqrt(x)}], s in (-1/2, 0) for integrability.
    The catalogued RHS is (2/sqrt(pi)) (beta/2)^{s+1/2} x^{3/4-s/2} K_{s+1/2}(A)
    with A printed as beta/x; the alternative reading A = beta/sqrt(x) is
    measured as well (at x = 1 the two coincide).  Two records are returned,
    printed reading first; neither is assumed correct.
    """
    if not (-0.5 < s < 0.0):
        raise DomainError(f"verify_m5b requires s in (-1/2, 0), got s={s!r}")
    _require_positive(beta=beta, x=x)

    def f(t: float) -> float:
        if t <= 0.0:
            return 0.0
        return _guarded_exp((s - 0.5) * math.log(t) - beta / math.sqrt(t))

    ks = [(k_arg, k_oracle(s + 0.5, k_arg)) for k_arg in (beta / x, beta / math.sqrt(x))]
    lhs = rl_integral(f, s, BoundarySetup(0.0, x))
    pref = 2.0 / math.sqrt(math.pi) * (0.5 * beta) ** (s + 0.5) * x ** (0.75 - 0.5 * s)
    printed, alt = (
        VerificationRecord.build(
            "M5B",
            {"s": s, "beta": beta, "x": x, "k_arg": k_arg},
            lhs,
            _in_range(pref * k),
            tol,
        )
        for k_arg, k in ks
    )
    return printed, alt
