"""Independent ground truth for K_s(z) plus the definite-integral identity audit.

The oracle is the cosh-kernel integral representation

    K_s(z) = int_0^inf exp(-z cosh t) cosh(s t) dt,   z > 0,

evaluated by the trapezoidal rule on the integrand scaled by its peak, with
an explicit tail cut.  The integrand decays double-exponentially, so the
rule converges exponentially in the number of nodes (Trefethen & Weideman,
SIAM Rev. 56, 2014).  It shares no code or algebra with the series
evaluators, so a bug cannot validate itself.  The verify_* operations
quadrature both sides of the library's catalogued integral identities (IDs
M4A, M4B, M5A, M5B) and return structured deviation records; M5B is
measured under both plausible readings of its K argument rather than
assuming either.  Each evaluates K first, so an order the oracle refuses
raises before any left-hand-side quadrature runs.  Every left-hand side is
one Riemann-Liouville integral from 0, d^{-p} f(x) = (1/Gamma(p)) int_0^x
(x - t)^{p-1} f(t) dt, taken by the quadrature of the array form of
``rl_integral`` on an f formed in log space that maps a numpy array of
nodes at once: M5's at p = -s as it stands, M4's at p = mu times
Gamma(mu), with f(t) = t^{-2 mu} e^{-beta/t} for M4A and that times
(x + t)^{mu-1} for M4B.  f is integrated scaled by its largest value on
(0, x], found in closed form, and that scale, the prefactor
x^p / Gamma(p + 1) and M4's Gamma(mu) are added back in log space, so a
left side inside float64 is returned even where f or a factor alone
leaves it.  Each right side is a prefactor times K, formed the same way:
ln K is summed into the log of the prefactor.
Both sides of each identity are positive, so a side that rounds to 0 raises
the float64-range ``DomainError``, as one past float64 does.  As in
``fractional``, numpy is imported by the functions that build arrays, so
importing the module, or ``VerificationRecord`` alone, does not load it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DomainError, ToleranceNotMet
from .fractional import ArrayFunction, _rl_quadrature
from .special import _guarded_exp, _in_range, _range_error, gamma_log

if TYPE_CHECKING:
    import numpy as np

_TINY = 1e-300

#: ln of the least positive float64 (a subnormal).
_LOG_SMALLEST = math.log(5e-324)

#: ln of a bound on the quadrature in ``_left_side``, int_0^1 g dv <= sup g:
#: sup g is 1 where min(peak, x) is f's largest value on (0, x] (M4A, M5A,
#: M5B); M4B's factor ((x + t) / (x + t*))^{mu-1} adds at most 2^{|mu - 1|},
#: and mu <= 50.5 once K is evaluated.
_LOG_SCALED_MAX = 35.0

#: Largest tail cut T; sinh(T) stays inside the float64 range.
_T_MAX = 710.0

#: The tail is cut where the scaled integrand e^G has fallen below e^-40.
_TAIL_DECAY = 40.0

#: Trapezoid nodes per width of the integrand's peak.
_NODES_PER_WIDTH = 4

#: Cap on the peak width the first step is set from.  At 1, the rule at twice
#: that step missed ``_TRAPEZOID_REL_TOL`` wherever z cosh t* < ~2, so every
#: such call halved its step; at 0.7 the first pass settles.
_WIDTH_CAP = 0.7

#: The trapezoid is accepted once halving its step moves it by at most this
#: (relative); its own error is then about the square of that.
_TRAPEZOID_REL_TOL = 1e-10

#: Halvings of the step before the trapezoid gives up.
_MAX_HALVINGS = 6


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
    """K_s(z) by the trapezoidal rule on the cosh integral representation.

    The integrand is even in s, so negative orders come for free; |s| <= 50
    keeps the tail cut well behaved.  A z so small that the cut would pass
    T = 710, where sinh leaves the float64 range, and a value outside that
    range raise ``DomainError``; a rule that does not settle within
    ``_MAX_HALVINGS`` halvings of its step raises ``ToleranceNotMet``.
    """
    if not 0 < z < math.inf:
        raise DomainError(f"k_oracle requires a finite positive z, got z={z!r}")
    if not abs(s) <= 50:
        raise DomainError(f"k_oracle supports |s| <= 50 (tail control), got s={s!r}")
    return _trapezoid(abs(s), z)[0]


def _trapezoid(a: float, z: float) -> tuple[float, int, float]:
    """(K_a(z), nodes evaluated, estimated absolute error) for a >= 0, z > 0.

    With g(t) = -z cosh t + a t, peaked at t* = asinh(a / z), the integrand
    e^{-z cosh t} cosh(a t) is e^{g(t*)} f(t) / 2, where

        f(t) = e^{G(t)} (1 + e^{-2 a t}),
        G(t) = g(t) - g(t*) = -2 z sinh((t + t*)/2) sinh((t - t*)/2) + a (t - t*),

    a form of G that does not cancel at large z.  Past the peak
    G(t) <= -c (cosh(t - t*) - 1) = -2 c sinh^2((t - t*)/2), with
    c = z cosh t* = hypot(z, a), which places the cut T where
    G < -``_TAIL_DECAY``.  f is even, so the trapezoid on [0, T] with half
    weight at 0 is the rule on the whole line.  The step starts at
    ``_NODES_PER_WIDTH`` nodes per peak width 1 / sqrt(c), the width capped
    at ``_WIDTH_CAP``.  The even nodes give the rule at twice the step for
    free; the step is halved, reusing every node, until the two agree to
    ``_TRAPEZOID_REL_TOL``, and their difference is the error estimate.

    The value is e^{g(t*) + log(T_h / 2)}.  That exponent reaches |s| t* ~ 500
    at small z and z ~ 700 at large z, where rounding it as one float would
    cost ~1e-13, so ``_exp_of_sum`` sums it exactly and exponentiates its
    integer part apart: a = a_hi + a_lo makes a t* two exact products, and
    z cosh t* = z + 2 z sinh^2(t*/2) keeps z exact.
    """
    import numpy as np

    peak = math.asinh(a / z)
    c = math.hypot(z, a)
    cut = peak + 2.0 * math.asinh(math.sqrt(0.5 * _TAIL_DECAY / c))
    if not cut <= _T_MAX:
        raise DomainError(f"k_oracle needs a tail cut below T = {_T_MAX}, got z={z!r}")
    peak = _top_bits(peak)  # any t* near the peak will do; this one makes a t* exact

    def f(t: np.ndarray) -> np.ndarray:
        d = t - peak
        # z times each sinh first: -2 z overflows at z near the top of the float64 range
        G = a * d - 2.0 * (z * np.sinh(0.5 * (t + peak)) * np.sinh(0.5 * d))
        return np.exp(G) * (1.0 + np.exp(-2.0 * a * t))

    h = min(_WIDTH_CAP, 1.0 / math.sqrt(c)) / _NODES_PER_WIDTH
    n = math.ceil(cut / h)
    values = f(h * np.arange(n + 1))
    values[0] *= 0.5
    fine, coarse = float(values.sum()), float(values[::2].sum())  # T_h / h and T_2h / (2h)
    nodes = n + 1
    for halvings in range(_MAX_HALVINGS + 1):
        change = abs(fine - 2.0 * coarse) / fine
        if change <= _TRAPEZOID_REL_TOL or halvings == _MAX_HALVINGS:
            break
        h *= 0.5
        coarse, fine = fine, fine + float(f(h * np.arange(1, 2 * n, 2)).sum())
        nodes += n
        n *= 2
    a_hi = _top_bits(a)
    value = _exp_of_sum([a_hi * peak, (a - a_hi) * peak, -z, -z * (2.0 * math.sinh(0.5 * peak) ** 2),
                         math.log(0.5 * h * fine)])
    if not change <= _TRAPEZOID_REL_TOL:
        raise ToleranceNotMet(
            f"k_oracle's trapezoid moved by {change:.3e} (relative) at its last halving",
            estimate=change * value,
        )
    return value, nodes, change * value


def _exp_of_sum(terms: list[float]) -> float:
    """e to the exact sum of ``terms``, rounded about once whatever the
    sum's size: its integer part is exponentiated apart, in halves, so that
    no factor overflows before the product does.  A value past float64
    raises ``DomainError``."""
    whole = round(math.fsum(terms))
    return _in_range(_guarded_exp(math.fsum([*terms, -whole]))
                     * _guarded_exp(whole // 2) * _guarded_exp(whole - whole // 2))


def _top_bits(x: float) -> float:
    """x rounded to 26 significant bits: the product of two such floats is exact."""
    m, e = math.frexp(x)
    return math.ldexp(round(math.ldexp(m, 26)), e - 26)


def verify_m4a(mu: float, beta: float, x: float, tol: float = 1e-7) -> VerificationRecord:
    """Check int_0^x t^{-2mu}(x-t)^{mu-1} e^{-beta/t} dt against its K form.

    RHS: beta^{1/2-mu}/sqrt(pi x) e^{-beta/(2x)} Gamma(mu) K_{mu-1/2}(beta/(2x)),
    valid for mu > 0, beta > 0, x > 0.
    """
    import numpy as np

    _require_positive(mu=mu, beta=beta, x=x)
    k = k_oracle(mu - 0.5, beta / (2.0 * x))
    lg = math.lgamma(mu)
    lhs = _left_side(lambda t: -2.0 * mu * np.log(t) - beta / t, beta / (2.0 * mu), -mu, x, lg)
    pref = (0.5 - mu) * math.log(beta) - 0.5 * math.log(math.pi * x) - beta / (2.0 * x)
    rhs = _right_side([pref, lg], k)
    return _record("M4A", {"mu": mu, "beta": beta, "x": x}, lhs, rhs, tol)


def verify_m4b(mu: float, beta: float, x: float, tol: float = 1e-7) -> VerificationRecord:
    """Check int_0^x t^{-2mu}(x^2-t^2)^{mu-1} e^{-beta/t} dt against its K form.

    RHS: (1/sqrt(pi)) (2/beta)^{mu-1/2} x^{mu-3/2} Gamma(mu) K_{mu-1/2}(beta/x).
    """
    import numpy as np

    _require_positive(mu=mu, beta=beta, x=x)
    k = k_oracle(mu - 0.5, beta / x)
    lg = math.lgamma(mu)
    lhs = _left_side(lambda t: (mu - 1.0) * np.log(x + t) - 2.0 * mu * np.log(t) - beta / t,
                     beta / (2.0 * mu), -mu, x, lg)
    pref = (mu - 0.5) * math.log(2.0 / beta) + (mu - 1.5) * math.log(x) - 0.5 * math.log(math.pi)
    rhs = _right_side([pref, lg], k)
    return _record("M4B", {"mu": mu, "beta": beta, "x": x}, lhs, rhs, tol)


def _right_side(log_factor: list[float], k: float) -> float:
    """e^(sum of log_factor) K, every identity's right side, with ln K summed
    into the exponent by ``_exp_of_sum``: a factor past float64 times a K on
    the other side of 1 still gives a right side inside it.  A K that
    rounded to 0 leaves 0, and a right side past float64 is inf; ``_record``
    refuses both, after the left side."""
    if not k > 0.0:
        return 0.0
    try:
        return _exp_of_sum([*log_factor, math.log(k)])
    except DomainError:
        return math.inf


def _require_positive(**params: float) -> None:
    """Each of ``params`` finite and positive (NaN rejected), else ``DomainError``."""
    if not all(0 < v < math.inf for v in params.values()):
        raise DomainError(f"identity domain is finite {', '.join(params)} > 0; got {params!r}")


def _left_side(log_f: ArrayFunction, peak: float, s: float, x: float, log_factor: float = 0.0
               ) -> float:
    """e^log_factor d^s f(x) from the boundary point 0 for f = exp(log_f)
    and s < 0, where log_f, which maps floats as well as arrays, is largest
    on (0, x] at min(peak, x): every identity's left side, M4's with
    log_factor = ln Gamma(mu).

    With c = log_f(min(peak, x)) and p = -s, d^s f(x) is
    e^c x^p / Gamma(p + 1) times ``_rl_quadrature`` of g = e^{log_f - c},
    so the quadrature sees neither f's range nor the prefactor's; their
    logs are summed and exponentiated by ``_exp_of_sum``.  So a left side
    inside float64 is returned wherever f alone, or the prefactor, leaves
    it, and c, which g and the sum share, costs no digits.  One that
    ``_LOG_SCALED_MAX`` proves smaller than the least float64 is 0 without a
    quadrature: there |c| is so large that log_f - c keeps no digits.  A
    peak below the least normal float64 is taken there.
    """
    import numpy as np

    c = float(log_f(min(max(peak, sys.float_info.min), x)))  # a float in, so numpy never warns
    log_scale = [c, -s * math.log(x), -gamma_log(1.0 - s).log_abs, log_factor]
    if sum(log_scale) + _LOG_SCALED_MAX < _LOG_SMALLEST:
        return 0.0
    scaled = _rl_quadrature(lambda t: np.exp(log_f(t) - c), -s, 0.0, x)
    if not scaled > 0.0:
        return 0.0
    return _exp_of_sum([*log_scale, math.log(scaled)])


def _record(identity_id: str, params: dict[str, float], lhs: float, rhs: float, tol: float
            ) -> VerificationRecord:
    """``VerificationRecord.build`` for an identity whose sides are positive
    in exact arithmetic: a side that rounded to 0 or past float64 raises
    ``DomainError``, so that 0 = 0 is never a pass."""
    for side, value in (("left", lhs), ("right", rhs)):
        if not 0.0 < value < math.inf:
            raise _range_error(f"the {side} side ({value!r})")
    return VerificationRecord.build(identity_id, params, lhs, rhs, tol)


def verify_m5a(s: float, beta: float, x: float, tol: float = 1e-7) -> VerificationRecord:
    """Fractional-derivative reading of the first integral identity.

    LHS: d^s [x^{2s} e^{-beta/x}] by the order-s integral (s < 0 applies
    directly, no composition);
    RHS: beta^{s+1/2}/sqrt(pi x) e^{-beta/(2x)} K_{s+1/2}(beta/(2x)).
    The order s + 1/2 may have either sign; the oracle is even in it.
    """
    import numpy as np

    if s >= 0:
        raise DomainError(f"verify_m5a requires s < 0, got s={s!r}")
    _require_positive(beta=beta, x=x)
    k = k_oracle(s + 0.5, beta / (2.0 * x))
    lhs = _left_side(lambda t: 2.0 * s * np.log(t) - beta / t, beta / (-2.0 * s), s, x)
    pref = (s + 0.5) * math.log(beta) - 0.5 * math.log(math.pi * x) - beta / (2.0 * x)
    rhs = _right_side([pref], k)
    return _record("M5A", {"s": s, "beta": beta, "x": x}, lhs, rhs, tol)


def verify_m5b(s: float, beta: float, x: float, tol: float = 1e-7
               ) -> tuple[VerificationRecord, VerificationRecord]:
    """Second fractional-derivative identity, measured under both readings.

    LHS: d^s [x^{s-1/2} e^{-beta/sqrt(x)}], s in (-1/2, 0) for integrability.
    The catalogued RHS is (2/sqrt(pi)) (beta/2)^{s+1/2} x^{3/4-s/2} K_{s+1/2}(A)
    with A printed as beta/x; the alternative reading A = beta/sqrt(x) is
    measured as well (at x = 1 the two coincide, and K is taken once).  Two
    records are returned, printed reading first; neither is assumed correct.
    """
    import numpy as np

    if not (-0.5 < s < 0.0):
        raise DomainError(f"verify_m5b requires s in (-1/2, 0), got s={s!r}")
    _require_positive(beta=beta, x=x)
    k_args = (beta / x, beta / math.sqrt(x))
    ks = {k_arg: k_oracle(s + 0.5, k_arg) for k_arg in dict.fromkeys(k_args)}  # once at x = 1
    lhs = _left_side(lambda t: (s - 0.5) * np.log(t) - beta / np.sqrt(t),
                     beta * beta / (1.0 - 2.0 * s) ** 2, s, x)
    # ln beta - ln 2: beta / 2 rounds to 0 at the least subnormal beta
    pref = [math.log(2.0 / math.sqrt(math.pi)), (s + 0.5) * (math.log(beta) - math.log(2.0)),
            (0.75 - 0.5 * s) * math.log(x)]
    printed, alt = (_record("M5B", {"s": s, "beta": beta, "x": x, "k_arg": k_arg}, lhs,
                            _right_side(pref, ks[k_arg]), tol)
                    for k_arg in k_args)
    return printed, alt
