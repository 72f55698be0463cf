"""Riemann-Liouville differintegral and closed-form differentiation rules.

The order-s differintegral of f with boundary point a is, for s < 0,

    d^s f(x) = (1/Gamma(-s)) int_a^x (x - t)^{-s-1} f(t) dt,

extended to 0 <= s < 4 by composing n classical derivatives with an order
(s - n) integral, n = floor(s) + 1.  Closed forms for power, exponential
and logarithm act as the fast path; the quadrature route stays available
as an independent cross-check.

Every quadrature of the package, here and in the identity audit, is one
double-exponential rule, ``_de_quad`` (Takahasi & Mori, Publ. RIMS 9, 1974):
the trapezoidal rule after the tanh-sinh change of variable, which makes
the integrand decay double-exponentially at both ends of a finite interval.
Every integral is taken over [0, 1].  The integrand receives each node u
as ln u, the one coordinate its only caller needs, in the rule's cached,
read-only numpy array, the first six levels in one array laid out level by
level, which settles nearly every integral in one call.

numpy is imported inside the functions that build arrays, not with the
module: the closed-form rules and the K series never load it, and the first
quadrature of a process pays for the import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from math import comb
from typing import TYPE_CHECKING, Callable, Sequence

from .errors import DomainError, ToleranceNotMet
from .special import (
    POLE_TOL,
    _digamma_from_one,
    _gamma_log_off_pole,
    _guarded_exp,
    _guarded_lgamma,
    _in_range,
    _integer_at_least,
    _pole_location,
    _range_error,
    gamma_log,
    gen_binomial,
    lower_incomplete_gamma,
)
from .truncation import SeriesApproximation, TruncationPolicy, sum_with_policy

if TYPE_CHECKING:
    import numpy as np

RealFunction = Callable[[float], float]
ArrayFunction = Callable[["np.ndarray"], "np.ndarray"]

#: The double-exponential rule: the step h in tau halves from 1 at each
#: level, and the rule is accepted once two levels agree to ``_DE_REL_TOL``
#: (relative), from level ``_DE_MIN_LEVEL`` on; its own error is then far
#: smaller.  Past ``_DE_MAX_LEVEL`` it raises ``ToleranceNotMet``.
_DE_REL_TOL = 1e-12
_DE_MIN_LEVEL = 3
_DE_MAX_LEVEL = 8

#: The first integrand call evaluates levels 0 to this together: 321 nodes.
_DE_FIRST_TOP = 5

#: Nodes cover |tau| <= this: they come within 5.7e-102 of either end of [0, 1].
_DE_TAU_MAX = 5

#: A level-0 term below this share of the level's absolute sum is negligible.
_DE_TAIL = 1e-17

#: Relative noise of the inner integrals that the step of ``rl_derivative``'s
#: stencil is balanced against: h = noise^(1/(n+2)) makes the noise amplified
#: by h^-n about as large as the stencil's O(h^2) term.
_STENCIL_NOISE = 1e-13


@dataclass(frozen=True)
class BoundarySetup:
    """Boundary point a and evaluation point x of the differintegral, finite and a < x."""

    a: float
    x: float

    def __post_init__(self):
        if not -math.inf < self.a < self.x < math.inf:
            raise DomainError(f"need finite a < x, got a={self.a!r}, x={self.x!r}")


def _taus(level: int) -> np.ndarray:
    """The nodes in tau that ``level`` adds, ascending: all multiples of h = 1
    at level 0, the odd multiples of h = 2^-level after."""
    import numpy as np

    if level == 0:
        return np.arange(-_DE_TAU_MAX, _DE_TAU_MAX + 1.0)
    n = _DE_TAU_MAX << level
    return np.arange(1 - n, n, 2) * 0.5 ** level


@cache
def _stage(first: int, last: int) -> tuple[np.ndarray, ...]:
    """(tau, level - ``first``, ln u, weight / h) of the nodes u that levels
    ``first`` to ``last`` add on [0, 1], level by level, each level
    ascending in tau.  The arrays are read-only: ``_de_quad`` hands ln u to
    the integrand as it is.

    Tanh-sinh puts a node at u = (1 + tanh(pi/2 sinh tau)) / 2: its distance
    to the nearer end, q = 1 / (1 + e^{pi sinh |tau|}), is formed without
    cancellation, and its weight is pi cosh(tau) q (1 - q).  ln u is log(u)
    below u = 1/2 and log1p(-r) above, from the node's distance r = 1 - u
    to the upper end, so it has no cancellation next to u = 1.
    """
    import numpy as np

    taus = [_taus(m) for m in range(first, last + 1)]
    tau = np.concatenate(taus)
    level = np.repeat(np.arange(len(taus)), [t.size for t in taus])
    y = np.pi * np.sinh(np.abs(tau))
    near, far = 1.0 / (1.0 + np.exp(y)), 1.0 / (1.0 + np.exp(-y))
    above = tau > 0
    u, r = np.where(above, far, near), np.where(above, near, far)
    with np.errstate(divide="ignore"):  # log1p(-r) at r = 1, where log(u) is taken
        ln_u = np.where(u < 0.5, np.log(u), np.log1p(-r))
    arrays = (tau, level, ln_u, np.pi * np.cosh(tau) * near * far)
    for array in arrays:
        array.flags.writeable = False
    return arrays


@cache
def _first_kept(last: int, start: float, stop: float) -> tuple[np.ndarray, np.ndarray]:
    """(mask, levels) of the first call's nodes, ``_stage(0, last)``, that
    are summed once level 0 has set the range [start, stop) in tau: all of
    level 0 and the finer nodes inside the range.  ``start`` and ``stop``
    are integers, or infinite when level 0 set no range."""
    tau, level = _stage(0, last)[:2]
    kept = (level == 0) | ((start <= tau) & (tau < stop))
    return kept, level[kept]


def _de_quad(fn: ArrayFunction) -> tuple[float, int, float]:
    """(integral of fn over [0, 1], nodes evaluated, estimated absolute error).

    ``fn(ln_u)`` receives the nodes u as the array of their logs, each
    formed without cancellation at either end (``_stage``), and returns the
    integrand there; no node sits on either end.  The array is the rule's
    cached one, or a slice of it, read-only, and ``fn`` must not write to
    it.  The integrand runs under ``np.errstate(all="ignore")``, so it
    decides its own overflow, and a level sum outside the float64 range,
    NaN included, raises ``DomainError``.

    The first call hands the integrand every node of levels 0 to
    ``_DE_FIRST_TOP`` at once, level by level, since a call costs far more
    than its nodes and most integrals settle by then; each later level is
    one call.  Level 0 sets the range in tau that the finer levels sum over:
    it ends one step of h = 1 past the outermost node whose term is more
    than ``_DE_TAIL`` of the level's absolute sum, since past such a step
    the terms only fall, double-exponentially.  Its 11 terms are read as
    Python floats, and their absolute sum is ``math.fsum``'s.  The first
    call's finer nodes outside that range are evaluated but not summed;
    later calls evaluate only nodes inside it.  Each level's terms are
    summed in tau order.  The estimate is the change between the last two
    levels.  A rule that has not settled by ``_DE_MAX_LEVEL`` raises
    ``ToleranceNotMet``: the integral may be divergent, or its integrand too
    rough for the rule.
    """
    import numpy as np

    ends = (-math.inf, math.inf)
    total, previous, nodes = 0.0, math.nan, 0
    top = min(_DE_FIRST_TOP, _DE_MAX_LEVEL)
    for first, last in [(0, top), *((m, m) for m in range(top + 1, _DE_MAX_LEVEL + 1))]:
        tau, level, ln_u, w = _stage(first, last)
        if first:  # the first call takes every node; later ones, the range level 0 set
            i, j = tau.searchsorted(ends)
            level, ln_u, w = level[i:j], ln_u[i:j], w[i:j]
        with np.errstate(all="ignore"):
            terms = w * fn(ln_u)
        nodes += terms.size
        if first == 0:
            size = [abs(term) for term in terms[:2 * _DE_TAU_MAX + 1].tolist()]  # tau = -5, ..., 5
            try:
                floor = _DE_TAIL * math.fsum(size)
            except OverflowError:  # finite terms whose sum leaves float64: none is significant
                floor = math.inf
            significant = [k for k, term in enumerate(size) if term > floor]
            if significant:
                ends = (significant[0] - _DE_TAU_MAX - 1, significant[-1] - _DE_TAU_MAX + 1)
            kept, level = _first_kept(last, *ends)
            terms = terms[kept]
        for m, part in enumerate(np.bincount(level, terms, last - first + 1).tolist(), first):
            total += part
            value = _in_range(total * 0.5 ** m)
            change = abs(value - previous)
            if m >= _DE_MIN_LEVEL and change <= _DE_REL_TOL * abs(value):
                return value, nodes, change
            previous = value
    raise ToleranceNotMet(
        f"double-exponential quadrature did not settle by level {_DE_MAX_LEVEL}: it moved by "
        f"{change:.3e} there (value {value:.6g}); the integral may be divergent, or its "
        "integrand too rough for the rule",
        estimate=change,
    )


def rl_integral(f: RealFunction, s: float, bounds: BoundarySetup) -> float:
    """Order-s integral (s < 0) of f over (a, x]: ``_rl_quadrature`` times the
    prefactor (x - a)^p / Gamma(p + 1), p = -s.

    f takes and returns a float; it is adapted once to the array form that
    ``_rl_quadrature`` reads, and evaluated only on (a, x].  A prefactor or
    a result outside float64 raises ``DomainError``.  An ``OverflowError``
    from f, as Python raises for t ** -3.5 next to t = 0, is a value past
    float64, and a complex value, as t ** 0.5 gives at t < 0 or a numpy
    complex scalar anywhere, is not real: both raise ``DomainError``.  Any
    other exception of f propagates as it is.
    """
    if not s < 0:
        raise DomainError(f"rl_integral requires s < 0, got s={s!r}")
    p = -s
    lg = gamma_log(p + 1.0)
    scale = lg.sign * _guarded_exp(p * math.log(bounds.x - bounds.a) - lg.log_abs)

    def f_array(t: np.ndarray) -> np.ndarray:
        import numpy as np

        nodes = t.tolist()
        complex_types = (complex, np.complexfloating)
        try:
            values = list(map(f, nodes))
            # one complex value makes the sum complex; numpy would cast a
            # numpy complex value to float with only a warning
            if isinstance(sum(values), complex_types):
                node, value = next((n, v) for n, v in zip(nodes, values) if isinstance(v, complex_types))
                raise DomainError(f"f({node!r}) = {value!r} is not a real number")
            return np.fromiter(values, float, len(values))
        except OverflowError:  # from f, or an int value past float64
            raise _range_error("a value of f") from None

    return _in_range(scale * _rl_quadrature(f_array, p, bounds.a, bounds.x))


def _rl_quadrature(f: ArrayFunction, p: float, a: float, x: float) -> float:
    """int_0^1 f(x - (x - a) v^{1/p}) dv for p > 0 and finite a < x: the
    order -p integral of f over (a, x] without its prefactor.

    The kernel singularity (x - t)^{p-1} at t = x is removed exactly by the
    substitution v = ((x - t) / (x - a))^p:

        int_a^x (x-t)^{p-1} f(t) dt = ((x-a)^p / p) int_0^1 f(x - (x-a) v^{1/p}) dv,

    and ``_de_quad`` takes the integral over v.  The gap to the boundary
    point, t - a = (x - a)(-expm1(log(v) / p)), comes from the log v that
    the rule hands the integrand, which has no cancellation next to v = 1,
    and f is never evaluated at t <= a: a node whose gap is lost in
    rounding a + gap is left out.  Every left side of the identity audit is
    taken here, on an f formed in log space and scaled by its peak, with
    the prefactor added in log space (``oracle._left_side``).
    """
    import numpy as np

    span = x - a

    def g(log_v: np.ndarray) -> np.ndarray:
        t = np.minimum(a - span * np.expm1(log_v / p), x)
        inside = t > a
        if inside.all():
            return f(t)
        values = np.zeros_like(t)
        values[inside] = f(t[inside])
        return values

    return _de_quad(g)[0]


def rl_derivative(f: RealFunction, s: float, bounds: BoundarySetup) -> float:
    """Order-s derivative, 0 <= s < 4, via n = floor(s) + 1 classical
    derivatives of an order (s - n) integral.

    The classical derivatives are taken by an (n+1)-point central stencil on
    F(y) = rl_integral(f, s - n, (a, y)); accuracy is O(h^2) plus quadrature
    noise amplified by h^-n, with h chosen to balance the two.  The noise
    grows with n, so orders s >= 4 are refused: past n = 4 the error for
    f = t on [0, 1] is 6.4e-4 at s = 4.5 and 1.4e-2 at s = 6.5.  Below that
    it is about 1e-4 at s = 3.5 on [0, 1], but up to 4e-3 on short
    intervals such as [0, 0.2].  The stencil reaches past x, so f is
    evaluated on (a, x + n h / 2].  An order outside [0, 4), a step h that
    rounds to 0, or h^-n or a result outside the float64 range raises
    ``DomainError``.
    """
    if not 0 <= s < 4:
        raise DomainError(f"rl_derivative requires 0 <= s < 4, got s={s!r} (use rl_integral for s < 0)")
    n = math.floor(s) + 1
    a, x = bounds.a, bounds.x
    order = s - n
    h = min(_STENCIL_NOISE ** (1.0 / (n + 2)) * max(1.0, x - a), (x - a) / (2.0 * n))
    if not h > 0:
        raise DomainError(f"x - a = {x - a!r} is too small for an order-{n} stencil")
    inv_scale = _guarded_exp(-n * math.log(h))  # h^-n; overflows on tiny intervals

    acc = 0.0
    for i in range(n + 1):
        y = x + (0.5 * n - i) * h
        acc += (-1) ** i * comb(n, i) * rl_integral(f, order, BoundarySetup(a, y))
    return _in_range(acc * inv_scale)


def power_rule(s: float, p: float, bounds: BoundarySetup) -> float:
    """d^s (x - a)^p = Gamma(p+1)/Gamma(p+1-s) * (x - a)^{p-s} for p > -1.

    When p + 1 - s is exactly a non-positive integer the reciprocal gamma
    vanishes and the exact result 0 is returned (e.g. integer-order
    derivatives that annihilate the power); next to one it is small and
    kept.
    """
    if not p > -1:
        raise DomainError(f"power rule requires p > -1, got p={p!r}")
    q = p + 1.0 - s
    if _pole_location(q) == q:
        return 0.0
    num = gamma_log(p + 1.0)
    den = _gamma_log_off_pole(q)
    base = bounds.x - bounds.a
    return num.sign * den.sign * _guarded_exp(num.log_abs - den.log_abs + (p - s) * math.log(base))


def _near_int(s: float) -> int | None:
    if not math.isfinite(s):
        raise DomainError(f"order s must be a finite number, got s={s!r}")
    n = round(s)
    return n if abs(s - n) < POLE_TOL else None


def exp_rule(s: float, beta: float, x: float) -> float:
    """d^s exp(beta x) = beta^s exp(beta x) gamma(-s, beta x) / Gamma(-s).

    Boundary point fixed at a = 0.  Integer orders n >= 0 collapse to the
    classical beta^n exp(beta x); otherwise beta x > 0 is required so that
    the incomplete gamma is on its domain, and beta > 0 unless s is an
    integer, so that beta^s is real.  Powers and exponentials are combined
    in log space, and a result outside the float64 range raises
    ``DomainError``.
    """
    if not (math.isfinite(beta) and math.isfinite(x)):
        raise DomainError(f"exp rule needs finite beta and x, got beta={beta!r}, x={x!r}")
    if beta == 0:
        raise DomainError("beta must be nonzero")
    n = _near_int(s)
    if beta < 0 and n is None:
        raise DomainError(f"beta^s is not real for beta={beta!r} < 0 and non-integer s={s!r}")
    sign = -1.0 if beta < 0 and n % 2 else 1.0  # of beta^s
    if n is not None and n >= 0:
        return sign * _guarded_exp(n * math.log(abs(beta)) + beta * x)
    if beta * x <= 0:
        raise DomainError(f"non-integer order needs beta*x > 0, got beta={beta!r}, x={x!r}")
    lig = lower_incomplete_gamma(-s, beta * x)
    lg = gamma_log(-s)
    power = _guarded_exp(s * math.log(abs(beta)) + beta * x - lg.log_abs)
    return _in_range(sign * lg.sign * lig * power)


def log_rule(s: float, x: float) -> float:
    """d^s ln x = x^{-s}/Gamma(1-s) [ln x - psi(-s) - C + 1/s], a = 0.

    psi(-s) = psi(1-s) + 1/s turns the bracket into ln x - (psi(1-s) + C),
    which has no pole at s = 0, and ``_digamma_from_one`` forms
    psi(1-s) + C without cancellation as s -> 0, so the value keeps its
    relative accuracy at x = 1 too, where it is about zeta(2) s.  Positive
    integer orders collapse to the classical (-1)^{n-1} (n-1)! / x^n; s = 0
    is served explicitly as the identity operation.  Powers are formed in
    log space, and a result outside the float64 range raises
    ``DomainError``.
    """
    if not 0 < x < math.inf:
        raise DomainError(f"log rule requires finite x > 0, got x={x!r}")
    if s == 0:
        return math.log(x)
    n = _near_int(s)
    if n is not None and n > 0:
        return (-1) ** (n - 1) * _guarded_exp(_guarded_lgamma(float(n)) - n * math.log(x))
    lg = gamma_log(1.0 - s)
    bracket = math.log(x) - _digamma_from_one(s)
    return _in_range(lg.sign * bracket * _guarded_exp(-s * math.log(x) - lg.log_abs))


def leibniz_series(
    g_derivs: Sequence[RealFunction],
    f_frac: Callable[[float, float], float],
    s: float,
    x: float,
    n_terms: int,
) -> SeriesApproximation:
    """Product rule d^s(fg) = sum_j C(s, j) d^{s-j} f * d^j g, truncated at j = n_terms.

    ``g_derivs[j]`` evaluates the j-th classical derivative of g;
    ``f_frac(order, x)`` evaluates the order-``order`` differintegral of f.
    Terms are evaluated lazily and stop like every sum (``sum_with_policy``):
    at ``STOP_RUN`` negligible terms in a row (``"converged"``), or at
    j = n_terms (``"budget"``; never diverging).  Fewer evaluators end the
    sum early (the remaining derivatives vanish, as for polynomial g):
    ``"terminated"``, which counts as convergence.  A term or sum outside
    float64, NaN included, or an ``n_terms`` that is not an integer >= 1
    raises ``DomainError``.
    """
    n_terms = _integer_at_least(n_terms, 1, "n_terms")
    if not g_derivs:
        raise DomainError("need at least one derivative evaluator for g")
    terms = (
        _in_range(gen_binomial(s, j) * f_frac(s - j, x) * g_derivs[j](x))
        for j in range(min(n_terms, len(g_derivs) - 1) + 1)
    )
    # n_terms + 1 terms hold at most n_terms increases: the window never trips
    return sum_with_policy(terms, TruncationPolicy(n_terms + 1, n_terms + 1))
