"""Truncated-series bookkeeping: stopping policy, result metadata, summation engine."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterator

from .errors import DomainError
from .special import _in_range

#: Convergence test of every sum: ``STOP_RUN`` successive terms with
#: |term| <= STOP_RATIO * |partial sum|.
STOP_RATIO = 1e-14
STOP_RUN = 3


def _term_count(value: int, name: str) -> int:
    """``value`` if it is an integer >= 1, else ``DomainError``; a float (inf, NaN) never is."""
    try:
        count = operator.index(value)
    except TypeError:
        count = 0
    if count < 1:
        raise DomainError(f"{name} must be an integer >= 1, got {value!r}")
    return count


@dataclass(frozen=True)
class TruncationPolicy:
    """The two adjustable stops of ``sum_with_policy``, integers >= 1.

    Divergence is a heuristic label, not a theorem: series whose term
    magnitudes ride a slowly drifting oscillation can trip it while still
    summing to the right value.  Callers probing such tails should pass a
    wider window.
    """

    max_terms: int = 200
    divergence_window: int = 5

    def __post_init__(self):
        _term_count(self.max_terms, "max_terms")
        _term_count(self.divergence_window, "divergence_window")


DEFAULT_POLICY = TruncationPolicy()


@dataclass(frozen=True)
class SeriesApproximation:
    """Value of a truncated series plus how the truncation went.

    ``last_term_abs`` is reported in the same scale as ``value``.  When the
    series terminated structurally (every remaining term identically zero)
    it is 0.0, so the convergence invariant
    ``converged => last_term_abs <= STOP_RATIO * |value|`` holds there too.
    ``converged`` and ``diverging`` are mutually exclusive; both False means
    the term budget ran out without a verdict.
    """

    value: float
    terms_used: int
    last_term_abs: float
    converged: bool
    diverging: bool


def sum_with_policy(
    terms: Iterator[float],
    policy: TruncationPolicy = DEFAULT_POLICY,
    scale: float = 1.0,
) -> SeriesApproximation:
    """Accumulate ``terms`` under ``policy`` and return value = scale * sum.

    The sum stops at the first of: ``STOP_RUN`` terms in a row with
    |term| <= STOP_RATIO * |partial sum| (converged; fixed),
    ``divergence_window`` strict increases of |term| in a row (diverging),
    or ``max_terms`` terms (budget, neither flag).  A stream that runs out
    inside the budget has terminated (a zero tail), which counts as
    convergence; no term past the budget is evaluated, so a stream that
    ends exactly at ``max_terms`` reads as budget.  Accumulation is exact
    (math.fsum).  A value outside the float64 range raises ``DomainError``.
    """
    collected: list[float] = []
    running = 0.0
    small = grow = 0
    prev = math.inf  # so the first term is never an increase
    terminated = False
    for t in terms:
        collected.append(t)
        running += t
        mag = abs(t)
        if running != 0.0:  # zero (e.g. zero leading terms) is no evidence either way
            small = small + 1 if mag <= STOP_RATIO * abs(running) else 0
        grow = grow + 1 if mag > prev else 0
        prev = mag
        if small >= STOP_RUN or grow >= policy.divergence_window or len(collected) >= policy.max_terms:
            break
    else:
        terminated = True
    converged = terminated or small >= STOP_RUN
    diverging = not converged and grow >= policy.divergence_window

    try:
        total = math.fsum(collected)
    except (OverflowError, ValueError):  # an exact sum past float64, or inf and -inf among the terms
        total = math.inf
    return SeriesApproximation(
        value=_in_range(scale * total),
        terms_used=len(collected),
        last_term_abs=0.0 if terminated else abs(scale) * abs(collected[-1]),
        converged=converged,
        diverging=diverging,
    )
