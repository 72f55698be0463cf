"""Truncated-series bookkeeping: stopping policy, result metadata, summation engine."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .errors import DomainError
from .special import _in_range

#: Convergence test of every sum: ``STOP_RUN`` successive terms with
#: |term| <= STOP_RATIO * |partial sum|.
STOP_RATIO = 1e-14
STOP_RUN = 3


@dataclass(frozen=True)
class TruncationPolicy:
    """When to stop summing a series.

    Convergence is fixed (``STOP_RATIO`` over ``STOP_RUN`` terms, 1e-14
    over 3); divergence is declared after ``divergence_window`` successive
    strict increases of |term|.  ``max_terms`` bounds the work either way.
    Divergence here is a heuristic label, not a theorem: series whose term
    magnitudes ride a slowly drifting oscillation can trip it while still
    summing to the right value.  Callers probing such tails should pass a
    wider window.
    """

    max_terms: int = 200
    divergence_window: int = 5

    def __post_init__(self):
        # negated, so a NaN, which would switch the budget off, is rejected
        if not (self.max_terms > 0 and self.divergence_window > 0):
            raise DomainError("max_terms and divergence_window must be positive")


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

    The iterator yields bare bracket terms; exhausting it before
    ``max_terms`` signals structural termination (a zero tail) and counts
    as convergence.  Accumulation is exact (math.fsum over all terms).  A
    value outside the float64 range raises ``DomainError``.
    """
    collected: list[float] = []
    running = 0.0
    small_streak = 0
    grow_streak = 0
    prev_abs: float | None = None
    converged = False
    diverging = False
    terminated = True

    for t in terms:
        terminated = False
        collected.append(t)
        running += t
        mag = abs(t)
        if running == 0.0:
            # no scale to compare against (e.g. a run of structurally zero
            # leading terms): neither evidence for nor against convergence
            pass
        elif mag <= STOP_RATIO * abs(running):
            small_streak += 1
        else:
            small_streak = 0
        if prev_abs is not None and mag > prev_abs:
            grow_streak += 1
        else:
            grow_streak = 0
        prev_abs = mag
        if small_streak >= STOP_RUN:
            converged = True
            break
        if grow_streak >= policy.divergence_window:
            diverging = True
            break
        if len(collected) >= policy.max_terms:
            break
        terminated = True
    if terminated:
        converged = True

    try:
        total = math.fsum(collected)
    except OverflowError:  # finite terms whose exact sum is past the float64 range
        total = math.inf
    value = _in_range(scale * total)
    if terminated or not collected:
        last_abs = 0.0
    else:
        last_abs = abs(scale) * abs(collected[-1])
    return SeriesApproximation(
        value=value,
        terms_used=len(collected),
        last_term_abs=last_abs,
        converged=converged,
        diverging=diverging,
    )
