"""Truncated-series bookkeeping: stopping policy, result metadata, summation engine."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .special import _in_range, _integer_at_least

#: Convergence test of every sum: ``STOP_RUN`` successive terms with
#: |term| <= STOP_RATIO * |partial sum|.
STOP_RATIO = 1e-14
STOP_RUN = 3


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
        _integer_at_least(self.max_terms, 1, "max_terms")
        _integer_at_least(self.divergence_window, 1, "divergence_window")


DEFAULT_POLICY = TruncationPolicy()


@dataclass(frozen=True)
class SeriesApproximation:
    """Value of a truncated series plus how the truncation went.

    ``stop_reason`` says why the sum stopped, one of four strings:

    * ``"terminated"`` - the term stream ran out inside the budget: every
      remaining term is identically zero;
    * ``"converged"`` - ``STOP_RUN`` terms in a row were negligible;
    * ``"budget"`` - ``max_terms`` terms were summed without a verdict;
    * ``"diverging"`` - |term| grew ``divergence_window`` times in a row.

    ``converged`` (terminated or converged) and ``diverging`` read it.
    ``last_term_abs`` is reported in the same scale as ``value``.  For a
    terminated sum it is 0.0, so the convergence invariant
    ``converged => last_term_abs <= STOP_RATIO * |value|`` holds there too.
    """

    value: float
    terms_used: int
    last_term_abs: float
    stop_reason: str

    @property
    def converged(self) -> bool:
        return self.stop_reason in ("terminated", "converged")

    @property
    def diverging(self) -> bool:
        return self.stop_reason == "diverging"


def sum_with_policy(
    terms: Iterator[float],
    policy: TruncationPolicy = DEFAULT_POLICY,
    scale: float = 1.0,
) -> SeriesApproximation:
    """Accumulate ``terms`` under ``policy`` and return value = scale * sum.

    The sum stops at the first term that meets, in this precedence,
    ``STOP_RUN`` terms in a row with |term| <= STOP_RATIO * |partial sum|
    (``"converged"``; fixed), ``divergence_window`` strict increases of |term|
    in a row (``"diverging"``), or ``max_terms`` terms (``"budget"``).  A
    stream that runs out inside the budget is ``"terminated"`` (a zero tail);
    no term past the budget is evaluated, so a stream that ends exactly at
    ``max_terms`` reads as budget.  Accumulation is exact (math.fsum).  A
    value outside the float64 range raises ``DomainError``.
    """
    collected: list[float] = []
    running = 0.0
    small = grow = 0
    prev = math.inf  # so the first term is never an increase
    for t in terms:
        collected.append(t)
        running += t
        mag = abs(t)
        if running != 0.0:  # zero (e.g. zero leading terms) is no evidence either way
            small = small + 1 if mag <= STOP_RATIO * abs(running) else 0
        grow = grow + 1 if mag > prev else 0
        prev = mag
        if small >= STOP_RUN or grow >= policy.divergence_window or len(collected) >= policy.max_terms:
            # named only here, in precedence order: a term costs just the test
            stop = ("converged" if small >= STOP_RUN else "diverging" if grow >= policy.divergence_window
                    else "budget")
            break
    else:
        stop = "terminated"

    try:
        total = math.fsum(collected)
    except (OverflowError, ValueError):  # an exact sum past float64, or inf and -inf among the terms
        total = math.inf
    return SeriesApproximation(
        value=_in_range(scale * total),
        terms_used=len(collected),
        last_term_abs=0.0 if stop == "terminated" else abs(scale) * abs(collected[-1]),
        stop_reason=stop,
    )
