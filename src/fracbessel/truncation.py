"""Truncated-series bookkeeping: stopping policy, result metadata, summation engine.

The policy is a frozen dataclass that validates its stops on construction.
The result is a ``NamedTuple``, built positionally once per sum: a call that
sums a handful of terms would otherwise spend a noticeable share of its time
building it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

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


class SeriesApproximation(NamedTuple):
    """Value of a truncated series plus how the truncation went.

    ``stop_reason`` says why the sum stopped, one of four strings:

    * ``"terminated"`` - the term stream ran out, or the Pochhammer ratio
      hit zero, inside the budget: every remaining term is identically zero;
    * ``"converged"`` - ``STOP_RUN`` terms in a row were negligible (for
      ``k_mcdonald``'s Temme's method, one term of each of Temme's two sums,
      or one increment of Steed's continued fraction);
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
    terms: Iterable[float],
    policy: TruncationPolicy = DEFAULT_POLICY,
    scale: float = 1.0,
    a: float = 1.0,
    b: float = 1.0,
    zeros: int = 0,
) -> SeriesApproximation:
    """Sum ``zeros`` exact zeros, then (a)_k/(b)_k * terms_k for k = 0, 1, ...,
    under ``policy``, and return value = scale * sum.

    The Pochhammer ratio is a running product, ratio *= (a + k)/(b + k),
    whose factor for term k + 1 is formed only once the sum goes on to it.
    When a + k is exactly zero every later term vanishes, so the sum ends
    after term k as a zero tail.  The defaults a = b = 1 leave ``terms`` as
    they are, bit for bit.  The ``zeros`` leading terms (a reciprocal
    gamma's zeros) read nothing from ``terms`` but are terms like any other:
    they count toward ``max_terms``, and the first value's magnitude is
    compared with theirs.

    The sum stops at the first term that meets, in this precedence,
    ``STOP_RUN`` terms in a row with |term| <= STOP_RATIO * |partial sum|
    (``"converged"``; fixed), ``divergence_window`` strict increases of |term|
    in a row (``"diverging"``), or ``max_terms`` terms (``"budget"``).  A
    stream that runs out inside the budget, or a ratio that hits zero there,
    is ``"terminated"`` (a zero tail); no value past the budget is read, so a
    sum that ends exactly at ``max_terms`` reads as budget.  Accumulation is
    exact (math.fsum).  A value outside the float64 range raises
    ``DomainError``.
    """
    max_terms, window = policy.max_terms, policy.divergence_window
    head = min(zeros, max_terms)
    collected = [0.0] * head
    append = collected.append
    stop_ratio, stop_run = STOP_RATIO, STOP_RUN
    running, ratio = 0.0, 1.0
    small = grow = 0
    prev = 0.0 if head else math.inf  # with no zeros the first term is never an increase
    left = max_terms - head  # terms the budget still allows
    stop = "budget"
    if left > 0:
        k = 0.0  # a float index: a + k and b + k round as with an int k
        for t in terms:
            t *= ratio
            append(t)
            running += t
            mag = abs(t)
            if running != 0.0:  # zero (e.g. zero leading terms) is no evidence either way
                small = small + 1 if mag <= stop_ratio * abs(running) else 0
            grow = grow + 1 if mag > prev else 0
            prev = mag
            left -= 1
            if small >= stop_run or grow >= window or not left:
                # named only here, in precedence order: a term that goes on costs one test
                stop = "converged" if small >= stop_run else "diverging" if grow >= window else "budget"
                break
            top = a + k
            if top == 0.0:
                stop = "terminated"
                break
            ratio *= top / (b + k)
            k += 1.0
        else:
            stop = "terminated"

    try:
        total = math.fsum(collected)
    except (OverflowError, ValueError):  # an exact sum past float64, or inf and -inf among the terms
        total = math.inf
    last_term_abs = 0.0 if stop == "terminated" else abs(scale) * abs(collected[-1])
    return SeriesApproximation(_in_range(scale * total), len(collected), last_term_abs, stop)
