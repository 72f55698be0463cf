"""Timed passes over a workload's ops, and the machine-speed calibration.

The 2-core host this benchmark was built on switches between speed modes
1.6-2x apart, for seconds to minutes at a time (other tenants share its
hardware), so raw wall times of two runs of the same code can differ by
more than any useful bound.  Every ``CAL_INTERVAL_S`` between ops the loop
therefore times a fixed calibration mix of the kinds of work the library
does (Python float arithmetic, big-integer binomials, small numpy arrays,
an adaptive quadrature of a Python integrand, exact rationals), and each
op's wall time is rescaled by ``CAL_REF_S / (calibration time measured
around the op)``.  Reported times are therefore seconds on a machine where
the calibration mix takes ``CAL_REF_S``; the unscaled figures are printed
alongside.  The calibration uses no library code, so a change to the
library cannot move it.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

import numpy as np
from scipy.integrate import quad

from tracing import BENCH, QUAD, TERMS, Tracer
from workloads import Op, Verdict, bind, check

#: Calibration time on the reference machine (this host's fast mode).
CAL_REF_S = 100e-6
#: Loop time between two calibration samples.
CAL_INTERVAL_S = 0.025
#: Each sample is the fastest of this many runs of the mix.
CAL_REPEAT = 3
#: Samples on each side of an op that the rescaling takes the median of.
CAL_WINDOW = 3


def _step(x: float, c: float) -> float:
    return x * c + 1.0


def calibration_work() -> None:
    """The fixed mix; see the module docstring."""
    x, parts = 0.0, []
    for i in range(1, 60):
        x = _step(x, 0.5) + math.comb(30, i % 30) / (i + 1.0)
        parts.append((x, -x * 1e-17))
    math.fsum(p[0] for p in parts)
    a = np.ones(8)
    for _ in range(10):
        a = np.append(a, 0.0)[1:] * 0.5 + np.arange(8.0)
    quad(lambda t: math.exp(-t * t), 0.0, 2.0)
    f = Fraction(1, 3)
    for i in range(8):
        f = f * Fraction(i + 1, i + 2) + 1


def calibrate() -> float:
    """One calibration sample: the fastest of ``CAL_REPEAT`` runs of the mix."""
    best = math.inf
    for _ in range(CAL_REPEAT):
        start = perf_counter()
        calibration_work()
        best = min(best, perf_counter() - start)
    return best


@dataclass
class Run:
    """Whole passes over one op list, with the calibration samples between.

    Per-op figures sit in arrays and per-batch totals (a batch being the ops
    between two calibration samples), so the run keeps few live objects and
    adds little to garbage-collection pauses.
    """

    calibration: list[float]
    passes: int = 0
    seconds: array = field(default_factory=lambda: array("d"))  # unscaled wall time per op
    batch: array = field(default_factory=lambda: array("l"))  # calibration sample before each op
    failed: set = field(default_factory=set)  # indices of inputs that failed in some pass
    silent_misses: set = field(default_factory=set)  # indices of inputs with a silent miss
    min_digits: float = math.inf
    errors: dict = field(default_factory=dict)  # input index -> exception type name
    rows: int = 0
    # traced runs only
    layer_s: list[Counter] = field(default_factory=list)  # unscaled self seconds per layer, per batch
    unattributed: array = field(default_factory=lambda: array("d"))  # per op, share outside every layer
    terms: int = 0
    useful_terms: int = 0

    def scales(self) -> list[float]:
        """Per calibration batch, the factor that rescales wall time to the reference."""
        cal = self.calibration
        return [CAL_REF_S / statistics.median(cal[max(0, j - CAL_WINDOW + 1): j + CAL_WINDOW + 1])
                for j in range(len(cal))]

    def record(self, index: int, verdict: Verdict) -> None:
        if verdict.failed:
            self.failed.add(index)
        if verdict.silent_miss:
            self.silent_misses.add(index)
        self.rows += verdict.rows
        if verdict.error:
            self.errors[index] = verdict.error
        if not verdict.failed and verdict.digits is not None:
            self.min_digits = min(self.min_digits, verdict.digits)


def _timed_call(call, tracer: Tracer | None):
    """Run one op: (result, exception name or None, seconds, self seconds per
    layer or None).  The clock stops before the handler touches an exception."""
    if tracer is None:
        start = perf_counter()
        try:
            result = call()
        except Exception as exc:  # the op boundary: any raise is a failed op
            elapsed = perf_counter() - start
            return None, type(exc).__name__, elapsed, None
        return result, None, perf_counter() - start, None
    tracer.begin_op()
    try:
        result = call()
    except Exception as exc:
        elapsed, layer_s = tracer.end_op()
        return None, type(exc).__name__, elapsed, layer_s
    return (result, None, *tracer.end_op())


def run_passes(ops: list[Op], fb, workdir, refs: dict, seconds: float,
               tracer: Tracer | None = None) -> Run:
    """Run whole passes over ``ops`` until ``seconds`` have elapsed (at least one).

    Only the library call is timed; binding the call and checking its result
    happen outside.  With a ``tracer`` (wrappers installed) the op's time is
    its root span, and its spans are folded into self time per layer.
    """
    run = Run(calibration=[])

    def new_batch():
        run.calibration.append(calibrate())
        run.layer_s.append(Counter())
        return perf_counter()

    last_cal = start = new_batch()
    while run.passes == 0 or perf_counter() - start < seconds:
        for index, op in enumerate(ops):
            if perf_counter() - last_cal >= CAL_INTERVAL_S:
                last_cal = new_batch()
            result, error, elapsed, layer_s = _timed_call(bind(op, fb, workdir), tracer)
            verdict = Verdict(failed=True, error=error) if error else check(op, result, refs)
            run.seconds.append(elapsed)
            run.batch.append(len(run.calibration) - 1)
            run.record(index, verdict)
            if tracer is not None:
                run.layer_s[-1].update(layer_s)
                run.unattributed.append(layer_s[BENCH] / elapsed if elapsed > 0.0 else 0.0)
                run.terms += tracer.op_terms
                run.useful_terms += 0 if verdict.failed else tracer.op_terms
        run.passes += 1
    run.calibration.append(calibrate())
    return run


def _per_input(times, passes: int) -> list[float]:
    """Each input's median time over the passes (the run is pass-major).

    A stretch in which other tenants slowed the ops more than the
    calibration mix then moves only the passes it fell in, not the result.
    """
    n = len(times) // passes
    return [statistics.median(times[i::n]) for i in range(n)]


def summary(run: Run) -> dict:
    """End-to-end figures of a run, times rescaled to the reference machine.

    Everything is per input: its latency is its median over the passes, and
    ops are counted once per input (an input fails if it failed in any pass),
    so ``attempted`` and ``failed`` depend on the seed only, not on how many
    passes the run's time allowed.
    """
    scales = run.scales()
    scaled = _per_input([t * scales[b] for t, b in zip(run.seconds, run.batch)], run.passes)
    raw = _per_input(run.seconds, run.passes)
    attempted, failed = len(scaled), len(run.failed)
    return {
        "attempted": attempted,
        "failed": failed,
        "silent_misses": len(run.silent_misses),
        "errors": Counter(run.errors.values()),
        "ok_per_s": (attempted - failed) / sum(scaled),
        "op_p50_ms": statistics.median(scaled) * 1e3,
        "op_p90_ms": statistics.quantiles(scaled, n=10)[8] * 1e3,
        "fail_share": failed / attempted,
        "min_digits": run.min_digits if math.isfinite(run.min_digits) else 0.0,
        "raw_op_p50_ms": statistics.median(raw) * 1e3,
        "raw_op_p90_ms": statistics.quantiles(raw, n=10)[8] * 1e3,
        "speed": statistics.median(run.calibration) / CAL_REF_S,
    }


def _per_pass(total: float, passes: int):
    """Counts repeat exactly from pass to pass; keep them whole when they do."""
    if isinstance(total, int) and total % passes == 0:
        return total // passes
    return total / passes


def layer_metrics(run: Run, tracer: Tracer) -> dict:
    """Per-layer figures of a traced run, per pass over the op list."""
    self_s: Counter = Counter()
    for layer_s, k in zip(run.layer_s, run.scales()):
        for layer, seconds in layer_s.items():
            self_s[layer] += seconds * k
    calls: Counter = Counter()
    for key, n in tracer.calls.items():
        calls[tracer.layer_of[key]] += n
    terms, passes = run.terms, run.passes
    count = lambda total: _per_pass(total, passes)  # noqa: E731
    return {
        "series.calls": count(calls["series"]),
        "series.self_s": (self_s["series"] + self_s[TERMS]) / passes,
        "series.terms": count(terms),
        "series.term_gen_s": self_s[TERMS] / passes,
        "series.us_per_term": self_s[TERMS] / terms * 1e6 if terms else 0.0,
        "series.useful_term_share": run.useful_terms / terms if terms else 0.0,
        "truncation.self_s": self_s["truncation"] / passes,
        **{f"truncation.stop_{how}": count(tracer.counts[f"truncation.stop_{how}"])
           for how in ("terminated", "converged", "budget", "diverging")},
        "fractional.quad_calls": count(calls[QUAD]),
        "fractional.quad_neval": count(tracer.counts["fractional.quad_neval"]),
        "fractional.quad_s": self_s[QUAD] / passes,
        "fractional.quad_failures": count(tracer.counts["fractional.quad_failures"]),
        "fractional.self_s": self_s["fractional"] / passes,
        "oracle.k_oracle_calls": count(tracer.calls["fracbessel.oracle.k_oracle"]),
        "oracle.self_s": self_s["oracle"] / passes,
        "special.calls": count(calls["special"]),
        "special.self_s": self_s["special"] / passes,
        "vk.calls": count(calls["vk"]),
        "vk.self_s": self_s["vk"] / passes,
        "cli.rows": count(run.rows),
        "cli.self_s": self_s["cli"] / passes,
        "trace.unattributed_share": sum(u * t for u, t in zip(run.unattributed, run.seconds)) / sum(run.seconds),
        "trace.unattributed_share_p99": statistics.quantiles(run.unattributed, n=100)[98],
    }
