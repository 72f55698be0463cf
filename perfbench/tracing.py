"""In-memory spans around the library's public functions, for the traced run.

Entry points are the public functions (no leading underscore) defined in the
layer modules below.  Each is wrapped at every name it is bound to in the
namespaces of ``fracbessel`` and its submodules, which are the names the
workload and the library's own modules call it through.  Nothing private is
wrapped, so a helper that disappears costs nothing, and an entry point that
disappears reads as zero calls.  ``compensated`` is deliberately not a layer:
its helpers run millions of times inside term generation, where a span
around each would measure only the wrapper; their time stays with the term
iterator.

Two wrappers do more than record a span.  ``sum_with_policy`` also wraps the
term iterator handed to it, so term generation (layer ``series.terms``) is
timed apart from the stopping bookkeeping, and reads how the sum stopped
from the returned flags.  ``adaptive_quad`` also wraps the integrand handed
to it, to count evaluations, and counts ``ToleranceNotMet``.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

LAYER_MODULES = {
    "fracbessel.special": "special",
    "fracbessel.fractional": "fractional",
    "fracbessel.vk": "vk",
    "fracbessel.series": "series",
    "fracbessel.truncation": "truncation",
    "fracbessel.oracle": "oracle",
    "fracbessel.cli": "cli",
}

#: Layer of the term-iterator spans; reported as part of ``series``.
TERMS = "series.terms"
#: Layer of ``adaptive_quad``, reported apart from the rest of ``fractional``.
QUAD = "fractional.quad"
#: Layer of the benchmark's own root span around each op.
BENCH = "bench"


class Tracer:
    """Records the spans of the op in progress and folds them into totals.

    A span is ``[layer, parent index, start, end]``; spans of one op share
    the list they sit in.  ``end_op`` turns the list into self time per
    layer (span time minus the time of its child spans) and clears it.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.current = -1
        self.calls: Counter = Counter()  # entry point -> calls
        self.layer_of: dict[str, str] = {}  # entry point -> layer
        self.counts: Counter = Counter()  # named exact counts
        self.op_terms = 0  # terms produced during the op in progress

    def open(self, layer: str) -> int:
        span = [layer, self.current, 0.0, 0.0]  # allocate before the clock starts
        self.spans.append(span)
        self.current = len(self.spans) - 1
        span[2] = perf_counter()
        return self.current

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[3] = perf_counter()
        self.current = span[1]

    def begin_op(self) -> None:
        self.spans.clear()
        self.current = -1
        self.op_terms = 0
        self.open(BENCH)

    def end_op(self) -> tuple[float, Counter]:
        """Close the op's root span; return its duration and self time per layer."""
        self.close(0)
        child = [0.0] * len(self.spans)
        for layer, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: Counter = Counter()
        for (layer, _, start, end), inner in zip(self.spans, child):
            self_s[layer] += end - start - inner
        root = self.spans[0]
        return root[3] - root[2], self_s

    # --- wrappers ------------------------------------------------------------

    def wrap(self, fn, layer: str, key: str):
        """A wrapper that records a span (and the call) in ``layer``."""
        if key == "fracbessel.fractional.adaptive_quad":
            layer = QUAD
        self.layer_of[key] = layer
        if key == "fracbessel.truncation.sum_with_policy":
            return self._wrap_sum(fn, key)
        if layer == QUAD:
            return self._wrap_quad(fn, key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(layer)
            try:
                self.calls[key] += 1
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def _terms(self, terms):
        it = iter(terms)
        while True:
            index = self.open(TERMS)
            try:
                term = next(it)
            except StopIteration:
                return
            finally:
                self.close(index)
            self.op_terms += 1
            yield term

    def _wrap_sum(self, fn, key):
        @functools.wraps(fn)
        def traced(terms, *args, **kwargs):
            index = self.open("truncation")
            try:
                self.calls[key] += 1
                approx = fn(self._terms(terms), *args, **kwargs)
            finally:
                self.close(index)
            if approx.converged:
                stop = "terminated" if approx.last_term_abs == 0.0 else "converged"
            else:
                stop = "diverging" if approx.diverging else "budget"
            self.counts["truncation.stop_" + stop] += 1
            return approx

        return traced

    def _wrap_quad(self, fn, key):
        from fracbessel import ToleranceNotMet

        @functools.wraps(fn)
        def traced(integrand, *args, **kwargs):
            index = self.open(QUAD)
            evaluations = 0

            def counted(t):
                nonlocal evaluations
                evaluations += 1
                return integrand(t)

            try:
                self.calls[key] += 1
                return fn(counted, *args, **kwargs)
            except ToleranceNotMet:
                self.counts["fractional.quad_failures"] += 1
                raise
            finally:
                self.close(index)
                self.counts["fractional.quad_neval"] += evaluations

        return traced


def _namespaces():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "fracbessel" or name.startswith("fracbessel."))]


def entry_points() -> dict:
    """function object -> (layer, "module.name") for every public function
    defined in a layer module."""
    found = {}
    for module in _namespaces():
        layer = LAYER_MODULES.get(module.__name__)
        if layer is None:
            continue
        for name, obj in vars(module).items():
            if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                found[obj] = (layer, f"{module.__name__}.{name}")
    return found


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every binding of every entry point; restore the originals on exit."""
    points = entry_points()
    wrappers = {fn: tracer.wrap(fn, layer, key) for fn, (layer, key) in points.items()}
    replaced = []
    try:
        for module in _namespaces():
            for name, obj in list(vars(module).items()):
                if not name.startswith("_") and inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, name, wrappers[obj])
                    replaced.append((module, name, obj))
        yield replaced
    finally:
        for module, name, obj in replaced:
            setattr(module, name, obj)
