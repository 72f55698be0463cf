"""Seeded inputs, operations and correctness checks for the four workloads.

Inputs are a pure function of (workload, seed): the generator draws from
``random.Random(f"{workload}:{seed}")`` and nothing else, and the library
only ever receives the generated values.  Known failing regions stay in the
data; no point is filtered out because the library fails on it.

This module imports no numerical package at load time, so the set-up probe
can time ``import fracbessel`` from a cold interpreter after importing it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("halfint", "generic", "audit", "cli")

#: A value reported as converged but further than this from the reference
#: (relative) is a silent miss.  Acceptance criterion 6 pins the same figure.
SILENT_MISS_TOL = 1e-6

#: Digits of agreement are capped here; an exact match reads as this value.
DIGITS_CAP = 16.0

#: Closed-form power rule against the Riemann-Liouville quadrature
#: (acceptance criterion 4).
POWER_RULE_TOL = 1e-6

#: Generic-alpha V_k constructions must agree to this (criterion 3).
VK_GENERIC_TOL = 1e-11

#: Tolerance of the analytically forced M10 rows (s = 1/2), as the CLI uses.
M10_FORCED_TOL = 1e-9

#: Placeholder in CLI argument lists for the table output file.
OUT = "{out}"


@dataclass(frozen=True)
class Op:
    """One call into the public API: a kind and its plain-value arguments."""

    kind: str
    args: tuple


@dataclass(frozen=True)
class Verdict:
    """Outcome of one executed op, judged against its reference."""

    failed: bool
    silent_miss: bool = False
    digits: float | None = None  # None: failed, or the op yields no digits
    rows: int = 0  # CLI rows emitted
    error: str | None = None  # exception type name when the op raised


def make_inputs(workload: str, seed: int) -> list[Op]:
    """The workload's op list for ``seed``; the same seed gives the same list."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r} (choose from {', '.join(WORKLOADS)})")
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def _strata(rng: random.Random, n: int, lo: float, hi: float, log: bool = False) -> list[float]:
    """n draws from (lo, hi], one uniform draw in each of n equal slices
    (of the log range if ``log``), in random order.

    Stratified draws cover the range evenly, so the cost mix of a pass, and
    with it every latency percentile, varies far less from seed to seed
    than with independent draws.
    """
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    values = [b - (b - a) * (i + rng.random()) / n for i in range(n)]
    if log:
        values = [math.exp(v) for v in values]
    rng.shuffle(values)
    return values


def _halfint(rng: random.Random) -> list[Op]:
    # s = m + 1/2, m = 0..40 (the ROADMAP grid), 24 stratified z per order in [0.1, 30]
    ops = [Op("k_mcdonald", (m + 0.5, z)) for m in range(41) for z in _strata(rng, 24, 0.1, 30.0, log=True)]
    rng.shuffle(ops)
    return ops


def _generic(rng: random.Random) -> list[Op]:
    # one point in each cell of a 24 x 25 grid over s in (0.05, 5] and log z in [0.1, 20]
    ops = []
    for i in range(24):
        for j in range(25):
            s = 5.0 - 4.95 * (i + rng.random()) / 24
            while abs(s - 0.5 - round(s - 0.5)) < 1e-6:  # k_series_m9 rejects half-integers by design
                s = 5.0 - 4.95 * (i + rng.random()) / 24
            z = 0.1 * 200.0 ** ((j + rng.random()) / 25)
            ops += [Op("k_mcdonald", (s, z)), Op("k_series_m9", (s, z))]
    rng.shuffle(ops)
    return ops


def _audit(rng: random.Random) -> list[Op]:
    n = 64

    def strata(lo, hi):
        return _strata(rng, n, lo, hi)

    ops = [Op("verify_m4a", p) for p in zip(strata(0.3, 3.0), strata(0.3, 3.0), strata(0.3, 3.0))]
    ops += [Op("verify_m4b", p) for p in zip(strata(0.3, 3.0), strata(0.3, 3.0), strata(0.3, 3.0))]
    ops += [Op("verify_m5a", p) for p in zip(strata(-0.95, -0.05), strata(0.3, 3.0), strata(0.3, 3.0))]
    # x = 1 makes both M5B readings coincide (asserted); elsewhere informational
    ops += [Op("verify_m5b", (s, beta, 1.0 if i % 2 else x))
            for i, (s, beta, x) in enumerate(zip(strata(-0.45, -0.05), strata(0.3, 3.0), strata(0.3, 3.0)))]
    # s = 1/2 rows of M10 are analytically forced (asserted); elsewhere informational
    ops += [Op("adjudicate_m10", (0.5 if i % 2 else s, z))
            for i, (s, z) in enumerate(zip(strata(0.1, 3.0), strata(0.2, 5.0)))]
    ops += [Op("power_rule", (s, p, float(i % 2), i % 2 + width))
            for i, (s, p, width) in enumerate(zip(strata(-0.9, -0.1), strata(0.2, 3.5), strata(0.5, 2.5)))]
    ops += [Op("general_expansion_m7", (s, nu, -1.0, beta, x))
            for s, nu, beta, x in zip(strata(-0.9, -0.1), strata(0.2, 2.0), strata(0.5, 2.0), strata(0.5, 2.0))]
    # the whole criterion-3 coefficient set
    ops += [Op("vk_triple", (-1.0, k)) for k in range(21)]
    ops += [Op("vk_triple", (alpha, k)) for alpha in (-0.5, 1.0 / 3.0, 1.0, -2.0) for k in range(16)]
    rng.shuffle(ops)
    return ops


def _cli(rng: random.Random) -> list[Op]:
    n = 60
    ops = []
    half = [m % 6 + 0.5 for m in range(n)]
    rng.shuffle(half)
    for m_half, s, z1, z2 in zip(half, _strata(rng, n, 0.05, 5.0), _strata(rng, n, 0.2, 5.0, log=True),
                                 _strata(rng, n, 0.2, 5.0, log=True)):
        ops.append(Op("cli", ("table", "--s-list", f"{m_half!r},{s!r}", "--z-list", f"{z1!r},{z2!r}",
                              "--methods", "rearranged,oracle", "--with-oracle", "--json", "--out", OUT)))
    # converge sets the run's latency tail, and its cost moves steeply with s
    # and z: one range start in each cell of a 24 x 5 grid over s in (0.1, 3]
    # and z in (0.2, 3] keeps that tail's cost mix nearly the same for every seed
    for i in range(24):
        for j in range(5):
            s_lo = round(3.0 - 2.9 * (i + rng.random()) / 24, 2)
            z_lo = round(3.0 - 2.8 * (j + rng.random()) / 5, 2)
            s_step = (0.25, 0.5)[(i + j) % 2]
            ops.append(Op("cli", ("converge", "--s-range", f"{s_lo}:{round(s_lo + s_step, 2)}:{s_step}",
                                  "--z-range", f"{z_lo}:{round(z_lo + 1.0, 2)}:0.5")))
    ops += [Op("cli", ("verify", "--identity", identity, "--json"))
            for identity in ("m4a", "m4b", "m5a", "m5b", "m10", "all") for _ in range(n // 6)]
    rng.shuffle(ops)
    return ops


_GENERATORS = {"halfint": _halfint, "generic": _generic, "audit": _audit, "cli": _cli}


# --- references ---------------------------------------------------------------

def reference_points(op: Op) -> list[tuple[float, float]]:
    """The (s, z) points whose K_s(z) the check of ``op`` compares against."""
    if op.kind in ("k_mcdonald", "k_series_m9"):
        return [op.args]
    if op.kind == "cli" and op.args[0] == "table":
        s_values = [float(v) for v in op.args[2].split(",")]
        z_values = [float(v) for v in op.args[4].split(",")]
        return [(s, z) for s in s_values for z in z_values]
    return []


def references(ops: list[Op]) -> dict[tuple[float, float], float]:
    """scipy.special.kv at every point any op is checked against."""
    from scipy.special import kv

    return {p: float(kv(p[0], p[1])) for op in ops for p in reference_points(op)}


# --- execution ----------------------------------------------------------------

def bind(op: Op, fb, workdir: Path):
    """A no-argument callable that runs ``op`` against the package ``fb``.

    Public names are looked up when the op is bound, so wrappers installed
    for a traced run see the call.  The callable returns the raw result that
    ``check`` judges; exceptions propagate.
    """
    kind, a = op.kind, op.args
    if kind in ("k_mcdonald", "k_series_m9", "verify_m4a", "verify_m4b", "verify_m5a", "verify_m5b"):
        fn = getattr(fb, kind)
        return lambda: fn(*a)
    if kind == "adjudicate_m10":
        grid = [fb.OrderArg(*a)]
        return lambda: fb.adjudicate_m10(grid, tol=M10_FORCED_TOL)[0]
    if kind == "power_rule":
        s, p, lo, hi = a
        bounds = fb.BoundarySetup(lo, hi)
        return lambda: (fb.rl_integral(lambda t: (t - lo) ** p, s, bounds), fb.power_rule(s, p, bounds))
    if kind == "general_expansion_m7":
        s, nu, alpha, beta, x = a
        bounds = fb.BoundarySetup(0.0, x)

        def f(t: float) -> float:
            return t ** nu * math.exp(-beta * t ** alpha) if t > 0.0 else 0.0

        return lambda: (fb.general_expansion_m7(*a), fb.rl_integral(f, s, bounds))
    if kind == "vk_triple":
        alpha, k = a
        return lambda: (fb.vk_coeffs_sum(alpha, k).coeffs, fb.vk_coeffs_recurrence(alpha, k).coeffs,
                        fb.vk_coeffs_closed_m1(k).coeffs if alpha == -1.0 else None)
    if kind == "cli":
        out = workdir / "table.json"
        argv = [str(out) if v == OUT else v for v in a]

        def run_cli():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = fb.cli.main(argv)
            return code, stdout.getvalue(), out

        return run_cli
    raise ValueError(f"unknown op kind {kind!r}")


# --- checks -------------------------------------------------------------------

def _digits(rel: float) -> float:
    return DIGITS_CAP if rel <= 0.0 else min(DIGITS_CAP, -math.log10(rel))


def _rel(value: float, ref: float) -> float:
    return abs(value - ref) / max(abs(ref), 1e-300)


def _judge_value(converged: bool, value: float, ref: float) -> Verdict:
    """A series value: fails unless converged; a converged miss is silent."""
    if not converged:
        return Verdict(failed=True)
    rel = _rel(value, ref)
    if not rel <= SILENT_MISS_TOL:
        return Verdict(failed=True, silent_miss=True)
    return Verdict(failed=False, digits=_digits(rel))


def _judge_records(pairs) -> Verdict:
    """(record, asserted) pairs: asserted ones must pass and give the digits,
    informational ones only need a finite rel_dev."""
    digits = []
    for rec, asserted in pairs:
        if asserted:
            if not rec.passed:
                return Verdict(failed=True)
            digits.append(_digits(rec.rel_dev))
        elif not math.isfinite(rec.rel_dev):
            return Verdict(failed=True)
    return Verdict(failed=False, digits=min(digits) if digits else None)


def check(op: Op, result, refs: dict) -> Verdict:
    """Judge the raw ``result`` of ``op`` (see ``bind``)."""
    kind, a = op.kind, op.args
    if kind in ("k_mcdonald", "k_series_m9"):
        return _judge_value(result.converged, result.value, refs[a])
    if kind in ("verify_m4a", "verify_m4b", "verify_m5a"):
        return _judge_records([(result, True)])
    if kind == "verify_m5b":
        forced = a[2] == 1.0
        return _judge_records([(result[0], forced), (result[1], forced)])
    if kind == "adjudicate_m10":
        return _judge_records([(result, a[0] == 0.5)])
    if kind == "power_rule":
        rel = _rel(result[0], result[1])
        return Verdict(failed=True) if not rel <= POWER_RULE_TOL else Verdict(False, digits=_digits(rel))
    if kind == "general_expansion_m7":
        approx, quadrature = result
        return _judge_value(approx.converged, approx.value, quadrature)
    if kind == "vk_triple":
        by_sum, by_rec, closed = result
        if closed is not None:
            same = by_sum == by_rec == closed
            return Verdict(failed=not same, digits=DIGITS_CAP if same else None)
        rel = max((_rel(float(x), float(y)) if y != 0 else float(x != 0) for x, y in zip(by_sum, by_rec)),
                  default=0.0)
        if len(by_sum) != len(by_rec) or not rel <= VK_GENERIC_TOL:
            return Verdict(failed=True)
        return Verdict(failed=False, digits=_digits(rel))
    if kind == "cli":
        return _check_cli(op, result, refs)
    raise ValueError(f"unknown op kind {kind!r}")


def _check_cli(op: Op, result, refs: dict) -> Verdict:
    code, stdout, out = result
    command = op.args[0]
    if command == "table":
        rows = json.loads(out.read_text(encoding="utf-8")) if code == 0 else []
        failed, silent, digits = code != 0, False, []
        for row in rows:
            if not row["converged"]:
                failed = True
                continue
            if not _rel(row["value"], refs[(row["s"], row["z"])]) <= SILENT_MISS_TOL:
                silent = True
            digits.append(_digits(row["rel_err_vs_oracle"]))
        failed = failed or silent
        return Verdict(failed, silent, None if failed else min(digits), rows=len(rows))
    if command == "converge":
        rows = sum(1 for line in stdout.splitlines() if line.startswith("s="))
        return Verdict(failed=code != 0, rows=rows)
    if command == "verify":
        records = json.loads(stdout) if code in (0, 2) and stdout else []
        digits = [_digits(r["rel_dev"]) for r in records if r["asserted"]]
        failed = code != 0
        return Verdict(failed, digits=None if failed or not digits else min(digits), rows=len(records))
    raise ValueError(f"unknown CLI command {command!r}")
