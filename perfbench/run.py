"""fracbessel benchmark: one seeded workload per run, end to end or traced.

    python3 perfbench/run.py --workload halfint --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 [--trace 1]

Run it from the root of a checkout: the library is imported from ``src/``
there, and the run fails without printing a result when that is missing.
Each workload is a closed loop: one caller, one process, one thread, and the
next op starts when the previous one returns.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs the ops untraced and then traced
(half of ``--seconds`` each) and prints the per-layer metrics, including the
tracing overhead (traced minus untraced).  A human-readable table comes
first; the last line of standard output is the JSON result.  See README.md
in this directory for the definitions.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKDIR = HERE / ".work"  # the CLI workload's table output file

#: Fresh interpreters per run for set-up time; the median is reported.
SETUP_PROBES = 5
#: Import time of the dependencies alone on the reference machine (this
#: host's fast mode).  Each set-up probe is paired with a dependency-only
#: probe and rescaled by DEPENDENCY_REF_S / (its time): import work slows
#: with the host's speed modes much as the probe does, and the library
#: cannot change it.
DEPENDENCY_REF_S = 0.45


#: End-to-end metrics and units.  ``fail_share`` and ``silent_misses`` are
#: printed but left out of the JSON metrics, because they read 0 on some
#: workloads; the JSON carries them as ``failed`` / ``attempted`` and
#: ``correct``, and the traced run as ``ops.fail_share`` / ``ops.silent_misses``.
END_TO_END = {
    "setup_s": "s",
    "ok_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "fail_share": "1",
    "silent_misses": "count",
    "min_digits": "digits",
    "peak_rss_mb": "MB",
}
NOT_IN_JSON = ("fail_share", "silent_misses")


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("us_per_term"):
        return "us"
    if "share" in name:
        return "1"
    return "count"


def import_library():
    """Import fracbessel from this checkout's src/, or exit without a result."""
    if not (SRC / "fracbessel" / "__init__.py").is_file():
        raise SystemExit(f"error: library source {SRC / 'fracbessel'} not found; "
                         "run the benchmark from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import fracbessel
    import fracbessel.cli  # noqa: F401

    return fracbessel


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Set-up time: median over fresh interpreters of import plus first op,
    rescaled by a paired dependency-only probe; also the unscaled median."""
    def probe(*args: str) -> float:
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), *args],
                              cwd=HERE.parent, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
        return float(proc.stdout.split()[-1])

    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        reference = probe("--dependencies")
        raw.append(probe(str(SRC), workload, str(seed), str(WORKDIR)))
        scaled.append(raw[-1] * DEPENDENCY_REF_S / reference)
    return statistics.median(scaled), statistics.median(raw)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    fb = import_library()
    from measure import layer_metrics, run_passes, summary
    from tracing import Tracer, installed
    from workloads import make_inputs, references

    WORKDIR.mkdir(exist_ok=True)
    ops = make_inputs(workload, seed)
    refs = references(ops)
    setup_s, raw_setup_s = (None, None) if trace else measure_setup(workload, seed)
    run_passes(ops[: len(ops) // 4], fb, WORKDIR, refs, 0.0)  # untimed warm-up: lazy set-up, caches

    if trace:
        plain_run = run_passes(ops, fb, WORKDIR, refs, seconds / 2)
        plain = summary(plain_run)
        tracer = Tracer()
        with installed(tracer):
            run = run_passes(ops, fb, WORKDIR, refs, seconds / 2, tracer)
        figures = summary(run)
        shown = layer_metrics(run, tracer)
        for name in ("op_p50_ms", "op_p90_ms", "ok_per_s"):
            shown[f"trace.overhead_{name}"] = figures[name] - plain[name]
        shown["ops.fail_share"] = figures["fail_share"]
        shown["ops.silent_misses"] = figures["silent_misses"]
        units = {k: layer_unit(k) for k in shown}
        metrics = shown
        # Both halves run the same inputs: an input fails if it failed in either.
        totals = {"attempted": figures["attempted"], "failed": len(plain_run.failed | run.failed),
                  "silent_misses": len(plain_run.silent_misses | run.silent_misses),
                  "errors": figures["errors"]}
    else:
        run = run_passes(ops, fb, WORKDIR, refs, seconds)
        figures = summary(run)
        figures["setup_s"] = setup_s
        figures["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        shown = {k: figures[k] for k in END_TO_END}
        units = END_TO_END
        metrics = {k: v for k, v in shown.items() if k not in NOT_IN_JSON}
        totals = figures

    print(f"fracbessel benchmark: workload={workload} seed={seed} trace={int(trace)} passes={run.passes} "
          f"ops_per_pass={len(ops)} attempted={totals['attempted']} failed={totals['failed']}")
    for name, value in shown.items():
        print(f"  {name:32s} {value:>16.6g} {units[name]}")
    print(f"  unscaled: op_p50_ms={figures['raw_op_p50_ms']:.6g} op_p90_ms={figures['raw_op_p90_ms']:.6g} "
          f"(host at {figures['speed']:.3g}x the reference calibration time)"
          + ("" if trace else f" setup_s={raw_setup_s:.6g}"))
    if totals["errors"]:
        print("  raised: " + ", ".join(f"{k}={v}" for k, v in sorted(totals["errors"].items())))
    return {
        "correct": totals["silent_misses"] == 0,
        "attempted": totals["attempted"],
        "failed": totals["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in its own process, one after another."""
    import_library()
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {workload} failed:\n{proc.stderr}")
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1])
    return {"seed": seed, "workloads": results}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
