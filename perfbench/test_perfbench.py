"""Tests of the benchmark itself (not of the library):

    python3 -m pytest -q perfbench
"""

import inspect
import json
import shutil
import subprocess
import sys
from collections import Counter
from types import SimpleNamespace

import pytest

import run as bench
from measure import layer_metrics, run_passes, summary
from tracing import Tracer, installed
from workloads import WORKLOADS, Op, check, make_inputs, references

fb = bench.import_library()

#: Counts the issue names as exact: they must repeat between runs of one seed.
EXACT = ("series.terms", "fractional.quad_neval", "vk.calls", "truncation.stop_terminated",
         "truncation.stop_converged", "truncation.stop_budget", "truncation.stop_diverging")

#: Stated accounting share: the layer self times of an op sum to its traced
#: time to within this share for 99% of ops, and to within UNATTRIBUTED_ALL
#: over all ops (the rest is wrapper entry and the benchmark's own glue).
UNATTRIBUTED_P99 = 0.2
UNATTRIBUTED_ALL = 0.01


def _bindings():
    """Every public function object bound in the package's namespaces."""
    return {
        (name, attr): obj
        for name, module in list(sys.modules.items())
        if module is not None and (name == "fracbessel" or name.startswith("fracbessel."))
        for attr, obj in vars(module).items()
        if inspect.isfunction(obj)
    }


def _traced_pass(workload):
    ops = make_inputs(workload, 3)
    bench.WORKDIR.mkdir(exist_ok=True)
    tracer = Tracer()
    with installed(tracer) as replaced:
        run = run_passes(ops, fb, bench.WORKDIR, references(ops), 0.0, tracer)
    return SimpleNamespace(run=run, metrics=layer_metrics(run, tracer), replaced=replaced)


@pytest.fixture(scope="module")
def traced():
    """Two single-pass traced runs of each workload, and the bindings around them."""
    before = _bindings()
    runs = {w: (_traced_pass(w), _traced_pass(w)) for w in WORKLOADS}
    return SimpleNamespace(before=before, after=_bindings(), runs=runs)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_are_a_pure_function_of_the_seed(workload):
    assert make_inputs(workload, 11) == make_inputs(workload, 11)
    assert make_inputs(workload, 11) != make_inputs(workload, 12)


def test_known_failing_regions_stay_in_the_data():
    halfint = Counter(op.args[0] for op in make_inputs("halfint", 5))
    assert halfint == {m + 0.5: 24 for m in range(41)}
    generic = make_inputs("generic", 5)
    assert len(generic) == 1200
    assert all(0.05 < op.args[0] <= 5.0 and 0.1 <= op.args[1] <= 20.0 for op in generic)


def test_a_wrong_converged_value_is_a_silent_miss():
    op = Op("k_mcdonald", (2.5, 1.0))
    refs = references([op])
    right = SimpleNamespace(converged=True, value=refs[(2.5, 1.0)])
    wrong = SimpleNamespace(converged=True, value=refs[(2.5, 1.0)] * (1 + 1e-5))
    flagged = SimpleNamespace(converged=False, value=0.0)
    assert not check(op, right, refs).failed
    assert check(op, wrong, refs).silent_miss and check(op, wrong, refs).failed
    assert check(op, flagged, refs).failed and not check(op, flagged, refs).silent_miss


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat_between_runs_of_one_seed(traced, workload):
    first, second = traced.runs[workload]
    for name in EXACT:
        assert first.metrics[name] == second.metrics[name], name
        assert isinstance(first.metrics[name], int), name


def test_op_counts_depend_on_the_seed_not_on_the_passes():
    ops = make_inputs("halfint", 4)
    refs = references(ops)
    one = summary(run_passes(ops, fb, bench.WORKDIR, refs, 0.0))
    several = run_passes(ops, fb, bench.WORKDIR, refs, 1.0)
    assert several.passes > 1
    assert (one["attempted"], one["failed"]) == (summary(several)["attempted"], summary(several)["failed"])
    assert one["attempted"] == len(ops) and one["failed"] > 0


def test_every_wrapped_name_is_the_original_again(traced):
    assert traced.after == traced.before
    replaced = {f"{module.__name__}.{name}" for module, name, _ in traced.runs["cli"][0].replaced}
    assert {"fracbessel.series.sum_with_policy", "fracbessel.oracle.adaptive_quad",
            "fracbessel.cli.k_oracle", "fracbessel.k_mcdonald"} <= replaced
    assert not any(name.rsplit(".", 1)[1].startswith("_") for name in replaced)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_account_for_each_op(traced, workload):
    metrics = traced.runs[workload][0].metrics
    assert metrics["trace.unattributed_share"] <= UNATTRIBUTED_ALL
    assert metrics["trace.unattributed_share_p99"] <= UNATTRIBUTED_P99


def test_layers_are_seen_where_the_workloads_put_work(traced):
    halfint = traced.runs["halfint"][0].metrics
    assert halfint["series.terms"] > 0 and halfint["fractional.quad_calls"] == 0
    audit = traced.runs["audit"][0].metrics
    assert audit["fractional.quad_calls"] > 0 and audit["vk.calls"] > 0 and audit["oracle.k_oracle_calls"] > 0
    assert traced.runs["cli"][0].metrics["cli.rows"] > 0


def test_outside_a_checkout_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(bench.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(bench.HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "halfint", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
