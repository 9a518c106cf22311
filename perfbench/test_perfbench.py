"""Hook safety and metric bookkeeping of the benchmark.

    python3 -m pytest -q perfbench
"""

import importlib
import json
from array import array
from pathlib import Path

import pytest

import source

source.use_source_tree()

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent


def _targets():
    return [(importlib.import_module(m), a) for m, a, _, _ in tracing.HOOKS]


def test_traced_digest_matches_untraced_and_reference(tmp_path):
    template = workloads.template_spec(workloads.WORKLOADS["exchange-narrow"])
    plain = workloads.reference_digest(template, tmp_path / "plain.csv")
    tracer = tracing.Tracer()
    tracer.begin_replication(0)
    with tracing.hooks(tracer):
        traced = workloads.reference_digest(template, tmp_path / "traced.csv")
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    assert traced == plain == reference["exchange-narrow"]
    # every hooked name was called
    assert tracing.unseen_hooks(tracer) == []


def test_a_hook_that_is_never_called_is_reported(tmp_path):
    # the scalar pair-rate function exists but is not on the replication path
    table = tracing.HOOKS + (("udnsync.noma", "pair_completion_noma",
                              "noma.kernel", None),)
    template = workloads.template_spec(workloads.WORKLOADS["exchange-narrow"])
    with tracing.hooks(tracing.Tracer(), table) as tracer:
        tracer.begin_replication(0)
        workloads.reference_digest(template, tmp_path / "rows.csv")
    assert tracing.unseen_hooks(tracer, table) == ["udnsync.noma.pair_completion_noma"]


def test_every_hook_is_restored_on_exit_and_on_error():
    originals = [getattr(m, a) for m, a in _targets()]
    with tracing.hooks(tracing.Tracer()):
        assert all(getattr(m, a) is not o
                   for (m, a), o in zip(_targets(), originals))
    assert all(getattr(m, a) is o for (m, a), o in zip(_targets(), originals))
    with pytest.raises(ZeroDivisionError):
        with tracing.hooks(tracing.Tracer()):
            1 / 0
    assert all(getattr(m, a) is o for (m, a), o in zip(_targets(), originals))


def test_missing_hook_target_fails_loudly_and_restores():
    originals = [getattr(m, a) for m, a in _targets()]
    table = tracing.HOOKS + (("udnsync.scheduler", "no_such_kernel",
                              "noma.kernel", None),)
    with pytest.raises(tracing.HookError, match="no_such_kernel"):
        with tracing.hooks(tracing.Tracer(), table):
            pytest.fail("a missing hook target was skipped")
    assert all(getattr(m, a) is o for (m, a), o in zip(_targets(), originals))


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    tracer.begin_replication(0)
    outer = tracer.open("a")
    inner = tracer.open("b")
    tracer.close(inner)
    tracer.close(outer)
    tracer.start[:] = array("d", [0.0, 1.0])
    tracer.end[:] = array("d", [4.0, 2.5])
    totals = tracer.span_totals(1)
    assert totals["a"] == (4.0, 2.5)
    assert totals["b"] == (1.5, 1.5)
    assert tracer.span_totals(1, scale=[2.0])["a"] == (8.0, 5.0)


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(1, 41)]
    assert run.tail(samples) == (75.0, 30.0)
    assert run.tail([2.0, 1.0]) == (100.0, 2.0)


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
