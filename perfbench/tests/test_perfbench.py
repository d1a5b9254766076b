"""Tests of the benchmark itself, at toy sizes.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import dataclasses
import importlib
import inspect
import json
import os
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
REPO_ROOT = BENCH_DIR.parent
sys.path[:0] = [str(REPO_ROOT / "src"), str(BENCH_DIR)]

import harness  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _spec():
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def _smoke(workload, trace, tmp_path, capsys):
    args = run.parse_args(["--workload", workload, "--seed", "3",
                           "--seconds", "0", "--trace", str(trace),
                           "--smoke"])
    script = str(BENCH_DIR / "run.py")
    assert harness.main(args, 0.0, script, str(tmp_path)) == 0
    return capsys.readouterr().out.splitlines()


def _first(workload_name, kind=None):
    workload = workloads.WORKLOADS[workload_name]
    ops = workload.inputs(5, True)
    op = next(o for o in ops if kind is None or o.kind == kind)
    return workload, op


# -- output checks count towards error_rate ------------------------------------


def test_flipped_guest_intact_flag_is_a_failure():
    workload, op = _first("host-transplant", "inplace-xen-kvm")

    def tampered(op_input):
        return [dataclasses.replace(report, guest_digests_preserved=False)
                for report in workload.run(op_input)]

    broken = dataclasses.replace(workload, run=tampered)
    assert harness.run_op(workload, op, {})
    assert not harness.run_op(broken, op, {})
    result = harness.measure(broken, [op], seconds=0)
    assert result["failed"] == len(result["walls"]) == 2


def test_flipped_migration_flag_is_a_failure():
    workload, op = _first("host-transplant", "migration")
    reports = workload.run(op)
    workload.check(reports)
    reports[-1].guest_digest_preserved = False
    with pytest.raises(workloads.CheckFailed):
        workload.check(reports)


def test_changed_output_hash_is_a_failure():
    workload, op = _first("host-transplant", "inplace-4k")
    hashes = {op.key: "0" * 64}
    assert not harness.run_op(workload, op, hashes)
    assert harness.run_op(workload, op, {})


def test_non_terminal_host_is_a_failure():
    workload, op = _first("fleet-campaign")
    metrics = workload.run(op)
    workload.check(metrics)
    metrics.per_host[0].state = "evacuating"
    with pytest.raises(workloads.CheckFailed):
        workload.check(metrics)


def test_inputs_repeat_per_seed_and_differ_across_seeds():
    for workload in workloads.WORKLOADS.values():
        assert workload.inputs(7, False) == workload.inputs(7, False)
        assert workload.inputs(7, False) != workload.inputs(8, False)
    mix = [op.kind for op in workloads.host_inputs(7, False)]
    assert mix.count("inplace-4k") * 4 == len(mix)


# -- the traced run's wrappers -------------------------------------------------


def _raw_targets():
    raw = {}
    for boundary in layers.BOUNDARIES:
        for target in boundary.targets:
            owner, attr = layers._resolve(target)
            raw[target] = inspect.getattr_static(owner, attr)
    return raw


def test_wrappers_are_restored_after_the_traced_run():
    before = _raw_targets()
    workload, op = _first("fleet-campaign")
    tracer = layers.LayerTracer()
    harness.measure_traced(workload, [op], 0, tracer)
    assert tracer.stats["core.mechanisms.decide_fleet"][0] == 1
    assert _raw_targets() == before
    controller = importlib.import_module("repro.fleet.controller")
    mechanisms = importlib.import_module("repro.core.mechanisms")
    assert controller.decide_fleet is mechanisms.decide_fleet


def test_wrappers_are_restored_when_the_block_raises():
    before = _raw_targets()
    with pytest.raises(KeyError):
        with layers.installed(layers.LayerTracer()):
            assert _raw_targets() != before
            raise KeyError("boom")
    assert _raw_targets() == before


def test_self_time_subtracts_direct_children():
    # origin 0; outer [1,10] holds inner [2,6], which holds leaf [4,5].
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 10.0])
    tracer = layers.LayerTracer(clock=lambda: next(ticks))
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    leaf = tracer.open("leaf")
    tracer.close(leaf)
    tracer.close(inner)
    tracer.close(outer)
    assert tracer.stats["leaf"] == [1, 1.0, 1.0]
    assert tracer.stats["inner"] == [1, 4.0, 3.0]
    assert tracer.stats["outer"] == [1, 9.0, 5.0]
    by_name = {span[0]: span for span in tracer.spans}
    assert by_name["leaf"][4] == by_name["inner"][3]
    assert by_name["inner"][4] == by_name["outer"][3]
    assert by_name["outer"][4] == 0
    assert by_name["outer"][1:3] == (1.0, 10.0)


def test_distinct_shapes_key_on_the_pipeline_and_the_bound_arguments():
    pipeline = importlib.import_module("repro.core.pipeline")
    kinds = importlib.import_module("repro.hypervisors.base").HypervisorKind
    to_kvm = pipeline.MigrationPipeline(1e9, target_kind=kinds.KVM)
    to_xen = pipeline.MigrationPipeline(1e9, target_kind=kinds.XEN)
    same_as_kvm = pipeline.MigrationPipeline(1e9, target_kind=kinds.KVM)
    tracer = layers.LayerTracer()
    with layers.installed(tracer), tracer.operation("synthetic"):
        to_kvm.plan_vm("a", 1 << 30, 1e6)
        to_kvm.plan_vm("b", 1 << 30, dirty_rate_bytes_s=1e6, vcpus=1)
        same_as_kvm.plan_vm("c", 1 << 30, 1e6)
        to_xen.plan_vm("d", 1 << 30, 1e6)
    assert tracer.stats["core.pipeline.plan_vm"][0] == 4
    assert tracer.counts["core.pipeline.plan_vm.distinct_shapes"] == 2


def test_out_of_order_close_is_rejected():
    tracer = layers.LayerTracer()
    outer = tracer.open("outer")
    tracer.open("inner")
    with pytest.raises(RuntimeError):
        tracer.close(outer)


# -- smoke: every metric printed, every span nested ----------------------------


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_prints_every_metric_with_its_unit(workload, tmp_path,
                                                 capsys):
    spec = _spec()
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        lines = _smoke(workload, trace, tmp_path, capsys)
        result = json.loads(lines[-1])
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        printed = {line.split()[0]: line.split()[-1] for line in lines[:-1]}
        for metric in spec[group]:
            name, unit = metric["name"], metric["unit"]
            assert printed.get(name) == unit, name
            assert result["metrics"][name]["unit"] == unit
        assert set(result["metrics"]) == {m["name"] for m in spec[group]}


def test_benchmark_json_workloads_are_runnable():
    names = [w["name"] for w in _spec()["workloads"]]
    assert set(names) <= set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def test_per_layer_metrics_match_benchmark_json():
    spec = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    assert spec == layers.metric_units()
    for workload in workloads.WORKLOADS.values():
        assert workload.encode_span in layers.OWN_SPANS


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_spans_nest_within_their_parents(workload, tmp_path, capsys):
    _smoke(workload, 1, tmp_path, capsys)
    trace = json.loads((tmp_path / f"trace-{workload}.json").read_text())
    spans = {e["args"]["span_id"]: e for e in trace["traceEvents"]
             if e["ph"] == "X"}
    assert spans
    slack = 0.002  # the exporter rounds to 1 ns
    for span in spans.values():
        parent_id = span["args"]["parent_id"]
        if parent_id == 0:
            assert span["name"] == layers.OP
            continue
        parent = spans[parent_id]
        assert span["args"]["op_id"] == parent["args"]["op_id"]
        assert span["ts"] >= parent["ts"] - slack
        assert (span["ts"] + span["dur"]
                <= parent["ts"] + parent["dur"] + slack), span["name"]


def test_missing_simulator_exits_nonzero_without_a_result(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "host-transplant",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
