"""Closed-loop harness: one client, operations back to back, no think time.

The untraced run (``--trace 0``) times every operation and reports the
end-to-end metrics.  The traced run (``--trace 1``) runs each input once
untraced and once with the layer wrappers of :mod:`layers` installed, and
reports per-layer metrics per traced operation plus the tracing overhead.  Both runs check every output, so a
wrong result counts as a failed operation.
"""

import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import layers
from repro.vulndb import data
from workloads import WORKLOADS, CheckFailed, OpInput, Workload

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: fresh processes that repeat the set-up, for a median set-up time
SETUP_PROBES = 6


def setup(name: str, seed: int, smoke: bool):
    """The work before the first timed operation, after the imports.
    Building the vulnerability database is start-up work every CLI
    invocation pays, so it is timed with the set-up."""
    data.load_default_database()
    workload = WORKLOADS[name]
    return workload, workload.inputs(seed, smoke)


def run_op(workload: Workload, op: OpInput, hashes: Dict[str, str],
           tracer: Optional[layers.LayerTracer] = None) -> bool:
    """One operation: run, check, encode, compare the output hash with the
    hash of this input's first run.  Returns False if any step fails."""
    try:
        result = workload.run(op)
        workload.check(result)
        if tracer is None:
            encoded = workload.encode(result)
        else:
            with tracer.span(workload.encode_span):
                encoded = workload.encode(result)
        digest = hashlib.sha256(encoded.encode("utf-8")).hexdigest()
        if hashes.setdefault(op.key, digest) != digest:
            raise CheckFailed(f"output hash of {op.key} changed")
        return True
    except Exception as exc:  # a failing operation is counted, not fatal
        print(f"perfbench: {op.key} failed: {exc!r}", file=sys.stderr)
        return False


def measure(workload: Workload, ops: List[OpInput], seconds: float) -> Dict:
    """The untraced timed phase.  Runs until ``seconds`` have passed and
    every input has run at least twice."""
    hashes: Dict[str, str] = {}
    walls: List[float] = []
    failed = 0
    start = time.perf_counter()
    while len(walls) < 2 * len(ops) or time.perf_counter() - start < seconds:
        op = ops[len(walls) % len(ops)]
        began = time.perf_counter()
        failed += not run_op(workload, op, hashes)
        walls.append(time.perf_counter() - began)
    elapsed = time.perf_counter() - start
    return {"walls": walls, "failed": failed, "elapsed_s": elapsed}


def measure_traced(workload: Workload, ops: List[OpInput], seconds: float,
                   tracer: layers.LayerTracer) -> Dict:
    """The inputs in turn, each run untraced and then traced, until
    ``seconds`` have passed.  Spans are kept for the first traced
    operation of each kind, which keeps the span file small."""
    hashes: Dict[str, str] = {}
    kinds_kept = set()
    untraced_s = traced_s = 0.0
    pairs = failed = 0
    start = time.perf_counter()
    while pairs == 0 or time.perf_counter() - start < seconds:
        op = ops[pairs % len(ops)]
        began = time.perf_counter()
        failed += not run_op(workload, op, hashes)
        untraced_s += time.perf_counter() - began
        tracer.keep_spans = op.kind not in kinds_kept
        kinds_kept.add(op.kind)
        with layers.installed(tracer):
            began = time.perf_counter()
            with tracer.operation(op.kind):
                failed += not run_op(workload, op, hashes, tracer)
            traced_s += time.perf_counter() - began
        pairs += 1
    return {"attempted": 2 * pairs, "failed": failed,
            "overhead_ratio": traced_s / untraced_s}


def probe_setup(script: str, name: str, seed: int, smoke: bool) -> float:
    """Set-up time of a fresh process running ``script --setup-probe``."""
    command = [sys.executable, script, "--workload", name, "--seed",
               str(seed), "--seconds", "0", "--trace", "0",
               "--setup-probe"] + (["--smoke"] if smoke else [])
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.split()[-1])


def emit(correct: bool, attempted: int, failed: int,
         values: Dict[str, float], units: Dict[str, str]) -> None:
    """Print every metric by name with its unit, then the result line."""
    for name in units:
        print(f"{name} {values[name]!r} {units[name]}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))


def main(args, started: float, script: str, out_dir: str) -> int:
    """Run one workload as ``run.py`` was asked.  ``script`` is run.py
    itself (the set-up probes re-run it); the span file goes to
    ``out_dir``."""
    workload, ops = setup(args.workload, args.seed, args.smoke)
    own_setup_s = time.perf_counter() - started
    if args.setup_probe:
        print(repr(own_setup_s))
        return 0
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} inputs={len(ops)}")

    if args.trace:
        tracer = layers.LayerTracer()
        run = measure_traced(workload, ops, args.seconds, tracer)
        print(f"traced operations {tracer.ops} "
              f"(attempted {run['attempted']}, failed {run['failed']})")
        for kind, shares in tracer.self_shares().items():
            top = ", ".join(f"{name} {share:.1%}" for name, share in
                            shares[:6])
            print(f"self-time shares [{kind}]: {top}")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{args.workload}.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(tracer.to_trace(args.workload).to_chrome_trace())
        print(f"spans {len(tracer.spans)} written to {path}")
        emit(run["failed"] == 0, run["attempted"], run["failed"],
             tracer.per_op_metrics(run["overhead_ratio"]),
             layers.metric_units())
        return 0

    run = measure(workload, ops, args.seconds)
    setups = [own_setup_s] + [
        probe_setup(script, args.workload, args.seed, args.smoke)
        for _ in range(SETUP_PROBES)
    ]
    walls, failed = run["walls"], run["failed"]
    attempted = len(walls)
    print(f"samples {attempted} (failed {failed}, "
          f"error_rate {failed / attempted!r})")
    values = {
        "ops_per_s": (attempted - failed) / run["elapsed_s"],
        "op_p50_s": statistics.median(walls),
        "op_p90_s": statistics.quantiles(walls, n=10,
                                         method="inclusive")[-1],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    emit(failed == 0, attempted, failed, values, END_TO_END_UNITS)
    return 0
