"""Per-layer tracing for the benchmark's traced run.

The traced run wraps the public entry point of each simulator layer at
the name its caller looks up (``repro.fleet.controller.decide_fleet``, a
method on its class, ...), records one span per call and restores every
original when the traced operation ends.  No program module is edited:
all instrumentation lives in this file.

A span records its name, start, end, its own id, its parent's id and the
id of the benchmark operation it belongs to.  A boundary's *self* time is
its span's duration minus the durations of its direct child spans, so
self times over one operation add up to the operation's wall time.
Count-only boundaries (hot calls such as ``Engine.call_at``) add no span;
their time stays in the enclosing span's self time.
"""

import functools
import importlib
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs import Span, Trace

#: span name of the benchmark's own per-operation root span
OP = "op"


# -- result hooks: counts taken from what a boundary returns ------------------


def _count_migrations(tracer, call, result) -> None:
    tracer.count("cluster.btrplace.migrations", result.migration_count)


def _count_campaign(tracer, call, result) -> None:
    tracer.count("fleet.campaigns")


def _count_sentinel(tracer, call, result) -> None:
    tracer.count("sentinel.preemptions", result.counters["preemptions"])
    tracer.count("sentinel.requests_dropped",
                 result.counters["requests_dropped"])


def _count_uisr_bytes(tracer, call, result) -> None:
    tracer.count("core.uisr.bytes", len(result))


def _count_wire(tracer, call, result) -> None:
    tracer.count("core.wire.messages", result.wire_messages)
    tracer.sample("core.wire.dedup_ratio", result.wire_dedup_ratio)


def _pipeline_identity(pipeline) -> tuple:
    """What a pipeline's costs depend on: its class and its settings
    (target kind, cost model, link rate, verify spec, ...), with the
    machine reduced to its spec."""
    settings = dict(vars(pipeline))
    if "machine" in settings:
        settings["machine"] = settings["machine"].spec
    return (type(pipeline).__name__,) + tuple(sorted(settings.items()))


def _shape_key(fn, args, kwargs) -> tuple:
    # ``subject`` is a label that does not enter the costs; the pipeline
    # and every other argument, defaults filled in, are the key a shape
    # cache would use.
    call = inspect.signature(fn).bind(*args, **kwargs)
    call.apply_defaults()
    arguments = dict(call.arguments)
    pipeline = arguments.pop("self")
    arguments.pop("subject")
    return ((_pipeline_identity(pipeline),)
            + tuple(sorted(arguments.items())))


def _shape(tracer, call, result, name) -> None:
    # A key costs more to build than many plans; it is built when the
    # operation ends, so no span's self time pays for it.
    tracer.defer_shape(name, functools.partial(_shape_key, *call))


@dataclass(frozen=True)
class Boundary:
    """One wrapped entry point.

    ``targets`` are ``"module:Qual.name"`` paths where callers look the
    name up.  ``kind`` is ``"span"`` (timed), ``"count"`` (call counted,
    not timed) or ``"returns"`` (the callable the entry point returns is
    timed, the lookup itself is not).  ``on_result(tracer, (fn, args,
    kwargs), result)`` runs after a timed call, outside its span.
    """

    name: str
    targets: Tuple[str, ...]
    kind: str = "span"
    on_result: Optional[Callable] = None


BOUNDARIES: Tuple[Boundary, ...] = (
    Boundary("cluster.build_paper_cluster",
             ("repro.fleet.controller:build_paper_cluster",)),
    Boundary("cluster.btrplace.plan",
             ("repro.cluster.btrplace:BtrPlacePlanner.plan",),
             on_result=_count_migrations),
    Boundary("core.mechanisms.decide_fleet",
             ("repro.fleet.controller:decide_fleet",)),
    Boundary("core.mechanisms.decide_host",
             ("repro.core.mechanisms:MechanismPolicy.decide_host",)),
    Boundary("core.pipeline.plan_host",
             ("repro.core.pipeline:InPlacePipeline.plan_host",),
             on_result=functools.partial(_shape,
                                         name="core.pipeline.plan_host")),
    Boundary("core.pipeline.plan_vm",
             ("repro.core.pipeline:MigrationPipeline.plan_vm",),
             on_result=functools.partial(_shape,
                                         name="core.pipeline.plan_vm")),
    Boundary("sim.engine.run", ("repro.sim.engine:Engine.run",)),
    Boundary("sim.events", ("repro.sim.engine:Engine.call_at",),
             kind="count"),
    Boundary("fleet.run", ("repro.fleet.controller:FleetController.run",),
             on_result=_count_campaign),
    Boundary("fleet.collect_metrics",
             ("repro.fleet.controller:collect_metrics",)),
    Boundary("sentinel.run", ("repro.sentinel.responder:Sentinel.run",),
             on_result=_count_sentinel),
    Boundary("sentinel.inventory.advance",
             ("repro.sentinel.inventory:FleetInventory.advance",)),
    Boundary("sentinel.inventory.exposure_count",
             ("repro.sentinel.inventory:FleetInventory.exposure_count",)),
    Boundary("sentinel.policy.choose_target",
             ("repro.sentinel.policy:ResponsePolicy.choose_target",)),
    Boundary("sentinel.build_feed",
             ("repro.sentinel.responder:build_feed",)),
    # Sentinel.run imports build_report from its module at call time.
    Boundary("sentinel.build_report",
             ("repro.sentinel.report:build_report",)),
    Boundary("vulndb.load_default_database",
             ("repro.fleet.controller:load_default_database",
              "repro.sentinel.responder:load_default_database")),
    Boundary("core.inplace.inplace",
             ("repro.core.transplant:HyperTP.inplace",)),
    Boundary("core.kexec.micro_reboot",
             ("repro.core.inplace:micro_reboot",)),
    Boundary("core.pram.add_vm_file",
             ("repro.core.pram:PRAMFilesystem.add_vm_file",)),
    Boundary("core.pram.seal", ("repro.core.pram:PRAMFilesystem.seal",)),
    Boundary("core.uisr.encode",
             ("repro.core.inplace:encode_uisr",
              "repro.core.migration:encode_uisr"),
             on_result=_count_uisr_bytes),
    # MigrationTP imports decode_uisr from the codec module at call time.
    Boundary("core.uisr.decode", ("repro.core.uisr.codec:decode_uisr",)),
    Boundary("core.uisr.to_uisr",
             ("repro.core.uisr.registry:ConverterRegistry.to_uisr",),
             kind="returns"),
    Boundary("core.uisr.from_uisr",
             ("repro.core.uisr.registry:ConverterRegistry.from_uisr",),
             kind="returns"),
    Boundary("core.migration.migrate",
             ("repro.core.migration:MigrationTP.migrate",),
             on_result=_count_wire),
    Boundary("core.wire.send_pages", ("repro.core.wire:send_pages",)),
    Boundary("hw.frames_allocated",
             ("repro.hw.memory:PhysicalMemory.allocate",), kind="count"),
)

#: spans the benchmark opens around its own calls (op root, JSON encode)
OWN_SPANS = (OP, "fleet.encode", "sentinel.encode", "core.reports.encode")

#: counts taken from boundary results, and the per-op shape counts
RESULT_COUNTS = (
    "cluster.btrplace.migrations",
    "core.pipeline.plan_host.distinct_shapes",
    "core.pipeline.plan_vm.distinct_shapes",
    "fleet.campaigns",
    "sentinel.preemptions",
    "sentinel.requests_dropped",
    "core.uisr.bytes",
    "core.wire.messages",
)


def span_names() -> List[str]:
    return list(OWN_SPANS) + [b.name for b in BOUNDARIES
                              if b.kind in ("span", "returns")]


def count_names() -> List[str]:
    return [b.name for b in BOUNDARIES if b.kind == "count"] + list(
        RESULT_COUNTS)


def metric_units() -> Dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit.

    All values are per traced operation.
    """
    units: Dict[str, str] = {}
    for name in span_names():
        units[f"{name}.calls"] = "calls/op"
        units[f"{name}.total_s"] = "s/op"
        units[f"{name}.self_s"] = "s/op"
    for name in count_names():
        units[name] = "count/op"
    units["core.wire.dedup_ratio"] = "ratio"
    units["trace.overhead_ratio"] = "ratio"
    return units


# -- the tracer ---------------------------------------------------------------


class LayerTracer:
    """In-memory span recorder with per-boundary call/total/self sums.

    ``clock`` is injectable so the self-time arithmetic can be tested on a
    scripted clock.  Spans are kept only while ``keep_spans`` is true.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.origin = clock()
        self.keep_spans = True
        #: (name, start, end, span_id, parent_id, op_id, kind), run-relative
        self.spans: List[Tuple[str, float, float, int, int, int, str]] = []
        #: name -> [calls, total_s, self_s]
        self.stats: Dict[str, List[float]] = {}
        #: (op kind, name) -> self_s
        self.kind_self: Dict[Tuple[str, str], float] = {}
        self.counts: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}
        self.ops = 0
        #: (name, key builder) of the current operation's shape calls
        self._shape_calls: List[Tuple[str, Callable[[], object]]] = []
        # open spans: [name, span_id, start, child_s]
        self._stack: List[list] = []
        self._next_id = 1
        self._op_id = 0
        self._op_kind = ""

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def defer_shape(self, name: str, key: Callable[[], object]) -> None:
        self._shape_calls.append((name, key))

    def open(self, name: str) -> list:
        frame = [name, self._next_id, self.clock(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = self.clock()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        name, span_id, start, child_s = frame
        duration = end - start
        self_s = duration - child_s
        parent_id = 0
        if self._stack:
            parent = self._stack[-1]
            parent[3] += duration
            parent_id = parent[1]
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = [0, 0.0, 0.0]
        stats[0] += 1
        stats[1] += duration
        stats[2] += self_s
        key = (self._op_kind, name)
        self.kind_self[key] = self.kind_self.get(key, 0.0) + self_s
        if self.keep_spans:
            self.spans.append((name, start - self.origin, end - self.origin,
                               span_id, parent_id, self._op_id,
                               self._op_kind))

    @contextmanager
    def span(self, name: str):
        frame = self.open(name)
        try:
            yield
        finally:
            self.close(frame)

    @contextmanager
    def operation(self, kind: str):
        """One benchmark operation: a root span and a fresh op id."""
        self._op_id += 1
        self._op_kind = kind
        self._shape_calls = []
        try:
            with self.span(OP):
                yield
        finally:
            self.ops += 1
            shapes: Dict[str, set] = {}
            for name, key in self._shape_calls:
                shapes.setdefault(name, set()).add(key())
            for name, keys in shapes.items():
                self.count(f"{name}.distinct_shapes", len(keys))

    def per_op_metrics(self, overhead_ratio: float) -> Dict[str, float]:
        """Every metric of :func:`metric_units`, averaged per traced op."""
        ops = max(1, self.ops)
        values: Dict[str, float] = {}
        for name in span_names():
            calls, total, own = self.stats.get(name, (0, 0.0, 0.0))
            values[f"{name}.calls"] = calls / ops
            values[f"{name}.total_s"] = total / ops
            values[f"{name}.self_s"] = own / ops
        for name in count_names():
            values[name] = self.counts.get(name, 0) / ops
        ratios = self.samples.get("core.wire.dedup_ratio", [])
        values["core.wire.dedup_ratio"] = (sum(ratios) / len(ratios)
                                           if ratios else 0.0)
        values["trace.overhead_ratio"] = overhead_ratio
        return values

    def self_shares(self) -> Dict[str, List[Tuple[str, float]]]:
        """Per op kind: boundaries by descending share of self time."""
        by_kind: Dict[str, Dict[str, float]] = {}
        for (kind, name), seconds in self.kind_self.items():
            by_kind.setdefault(kind, {})[name] = seconds
        shares = {}
        for kind, times in sorted(by_kind.items()):
            wall = sum(times.values()) or 1.0
            shares[kind] = sorted(((name, s / wall) for name, s in
                                   times.items()),
                                  key=lambda item: -item[1])
        return shares

    def to_trace(self, track: str) -> Trace:
        """The kept spans as a :class:`repro.obs.Trace`, ids in ``args``."""
        trace = Trace()
        for name, start, end, span_id, parent_id, op_id, kind in self.spans:
            trace.add(Span(name, name.split(".", 1)[0], start, end,
                           track=track,
                           args={"span_id": span_id, "parent_id": parent_id,
                                 "op_id": op_id, "op_kind": kind}))
        return trace


# -- installing and restoring the wrappers ------------------------------------


def _wrap(tracer: LayerTracer, boundary: Boundary, fn: Callable) -> Callable:
    name, on_result = boundary.name, boundary.on_result
    if boundary.kind == "count":
        def counted(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)
        return functools.wraps(fn)(counted)
    if boundary.kind == "returns":
        def lookup(*args, **kwargs):
            return _wrap(tracer, Boundary(name, ()), fn(*args, **kwargs))
        return functools.wraps(fn)(lookup)

    def timed(*args, **kwargs):
        frame = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(frame)
        if on_result is not None:
            on_result(tracer, (fn, args, kwargs), result)
        return result
    return functools.wraps(fn)(timed)


def _resolve(target: str):
    """``"pkg.mod:Cls.attr"`` -> (owner object, attribute name)."""
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def installed(tracer: LayerTracer):
    """Wrap every boundary for the duration of the block, then restore."""
    saved = []
    try:
        for boundary in BOUNDARIES:
            for target in boundary.targets:
                owner, attr = _resolve(target)
                # An inherited name would leave a shadow behind on restore;
                # a static or class method would lose its descriptor.
                raw = vars(owner).get(attr)
                if not inspect.isfunction(raw):
                    raise TypeError(f"{target} is not a function defined "
                                    f"there")
                saved.append((owner, attr, raw))
                setattr(owner, attr, _wrap(tracer, boundary, raw))
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)
