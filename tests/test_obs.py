"""Tests for the unified observability layer (``repro.obs``)."""

import json

import pytest

from repro.errors import ObservabilityError
from repro.hw.machine import M1_SPEC
from repro.hypervisors.base import HypervisorKind
from repro.obs import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    trace_fleet,
    traced,
)
from repro.sim.clock import SimClock


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def now(self):
        return self.t


# -- live tracer --------------------------------------------------------------

class TestTracer:
    def test_span_records_clock_window(self):
        clock = FakeClock()
        tracer = Tracer(now=clock.now)
        with tracer.span("phase", "cat", track="h1", args={"k": 2}):
            clock.t = 3.5
        (span,) = tracer.trace.spans
        assert span.name == "phase"
        assert span.start_s == 0.0 and span.end_s == 3.5
        assert span.track == "h1" and span.args == {"k": 2}

    def test_span_closes_on_exception(self):
        clock = FakeClock()
        tracer = Tracer(now=clock.now)
        with pytest.raises(ValueError):
            with tracer.span("phase", "cat"):
                clock.t = 1.0
                raise ValueError("boom")
        assert tracer.open_spans == []
        assert tracer.trace.spans[0].end_s == 1.0

    def test_span_works_across_generator_yields(self):
        clock = FakeClock()
        tracer = Tracer(now=clock.now)

        def phases():
            with tracer.span("slow", "cat"):
                yield 2.0
            yield 1.0

        gen = phases()
        next(gen)          # span opened at t=0, generator parked
        clock.t = 2.0      # the "engine" advances time
        next(gen)          # resume: with block exits, span closes at t=2
        (span,) = tracer.trace.spans
        assert span.start_s == 0.0 and span.end_s == 2.0

    def test_bind_clock_switches_time_source(self):
        tracer = Tracer()
        clock = SimClock(10.0)
        tracer.bind_clock(lambda: clock.now)
        with tracer.span("x", "c"):
            clock.advance(5.0)
        (span,) = tracer.trace.spans
        assert span.start_s == 10.0 and span.end_s == 15.0

    def test_export_refuses_open_spans(self):
        tracer = Tracer()
        cm = tracer.span("dangling", "cat", track="h1")
        cm.__enter__()
        with pytest.raises(ObservabilityError, match="dangling"):
            tracer.to_chrome_trace()
        cm.__exit__(None, None, None)
        json.loads(tracer.to_chrome_trace())  # now exports fine

    def test_nested_spans(self):
        clock = FakeClock()
        tracer = Tracer(now=clock.now)
        with tracer.span("outer", "c"):
            clock.t = 1.0
            with tracer.span("inner", "c"):
                clock.t = 2.0
            assert len(tracer.open_spans) == 1
            clock.t = 3.0
        names = {s.name: s for s in tracer.trace.spans}
        assert names["inner"].start_s == 1.0 and names["inner"].end_s == 2.0
        assert names["outer"].start_s == 0.0 and names["outer"].end_s == 3.0

    def test_add_precomputed_span(self):
        tracer = Tracer()
        tracer.add(Span("pre", "c", 1.0, 2.0))
        tracer.extend([Span("a", "c", 0.0, 1.0), Span("b", "c", 2.0, 3.0)])
        assert len(tracer.trace) == 3


class TestNullTracer:
    def test_is_disabled_and_free(self):
        assert NULL_TRACER.enabled is False
        assert isinstance(NULL_TRACER, NullTracer)
        # The no-op context manager is shared, not rebuilt per call.
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")
        with NULL_TRACER.span("x", "c", track="t"):
            pass
        NULL_TRACER.add(Span("x", "c", 0.0, 1.0))
        NULL_TRACER.extend([])
        NULL_TRACER.bind_clock(lambda: 0.0)
        assert NULL_TRACER.open_spans == []


class TestTracedDecorator:
    def test_wraps_method_in_span(self):
        clock = FakeClock()

        class Widget:
            def __init__(self, tracer):
                self.tracer = tracer

            @traced(category="work")
            def crunch(self, amount):
                clock.t += amount
                return amount * 2

        tracer = Tracer(now=clock.now)
        widget = Widget(tracer)
        assert widget.crunch(3.0) == 6.0
        (span,) = tracer.trace.spans
        assert span.name == "crunch" and span.duration_s == 3.0

    def test_object_without_tracer_attribute_is_fine(self):
        class Bare:
            @traced()
            def act(self):
                return "ok"

        assert Bare().act() == "ok"


# -- metrics ------------------------------------------------------------------

class TestCounter:
    def test_monotonic(self):
        c = Counter("jobs_total")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ObservabilityError):
            c.inc(-1)

    def test_bad_names_rejected(self):
        for bad in ("", "Has-Hyphen", "9starts_with_digit", "spa ce"):
            with pytest.raises(ObservabilityError):
                Counter(bad)


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("hosts_in_flight")
        g.set(4)
        g.inc()
        g.dec(2)
        assert g.value == 3.0


class TestHistogram:
    def test_le_bucket_semantics(self):
        h = Histogram("lat", buckets=(1.0, 5.0, 10.0))
        for v in (0.5, 1.0, 3.0, 10.0, 99.0):
            h.observe(v)
        counts = dict()
        for bound, count in h.bucket_counts():
            counts[bound] = count
        # A value equal to a bound lands in that bound's bucket (le).
        assert counts[1.0] == 2    # 0.5 and 1.0
        assert counts[5.0] == 1    # 3.0
        assert counts[10.0] == 1   # 10.0
        assert counts[None] == 1   # 99.0 overflows
        assert h.count == 5
        assert h.sum == pytest.approx(113.5)

    def test_bad_buckets_rejected(self):
        with pytest.raises(ObservabilityError):
            Histogram("h", buckets=())
        with pytest.raises(ObservabilityError):
            Histogram("h", buckets=(5.0, 1.0))
        with pytest.raises(ObservabilityError):
            Histogram("h", buckets=(1.0, 1.0, 2.0))

    def test_default_buckets_ascend(self):
        assert list(DEFAULT_BUCKETS) == sorted(set(DEFAULT_BUCKETS))


class TestMetricsRegistry:
    def test_get_or_create(self):
        registry = MetricsRegistry()
        first = registry.counter("a_total")
        again = registry.counter("a_total")
        assert first is again
        assert len(registry) == 1 and "a_total" in registry

    def test_kind_clash_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ObservabilityError, match="counter"):
            registry.gauge("x")

    def test_histogram_bucket_clash_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ObservabilityError, match="buckets"):
            registry.histogram("h", buckets=(1.0, 3.0))

    def test_snapshot_is_deterministic_and_sorted(self):
        def build(order):
            registry = MetricsRegistry()
            for name in order:
                registry.counter(name).inc()
            registry.histogram("h", buckets=(1.0,)).observe(0.5)
            return registry.to_json()

        a = build(["b_total", "a_total"])
        b = build(["a_total", "b_total"])
        assert a == b
        document = json.loads(a)
        assert document["format"] == "hypertp-metrics"
        names = list(document["metrics"])
        assert names == sorted(names)
        buckets = document["metrics"]["h"]["buckets"]
        assert buckets == [{"le": 1.0, "count": 1}, {"le": None, "count": 0}]


# -- fleet builder ------------------------------------------------------------

class _State:
    def __init__(self, value, terminal=False):
        self.value = value
        self.terminal = terminal


class _Transition:
    def __init__(self, time_s, host, source, target, reason=""):
        self.time_s = time_s
        self.host = host
        self.source = source
        self.target = target
        self.reason = reason


PENDING = _State("pending")
EVAC = _State("evacuating")
DONE = _State("done", terminal=True)


class TestTraceFleet:
    def transitions(self):
        return [
            _Transition(0.0, "h1", PENDING, EVAC),
            _Transition(0.0, "h2", PENDING, EVAC),
            _Transition(4.0, "h1", EVAC, DONE),
            _Transition(6.0, "h2", EVAC, DONE, reason="slow"),
        ]

    def test_state_spans_between_transitions(self):
        trace = trace_fleet(self.transitions())
        evac = [s for s in trace.spans if s.name == "evacuating"]
        assert {(s.track, s.start_s, s.end_s) for s in evac} == {
            ("h1", 0.0, 4.0), ("h2", 0.0, 6.0),
        }
        done = [s for s in trace.spans if s.name == "done"]
        assert all(s.duration_s == 0.0 for s in done)
        assert next(s for s in done if s.track == "h2").args == {
            "reason": "slow",
        }

    def test_wave_envelopes_nest_host_spans(self):
        trace = trace_fleet(self.transitions(),
                            host_waves={"h1": 0, "h2": 1})
        h1_wave = next(s for s in trace.spans
                       if s.track == "h1" and s.name == "wave 0")
        assert h1_wave.start_s == 0.0 and h1_wave.end_s == 4.0
        fleet_waves = {s.track for s in trace.spans
                       if s.track.startswith("fleet/")}
        assert fleet_waves == {"fleet/wave 0", "fleet/wave 1"}

    def test_campaign_span_covers_everything(self):
        trace = trace_fleet(self.transitions(), start_s=0.0, end_s=6.0,
                            campaign="campaign CVE-X")
        campaign = next(s for s in trace.spans if s.track == "fleet")
        assert campaign.name == "campaign CVE-X"
        assert campaign.start_s == 0.0 and campaign.end_s == 6.0
        assert campaign.args == {"hosts": 2}


# -- instrumented components --------------------------------------------------

class TestInPlaceTracing:
    def run_traced(self):
        from repro.bench.runner import make_xen_host
        from repro.core.transplant import HyperTP

        tracer = Tracer()
        machine = make_xen_host(M1_SPEC, vm_count=2)
        report = HyperTP(tracer=tracer).inplace(
            machine, HypervisorKind.KVM, SimClock(),
        )
        return tracer, report

    def test_live_spans_match_report(self):
        tracer, report = self.run_traced()
        by_name = {s.name: s for s in tracer.trace.spans}
        assert by_name["PRAM"].duration_s == pytest.approx(report.pram_s)
        assert by_name["Translation"].duration_s == pytest.approx(
            report.translation_s
        )
        assert by_name["Reboot"].duration_s == pytest.approx(report.reboot_s)
        assert by_name["Restoration"].duration_s == pytest.approx(
            report.restoration_s
        )
        assert by_name["VMs paused"].duration_s == pytest.approx(
            report.downtime_s
        )
        assert tracer.open_spans == []
        json.loads(tracer.to_chrome_trace())

    def test_untraced_run_is_identical(self):
        from repro.bench.runner import make_xen_host
        from repro.core.transplant import HyperTP

        machine = make_xen_host(M1_SPEC, vm_count=2)
        plain = HyperTP().inplace(machine, HypervisorKind.KVM, SimClock())
        _, traced_report = self.run_traced()
        assert plain.total_s == traced_report.total_s
        assert plain.downtime_s == traced_report.downtime_s


class TestMigrationTracing:
    def test_spans_match_report(self):
        from repro.bench.runner import make_host_pair
        from repro.core.migration import MigrationTP

        tracer = Tracer()
        source, destination, fabric = make_host_pair(
            M1_SPEC, HypervisorKind.KVM,
        )
        domain = next(iter(source.hypervisor.domains.values()))
        report = MigrationTP(fabric, source, destination,
                             tracer=tracer).migrate(
            domain, dirty_rate_bytes_s=48 << 20,
        )
        rounds = [s for s in tracer.trace.spans if s.category == "precopy"]
        assert len(rounds) == report.round_count
        stop = next(s for s in tracer.trace.spans
                    if s.name == "stop-and-copy")
        assert stop.duration_s == pytest.approx(report.downtime_s)
        outer = next(s for s in tracer.trace.spans
                     if s.category == "migration")
        assert outer.duration_s == pytest.approx(report.total_s)
        json.loads(tracer.to_chrome_trace())


class TestWorkloadMetrics:
    def test_series_reports_into_registry(self):
        from repro.workloads.base import HostTimeline
        from repro.workloads.redis import RedisWorkload

        timeline = HostTimeline(switches=[(0.0, HypervisorKind.XEN)],
                                paused=[(10.0, 12.0)])
        registry = MetricsRegistry()
        series = RedisWorkload(seed=1).run(30.0, timeline, registry=registry)
        counter = registry.get("workload_redis_qps_samples_total")
        assert counter.value == len(series.values)
        histogram = registry.get("workload_redis_qps")
        assert histogram.count == len(series.values)
        assert registry.get("workload_redis_qps_mean").value == (
            pytest.approx(series.mean())
        )

    def test_snapshot_deterministic_per_seed(self):
        from repro.workloads.base import HostTimeline
        from repro.workloads.mysql import MySQLWorkload

        def snapshot():
            timeline = HostTimeline(switches=[(0.0, HypervisorKind.XEN)])
            registry = MetricsRegistry()
            MySQLWorkload(seed=7).run(20.0, timeline, registry=registry)
            return registry.to_json()

        assert snapshot() == snapshot()


class TestOrchestratorTracing:
    def test_respond_to_cve_spans(self, xen_host_factory):
        from repro.orchestrator.api import DatacenterAPI
        from repro.orchestrator.nova import NovaCompute
        from repro.vulndb import TransplantAdvisor, load_default_database

        tracer = Tracer()
        nova = NovaCompute()
        for index in range(2):
            nova.register_host(xen_host_factory(name=f"host{index}",
                                                vm_count=1))
        api = DatacenterAPI(
            nova, TransplantAdvisor(load_default_database()),
            tracer=tracer,
        )
        report = api.respond_to_cve("CVE-2016-6258")
        assert report.hosts_upgraded == 2
        outer = next(s for s in tracer.trace.spans
                     if s.name.startswith("respond_to_cve"))
        per_host = [s for s in tracer.trace.spans
                    if s.name.startswith("host_live_upgrade")]
        assert len(per_host) == 2
        assert outer.duration_s == pytest.approx(report.total_s)
        for span in per_host:
            assert outer.start_s <= span.start_s <= span.end_s <= outer.end_s
