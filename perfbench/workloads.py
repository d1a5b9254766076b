"""The benchmark's workloads: seeded inputs, one operation, output checks.

Each workload turns the run seed into a small cycle of inputs with
``derive_seed(seed, workload, i)``; the simulator only ever receives the
generated configs.  One operation runs the simulator's public entry point
on one input and returns its result; ``check`` raises :class:`CheckFailed`
when the result is wrong, and ``encode`` renders it as sorted-key JSON,
whose hash must repeat every time the same input runs again.
"""

import dataclasses
import json
import random
from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.bench.runner import make_kvm_host, make_xen_host
from repro.core.inplace import InPlaceReport
from repro.core.migration import MigrationTP, migrate_group
from repro.core.optimizations import OptimizationConfig
from repro.core.transplant import HyperTP
from repro.fleet.controller import FleetConfig, FleetController
from repro.fleet.failures import FailureInjector, RetryPolicy
from repro.fleet.state import HostState
from repro.hw.machine import M1_SPEC
from repro.hw.network import Fabric
from repro.hypervisors.base import HypervisorKind
from repro.par.shard import derive_seed
from repro.sentinel import FeedSchedule, Sentinel, SentinelConfig
from repro.sim.clock import SimClock


class CheckFailed(Exception):
    """An operation's output failed its correctness check."""


@dataclass(frozen=True)
class OpInput:
    """One generated input.  ``key`` names it for the output-hash check;
    ``kind`` groups operations of one shape in the traced breakdown."""

    key: str
    kind: str
    config: object


@dataclass(frozen=True)
class Workload:
    inputs: Callable[[int, bool], List[OpInput]]
    run: Callable[[OpInput], object]
    check: Callable[[object], None]
    encode: Callable[[object], str]
    #: the traced run's span name for ``encode``
    encode_span: str


def _encode(document) -> str:
    return json.dumps(document, sort_keys=True)


# -- fleet-campaign: one 2000-host hybrid campaign per operation --------------

FLEET_INPUTS = 3


def fleet_inputs(seed: int, smoke: bool) -> List[OpInput]:
    hosts, group_size = (20, 4) if smoke else (2000, 400)
    return [
        OpInput(f"campaign-{i}", "campaign", FleetConfig(
            hosts=hosts, vms_per_host=10, inplace_fraction=0.8,
            group_size=group_size, concurrency=8, mechanism="hybrid",
            seed=derive_seed(seed, "fleet-campaign", i),
        ))
        for i in range(FLEET_INPUTS)
    ]


def fleet_run(op: OpInput):
    return FleetController(
        op.config, injector=FailureInjector(0.0),
        retry=RetryPolicy(max_retries=3, backoff_base_s=5.0),
    ).run()


def fleet_check(metrics) -> None:
    terminal = {HostState.DONE.value, HostState.ROLLED_BACK.value}
    stuck = [h.name for h in metrics.per_host if h.state not in terminal]
    if stuck:
        raise CheckFailed(f"hosts not terminal: {stuck[:5]}")
    if metrics.done_hosts + metrics.rolled_back_hosts != metrics.hosts:
        raise CheckFailed(
            f"done {metrics.done_hosts} + rolled back "
            f"{metrics.rolled_back_hosts} != hosts {metrics.hosts}"
        )


# -- sentinel-replay: one whole-feed replay per operation ---------------------

#: more inputs than the fleet workload: replay cost varies by about a
#: sixth from feed to feed, and a run's median should not hinge on one
SENTINEL_INPUTS = 6


def sentinel_inputs(seed: int, smoke: bool) -> List[OpInput]:
    hosts, group_size, limit = (10, 2, 60) if smoke else (200, 40, None)
    inputs = []
    for i in range(SENTINEL_INPUTS):
        sub_seed = derive_seed(seed, "sentinel-replay", i)
        inputs.append(OpInput(f"replay-{i}", "replay", SentinelConfig(
            hosts=hosts, vms_per_host=10, group_size=group_size,
            seed=sub_seed,
            feed=FeedSchedule(seed=sub_seed, mean_gap_days=7.0, limit=limit),
        )))
    return inputs


def sentinel_run(op: OpInput):
    return Sentinel(op.config).run()


def sentinel_check(report) -> None:
    # Sentinel.run raises if the feed drains with a flaw open; the report
    # must say the same.
    open_left = report.inventory["open_cves"]
    if open_left:
        raise CheckFailed(f"flaws left open: {open_left[:5]}")


# -- host-transplant: single-host transplants on the byte-level stack ---------

#: the seeded mix.  4K-page operations are 1 in 4 and set op_p90_s.  Of
#: the rest, huge-page InPlaceTP (about 0.035 s) outnumbers MigrationTP
#: (about 0.05 s) five to one, so the median falls inside the InPlaceTP
#: cluster instead of on the gap between the two, where it would jump
#: with the share of each that a run happens to end on.
HOST_MIX = ("inplace-xen-kvm",) * 3 + ("inplace-kvm-xen",) * 2 + (
    "migration", "inplace-4k", "inplace-4k")
HOST_VMS = {"inplace-xen-kvm": 6, "inplace-kvm-xen": 6, "inplace-4k": 1,
            "migration": 4}


@dataclass(frozen=True)
class HostShape:
    vm_count: int
    memory_gib: float
    guest_seed: int


def host_inputs(seed: int, smoke: bool) -> List[OpInput]:
    mix = list(HOST_MIX)
    random.Random(derive_seed(seed, "host-transplant", "mix")).shuffle(mix)
    return [
        OpInput(f"{kind}-{i}", kind, HostShape(
            vm_count=1 if smoke else HOST_VMS[kind],
            memory_gib=0.125 if smoke else 1.0,
            # Guest VM seeds count up from this one; keep them 31-bit.
            guest_seed=derive_seed(seed, "host-transplant", i) % (1 << 31),
        ))
        for i, kind in enumerate(mix)
    ]


def host_run(op: OpInput) -> List[object]:
    shape = op.config
    if op.kind == "migration":
        source = make_xen_host(M1_SPEC, vm_count=shape.vm_count,
                               memory_gib=shape.memory_gib,
                               name="bench-src", seed=shape.guest_seed)
        destination = make_kvm_host(M1_SPEC, name="bench-dst")
        fabric = Fabric()
        fabric.connect(source, destination)
        domains = sorted(source.hypervisor.domains.values(),
                         key=lambda d: d.domid)
        return migrate_group(MigrationTP(fabric, source, destination),
                             domains)
    # Named hosts: a default name counts machines built in this process,
    # which would make the output depend on the operation's position.
    if op.kind == "inplace-kvm-xen":
        machine = make_kvm_host(M1_SPEC, vm_count=shape.vm_count,
                                memory_gib=shape.memory_gib,
                                name="bench-host", seed=shape.guest_seed)
        target = HypervisorKind.XEN
    else:
        machine = make_xen_host(M1_SPEC, vm_count=shape.vm_count,
                                memory_gib=shape.memory_gib,
                                name="bench-host", seed=shape.guest_seed)
        target = HypervisorKind.KVM
    opts = OptimizationConfig()
    if op.kind == "inplace-4k":
        opts = opts.without("huge_pages")
    return [HyperTP(optimizations=opts).inplace(machine, target, SimClock())]


def host_check(reports: List[object]) -> None:
    for report in reports:
        if isinstance(report, InPlaceReport):
            intact = report.guest_digests_preserved
        else:
            intact = report.guest_digest_preserved
        if not intact:
            raise CheckFailed(f"guest state changed in a {type(report).__name__}")


def host_encode(reports: List[object]) -> str:
    return _encode([dataclasses.asdict(r) for r in reports])


WORKLOADS: Dict[str, Workload] = {
    "fleet-campaign": Workload(
        fleet_inputs, fleet_run, fleet_check,
        lambda metrics: _encode(metrics.to_dict()), "fleet.encode"),
    "sentinel-replay": Workload(
        sentinel_inputs, sentinel_run, sentinel_check,
        lambda report: _encode(report.to_dict()), "sentinel.encode"),
    "host-transplant": Workload(
        host_inputs, host_run, host_check, host_encode,
        "core.reports.encode"),
}
