"""Tests for MigrationTP and the homogeneous live-migration baseline."""

import pytest

from repro.errors import MigrationError
from repro.guest.drivers import PassthroughDriver
from repro.core.migration import (
    LiveMigration,
    MigrationTP,
    migrate_group,
    plan_precopy,
)
from repro.core.timings import DEFAULT_COST_MODEL
from repro.sim.clock import SimClock

GIB = 1024 ** 3
MB = 1 << 20


class TestPreCopyPlanning:
    def test_round1_ships_everything(self):
        rounds = plan_precopy(GIB, 100 * MB, MB, DEFAULT_COST_MODEL)
        assert rounds[0].bytes_sent == GIB

    def test_idle_vm_converges_quickly(self):
        rounds = plan_precopy(GIB, 100 * MB, MB, DEFAULT_COST_MODEL)
        assert len(rounds) <= 3
        assert rounds[-1].dirty_after_bytes <= GIB * 0.002

    def test_busy_vm_needs_more_rounds(self):
        idle = plan_precopy(GIB, 100 * MB, MB, DEFAULT_COST_MODEL)
        busy = plan_precopy(GIB, 100 * MB, 50 * MB, DEFAULT_COST_MODEL)
        assert len(busy) > len(idle)
        assert sum(r.bytes_sent for r in busy) > sum(r.bytes_sent for r in idle)

    def test_write_storm_cuts_to_stop_and_copy(self):
        # Dirty rate >= link rate: pre-copy cannot converge.
        rounds = plan_precopy(GIB, 100 * MB, 200 * MB, DEFAULT_COST_MODEL)
        assert len(rounds) <= DEFAULT_COST_MODEL.max_precopy_rounds

    def test_round_budget_respected(self):
        rounds = plan_precopy(GIB, 100 * MB, 90 * MB, DEFAULT_COST_MODEL)
        assert len(rounds) <= DEFAULT_COST_MODEL.max_precopy_rounds

    def test_zero_rate_rejected(self):
        with pytest.raises(MigrationError):
            plan_precopy(GIB, 0, MB, DEFAULT_COST_MODEL)

    @pytest.mark.parametrize("dirty", [-1.0, float("inf"), float("nan")])
    def test_unmodelable_dirty_rate_rejected(self, dirty):
        with pytest.raises(MigrationError, match="dirty rate must be"):
            plan_precopy(GIB, 100 * MB, dirty, DEFAULT_COST_MODEL)


class TestMigrationTP:
    def _pair(self, xen_host_factory, kvm_host_factory, fabric, **src_kwargs):
        source = xen_host_factory(name="src", **src_kwargs)
        destination = kvm_host_factory(name="dst")
        fabric.connect(source, destination)
        return source, destination

    def test_requires_heterogeneous(self, xen_host_factory, fabric):
        a = xen_host_factory(name="a")
        b = xen_host_factory(name="b", vm_count=0)
        fabric.connect(a, b)
        with pytest.raises(MigrationError):
            MigrationTP(fabric, a, b)

    def test_negative_dirty_rate_rejected_before_the_clock_moves(
            self, xen_host_factory, kvm_host_factory, fabric):
        source, destination = self._pair(xen_host_factory, kvm_host_factory,
                                         fabric, vm_count=1)
        domain = next(iter(source.hypervisor.domains.values()))
        clock = SimClock()
        with pytest.raises(MigrationError, match="got -5"):
            MigrationTP(fabric, source, destination).migrate(
                domain, clock, dirty_rate_bytes_s=-5.0)
        assert clock.now == 0
        assert domain.vm in [d.vm for d in source.hypervisor.domains.values()]

    def test_vm_lands_on_destination(self, xen_host_factory,
                                     kvm_host_factory, fabric):
        source, destination = self._pair(xen_host_factory, kvm_host_factory,
                                         fabric, vm_count=1)
        domain = next(iter(source.hypervisor.domains.values()))
        vm = domain.vm
        MigrationTP(fabric, source, destination).migrate(domain)
        assert not source.hypervisor.domains
        assert len(destination.hypervisor.domains) == 1
        assert vm in [d.vm for d in destination.hypervisor.domains.values()]
        assert vm.state.value == "running"

    def test_guest_pages_bit_identical(self, xen_host_factory,
                                       kvm_host_factory, fabric):
        source, destination = self._pair(xen_host_factory, kvm_host_factory,
                                         fabric, vm_count=1)
        domain = next(iter(source.hypervisor.domains.values()))
        digest = domain.vm.image.content_digest()
        report = MigrationTP(fabric, source, destination).migrate(domain)
        assert report.guest_digest_preserved
        assert domain.vm.image.content_digest() == digest

    def test_source_memory_released(self, xen_host_factory,
                                    kvm_host_factory, fabric):
        source, destination = self._pair(xen_host_factory, kvm_host_factory,
                                         fabric, vm_count=1)
        domain = next(iter(source.hypervisor.domains.values()))
        MigrationTP(fabric, source, destination).migrate(domain)
        assert source.memory.allocated_bytes == 0

    def test_table4_anchors(self, xen_host_factory, kvm_host_factory, fabric):
        # Table 4: ~9.6 s total, ~5 ms downtime for 1 GB over 1 Gbps.
        source, destination = self._pair(xen_host_factory, kvm_host_factory,
                                         fabric, vm_count=1)
        domain = next(iter(source.hypervisor.domains.values()))
        report = MigrationTP(fabric, source, destination).migrate(domain)
        assert report.total_s == pytest.approx(9.6, abs=1.0)
        assert report.downtime_s < 0.02

    def test_passthrough_device_blocks_migration(self, xen_host_factory,
                                                 kvm_host_factory, fabric):
        source, destination = self._pair(xen_host_factory, kvm_host_factory,
                                         fabric, vm_count=1)
        domain = next(iter(source.hypervisor.domains.values()))
        domain.vm.attach_device(PassthroughDriver("nic-vf0"))
        with pytest.raises(MigrationError):
            MigrationTP(fabric, source, destination).migrate(domain)

    def test_memory_size_scales_total_not_downtime(self, xen_host_factory,
                                                   kvm_host_factory, fabric):
        # Fig. 8/9: memory grows migration time; downtime barely moves.
        small_src, small_dst = self._pair(xen_host_factory, kvm_host_factory,
                                          fabric, vm_count=1, memory_gib=1.0)
        small = MigrationTP(fabric, small_src, small_dst).migrate(
            next(iter(small_src.hypervisor.domains.values()))
        )
        big_src = xen_host_factory(name="src-big", memory_gib=8.0)
        big_dst = kvm_host_factory(name="dst-big")
        fabric.connect(big_src, big_dst)
        big = MigrationTP(fabric, big_src, big_dst).migrate(
            next(iter(big_src.hypervisor.domains.values()))
        )
        assert big.total_s > 6 * small.total_s
        assert big.downtime_s == pytest.approx(small.downtime_s, abs=0.05)


class TestXenBaseline:
    def _xen_pair(self, xen_host_factory, fabric, vm_count=1):
        source = xen_host_factory(name="xsrc", vm_count=vm_count)
        destination = xen_host_factory(name="xdst", vm_count=0)
        fabric.connect(source, destination)
        return source, destination

    def test_requires_homogeneous(self, xen_host_factory, kvm_host_factory,
                                  fabric):
        a = xen_host_factory(name="a")
        b = kvm_host_factory(name="b")
        fabric.connect(a, b)
        with pytest.raises(MigrationError):
            LiveMigration(fabric, a, b)

    def test_table4_xen_downtime(self, xen_host_factory, fabric):
        source, destination = self._xen_pair(xen_host_factory, fabric)
        domain = next(iter(source.hypervisor.domains.values()))
        report = LiveMigration(fabric, source, destination).migrate(domain)
        # Table 4: 133.59 ms downtime, ~9.56 s total.
        assert report.downtime_s == pytest.approx(0.134, abs=0.03)
        assert report.total_s == pytest.approx(9.6, abs=1.0)

    def test_migrationtp_downtime_much_lower_than_xen(
            self, xen_host_factory, kvm_host_factory, fabric):
        xsrc, xdst = self._xen_pair(xen_host_factory, fabric)
        xen_report = LiveMigration(fabric, xsrc, xdst).migrate(
            next(iter(xsrc.hypervisor.domains.values()))
        )
        tsrc = xen_host_factory(name="tsrc")
        tdst = kvm_host_factory(name="tdst")
        fabric.connect(tsrc, tdst)
        tp_report = MigrationTP(fabric, tsrc, tdst).migrate(
            next(iter(tsrc.hypervisor.domains.values()))
        )
        # Table 4: 27x lower; accept an order of magnitude as the bar.
        assert xen_report.downtime_s > 10 * tp_report.downtime_s


class TestGroupMigration:
    def test_xen_downtime_variance_grows_with_vms(self, xen_host_factory,
                                                  fabric):
        source = xen_host_factory(name="gsrc", vm_count=6)
        destination = xen_host_factory(name="gdst", vm_count=0)
        fabric.connect(source, destination)
        domains = sorted(source.hypervisor.domains.values(),
                         key=lambda d: d.domid)
        reports = migrate_group(
            LiveMigration(fabric, source, destination), domains
        )
        downtimes = [r.downtime_s for r in reports]
        # Fig. 8: the receive queue makes later VMs wait longer.
        assert downtimes == sorted(downtimes)
        assert downtimes[-1] > 3 * downtimes[0]

    def test_migrationtp_downtime_constant_across_vms(self, xen_host_factory,
                                                      kvm_host_factory,
                                                      fabric):
        source = xen_host_factory(name="gsrc2", vm_count=6)
        destination = kvm_host_factory(name="gdst2")
        fabric.connect(source, destination)
        domains = sorted(source.hypervisor.domains.values(),
                         key=lambda d: d.domid)
        reports = migrate_group(
            MigrationTP(fabric, source, destination), domains
        )
        downtimes = [r.downtime_s for r in reports]
        assert max(downtimes) - min(downtimes) < 0.005

    def test_concurrency_slows_precopy(self, xen_host_factory,
                                       kvm_host_factory, fabric):
        source = xen_host_factory(name="gsrc3", vm_count=4)
        destination = kvm_host_factory(name="gdst3")
        fabric.connect(source, destination)
        domains = sorted(source.hypervisor.domains.values(),
                         key=lambda d: d.domid)
        reports = migrate_group(
            MigrationTP(fabric, source, destination), domains
        )
        # Four flows share the 1 Gbps link: ~4x a solo 1 GB migration.
        assert reports[0].precopy_s > 30.0
