"""Tests for the physical-memory frame allocator."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.runner import make_xen_host
from repro.errors import FrameAllocationError, HardwareError
from repro.hw import memory as memory_module
from repro.hw.machine import M1_SPEC
from repro.hw.memory import PAGE_2M, PAGE_4K, PhysicalMemory

MIB = 1024 * 1024


def test_initial_accounting():
    memory = PhysicalMemory(16 * MIB)
    assert memory.total_bytes == 16 * MIB
    assert memory.free_bytes == 16 * MIB
    assert memory.allocated_bytes == 0


def test_bad_sizes_rejected():
    with pytest.raises(HardwareError):
        PhysicalMemory(0)
    with pytest.raises(HardwareError):
        PhysicalMemory(4097)


def test_allocate_4k():
    memory = PhysicalMemory(16 * MIB)
    frame = memory.allocate()
    assert frame.size == PAGE_4K
    assert memory.allocated_bytes == PAGE_4K
    assert memory.is_allocated(frame.mfn)


def test_allocate_2m_is_aligned():
    memory = PhysicalMemory(16 * MIB)
    memory.allocate()  # misalign the free cursor
    frame = memory.allocate(size=PAGE_2M)
    assert frame.mfn % (PAGE_2M // PAGE_4K) == 0


def test_allocate_unsupported_size_rejected():
    memory = PhysicalMemory(16 * MIB)
    with pytest.raises(FrameAllocationError):
        memory.allocate(size=8192)


def test_exhaustion_raises():
    memory = PhysicalMemory(2 * PAGE_4K)
    memory.allocate()
    memory.allocate()
    with pytest.raises(FrameAllocationError):
        memory.allocate()


def test_allocate_many_rolls_back_on_failure():
    memory = PhysicalMemory(4 * PAGE_4K)
    with pytest.raises(FrameAllocationError):
        memory.allocate_many(5)
    assert memory.allocated_bytes == 0


def test_free_returns_space():
    memory = PhysicalMemory(2 * PAGE_4K)
    frame = memory.allocate()
    memory.allocate()
    memory.free(frame.mfn)
    replacement = memory.allocate()
    assert replacement.mfn == frame.mfn  # coalesced + first fit


def test_free_unknown_rejected():
    memory = PhysicalMemory(16 * MIB)
    with pytest.raises(FrameAllocationError):
        memory.free(999)


def test_double_free_rejected():
    memory = PhysicalMemory(16 * MIB)
    frame = memory.allocate()
    memory.free(frame.mfn)
    with pytest.raises(FrameAllocationError):
        memory.free(frame.mfn)


def test_pinned_frame_cannot_be_freed():
    memory = PhysicalMemory(16 * MIB)
    frame = memory.allocate()
    memory.pin(frame.mfn)
    with pytest.raises(FrameAllocationError):
        memory.free(frame.mfn)
    memory.unpin(frame.mfn)
    memory.free(frame.mfn)


def test_reset_except_pinned_preserves_pins():
    memory = PhysicalMemory(16 * MIB)
    doomed = memory.allocate()
    survivor = memory.allocate(digest=77)
    memory.pin(survivor.mfn)
    memory.reset_except_pinned()
    assert not memory.is_allocated(doomed.mfn)
    assert memory.is_allocated(survivor.mfn)
    assert memory.read(survivor.mfn) == 77


def test_reset_except_pinned_frees_everything_else():
    memory = PhysicalMemory(16 * MIB)
    for _ in range(10):
        memory.allocate()
    keep = memory.allocate()
    memory.pin(keep.mfn)
    memory.reset_except_pinned()
    assert memory.allocated_bytes == PAGE_4K


def test_allocator_does_not_reuse_pinned_after_reset():
    memory = PhysicalMemory(8 * PAGE_4K)
    keep = memory.allocate()
    memory.pin(keep.mfn)
    memory.reset_except_pinned()
    mfns = {memory.allocate().mfn for _ in range(7)}
    assert keep.mfn not in mfns


def test_write_read_digest():
    memory = PhysicalMemory(16 * MIB)
    frame = memory.allocate()
    memory.write(frame.mfn, 0xDEADBEEF)
    assert memory.read(frame.mfn) == 0xDEADBEEF


def test_digest_of_is_order_sensitive():
    memory = PhysicalMemory(16 * MIB)
    a = memory.allocate(digest=1)
    b = memory.allocate(digest=2)
    assert memory.digest_of([a.mfn, b.mfn]) != memory.digest_of([b.mfn, a.mfn])


def test_mixed_sizes_coexist():
    memory = PhysicalMemory(16 * MIB)
    small = memory.allocate()
    big = memory.allocate(size=PAGE_2M)
    assert memory.allocated_bytes == PAGE_4K + PAGE_2M
    memory.free(big.mfn)
    memory.free(small.mfn)
    assert memory.free_bytes == memory.total_bytes


def test_free_list_stays_sorted_and_coalesced():
    # Fragmentation regression: the allocator promises a sorted, fully
    # coalesced free list after any interleaving of allocs and frees —
    # the bisect insert with neighbor-only merge must uphold it.
    memory = PhysicalMemory(64 * MIB)
    frames = [memory.allocate() for _ in range(128)]
    for frame in frames[::3] + frames[1::3] + frames[2::3]:
        memory.free(frame.mfn)
        regions = memory._free
        assert all(regions[i].start + regions[i].count < regions[i + 1].start
                   for i in range(len(regions) - 1)), "unsorted or adjacent"
    assert len(memory._free) == 1
    assert memory._free[0].count == memory.total_base_frames


def test_interleaved_free_merges_both_neighbors():
    memory = PhysicalMemory(8 * PAGE_4K)
    a, b, c = (memory.allocate() for _ in range(3))
    memory.free(a.mfn)
    memory.free(c.mfn)
    assert len(memory._free) == 2  # [a] and [c..end]
    memory.free(b.mfn)  # bridges both neighbors into one region
    assert len(memory._free) == 1
    assert memory.free_bytes == memory.total_bytes


def test_allocated_bytes_counter_tracks_churn():
    memory = PhysicalMemory(64 * MIB)
    live = []
    for round_index in range(4):
        live.extend(memory.allocate() for _ in range(16))
        live.append(memory.allocate(size=PAGE_2M))
        for frame in live[::2]:
            memory.free(frame.mfn)
        live = live[1::2]
        expected = sum(f.size for f in memory.allocated_frames())
        assert memory.allocated_bytes == expected


def test_allocated_bytes_after_reset_except_pinned():
    memory = PhysicalMemory(16 * MIB)
    for _ in range(8):
        memory.allocate()
    keep = memory.allocate(size=PAGE_2M)
    memory.pin(keep.mfn)
    memory.reset_except_pinned()
    assert memory.allocated_bytes == PAGE_2M
    assert memory.free_bytes == memory.total_bytes - PAGE_2M


def test_allocate_many_picks_first_fit_order():
    memory = PhysicalMemory(16 * MIB)
    holes = [memory.allocate() for _ in range(6)]
    memory.allocate()
    for frame in holes[1:4]:
        memory.free(frame.mfn)
    # The 3-frame hole fills first, then the tail, as single allocations
    # would have taken them.
    frames = memory.allocate_many(5)
    assert [f.mfn for f in frames] == [1, 2, 3, 7, 8]


def test_allocate_many_failure_keeps_the_one_at_a_time_message():
    memory = PhysicalMemory(3 * PAGE_2M)
    memory.allocate()  # the first 2M slot can no longer hold a huge page
    with pytest.raises(FrameAllocationError) as error:
        memory.allocate_many(3, size=PAGE_2M)
    # Two huge pages fit; the third finds the 2M minus 4K left in slot 0.
    assert str(error.value) == (
        f"out of memory: need {PAGE_2M} bytes, {PAGE_2M - PAGE_4K} free")
    assert memory.allocated_bytes == PAGE_4K


def test_free_many_is_all_or_nothing():
    memory = PhysicalMemory(16 * MIB)
    a, b, c = (memory.allocate() for _ in range(3))
    memory.pin(c.mfn)
    free_before = [(r.start, r.count) for r in memory._free]
    for bad, message in (([a.mfn, 999], "mfn 999 is not allocated"),
                         ([a.mfn, b.mfn, a.mfn], f"mfn {a.mfn} is not "
                                                 f"allocated"),
                         ([a.mfn, c.mfn], f"cannot free pinned frame "
                                          f"mfn={c.mfn}")):
        with pytest.raises(FrameAllocationError) as error:
            memory.free_many(bad)
        assert str(error.value) == message
        assert [(r.start, r.count) for r in memory._free] == free_before
        assert memory.is_allocated(a.mfn) and memory.is_allocated(b.mfn)
    memory.free_many([b.mfn, a.mfn])
    assert memory.allocated_bytes == PAGE_4K


class _OneFrameAllocator:
    """The allocator as it was before the bulk paths: one first-fit walk
    from the head of the free list per frame, one sorted insert with
    neighbour merges per freed frame.  Free regions are [start, count]."""

    def __init__(self, total_bytes):
        self.total_bytes = total_bytes
        self.free = [[0, total_bytes // PAGE_4K]]
        self.allocated = {}
        self.pinned = set()

    @property
    def allocated_bytes(self):
        return sum(self.allocated.values())

    def allocate(self, size):
        base = size // PAGE_4K
        for idx, (start, count) in enumerate(self.free):
            aligned = (start + base - 1) // base * base
            if count - (aligned - start) >= base:
                pieces = [[start, aligned - start],
                          [aligned + base, start + count - aligned - base]]
                self.free[idx:idx + 1] = [p for p in pieces if p[1] > 0]
                self.allocated[aligned] = size
                return aligned
        raise FrameAllocationError(
            f"out of memory: need {size} bytes, "
            f"{self.total_bytes - self.allocated_bytes} free")

    def allocate_many(self, count, size):
        mfns = []
        try:
            for _ in range(count):
                mfns.append(self.allocate(size))
        except FrameAllocationError:
            for mfn in mfns:
                self.free_one(mfn)
            raise
        return mfns

    def free_each(self, mfns):
        for mfn in mfns:
            self.free_one(mfn)

    def free_one(self, mfn):
        if mfn not in self.allocated:
            raise FrameAllocationError(f"mfn {mfn} is not allocated")
        if mfn in self.pinned:
            raise FrameAllocationError(f"cannot free pinned frame mfn={mfn}")
        self.free.append([mfn, self.allocated.pop(mfn) // PAGE_4K])
        self.free.sort()
        merged = []
        for start, count in self.free:
            if merged and merged[-1][0] + merged[-1][1] == start:
                merged[-1][1] += count
            else:
                merged.append([start, count])
        self.free = merged


def _state(memory):
    return ([[r.start, r.count] for r in memory._free], memory.allocated_bytes,
            {f.mfn: f.size for f in memory.allocated_frames()},
            sorted(memory._pinned))


def _reference_state(reference):
    return (reference.free, reference.allocated_bytes, reference.allocated,
            sorted(reference.pinned))


def _outcome(call, *args):
    try:
        return call(*args), None
    except FrameAllocationError as error:
        return None, (type(error), str(error))


def _allocated_mfns(memory, count, size):
    return [frame.mfn for frame in memory.allocate_many(count, size)]


_steps = st.lists(st.one_of(
    st.tuples(st.just("alloc"), st.sampled_from((PAGE_4K, PAGE_2M)),
              st.integers(0, 700)),
    st.tuples(st.just("free"), st.lists(st.integers(0, 10 ** 6), max_size=40),
              st.sampled_from(("clean", "unknown", "duplicate", "pinned"))),
    st.tuples(st.just("pin"), st.integers(0, 10 ** 6)),
), min_size=1, max_size=25)


class TestBulkPathsMatchOneFrameAtATime:
    @settings(max_examples=150, deadline=None)
    @given(total_frames=st.integers(256, 2600), steps=_steps)
    def test_same_mfns_regions_bytes_and_errors(self, total_frames, steps):
        memory = PhysicalMemory(total_frames * PAGE_4K)
        reference = _OneFrameAllocator(total_frames * PAGE_4K)
        for step in steps:
            before = _state(memory)
            if step[0] == "alloc":
                _, size, count = step
                trial = copy.deepcopy(reference)
                expected = _outcome(trial.allocate_many, count, size)
                got = _outcome(_allocated_mfns, memory, count, size)
            elif step[0] == "free":
                _, picks, flaw = step
                live = sorted(m for m in reference.allocated
                              if m not in reference.pinned)
                mfns = [live[p % len(live)] for p in picks] if live else []
                mfns = list(dict.fromkeys(mfns))  # a clean subset first
                if flaw == "unknown":
                    mfns.append(total_frames + 1)
                elif flaw == "duplicate" and mfns:
                    mfns.append(mfns[0])
                elif flaw == "pinned" and reference.pinned:
                    mfns.insert(len(mfns) // 2, min(reference.pinned))
                trial = copy.deepcopy(reference)
                expected = _outcome(trial.free_each, mfns)
                got = _outcome(memory.free_many, mfns)
            else:
                if not reference.allocated:
                    continue
                mfn = sorted(reference.allocated)[
                    step[1] % len(reference.allocated)]
                reference.pinned.add(mfn)
                memory.pin(mfn)
                continue
            assert got == expected
            if expected[1] is None:
                reference = trial
            else:
                assert _state(memory) == before, "a failed call changed state"
            assert _state(memory) == _reference_state(reference)


def test_huge_page_host_build_carves_per_vm_not_per_frame(monkeypatch):
    """Six 1 GiB huge-page guests are 3072 frames; the allocator builds
    free-list regions per allocation call, not per frame."""
    built = []

    class CountingRegion(memory_module._Region):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(memory_module, "_Region", CountingRegion)
    machine = make_xen_host(M1_SPEC, vm_count=6, memory_gib=1.0)
    frames = sum(d.vm.image.page_count
                 for d in machine.hypervisor.domains.values())
    assert frames == 3072
    assert len(built) <= 4 * 6 + 8
