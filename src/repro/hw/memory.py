"""Physical memory model with a frame allocator.

Guest memory is tracked at frame granularity.  Frames carry a *content
digest* rather than real bytes, so a 12 GB guest costs a few thousand Python
objects (with 2 MB huge pages) while still letting tests verify the core
HyperTP invariant: Guest State is bit-identical across a transplant.

Frames can be *pinned* (registered with PRAM) which forbids the allocator
from handing them out again after a micro-reboot — the mechanism the paper
adds to both Xen and KVM so that kexec does not scribble over guest RAM
(§4.2.4).

The free list is canonical: sorted by start, every region maximal (no two
adjacent).  ``allocate_many`` carves ``count`` frames by first fit in one
pass over it — the MFNs single first-fit allocations would pick, since
within one call a region first fit skipped never grows again — and
``free_many`` merges all freed frames back in one sorted pass.
``allocate`` and ``free`` are their one-frame cases, so there is one
implementation of each.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, Iterable, List, Set

from repro.errors import FrameAllocationError, HardwareError

PAGE_4K = 4 * 1024
PAGE_2M = 2 * 1024 * 1024

_VALID_PAGE_SIZES = (PAGE_4K, PAGE_2M)


@dataclass
class Frame:
    """One physical frame (machine frame number + size + content digest)."""

    mfn: int
    size: int
    digest: int = 0

    def __post_init__(self) -> None:
        if self.size not in _VALID_PAGE_SIZES:
            raise HardwareError(f"unsupported frame size {self.size}")


@dataclass
class _Region:
    """A contiguous span of free 4K base frames [start, start + count)."""

    start: int
    count: int


def _start(region: _Region) -> int:
    return region.start


class PhysicalMemory:
    """Frame allocator over a machine's RAM.

    Internally everything is accounted in 4K base frames; 2 MB allocations
    consume 512 aligned base frames.  Allocation is first-fit, which produces
    the scattered layouts the PRAM structure must represent (Fig. 4).
    """

    def __init__(self, total_bytes: int):
        if total_bytes <= 0 or total_bytes % PAGE_4K:
            raise HardwareError(f"RAM size must be a positive 4K multiple: {total_bytes}")
        self.total_bytes = total_bytes
        self.total_base_frames = total_bytes // PAGE_4K
        self._free: List[_Region] = [_Region(0, self.total_base_frames)]
        self._allocated: Dict[int, Frame] = {}
        self._allocated_bytes = 0
        self._pinned: Set[int] = set()

    # -- queries ---------------------------------------------------------

    @property
    def allocated_bytes(self) -> int:
        return self._allocated_bytes

    @property
    def free_bytes(self) -> int:
        return self.total_bytes - self.allocated_bytes

    def frame(self, mfn: int) -> Frame:
        try:
            return self._allocated[mfn]
        except KeyError:
            raise FrameAllocationError(f"mfn {mfn} is not allocated") from None

    def is_allocated(self, mfn: int) -> bool:
        return mfn in self._allocated

    def is_pinned(self, mfn: int) -> bool:
        return mfn in self._pinned

    def allocated_frames(self) -> List[Frame]:
        return list(self._allocated.values())

    # -- allocation ------------------------------------------------------

    def allocate(self, size: int = PAGE_4K, digest: int = 0) -> Frame:
        """Allocate one frame of ``size`` bytes (first fit, aligned)."""
        frame = self.allocate_many(1, size)[0]
        frame.digest = digest
        return frame

    def allocate_many(self, count: int, size: int = PAGE_4K) -> List[Frame]:
        """Allocate ``count`` frames by first fit in one free-list pass.

        Returns the frames ``count`` single first-fit allocations would,
        in the same order; a call that cannot be satisfied changes
        nothing.
        """
        if size not in _VALID_PAGE_SIZES:
            raise FrameAllocationError(f"unsupported allocation size {size}")
        base_frames = size // PAGE_4K
        carves: List[range] = []
        # The scanned prefix of the free list as it reads after the carves.
        head: List[_Region] = []
        scanned = 0
        need = count
        for region in self._free:
            if need <= 0:
                break
            scanned += 1
            start = self._align_up(region.start, base_frames)
            end = region.start + region.count
            fits = min(need, (end - start) // base_frames)
            if fits <= 0:
                head.append(region)
                continue
            stop = start + fits * base_frames
            carves.append(range(start, stop, base_frames))
            need -= fits
            if start > region.start:
                head.append(_Region(region.start, start - region.start))
            if stop < end:
                head.append(_Region(stop, end - stop))
        if need > 0:
            # The message one-at-a-time allocation gave: the free space
            # left once the frames that did fit were taken.
            free = self.free_bytes - (count - need) * size
            raise FrameAllocationError(
                f"out of memory: need {size} bytes, {free} free")
        self._free[:scanned] = head
        frames = [Frame(mfn, size) for mfns in carves for mfn in mfns]
        allocated = self._allocated
        for frame in frames:
            allocated[frame.mfn] = frame
        self._allocated_bytes += len(frames) * size
        return frames

    def free(self, mfn: int) -> None:
        """Return a frame to the allocator."""
        self.free_many((mfn,))

    def free_many(self, mfns: Iterable[int]) -> None:
        """Return frames to the allocator, all or none.

        Every MFN is checked before any is freed: an unknown, pinned or
        repeated one raises the error the one-at-a-time frees would have
        stopped at, and frees nothing.  The freed frames are coalesced
        into runs and merged into the free list in one sorted pass over
        the span they touch, which leaves the list sorted and maximal as
        single frees would.
        """
        allocated = self._allocated
        released: Set[int] = set()
        for mfn in mfns:
            if mfn not in allocated or mfn in released:
                raise FrameAllocationError(f"mfn {mfn} is not allocated")
            if mfn in self._pinned:
                raise FrameAllocationError(
                    f"cannot free pinned frame mfn={mfn}")
            released.add(mfn)
        if not released:
            return
        runs: List[_Region] = []
        freed_bytes = 0
        for mfn in sorted(released):
            size = allocated.pop(mfn).size
            freed_bytes += size
            if runs and runs[-1].start + runs[-1].count == mfn:
                runs[-1].count += size // PAGE_4K
            else:
                runs.append(_Region(mfn, size // PAGE_4K))
        self._allocated_bytes -= freed_bytes
        # No free region outside [left neighbour of the first run, region
        # starting where the last run ends] can touch a run: merge only
        # that span.
        free = self._free
        lo = max(bisect_left(free, runs[0].start, key=_start) - 1, 0)
        hi = bisect_right(free, runs[-1].start + runs[-1].count, key=_start)
        merged: List[_Region] = []
        for region in sorted(free[lo:hi] + runs, key=_start):
            if merged and merged[-1].start + merged[-1].count == region.start:
                merged[-1].count += region.count
            else:
                merged.append(region)
        free[lo:hi] = merged

    # -- pinning (PRAM protection across kexec) ---------------------------

    def pin(self, mfn: int) -> None:
        """Protect a frame from being freed or reused across micro-reboot."""
        self.frame(mfn)
        self._pinned.add(mfn)

    def unpin(self, mfn: int) -> None:
        self._pinned.discard(mfn)

    def pinned_frames(self) -> List[Frame]:
        return [self._allocated[m] for m in sorted(self._pinned)]

    def reset_except_pinned(self) -> None:
        """Re-initialize the allocator, keeping only pinned frames.

        This is what the target hypervisor's early-boot PRAM parsing does: it
        reserves every frame named by the PRAM structure and treats the rest
        of RAM as free (§4.2.4).
        """
        survivors = {m: self._allocated[m] for m in self._pinned}
        self._allocated = survivors
        self._allocated_bytes = sum(f.size for f in survivors.values())
        self._free = []
        cursor = 0
        for mfn in sorted(survivors):
            frame = survivors[mfn]
            if mfn > cursor:
                self._free.append(_Region(cursor, mfn - cursor))
            cursor = mfn + frame.size // PAGE_4K
        if cursor < self.total_base_frames:
            self._free.append(_Region(cursor, self.total_base_frames - cursor))

    # -- content ----------------------------------------------------------

    def write(self, mfn: int, digest: int) -> None:
        """Overwrite a frame's contents (sets its digest)."""
        self.frame(mfn).digest = digest

    def read(self, mfn: int) -> int:
        """Read a frame's content digest."""
        return self.frame(mfn).digest

    def digest_of(self, mfns: Iterable[int]) -> int:
        """Combined digest over an ordered set of frames (guest image hash)."""
        allocated = self._allocated
        acc = 0
        for mfn in mfns:
            frame = allocated.get(mfn)
            if frame is None:
                raise FrameAllocationError(f"mfn {mfn} is not allocated")
            acc = (acc * 1000003 + frame.digest) & 0xFFFFFFFFFFFFFFFF
        return acc

    # -- internals ---------------------------------------------------------

    @staticmethod
    def _align_up(value: int, alignment: int) -> int:
        return (value + alignment - 1) // alignment * alignment
