"""Tests for the PRAM over-kexec memory file system."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PRAMError
from repro.guest.image import GuestImage
from repro.hw.memory import PAGE_2M, PAGE_4K, PhysicalMemory
from repro.core.pram import PageEntry, PRAMFilesystem
from repro.io import (
    FrameWriter,
    Packer,
    PageStreamEncoder,
    encode_entry_runs,
)
from repro.io.pages import pack_entry_record

GIB = 1024 ** 3
MIB = 1024 ** 2


def make_fs_with_vm(vm_gib=1.0, page_size=PAGE_2M):
    memory = PhysicalMemory(4 * GIB)
    image = GuestImage(memory, int(vm_gib * GIB), page_size=page_size)
    fs = PRAMFilesystem(memory)
    fs.add_vm_file("vm0", image.mappings(), page_size=page_size)
    return memory, image, fs


class TestPageEntry:
    def test_pack_unpack_roundtrip(self):
        entry = PageEntry(gfn=12345, mfn=67890, order=9)
        assert PageEntry.unpacked(entry.packed()) == entry

    def test_byte_size_power_of_two(self):
        assert PageEntry(gfn=0, mfn=0, order=0).byte_size == PAGE_4K
        assert PageEntry(gfn=0, mfn=0, order=9).byte_size == PAGE_2M

    def test_out_of_range_rejected(self):
        with pytest.raises(PRAMError):
            PageEntry(gfn=1 << 40, mfn=0, order=0).packed()


class TestPRAMFilesystem:
    def test_hugepage_vm_entry_count(self):
        _, image, fs = make_fs_with_vm()
        assert fs.files["vm0"].entry_count == 512  # 1 GiB / 2 MiB
        assert fs.total_entries() == 512

    def test_4k_entries_of_huge_paged_guest_stay_runs(self):
        # The unoptimised layout of a 1 GiB 2M-page guest has 262144
        # 4K entries; the file holds at most one run per guest page.
        memory = PhysicalMemory(4 * GIB)
        image = GuestImage(memory, GIB, page_size=PAGE_2M)
        fs = PRAMFilesystem(memory)
        pram_file = fs.add_vm_file("vm0", image.mappings(),
                                   page_size=PAGE_2M, entry_page_size=PAGE_4K)
        assert len(pram_file.runs) <= 512
        assert pram_file.entry_count == 262144
        assert pram_file.total_bytes == GIB
        # Still the §5.5 worst case of 2 MB of metadata per GB.
        assert 2_000_000 < fs.metadata_bytes() < 2_300_000

    def test_metadata_matches_paper_16kb_for_1gib(self):
        # §5.5: 16 KB of PRAM metadata for a single 1 GB VM with 2 MB pages.
        _, _, fs = make_fs_with_vm()
        assert fs.metadata_bytes() == 16 * 1024

    def test_metadata_matches_paper_60kb_for_12gib(self):
        memory = PhysicalMemory(16 * GIB)
        image = GuestImage(memory, 12 * GIB, page_size=PAGE_2M)
        fs = PRAMFilesystem(memory)
        fs.add_vm_file("big", image.mappings(), page_size=PAGE_2M)
        assert fs.metadata_bytes() == 60 * 1024

    def test_metadata_matches_paper_148kb_for_12_vms(self):
        memory = PhysicalMemory(16 * GIB)
        fs = PRAMFilesystem(memory)
        for i in range(12):
            image = GuestImage(memory, GIB, page_size=PAGE_2M)
            fs.add_vm_file(f"vm{i}", image.mappings(), page_size=PAGE_2M)
        assert fs.metadata_bytes() == 148 * 1024

    def test_worst_case_4k_overhead_2mb_per_gib(self):
        # §5.5: 8 B/page => ~2 MB of metadata per GB with all-4K pages.
        memory = PhysicalMemory(4 * GIB)
        image = GuestImage(memory, GIB, page_size=PAGE_4K)
        fs = PRAMFilesystem(memory)
        fs.add_vm_file("vm0", image.mappings(), page_size=PAGE_4K)
        overhead = fs.metadata_bytes()
        assert 2_000_000 < overhead < 2_300_000

    def test_layout_roundtrip(self):
        _, image, fs = make_fs_with_vm()
        assert fs.layout_of("vm0") == dict(image.mappings())

    def test_unknown_file_rejected(self):
        _, _, fs = make_fs_with_vm()
        with pytest.raises(PRAMError):
            fs.layout_of("ghost")

    def test_duplicate_file_rejected(self):
        memory, image, fs = make_fs_with_vm()
        with pytest.raises(PRAMError):
            fs.add_vm_file("vm0", image.mappings(), page_size=PAGE_2M)

    def test_seal_pins_guest_and_metadata(self):
        memory, image, fs = make_fs_with_vm()
        pointer = fs.seal()
        assert pointer is not None
        for _, mfn in image.mappings():
            assert memory.is_pinned(mfn)
        # Metadata pages are pinned too (they must survive the kexec).
        assert len(memory.pinned_frames()) > image.page_count

    def test_seal_twice_rejected(self):
        _, _, fs = make_fs_with_vm()
        fs.seal()
        with pytest.raises(PRAMError):
            fs.seal()

    def test_add_after_seal_rejected(self):
        memory, image, fs = make_fs_with_vm()
        fs.seal()
        with pytest.raises(PRAMError):
            fs.add_vm_file("late", [], page_size=PAGE_2M)

    def test_encode_decode_roundtrip(self):
        memory, image, fs = make_fs_with_vm()
        decoded = PRAMFilesystem.decode(fs.encode(), memory)
        assert decoded.layout_of("vm0") == fs.layout_of("vm0")
        assert decoded.files["vm0"].page_size == PAGE_2M

    def test_entries_survive_memory_reset(self):
        memory, image, fs = make_fs_with_vm()
        digest = image.content_digest()
        fs.seal()
        memory.reset_except_pinned()
        assert image.content_digest() == digest

    def test_teardown_returns_metadata(self):
        memory, image, fs = make_fs_with_vm()
        fs.seal()
        allocated_with_pram = memory.allocated_bytes
        fs.release_guest_pins("vm0")
        freed = fs.teardown()
        assert freed == 16 * 1024
        assert memory.allocated_bytes == allocated_with_pram - freed

    def test_described_bytes(self):
        _, image, fs = make_fs_with_vm()
        assert fs.described_bytes() == image.size_bytes

    def test_non_power_of_two_page_size_rejected(self):
        memory = PhysicalMemory(GIB)
        fs = PRAMFilesystem(memory)
        with pytest.raises(PRAMError):
            fs.add_vm_file("vm0", [], page_size=PAGE_4K * 3)


# -- decoding inconsistent FILE frames -----------------------------------------

def file_stream(page_size, runs, name="vm0"):
    """A one-file PRAM stream: well-formed frames, arbitrary entries."""
    writer = FrameWriter()
    writer.frame(1, Packer().u32(1).u8(0).bytes())
    encoded_name = name.encode()
    payload = (Packer().u16(len(encoded_name)).raw(encoded_name)
               .u32(page_size).u32(0o600).raw(encode_entry_runs(runs)))
    writer.frame(2, payload.bytes())
    return writer.finish()


class TestDecodeRejectsInconsistentFiles:
    def decode(self, page_size, runs):
        return PRAMFilesystem.decode(file_stream(page_size, runs),
                                     PhysicalMemory(GIB))

    def test_consistent_file_decodes(self):
        fs = self.decode(PAGE_2M, [(0, 0, 0, 1024)])
        assert fs.layout_of("vm0") == {0: 0, 1: 512}
        assert fs.described_bytes() == 2 * PAGE_2M

    def test_entry_larger_than_page_rejected(self):
        with pytest.raises(PRAMError, match="does not divide"):
            self.decode(PAGE_4K, [(0, 0, 9, 1)])

    def test_mixed_orders_rejected(self):
        with pytest.raises(PRAMError, match="mixes entry orders"):
            self.decode(PAGE_2M, [(0, 0, 0, 1), (1, 5, 9, 1)])

    def test_non_power_of_two_page_size_rejected(self):
        with pytest.raises(PRAMError, match="power-of-two"):
            self.decode(3 * PAGE_4K, [(0, 0, 0, 3)])

    def test_partly_covered_page_rejected(self):
        with pytest.raises(PRAMError, match="cover part of"):
            self.decode(PAGE_2M, [(0, 0, 0, 511)])

    def test_page_described_twice_rejected(self):
        with pytest.raises(PRAMError, match="distinct"):
            self.decode(PAGE_2M, [(0, 0, 9, 1), (0, 512, 9, 1)])


# -- byte identity with a per-page reference encoder ----------------------------

def reference_encode(vms, memory=None):
    """The PRAM stream built one record per entry, as before runs.

    ``vms`` lists ``(name, mapping, page_size, entry_page_size)``.  Every
    guest page is expanded to its entries, which go out as raw packed
    records or as coalesced runs, whichever is smaller.  With ``memory``
    the stream carries CONTENTS frames too.
    """
    writer = FrameWriter()
    writer.frame(1, Packer().u32(len(vms)).u8(memory is not None).bytes())
    pages_encoder = PageStreamEncoder()
    for name, mapping, page_size, entry_page_size in sorted(vms):
        expansion = page_size // entry_page_size
        order = (entry_page_size // PAGE_4K).bit_length() - 1
        records = [(gfn * expansion + sub, mfn + sub, order)
                   for gfn, mfn in mapping.items()
                   for sub in range(expansion)]
        runs = []
        for gfn, mfn, _ in records:
            if runs and runs[-1][0] + runs[-1][3] == gfn \
                    and runs[-1][1] + runs[-1][3] == mfn:
                runs[-1][3] += 1
            else:
                runs.append([gfn, mfn, order, 1])
        entries = Packer()
        if 1 + 4 + 21 * len(runs) < 1 + 4 + 8 * len(records):
            entries.u8(1).u32(len(runs))
            for gfn, mfn, order, count in runs:
                entries.u64(gfn).u64(mfn).u8(order).u32(count)
        else:
            entries.u8(0).u32(len(records))
            for record in records:
                entries.u64(pack_entry_record(*record))
        encoded_name = name.encode()
        payload = (Packer().u16(len(encoded_name)).raw(encoded_name)
                   .u32(page_size).u32(0o600).raw(entries.bytes()))
        writer.frame(2, payload.bytes())
        if memory is not None:
            batch = pages_encoder.encode_batch(
                (gfn, memory.read(mfn)) for gfn, mfn in sorted(mapping.items()))
            contents = Packer().u16(len(encoded_name)).raw(encoded_name)
            writer.frame(3, contents.raw(batch).bytes())
    return writer.finish()


#: (guest page size, entry size): 2M pages, 4K pages, 2M pages with 4K
#: entries (the unoptimised patchset).
PRAM_SHAPES = [(PAGE_2M, PAGE_2M), (PAGE_4K, PAGE_4K), (PAGE_2M, PAGE_4K)]


@st.composite
def pram_vms(draw):
    """VMs of one shape, with contiguous or scattered gfns and mfns."""
    page_size, entry_page_size = draw(st.sampled_from(PRAM_SHAPES))
    # The mfn step that keeps entries contiguous across guest pages.
    step = page_size // entry_page_size
    contiguous = draw(st.booleans())
    next_mfn = draw(st.integers(min_value=0, max_value=1 << 20))
    vms = []
    for i in range(draw(st.integers(min_value=1, max_value=3))):
        if contiguous:
            gfns = list(range(draw(st.integers(min_value=0, max_value=24))))
        else:
            gfns = draw(st.lists(st.integers(min_value=0, max_value=200),
                                 unique=True, max_size=24))
        mapping = {}
        for gfn in gfns:
            mapping[gfn] = next_mfn
            next_mfn += step * (1 if contiguous else draw(
                st.integers(min_value=1, max_value=3)))
        vms.append((f"vm{i}", mapping, page_size, entry_page_size))
    return vms


class TestRunsMatchPerPageEncoding:
    @given(pram_vms())
    @settings(max_examples=150, deadline=None)
    def test_encode_is_byte_identical(self, vms):
        fs = PRAMFilesystem(PhysicalMemory(GIB))
        for name, mapping, page_size, entry_page_size in vms:
            fs.add_vm_file(name, mapping.items(), page_size=page_size,
                           entry_page_size=entry_page_size)
        blob = fs.encode()
        assert blob == reference_encode(vms)

        decoded = PRAMFilesystem.decode(blob, fs.memory)
        for name, mapping, page_size, entry_page_size in vms:
            assert decoded.layout_of(name) == mapping
            assert (decoded.files[name].entry_count
                    == len(mapping) * (page_size // entry_page_size))
            assert decoded.files[name].runs == fs.files[name].runs
        assert decoded.total_entries() == fs.total_entries()
        assert decoded.metadata_bytes() == fs.metadata_bytes()
        assert decoded.described_bytes() == fs.described_bytes()
        assert decoded.encode() == blob

    @pytest.mark.parametrize("page_size,entry_page_size", PRAM_SHAPES)
    def test_encode_with_contents_is_byte_identical(self, page_size,
                                                    entry_page_size):
        memory = PhysicalMemory(64 * MIB)
        images = [GuestImage(memory, 8 * MIB, page_size=page_size, seed=i)
                  for i in range(2)]
        fs = PRAMFilesystem(memory)
        vms = []
        for i, image in enumerate(images):
            fs.add_vm_file(f"vm{i}", image.mappings(), page_size=page_size,
                           entry_page_size=entry_page_size)
            vms.append((f"vm{i}", dict(image.mappings()), page_size,
                        entry_page_size))
        blob = fs.encode(include_contents=True)
        assert blob == reference_encode(vms, memory)
        decoded = PRAMFilesystem.decode(blob, memory)
        assert decoded.described_bytes() == 2 * 8 * MIB
