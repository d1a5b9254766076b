"""Shared page-record batch encoding with RLE and cross-batch dedup.

Both state-movement paths that carry guest pages — MigrationTP ``PAGES``
wire messages and the PRAM node-page encoding — funnel through this
module, so Fig. 8/9's transferred-bytes and Fig. 14's structure sizes
come from one measured implementation.

Two codecs live here:

* :class:`PageStreamEncoder`/:class:`PageStreamDecoder` — batches of
  ``(gfn, digest)`` records.  Consecutive GFNs are run-length coalesced,
  and the digest table is *stream*-scoped: a page whose content digest
  was already sent in any earlier batch of the same stream is encoded as
  a 4-byte back-reference instead of an 8-byte literal (identical-content
  pages cross the wire once).  :class:`DedupStats` reports the ratio.
* :func:`encode_entry_runs`/:func:`decode_entry_runs` — PRAM page
  entries, held as maximal runs ``(gfn, mfn, order, count)`` of
  contiguous entries (gfn+1, mfn+1, same order — what huge-page
  expansion produces).  The encoding is self-describing and
  deterministically picks raw 8-byte packed entries whenever runs would
  be larger; only then are runs expanded, inside the encoder.
"""

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import StateFormatError
from repro.io.frames import Packer, StreamMeter, Unpacker

#: bytes one (gfn, digest) record costs un-encoded (two u64s) — the
#: baseline :attr:`DedupStats.ratio` measures against.
LOGICAL_RECORD_BYTES = 16

_LITERAL = 0
_REF = 1

# 64-bit packed page-entry layout (gfn:28, mfn:30, order:6) — covers
# 1 TiB hosts with 2 MB chunks.  Single source of truth; core.pram
# re-exports the pack/unpack pair.
ENTRY_GFN_BITS = 28
ENTRY_MFN_BITS = 30
ENTRY_ORDER_BITS = 6

_ENTRY_RAW = 0
_ENTRY_RUNS = 1


def pack_entry_record(gfn: int, mfn: int, order: int) -> int:
    if (gfn >= (1 << ENTRY_GFN_BITS) or mfn >= (1 << ENTRY_MFN_BITS)
            or order >= (1 << ENTRY_ORDER_BITS)):
        raise StateFormatError(
            f"page entry out of range: gfn={gfn} mfn={mfn} order={order}"
        )
    return ((gfn << (ENTRY_MFN_BITS + ENTRY_ORDER_BITS))
            | (mfn << ENTRY_ORDER_BITS) | order)


def unpack_entry_record(packed: int) -> Tuple[int, int, int]:
    order = packed & ((1 << ENTRY_ORDER_BITS) - 1)
    mfn = (packed >> ENTRY_ORDER_BITS) & ((1 << ENTRY_MFN_BITS) - 1)
    gfn = packed >> (ENTRY_MFN_BITS + ENTRY_ORDER_BITS)
    return gfn, mfn, order


@dataclass
class DedupStats:
    """What one page stream cost, and what dedup saved."""

    pages: int = 0
    batches: int = 0
    unique_digests: int = 0
    dedup_hits: int = 0
    logical_bytes: int = 0
    encoded_bytes: int = 0

    @property
    def ratio(self) -> float:
        """Logical-to-encoded size ratio (> 1.0 means dedup/RLE won)."""
        if not self.encoded_bytes:
            return 1.0
        return self.logical_bytes / self.encoded_bytes

    def as_dict(self) -> Dict[str, object]:
        return {
            "pages": self.pages,
            "batches": self.batches,
            "unique_digests": self.unique_digests,
            "dedup_hits": self.dedup_hits,
            "logical_bytes": self.logical_bytes,
            "encoded_bytes": self.encoded_bytes,
            "ratio": round(self.ratio, 6),
        }


def _gfn_runs(gfns: List[int]) -> List[Tuple[int, int]]:
    """Coalesce an ordered GFN list into (start, length) runs."""
    runs: List[Tuple[int, int]] = []
    for gfn in gfns:
        if runs and runs[-1][0] + runs[-1][1] == gfn:
            runs[-1] = (runs[-1][0], runs[-1][1] + 1)
        else:
            runs.append((gfn, 1))
    return runs


class PageStreamEncoder:
    """Encodes (gfn, digest) batches with a stream-scoped digest table."""

    def __init__(self, meter: Optional[StreamMeter] = None):
        self._digest_refs: Dict[int, int] = {}
        self._meter = meter
        self.stats = DedupStats()

    def encode_batch(self, pages: Iterable[Tuple[int, int]]) -> bytes:
        pages = list(pages)
        runs = _gfn_runs([gfn for gfn, _ in pages])
        packer = Packer()
        packer.u32(len(pages))
        packer.u32(len(runs))
        for start, length in runs:
            packer.u64(start).u32(length)
        for _, digest in pages:
            ref = self._digest_refs.get(digest)
            if ref is None:
                self._digest_refs[digest] = len(self._digest_refs)
                packer.u8(_LITERAL).u64(digest)
            else:
                packer.u8(_REF).u32(ref)
                self.stats.dedup_hits += 1
                if self._meter is not None:
                    self._meter.count_dedup(1)
        encoded = packer.bytes()
        self.stats.pages += len(pages)
        self.stats.batches += 1
        self.stats.unique_digests = len(self._digest_refs)
        self.stats.logical_bytes += len(pages) * LOGICAL_RECORD_BYTES
        self.stats.encoded_bytes += len(encoded)
        return encoded


class PageStreamDecoder:
    """Decodes batches produced by one :class:`PageStreamEncoder`.

    The digest table accumulates across batches exactly as the encoder's
    did, so back-references resolve; a reference into an index the stream
    never defined fails loudly.
    """

    def __init__(self):
        self._digests: List[int] = []

    def decode_batch(self, payload: bytes) -> List[Tuple[int, int]]:
        unpacker = Unpacker(payload)
        count = unpacker.u32()
        run_count = unpacker.u32()
        gfns: List[int] = []
        for _ in range(run_count):
            start = unpacker.u64()
            length = unpacker.u32()
            gfns.extend(range(start, start + length))
        if len(gfns) != count:
            raise StateFormatError(
                f"page batch runs cover {len(gfns)} pages, header says {count}"
            )
        pages: List[Tuple[int, int]] = []
        for gfn in gfns:
            tag = unpacker.u8()
            if tag == _LITERAL:
                digest = unpacker.u64()
                self._digests.append(digest)
            elif tag == _REF:
                ref = unpacker.u32()
                if ref >= len(self._digests):
                    raise StateFormatError(
                        f"page batch references undefined digest #{ref} "
                        f"(stream has {len(self._digests)})"
                    )
                digest = self._digests[ref]
            else:
                raise StateFormatError(f"unknown page record tag {tag}")
            pages.append((gfn, digest))
        unpacker.expect_end()
        return pages


#: one PRAM entry run ``(gfn, mfn, order, count)``: the ``count`` entries
#: ``(gfn + i, mfn + i, order)`` for ``i`` in ``range(count)``.
EntryRun = Tuple[int, int, int, int]


def coalesce_entry_runs(runs: Iterable[EntryRun]) -> List[EntryRun]:
    """Merge adjacent runs into maximal runs.

    Two runs merge when they share an order and the second starts where
    the first ends in both gfn and mfn.  The result depends only on the
    entry sequence the runs describe, so any split of one sequence
    coalesces to the same runs — and so encodes to the same bytes.
    """
    merged: List[EntryRun] = []
    for gfn, mfn, order, count in runs:
        if count <= 0:
            raise StateFormatError(
                f"entry run at gfn {gfn} has non-positive count {count}")
        if merged:
            rg, rm, ro, rc = merged[-1]
            if ro == order and rg + rc == gfn and rm + rc == mfn:
                merged[-1] = (rg, rm, ro, rc + count)
                continue
        merged.append((gfn, mfn, order, count))
    return merged


def encode_entry_runs(runs: Iterable[EntryRun]) -> bytes:
    """Encode PRAM entry runs, as runs or as raw 8-byte records.

    Runs are written as they are when that is smaller; otherwise every
    run is expanded into its packed records here, and only here.
    """
    runs = coalesce_entry_runs(runs)
    entry_count = sum(count for _, _, _, count in runs)
    raw_size = 1 + 4 + 8 * entry_count
    runs_size = 1 + 4 + 21 * len(runs)
    packer = Packer()
    if runs_size < raw_size:
        packer.u8(_ENTRY_RUNS).u32(len(runs))
        for gfn, mfn, order, count in runs:
            packer.u64(gfn).u64(mfn).u8(order).u32(count)
    else:
        packer.u8(_ENTRY_RAW).u32(entry_count)
        for gfn, mfn, order, count in runs:
            for i in range(count):
                packer.u64(pack_entry_record(gfn + i, mfn + i, order))
    return packer.bytes()


def decode_entry_runs(blob: bytes) -> List[EntryRun]:
    """Decode PRAM page entries back to maximal runs."""
    unpacker = Unpacker(blob)
    mode = unpacker.u8()
    if mode == _ENTRY_RUNS:
        runs = [
            (unpacker.u64(), unpacker.u64(), unpacker.u8(), unpacker.u32())
            for _ in range(unpacker.u32())
        ]
    elif mode == _ENTRY_RAW:
        count = unpacker.u32()
        if count * 8 > unpacker.remaining:
            raise StateFormatError(
                f"truncated entry records: {count} entries need "
                f"{count * 8} bytes, have {unpacker.remaining}"
            )
        runs = [
            unpack_entry_record(unpacker.u64()) + (1,) for _ in range(count)
        ]
    else:
        raise StateFormatError(f"unknown entry-record encoding {mode}")
    unpacker.expect_end()
    return coalesce_entry_runs(runs)
