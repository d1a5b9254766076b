"""Xen HVM-context save-record format.

Xen serializes a domain's platform state as one blob of typed records, each
with a (typecode, instance, length) header — the format handled by
``xc_domain_hvm_getcontext`` / ``setcontext``.  We model that structure
directly: per-vCPU CPU records, per-vCPU LAPIC + LAPIC_REGS records, shared
MTRR/XSAVE/IOAPIC/PIT records, with a HEADER record first and an END record
last.  The IOAPIC record carries Xen's 48 pins.

The byte layout here is this library's own (we are not copying Xen's exact
struct packing), but the *shape* — typed records, one blob, 48-pin IOAPIC,
MTRR as its own record rather than MSRs — reproduces the heterogeneity the
UISR converters must bridge (Table 2).
"""

from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import StateFormatError
from repro.guest.devices import (
    IOAPICPin,
    IOAPICState,
    LAPICState,
    MTRRState,
    PITState,
    PlatformState,
    XSAVEState,
)
from repro.guest.vcpu import SegmentDescriptor, VCPUState
from repro.io.frames import Packer, Unpacker

# Record typecodes (HVM_SAVE_CODE analogues).
REC_HEADER = 1
REC_CPU = 2
REC_LAPIC = 3
REC_LAPIC_REGS = 4
REC_MTRR = 5
REC_XSAVE = 6
REC_IOAPIC = 7
REC_PIT = 8
REC_END = 0

XEN_MAGIC = 0x58454E48  # "XENH"
XEN_VERSION = 2


@dataclass(frozen=True)
class Record:
    """One typed save record."""

    typecode: int
    instance: int
    payload: bytes


def _pack_records(records: List[Record]) -> bytes:
    packer = Packer()
    for record in records:
        packer.u16(record.typecode).u16(record.instance)
        packer.u32(len(record.payload)).raw(record.payload)
    return packer.bytes()


def _unpack_records(blob: bytes) -> List[Record]:
    unpacker = Unpacker(blob)
    records: List[Record] = []
    while unpacker.remaining:
        typecode = unpacker.u16()
        instance = unpacker.u16()
        length = unpacker.u32()
        payload = unpacker.raw(length)
        records.append(Record(typecode, instance, payload))
        if typecode == REC_END:
            break
    unpacker.expect_end()
    if not records or records[-1].typecode != REC_END:
        raise StateFormatError("Xen HVM context missing END record")
    return records


# -- per-record encoders -----------------------------------------------------

def _encode_header(vcpus: int) -> bytes:
    return Packer().u32(XEN_MAGIC).u32(XEN_VERSION).u32(vcpus).bytes()


def _decode_header(payload: bytes) -> int:
    unpacker = Unpacker(payload)
    magic = unpacker.u32()
    version = unpacker.u32()
    vcpus = unpacker.u32()
    unpacker.expect_end()
    if magic != XEN_MAGIC:
        raise StateFormatError(f"bad Xen HVM magic {magic:#x}")
    if version != XEN_VERSION:
        raise StateFormatError(f"unsupported Xen HVM version {version}")
    return vcpus


def _encode_cpu(vcpu: VCPUState) -> bytes:
    packer = Packer()
    packer.u32(vcpu.index)
    packer.u32(len(vcpu.gp))
    for name in sorted(vcpu.gp):
        packer.u8(len(name)).raw(name.encode()).u64(vcpu.gp[name])
    packer.u32(len(vcpu.segments))
    for name in sorted(vcpu.segments):
        seg = vcpu.segments[name]
        packer.u8(len(name)).raw(name.encode())
        packer.u16(seg.selector).u64(seg.base).u32(seg.limit).u16(seg.attributes)
    packer.u32(len(vcpu.control))
    for name in sorted(vcpu.control):
        packer.u8(len(name)).raw(name.encode()).u64(vcpu.control[name])
    packer.u32(len(vcpu.msrs))
    for msr in sorted(vcpu.msrs):
        packer.u32(msr).u64(vcpu.msrs[msr])
    packer.u64_seq(vcpu.fpu)
    packer.u64(vcpu.xcr0)
    return packer.bytes()


def _decode_cpu(payload: bytes) -> VCPUState:
    unpacker = Unpacker(payload)
    index = unpacker.u32()
    gp = {}
    for _ in range(unpacker.u32()):
        name = unpacker.raw(unpacker.u8()).decode()
        gp[name] = unpacker.u64()
    segments = {}
    for _ in range(unpacker.u32()):
        name = unpacker.raw(unpacker.u8()).decode()
        segments[name] = SegmentDescriptor(
            selector=unpacker.u16(),
            base=unpacker.u64(),
            limit=unpacker.u32(),
            attributes=unpacker.u16(),
        )
    control = {}
    for _ in range(unpacker.u32()):
        name = unpacker.raw(unpacker.u8()).decode()
        control[name] = unpacker.u64()
    msrs = {}
    for _ in range(unpacker.u32()):
        msr = unpacker.u32()
        msrs[msr] = unpacker.u64()
    fpu = unpacker.u64_seq()
    xcr0 = unpacker.u64()
    unpacker.expect_end()
    return VCPUState(
        index=index, gp=gp, segments=segments, control=control,
        msrs=msrs, fpu=fpu, xcr0=xcr0,
    )


def _encode_lapic(lapic: LAPICState) -> bytes:
    return Packer().u32(lapic.apic_id).u64(lapic.apic_base_msr).bytes()


# Xen splits the LAPIC across two HVM records (REC_LAPIC holds the id and
# base MSR, REC_LAPIC_REGS the register page); _decode_lapic consumes both
# payloads at once, so neither half matches a decoder one-for-one.
def _encode_lapic_regs(lapic: LAPICState) -> bytes:  # repro-lint: disable=codec-symmetry
    packer = Packer()
    packer.u32(lapic.task_priority).u32(lapic.spurious_vector)
    packer.u32(lapic.lvt_timer).u32(lapic.lvt_lint0).u32(lapic.lvt_lint1)
    packer.u32(lapic.timer_initial_count).u32(lapic.timer_divide)
    packer.u64_seq(lapic.isr)
    packer.u64_seq(lapic.irr)
    return packer.bytes()


def _decode_lapic(payload: bytes, regs_payload: bytes) -> LAPICState:  # repro-lint: disable=codec-symmetry
    head = Unpacker(payload)
    apic_id = head.u32()
    apic_base = head.u64()
    head.expect_end()
    regs = Unpacker(regs_payload)
    lapic = LAPICState(
        apic_id=apic_id,
        apic_base_msr=apic_base,
        task_priority=regs.u32(),
        spurious_vector=regs.u32(),
        lvt_timer=regs.u32(),
        lvt_lint0=regs.u32(),
        lvt_lint1=regs.u32(),
        timer_initial_count=regs.u32(),
        timer_divide=regs.u32(),
        isr=regs.u64_seq(),
        irr=regs.u64_seq(),
    )
    regs.expect_end()
    return lapic


def _encode_mtrr(mtrr: MTRRState) -> bytes:
    packer = Packer()
    packer.u32(mtrr.default_type)
    packer.u64_seq(mtrr.fixed)
    packer.u32(len(mtrr.variable))
    for base, mask in mtrr.variable:
        packer.u64(base).u64(mask)
    return packer.bytes()


def _decode_mtrr(payload: bytes) -> MTRRState:
    unpacker = Unpacker(payload)
    default_type = unpacker.u32()
    fixed = unpacker.u64_seq()
    variable = tuple(
        (unpacker.u64(), unpacker.u64()) for _ in range(unpacker.u32())
    )
    unpacker.expect_end()
    return MTRRState(default_type=default_type, fixed=fixed, variable=variable)


def _encode_xsave(xsave: XSAVEState) -> bytes:
    packer = Packer()
    packer.u64(xsave.xstate_bv).u64(xsave.xcomp_bv)
    packer.u64_seq(xsave.blocks)
    return packer.bytes()


def _decode_xsave(payload: bytes) -> XSAVEState:
    unpacker = Unpacker(payload)
    xsave = XSAVEState(
        xstate_bv=unpacker.u64(),
        xcomp_bv=unpacker.u64(),
        blocks=unpacker.u64_seq(),
    )
    unpacker.expect_end()
    return xsave


def _encode_ioapic(ioapic: IOAPICState) -> bytes:
    packer = Packer()
    packer.u32(ioapic.ioapic_id)
    packer.u32(len(ioapic.pins))
    for pin in ioapic.pins:
        packer.u8(pin.vector)
        packer.u8(1 if pin.masked else 0)
        packer.u8(1 if pin.trigger_level else 0)
        packer.u8(pin.dest_apic)
    return packer.bytes()


def _decode_ioapic(payload: bytes) -> IOAPICState:
    unpacker = Unpacker(payload)
    ioapic_id = unpacker.u32()
    count = unpacker.u32()
    pins = [
        IOAPICPin(
            vector=unpacker.u8(),
            masked=bool(unpacker.u8()),
            trigger_level=bool(unpacker.u8()),
            dest_apic=unpacker.u8(),
        )
        for _ in range(count)
    ]
    unpacker.expect_end()
    return IOAPICState(pins=pins, ioapic_id=ioapic_id)


def _encode_pit(pit: PITState) -> bytes:
    packer = Packer()
    for count in pit.channel_counts:
        packer.u32(count)
    for mode in pit.channel_modes:
        packer.u8(mode)
    packer.u8(1 if pit.speaker_enabled else 0)
    return packer.bytes()


def _decode_pit(payload: bytes) -> PITState:
    unpacker = Unpacker(payload)
    counts = tuple(unpacker.u32() for _ in range(3))
    modes = tuple(unpacker.u8() for _ in range(3))
    speaker = bool(unpacker.u8())
    unpacker.expect_end()
    return PITState(channel_counts=counts, channel_modes=modes,
                    speaker_enabled=speaker)


# -- whole-context API ---------------------------------------------------------

def encode_hvm_context(vcpus: List[VCPUState], platform: PlatformState) -> bytes:
    """Serialize full platform state as a Xen HVM-context blob."""
    if len(platform.lapics) != len(vcpus) or len(platform.xsave) != len(vcpus):
        raise StateFormatError("platform per-vCPU state count mismatch")
    records = [Record(REC_HEADER, 0, _encode_header(len(vcpus)))]
    for vcpu in vcpus:
        records.append(Record(REC_CPU, vcpu.index, _encode_cpu(vcpu)))
    for i, lapic in enumerate(platform.lapics):
        records.append(Record(REC_LAPIC, i, _encode_lapic(lapic)))
        records.append(Record(REC_LAPIC_REGS, i, _encode_lapic_regs(lapic)))
    records.append(Record(REC_MTRR, 0, _encode_mtrr(platform.mtrr)))
    for i, xsave in enumerate(platform.xsave):
        records.append(Record(REC_XSAVE, i, _encode_xsave(xsave)))
    records.append(Record(REC_IOAPIC, 0, _encode_ioapic(platform.ioapic)))
    records.append(Record(REC_PIT, 0, _encode_pit(platform.pit)))
    records.append(Record(REC_END, 0, b""))
    return _pack_records(records)


def decode_hvm_context(blob: bytes) -> Tuple[List[VCPUState], PlatformState]:
    """Parse a Xen HVM-context blob back into vCPU + platform state."""
    records = _unpack_records(blob)
    if records[0].typecode != REC_HEADER:
        raise StateFormatError("Xen HVM context must start with HEADER")
    vcpu_count = _decode_header(records[0].payload)

    by_type = {}
    for record in records[1:-1]:
        by_type.setdefault(record.typecode, {})[record.instance] = record.payload

    cpus = by_type.get(REC_CPU, {})
    lapics = by_type.get(REC_LAPIC, {})
    lapic_regs = by_type.get(REC_LAPIC_REGS, {})
    xsaves = by_type.get(REC_XSAVE, {})
    if (len(cpus) != vcpu_count or len(lapics) != vcpu_count
            or len(lapic_regs) != vcpu_count or len(xsaves) != vcpu_count):
        raise StateFormatError(
            f"per-vCPU record counts disagree with header ({vcpu_count} vCPUs)"
        )

    vcpus = [_decode_cpu(cpus[i]) for i in range(vcpu_count)]
    platform = PlatformState(
        lapics=[_decode_lapic(lapics[i], lapic_regs[i]) for i in range(vcpu_count)],
        ioapic=_decode_ioapic(by_type[REC_IOAPIC][0]),
        pit=_decode_pit(by_type[REC_PIT][0]),
        mtrr=_decode_mtrr(by_type[REC_MTRR][0]),
        xsave=[_decode_xsave(xsaves[i]) for i in range(vcpu_count)],
    )
    # Re-attach per-vCPU data that Xen stores apart from the CPU record.
    for vcpu, lapic in zip(vcpus, platform.lapics):
        vcpu.apic_id = lapic.apic_id
    return vcpus, platform
