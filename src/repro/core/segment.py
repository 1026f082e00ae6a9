"""Segment rings: the memory layout of DFI buffers (paper Figure 5).

A ring is one consecutive registered memory region split into fixed-size
*segments*. Each segment carries a small footer placed **after** its
payload::

    | payload (segment_size bytes) | used u32 | flags u32 | seq u64 |

Because the RNIC commits DMA bytes in increasing address order, a footer
whose flags read ``CONSUMABLE`` proves the entire payload before it has
landed — DFI's checksum-free synchronization trick (Section 5.2).
"""

from __future__ import annotations

import struct
from typing import NamedTuple

from repro.common.errors import FlowError
from repro.rdma.memory import MemoryRegion

#: Footer wire format: used bytes (u32), flags (u32), sequence number (u64).
FOOTER_STRUCT = struct.Struct("<IIQ")
FOOTER_SIZE = FOOTER_STRUCT.size  # 16 bytes

#: Footer flag: the segment holds data ready for the target to consume.
FLAG_CONSUMABLE = 0x1
#: Footer flag: the source closed the flow; no data follows this segment.
FLAG_CLOSED = 0x2
#: Footer flag: the source aborted the flow (fault-tolerance extension,
#: paper Section 7 future work); targets surface FlowAbortedError.
FLAG_ABORTED = 0x4

#: Replicate flows stamp the sending source's index into the upper half of
#: the flags word (targets need it for per-source credit/NACK back-flow).
_SOURCE_SHIFT = 16
_FLAG_MASK = (1 << _SOURCE_SHIFT) - 1

#: The released-segment footer (used=0, flags=0, seq=0): what a target
#: writes back over a consumed segment's footer to mark it writable.
BLANK_FOOTER = bytes(FOOTER_SIZE)


def footer_consumable(data) -> bool:
    """Fast CONSUMABLE test on 16 raw footer bytes — no decode.

    The flags word is a little-endian u32 at byte 4 and every protocol
    flag lives in its low byte, so one indexed load answers the only
    question the writability/poll hot paths ask. Full decodes go through
    :func:`unpack_footer`.
    """
    return bool(data[4] & FLAG_CONSUMABLE)


class Footer(NamedTuple):
    """Decoded segment footer.

    A ``NamedTuple`` rather than a dataclass: one is decoded per footer
    poll on the consume path and per pre-read on the flush path, and
    tuple construction runs in C (a frozen dataclass pays three
    ``object.__setattr__`` calls per instance)."""

    used: int
    flags: int
    seq: int

    @property
    def consumable(self) -> bool:
        return bool(self.flags & FLAG_CONSUMABLE)

    @property
    def closed(self) -> bool:
        return bool(self.flags & FLAG_CLOSED)

    @property
    def aborted(self) -> bool:
        return bool(self.flags & FLAG_ABORTED)

    @property
    def source_index(self) -> int:
        """Index of the sending source (replicate flows only)."""
        return self.flags >> _SOURCE_SHIFT


#: Memoized footers for seq-0 encodings. The hot repeats are the segment
#: release in ``TargetChannel.poll`` (``pack_footer(0, 0, 0)`` once per
#: consumed segment) and close/abort markers; footers with a live sequence
#: number are packed via :func:`pack_footer_into` straight into the staging
#: buffer instead.
_FOOTER_CACHE: dict[tuple[int, int, int], bytes] = {}
_FOOTER_CACHE_CAP = 1024


def pack_footer(used: int, flags: int, seq: int = 0,
                source_index: int = 0) -> bytes:
    """Encode a footer to its 16-byte wire form."""
    if seq == 0:
        key = (used, flags, source_index)
        footer = _FOOTER_CACHE.get(key)
        if footer is None:
            footer = FOOTER_STRUCT.pack(used,
                                        (flags & _FLAG_MASK)
                                        | (source_index << _SOURCE_SHIFT),
                                        0)
            if len(_FOOTER_CACHE) < _FOOTER_CACHE_CAP:
                _FOOTER_CACHE[key] = footer
        return footer
    return FOOTER_STRUCT.pack(used,
                              (flags & _FLAG_MASK)
                              | (source_index << _SOURCE_SHIFT),
                              seq)


def pack_footer_into(buffer: bytearray, offset: int, used: int, flags: int,
                     seq: int = 0, source_index: int = 0) -> None:
    """Encode a footer directly into ``buffer`` at ``offset`` — no 16-byte
    intermediate object (the full-segment flush hot path)."""
    FOOTER_STRUCT.pack_into(buffer, offset, used,
                            (flags & _FLAG_MASK)
                            | (source_index << _SOURCE_SHIFT),
                            seq)


def unpack_footer(data: "bytes | bytearray | memoryview") -> Footer:
    """Decode a footer from 16 bytes."""
    return Footer._make(FOOTER_STRUCT.unpack(data))


class SegmentRing:
    """A segment ring laid out inside one registered memory region.

    Used for both source-side send rings and target-side receive rings;
    only the access pattern differs (see ``shuffle.py``).
    """

    def __init__(self, region: MemoryRegion, segment_count: int,
                 segment_size: int) -> None:
        if segment_count < 2:
            raise FlowError("a ring needs at least 2 segments to pipeline")
        if segment_size <= 0:
            raise FlowError("segment size must be positive")
        self.region = region
        self.segment_count = segment_count
        self.segment_size = segment_size
        self.slot_size = segment_size + FOOTER_SIZE
        required = segment_count * self.slot_size
        if region.size < required:
            raise FlowError(
                f"region of {region.size} B too small for "
                f"{segment_count} x {self.slot_size} B segments")

    @classmethod
    def allocate(cls, nic, segment_count: int, segment_size: int) -> "SegmentRing":
        """Register a fresh memory region sized for the ring on ``nic``."""
        size = segment_count * (segment_size + FOOTER_SIZE)
        return cls(nic.register_memory(size), segment_count, segment_size)

    # -- layout ----------------------------------------------------------
    def payload_offset(self, index: int) -> int:
        """Byte offset of segment ``index``'s payload within the region."""
        return self._check(index) * self.slot_size

    def footer_offset(self, index: int) -> int:
        """Byte offset of segment ``index``'s footer within the region."""
        return self._check(index) * self.slot_size + self.segment_size

    def _check(self, index: int) -> int:
        if not 0 <= index < self.segment_count:
            raise FlowError(
                f"segment index {index} out of range "
                f"[0, {self.segment_count})")
        return index

    @property
    def total_bytes(self) -> int:
        """Memory footprint of the ring (the §6.1.4 accounting unit)."""
        return self.segment_count * self.slot_size

    # -- footer access (local memory) ------------------------------------
    def read_footer(self, index: int) -> Footer:
        return unpack_footer(
            self.region.view(self.footer_offset(index), FOOTER_SIZE))

    def write_footer(self, index: int, used: int, flags: int,
                     seq: int = 0) -> None:
        self.region.write(self.footer_offset(index),
                          pack_footer(used, flags, seq))

    def payload_view(self, index: int, length: int):
        """Zero-copy view of the first ``length`` payload bytes of a
        segment."""
        if length > self.segment_size:
            raise FlowError(
                f"payload length {length} exceeds segment size "
                f"{self.segment_size}")
        return self.region.view(self.payload_offset(index), length)

    def next_index(self, index: int) -> int:
        """Ring successor of ``index``."""
        return (index + 1) % self.segment_count

    def __repr__(self) -> str:
        return (f"<SegmentRing {self.segment_count} x {self.segment_size} B "
                f"(+{FOOTER_SIZE} B footer)>")
