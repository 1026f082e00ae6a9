"""Registered memory regions.

A :class:`MemoryRegion` is a real buffer registered with a NIC. All
one-sided RDMA traffic lands in (or is read from) these buffers, so the DFI
ring-buffer protocol above executes against actual memory — targets poll
footer bytes exactly as the paper describes, nothing is mocked.

The region hands out *keys*: the local key is implicit (holding the object),
the remote key (``rkey``) is an integer capability that remote queue pairs
use to address the region.
"""

from __future__ import annotations

import mmap
import struct
from typing import TYPE_CHECKING

from repro.common.errors import MemoryRegionError

if TYPE_CHECKING:
    from repro.rdma.nic import RNic

_U64 = struct.Struct("<Q")

#: Smallest mapped buffer. Below it ``bytearray(size)`` on a warm heap is
#: cheaper even for a buffer that ends up a quarter written; from here up
#: it is dearer unless every page is written (measured by
#: benchmarks/perf/alloc_threshold.py, table in docs/performance.md).
MAP_MIN = 32 * 1024


def zeroed(size: int) -> "mmap.mmap | bytearray":
    """A zero-filled, fixed-size, writable buffer: from :data:`MAP_MIN` up
    a *private* (forked workers must not see each other's writes)
    anonymous mapping, whose pages the OS commits when they are first
    written and takes back when the last view dies. Indexing, equal-length
    slice assignment, ``struct`` and ``memoryview`` work alike on both
    kinds, so no caller asks which it holds."""
    if size >= MAP_MIN:
        try:
            return mmap.mmap(-1, size,
                             flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
        except OSError:
            pass  # e.g. vm.max_map_count reached
    return bytearray(size)


class MemoryRegion:
    """A contiguous, NIC-registered memory buffer."""

    __slots__ = ("nic", "rkey", "size", "mem", "_view", "_write_hooks")

    def __init__(self, nic: "RNic", rkey: int, size: int) -> None:
        if size <= 0:
            raise MemoryRegionError(f"region size must be positive: {size}")
        self.nic = nic
        self.rkey = rkey
        self.size = size
        self.mem = zeroed(size)
        # A live export also stops a ``bytearray`` from ever resizing.
        self._view = memoryview(self.mem)
        self._write_hooks: list = []

    # -- write notification ---------------------------------------------
    # Polling a footer flag in real DFI is a sub-100ns memory load in a hot
    # loop. Simulating each load as an event would swamp the kernel, so
    # consumers instead register a hook that fires on every commit into the
    # region and charge an explicit poll-detection cost on wakeup.
    def add_write_hook(self, hook) -> None:
        """Register ``hook(offset, length)`` to run on every commit."""
        self._write_hooks.append(hook)

    def remove_write_hook(self, hook) -> None:
        """Unregister a previously added write hook."""
        self._write_hooks.remove(hook)

    # -- bounds-checked access --------------------------------------------
    def check_range(self, offset: int, length: int) -> None:
        """Raise unless ``[offset, offset+length)`` lies inside the region."""
        if offset < 0 or length < 0 or offset + length > self.size:
            raise MemoryRegionError(
                f"access [{offset}, {offset + length}) outside region of "
                f"size {self.size} (rkey={self.rkey})")

    def write(self, offset: int, data: bytes | bytearray | memoryview) -> None:
        """Commit ``data`` into the region at ``offset``."""
        length = len(data)
        self.check_range(offset, length)
        self.mem[offset:offset + length] = data
        hooks = self._write_hooks
        if hooks:
            if len(hooks) == 1:
                hooks[0](offset, length)
            else:
                # Copy: a hook may unregister itself while firing.
                for hook in tuple(hooks):
                    hook(offset, length)

    def read(self, offset: int, length: int) -> bytes:
        """Snapshot ``length`` bytes starting at ``offset``."""
        self.check_range(offset, length)
        return bytes(self.mem[offset:offset + length])

    def view(self, offset: int, length: int) -> memoryview:
        """Zero-copy view of a slice (the DFI target consume path uses this
        so applications process tuples without a memory copy)."""
        self.check_range(offset, length)
        return self._view[offset:offset + length]

    # -- 64-bit word helpers (atomics and counters) --------------------------
    def read_u64(self, offset: int) -> int:
        self.check_range(offset, 8)
        return _U64.unpack_from(self.mem, offset)[0]

    def write_u64(self, offset: int, value: int) -> None:
        self.check_range(offset, 8)
        _U64.pack_into(self.mem, offset, value & (2 ** 64 - 1))

    def fetch_add_u64(self, offset: int, addend: int) -> int:
        """Atomically add ``addend`` to the u64 at ``offset``; return the
        previous value. (Atomicity is by construction: the simulator applies
        it in a single event.)"""
        old = self.read_u64(offset)
        self.write_u64(offset, old + addend)
        return old

    def compare_swap_u64(self, offset: int, expected: int, swap: int) -> int:
        """Atomic compare-and-swap on the u64 at ``offset``; returns the
        previous value (the swap happened iff it equals ``expected``)."""
        old = self.read_u64(offset)
        if old == expected:
            self.write_u64(offset, swap)
        return old

    def __repr__(self) -> str:
        return f"<MemoryRegion rkey={self.rkey} size={self.size}>"
