"""Registered memory regions.

A :class:`MemoryRegion` is a real buffer registered with a NIC. All
one-sided RDMA traffic lands in (or is read from) these buffers, so the DFI
ring-buffer protocol above executes against actual memory — targets poll
footer bytes exactly as the paper describes, nothing is mocked.

The region hands out *keys*: the local key is implicit (holding the object),
the remote key (``rkey``) is an integer capability that remote queue pairs
use to address the region.

A region may hold one :class:`Doorbell`, which its commits ring.
"""

from __future__ import annotations

import mmap
import struct
from typing import TYPE_CHECKING

from repro.common.errors import MemoryRegionError
from repro.simnet.kernel import Event

if TYPE_CHECKING:
    from repro.rdma.nic import RNic
    from repro.simnet.node import Node

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

    __slots__ = ("nic", "rkey", "size", "mem", "_view", "_doorbell",
                 "_doorbell_index")

    def __init__(self, nic: "RNic", rkey: int, size: int) -> None:
        if size <= 0:
            raise MemoryRegionError(f"region size must be positive: {size}")
        self.nic = nic
        self.rkey = rkey
        self.size = size
        self.mem = zeroed(size)
        # A live export also stops a ``bytearray`` from ever resizing.
        self._view = memoryview(self.mem)
        #: The :class:`Doorbell` every commit rings, and this region's
        #: index in it (``None`` until one attaches).
        self._doorbell: "Doorbell | None" = None
        self._doorbell_index = 0

    # -- bounds-checked access --------------------------------------------
    def check_range(self, offset: int, length: int) -> None:
        """Raise unless ``[offset, offset+length)`` lies inside the region."""
        if offset < 0 or length < 0 or offset + length > self.size:
            raise MemoryRegionError(
                f"access [{offset}, {offset + length}) outside region of "
                f"size {self.size} (rkey={self.rkey})")

    def commit(self, record) -> None:
        """Commit ``chunk`` into the region and ring its doorbell.
        ``record`` is ``(offset, chunk, length)``, ``length`` being
        ``len(chunk)``: the NIC queues ``(when, region.commit, record)``
        as the train action of each piece of a write, so a commit is one
        frame. The doorbell's bookkeeping is inlined (see
        :class:`Doorbell`)."""
        offset, chunk, length = record
        end = offset + length
        # Inline: the commit path pays no call for an in-range write.
        if offset < 0 or end > self.size:
            self.check_range(offset, length)
        self.mem[offset:end] = chunk
        bell = self._doorbell
        if bell is not None:
            bell.dirty[self._doorbell_index] = None
            event = bell._event
            if event is not None:
                bell._event = None
                held = bell._held
                if held is not None and held._ahead is not None:
                    # The waiter's links are pending: it would have found
                    # this write before waiting, so it resumes at its
                    # local instant, and no wake is queued.
                    held._ring_ahead()
                else:
                    # ``succeed()`` after ``_delay`` (mirrors Timeout
                    # construction).
                    event._value = None
                    bell._env._schedule(event, bell._delay)

    def write(self, offset: int, data: bytes | bytearray | memoryview) -> None:
        """Commit ``data`` into the region at ``offset`` (:meth:`commit`
        for a caller that holds no record)."""
        self.commit((offset, data, len(data)))

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


class Doorbell:
    """Wakes the one thread that waits on commits into its regions.

    Real DFI busy-polls footer flags (a sub-100ns cache load). Simulating
    every load would swamp the event kernel, so a region holds at most
    one doorbell for its whole life, attached once, and the waiter arms
    an event per wait. A commit into region ``i`` marks ``i`` in
    :attr:`dirty` and fires the armed event (:meth:`MemoryRegion.commit`
    does both inline). A wait only a commit can end is armed with
    ``poll=True``: the event is the waiting process's own wake entry
    (``Process._wake``; yield it at once), and it resumes at
    ``commit + cpu_poll_cost`` — the float ``node.compute`` would charge
    behind a zero-delay wake (``_cpu_scale`` is construction-constant),
    in one event instead of two. A wait raced against a deadline keeps a
    fresh zero-delay event, whose outcome feeds the deadline decision,
    and must :meth:`disarm` when the deadline won.
    """

    __slots__ = ("_env", "_event", "_delay", "_poll_delay", "dirty",
                 "_held")

    def __init__(self, node: "Node", regions) -> None:
        if any(region._doorbell is not None for region in regions):
            raise MemoryRegionError("a region holds at most one doorbell")
        self._env = node.env
        self._event = None
        self._delay = 0.0
        #: The process that armed a polled wait while it ran ahead of the
        #: clock (``Environment.run_ahead``), else ``None``.
        self._held = None
        self._poll_delay = (node.cluster.profile.cpu_poll_cost
                            / node._cpu_scale)
        #: Indices of the regions committed into since their reader last
        #: took them out, in commit order (an insertion-ordered dict).
        #: Every region starts dirty, and the doorbell attaches before
        #: any simulated write can land, so no commit is ever missed.
        #: Keys are region indices: the set never outgrows the regions.
        self.dirty = dict.fromkeys(range(len(regions)))
        for index, region in enumerate(regions):
            region._doorbell = self
            region._doorbell_index = index

    def arm(self, poll: bool = False):
        """The event the next commit into a region fires. Call only
        when about to wait: polls are synchronous, so no commit lands
        between a poll that found nothing and the arm that follows it."""
        if poll:
            # The waiting process's own entry, free while it runs; the
            # kernel re-arms it when the process yields it.
            env = self._env
            event = self._event = env._active_process._wake
            self._held = env._ahead
            self._delay = self._poll_delay
        else:
            event = self._event = Event(self._env)
            self._held = None
            self._delay = 0.0
        return event

    def disarm(self) -> None:
        self._event = None
