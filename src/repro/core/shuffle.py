"""Shuffle flows: DFI's central abstraction (paper Sections 5.1-5.3).

Each (source thread, target thread) pair owns a private channel consisting
of a source-side send ring and a target-side receive ring. Data moves with
one-sided RDMA writes; synchronization is footer-based (bandwidth mode) or
credit-based (latency mode), exactly as in the paper:

*Bandwidth mode* — tuples are batched into 8 KiB segments. Before writing
remote segment *n* the source must know it is writable; it learns this from
a pipelined RDMA read of segment *n+1*'s footer issued together with the
previous write, so the check is off the critical path. If the ring is full
the source polls the footer with a small random backoff. Writes are
signaled only on send-ring wrap-around (selective signaling).

*Latency mode* — segments hold exactly one tuple and are written
immediately. A credit counter on the target (incremented per consume)
bounds in-flight segments; the source refreshes its cached copy with an
asynchronous RDMA read when the local estimate drops below a threshold, so
the common-case push issues exactly one write and nothing else.
"""

from __future__ import annotations

from collections import deque
from operator import index as _as_index
from struct import Struct as _Struct, error as _struct_error
from typing import TYPE_CHECKING

from repro.common.errors import (
    FlowAbortedError,
    FlowClosedError,
    FlowError,
    FlowPeerFailedError,
    FlowTimeoutError,
    QpFlushedError,
)
from repro.core.flowdef import (
    FLOW_END,
    NO_FLUSH,
    FlowDescriptor,
    FlowType,
    Optimization,
)
from repro.core.registry import FlowRegistry, RingHandle
from repro.core.routing import key_hash_router
from repro.core.segment import (
    BLANK_FOOTER,
    FLAG_ABORTED,
    FLAG_CLOSED,
    FLAG_CONSUMABLE,
    FOOTER_SIZE,
    FOOTER_STRUCT,
    SegmentRing,
    pack_footer,
    pack_footer_into,
)
from repro.obs import FAULT_DETECT, REROUTE, endpoint_obs, log_close
from repro.common.planelog import CONSUME, EVENT, WRITE
from repro.core.writers import CreditWindow, FooterWindow
from repro.rdma.completion import Opcode, WorkRequest
from repro.rdma.memory import zeroed
from repro.rdma.nic import get_nic
from repro.simnet.congestion import stall_is_congestion
from repro.simnet.kernel import Event

#: C-speed footer "used bytes" parse for the drain hot loop
#: (little-endian u32 at the footer head; see repro.core.segment).
_FOOTER_USED = _Struct("<I").unpack_from

#: The credit counter's encoder (``MemoryRegion.write_u64`` less its range
#: check, which ``TargetChannel`` makes once at construction).
_U64_PACK_INTO = _Struct("<Q").pack_into

#: Prebound footer encoder for the staging hot paths; the flag word of a
#: footer (source_index 0) is computed through :func:`pack_footer_into`
#: itself so any change to the footer's flag packing stays authoritative.
_FOOTER_PACK_INTO = FOOTER_STRUCT.pack_into


def _flag_word(flags: int) -> int:
    scratch = bytearray(FOOTER_SIZE)
    pack_footer_into(scratch, 0, 0, flags, 0)
    return FOOTER_STRUCT.unpack_from(scratch)[1]


_CONSUMABLE_WORD = _flag_word(FLAG_CONSUMABLE)


def _copy_into(buffer, offset: int, data) -> None:
    """``Schema.pack_into`` for bytes that are packed already."""
    buffer[offset:offset + len(data)] = data

if TYPE_CHECKING:
    from repro.simnet.node import Node


def _route_slot(slot, count: int) -> int:
    """The target slot a routing function answered, when it is not a
    plain ``int`` in ``[0, count)`` (callers test that inline): any other
    integer type in range is taken as the index it stands for, everything
    else — a negative, ``count`` or more, a float — is the routing
    function's error, not an index into the live targets."""
    try:
        index = _as_index(slot)
    except TypeError:
        index = -1
    if not 0 <= index < count:
        raise FlowError(
            f"routing function returned {slot!r}: target must be an "
            f"integer in [0, {count})")
    return index


def segment_payload_size(descriptor: FlowDescriptor) -> int:
    """Per-segment payload bytes for a flow: the configured segment size in
    bandwidth mode, exactly one tuple in latency mode."""
    if descriptor.optimization is Optimization.LATENCY:
        return descriptor.latency_segment_size()
    size = descriptor.options.segment_size
    if size < descriptor.schema.tuple_size:
        raise FlowError(
            f"segment size {size} smaller than one tuple "
            f"({descriptor.schema.tuple_size} B)")
    return size


def _resolve_remote_region(channel):
    """One-time lookup + whole-ring range check of a source channel's
    remote ring (``post_write`` re-checks per WQE; ring channels only
    ever target ring slots, so one bound proof covers every offset and
    the rkey registration lives as long as the flow)."""
    region = channel.qp._get_remote_nic().region(channel.remote.rkey)
    region.check_range(0, channel.remote.segment_count * channel._remote_slot)
    channel._remote_region = region
    return region


class _Doorbell:
    """Wakes the one thread that waits on writes into one region.

    Real DFI busy-polls footer flags (a sub-100ns cache load). Simulating
    every load would swamp the event kernel, so the region keeps one write
    hook for its whole life and the waiter arms an event per wait. A wait
    only a write can end is armed with ``poll=True`` and resumes at
    ``commit + cpu_poll_cost`` — the float ``node.compute`` would charge
    behind a zero-delay wake (``_cpu_scale`` is construction-constant), in
    one event instead of two. A wait raced against a deadline keeps the
    zero-delay wake, whose outcome feeds the deadline decision, and must
    :meth:`disarm` when the deadline won. ``ShuffleTarget`` does the same
    across many rings (``_make_doorbell``).
    """

    __slots__ = ("_env", "_event", "_delay", "_poll_delay")

    def __init__(self, node: "Node", region) -> None:
        self._env = node.env
        self._event = None
        self._delay = 0.0
        self._poll_delay = (node.cluster.profile.cpu_poll_cost
                            / node._cpu_scale)
        region.add_write_hook(self._ring)

    def _ring(self, _offset, _length) -> None:
        event = self._event
        if event is not None:
            self._event = None
            # ``succeed()`` after ``_delay`` (mirrors Timeout construction).
            event._value = None
            self._env._schedule(event, self._delay)

    def arm(self, poll: bool = False):
        """A fresh event for the next write into the region. Call only
        when about to wait: polls are synchronous, so no write lands
        between a poll that found nothing and the arm that follows it."""
        event = self._event = self._env.event()
        self._delay = self._poll_delay if poll else 0.0
        return event

    def disarm(self) -> None:
        self._event = None


def _source_counters(source):
    """Read-time counter harvest (see MetricsRegistry.add_collector)."""
    return (("core.tuples_pushed", source.tuples_sent),
            ("core.segments_flushed", source.segments_sent))


class BandwidthSourceChannel:
    """Source half of one bandwidth-optimized channel."""

    def __init__(self, node: "Node", descriptor: FlowDescriptor,
                 handle: RingHandle, channel_tag: tuple) -> None:
        self.node = node
        self.env = node.env
        self.profile = node.cluster.profile
        self.schema = descriptor.schema
        self.segment_payload = segment_payload_size(descriptor)
        self.qp = get_nic(node).create_qp(node.cluster.node(handle.node_id))
        # The C++ implementation keeps a full send ring so segment memory
        # stays untouched until the NIC finished its DMA. Writes are posted
        # zero-copy (``assume_stable=True``), so staging slots must stay
        # untouched until the simulated write commits. A 2N-slot staging
        # ring (N = source_segments) guarantees that: the wrap-around wait
        # before flush f with f % N == 0 implies every write up to f-1 has
        # committed, and a slot is only repacked 2N flushes after it was
        # posted — at which point the latest wrap wait already covered it.
        # Memory accounting still reports the N-segment ring the *protocol*
        # requires (the §6.1.4 unit); the extra staging is an emulation
        # artifact of not having real DMA-completion reuse.
        self._ring_segments = descriptor.options.source_segments
        self._pipelined_preread = descriptor.options.pipelined_footer_read
        self._slot_size = self.segment_payload + FOOTER_SIZE
        self._staging_slots = 2 * self._ring_segments
        self._staging = zeroed(self._staging_slots * self._slot_size)
        self._staging_view = memoryview(self._staging)
        self._staging_base = 0
        self._flushes = 0
        self.remote = handle
        self._remote_slot = handle.segment_size + FOOTER_SIZE
        self._rng = node.backoff_rng
        self._local_index = 0
        self._used = 0
        self._seq = 0
        self._cpu_debt = 0.0
        # Per-tuple push constants, fixed for the channel's lifetime.
        self._tuple_size = self.schema.tuple_size
        self._pack_tuple = self.schema.raw_pack_into
        self._tuple_debt = self.profile.cpu_push_cost(self._tuple_size)
        #: A push that leaves ``_used`` above this has filled the segment.
        self._flush_above = self.segment_payload - self._tuple_size
        self._wrap_wr = None
        # Doorbell trains: whole-segment batches ride one doorbell ring
        # with a single *windowed* footer read standing in for the
        # per-segment pre-reads. The window is capped at half the target
        # ring so the source and target keep double-buffering (a window
        # spanning the full ring would serialize the pipeline). Trains
        # require tuple-aligned segments (the whole slot goes out as one
        # contiguous payload+footer write).
        self._train_ok = (self.segment_payload % self.schema.tuple_size == 0)
        self.closed = False
        #: Segments transferred over the wire (stats).
        self.segments_sent = 0
        #: Tuples pushed into this channel (stats).
        self.tuples_sent = 0
        # Observability: cache the node's handle at construction so the
        # disabled hot path pays one ``is None`` check (see repro.obs).
        # The push/flush counters are harvested from the always-on tallies
        # above; all else is one ``_obs.log`` record per train or flush.
        self._tid = f"s{channel_tag[1]}->t{channel_tag[2]}"
        self._flow = channel_tag[0]
        self._obs = endpoint_obs(node, self._flow, descriptor.options,
                                 self)
        #: Which remote slot is next and how many are proven writable.
        self._window = FooterWindow(
            self, handle,
            max(1, min(self._ring_segments, handle.segment_count // 2)),
            descriptor.options.max_backoff_retries)
        #: Remote ring region, resolved once on the first train.
        self._remote_region = None
        #: Reused entry list for doorbell trains (cleared per flush;
        #: ``post_train`` copies nothing out of it after it returns).
        self._train_entries = []

    _collect_obs = _source_counters

    @property
    def memory_bytes(self) -> int:
        return self._ring_segments * (self.segment_payload + FOOTER_SIZE)

    def push(self, values: tuple):
        """Append one tuple; returns what the caller must ``yield from``.

        Matches the paper's asynchronous push — it returns right after the
        copy into the send buffer (:data:`NO_FLUSH`, nothing to drive)
        unless the segment is full, in which case the flush generator is
        returned (it blocks only while the remote ring has no writable
        slot).
        """
        if self.closed:
            raise FlowClosedError("push on a closed flow source")
        used = self._used
        try:
            self._pack_tuple(self._staging, self._staging_base + used,
                             *values)
        except _struct_error as exc:
            raise self.schema.mismatch(values, exc) from None
        self._used = used = used + self._tuple_size
        self._cpu_debt += self._tuple_debt
        self.tuples_sent += 1
        if used > self._flush_above:
            return self._flush(0)
        return NO_FLUSH

    def push_batch(self, rows, fill=None, stride: int = 1):
        """Generator: append a batch of tuples, flushing as segments fill
        — :meth:`charge_batch` then :meth:`stage_batch`, for callers that
        want one thing to drive. ``rows`` must be a sequence (it is
        sliced per segment): tuples, or — for :meth:`push_bytes` — packed
        bytes that ``fill(staging, offset, rows[a:b])`` copies, ``stride``
        of them per tuple.
        """
        if fill is None:
            fill = self.schema.pack_many_into
            if not isinstance(rows, (list, tuple)):
                rows = list(rows)
        charge = self.charge_batch(len(rows) // stride)
        if charge is not None:
            yield charge
            yield from self.stage_batch(rows, fill, stride)

    def charge_batch(self, total: int):
        """First step of a batched append of ``total`` tuples: the timeout
        the caller must yield before :meth:`stage_batch`, or ``None`` for
        an empty batch (nothing to charge, nothing to stage).

        The same per-tuple CPU debt accrues as for one-by-one pushes, but
        it is charged as **one coalesced compute timeout per batch**:
        leftover debt from earlier pushes, the batch's per-tuple work, and
        the post cost of every flush the batch will trigger (a flush fires
        each time the staged tuple count reaches a full segment).
        """
        if self.closed:
            raise FlowClosedError("push on a closed flow source")
        if not total:
            return None
        tuple_size = self._tuple_size
        flushes = ((self._used // tuple_size + total)
                   // (self.segment_payload // tuple_size))
        debt = (self._cpu_debt + total * self._tuple_debt
                + flushes * self.profile.cpu_post_cost)
        self._cpu_debt = 0.0
        return self.node.compute(debt)

    def stage_batch(self, rows, fill, stride: int = 1, take=None):
        """Second step of a batched append, ``push``'s contract for a
        batch: returns what the caller must ``yield from``.

        A batch that fits under the flush threshold is packed into the
        open staging slot with one ``fill`` call and returns
        :data:`NO_FLUSH` — no generator exists for it. Any other batch
        returns the flush loop to drive, which blocks only while the
        remote ring has no writable slot. The CPU for either was paid by
        :meth:`charge_batch`.

        This is the one rows-into-staging step: the flush loop comes
        back with ``take``, the count of ``rows`` it measured the open
        slot's room for, and those are staged whatever the threshold
        says (the loop flushes the slot they fill).
        """
        used = self._used
        if take is None:
            take = len(rows) // stride
            if used + take * self._tuple_size > self._flush_above:
                return self._flush_batch(rows, take, fill, stride)
        fill(self._staging, self._staging_base + used, rows)
        self._used = used + take * self._tuple_size
        self.tuples_sent += take
        return NO_FLUSH

    def _flush_batch(self, rows, total: int, fill, stride: int):
        """Generator: stage a batch that fills at least one segment,
        flushing as it goes; each filled segment is packed with a single
        ``fill`` call."""
        tuple_size = self._tuple_size
        capacity = self.segment_payload
        seg_tuples = capacity // tuple_size
        window = self._window
        index = 0
        while index < total:
            # Whole segments ahead and nothing staged: they go out as one
            # doorbell train, packed straight into their slots.
            whole = ((total - index) // seg_tuples
                     if self._train_ok and not self._used else 0)
            if not whole:
                take = min((capacity - self._used) // tuple_size,
                           total - index)
                if take:
                    self.stage_batch(
                        rows[index * stride:(index + take) * stride], fill,
                        stride, take)
                    index += take
                if self._used + tuple_size <= capacity:
                    continue
                if not self._train_ok:
                    yield from self._flush(0, charge_cpu=False)
                    continue
            # The right to write a train of remote slots — of one, for a
            # slot the batch topped up: even that wins over ``_flush``,
            # whose per-segment pre-read the windowed proof replaces (one
            # READ round-trip per window instead of per segment).
            if self._local_index == 0 and self._wrap_wr is not None:
                yield from self._reap_wrap()
            if not window.left:
                yield from window.acquire(window.train)
            entries = self._train_entries
            entries.clear()
            if whole:
                # The signaled wrap WQE must be the last of its train.
                count = min(whole, window.left,
                            self._ring_segments - self._local_index)
                for _ in range(count):
                    fill(self._staging, self._staging_base,
                         rows[index * stride:(index + seg_tuples) * stride])
                    index += seg_tuples
                    self._train_stage(entries)
                self.tuples_sent += count * seg_tuples
            else:
                count = 1
                self._train_stage(entries)
                self._used = 0
            self._train_finish(entries, count)

    def push_bytes(self, data):
        """Append pre-packed tuple bytes — no per-tuple type
        interpretation at all, just slab copies into the staging segment;
        returns the generator to drive.

        ``data`` is a byte view (``ShuffleSource.push_bytes`` normalises
        the caller's buffer) holding a whole number of tuples packed in
        this flow's schema. CPU debt is charged exactly as if the tuples
        had been pushed individually.
        """
        if self.closed:
            raise FlowClosedError("push on a closed flow source")
        if len(data) % self._tuple_size:
            raise FlowError(
                f"push_bytes got {len(data)} bytes, not a multiple of the "
                f"{self._tuple_size}-byte tuple size")
        return self.push_batch(data, _copy_into, self._tuple_size)

    def close(self):
        """Generator: flush remaining tuples, send the close marker, and
        wait for it to be acknowledged."""
        wr = yield from self.begin_close()
        if wr is not None and not wr.done.triggered:
            yield wr.done

    def begin_close(self):
        """Generator: post the close marker without waiting for its ack
        (lets a source close many channels concurrently)."""
        if self.closed:
            return None
        wr = yield from self._flush(FLAG_CLOSED)
        self.closed = True
        if self._obs is not None:
            log_close(self)
        return wr

    def abort(self):
        """Generator: abort the channel — staged tuples are dropped and
        the target's consume path raises FlowAbortedError."""
        if self.closed:
            return
        self._used = 0  # discard staged tuples: abort voids delivery
        wr = yield from self._flush(FLAG_CLOSED | FLAG_ABORTED)
        self.closed = True
        if self._obs is not None:
            log_close(self, {"aborted": True})
        if not wr.done.triggered:
            yield wr.done

    def release(self) -> None:
        """Shed the window's NIC region; the owning source calls this once
        the channel's close/abort marker is acknowledged."""
        self._window.release()

    def _reap_wrap(self):
        """Generator: selective signaling — on wrap-around make sure the
        previous cycle's signaled write finished before its slot is
        reused. Callers test ``_local_index == 0 and _wrap_wr is not
        None`` inline."""
        if not self._wrap_wr.done.triggered:
            yield self._wrap_wr.done
        self._wrap_wr = None
        self.qp.send_cq.poll(max_entries=64)

    def _flush(self, extra_flags: int, charge_cpu: bool = True):
        # Charge the CPU work accumulated by pushes plus the post cost
        # (``push_batch`` pre-charges both as one coalesced timeout and
        # passes ``charge_cpu=False``).
        if charge_cpu:
            debt = self._cpu_debt + self.profile.cpu_post_cost
            self._cpu_debt = 0.0
            yield self.node.compute(debt)
        # The wrap WQE is reaped before the slot is proven (the replicate
        # writers prove first).
        if self._local_index == 0 and self._wrap_wr is not None:
            yield from self._reap_wrap()
        # A windowed proof from a preceding train covers this slot too —
        # and the window read pipelined behind the last train proves slots
        # from the *pre-flush* remote index, so it goes stale here.
        window = self._window
        window.pending_window = None
        if not window.left:
            yield from window.acquire(1)
        window.left -= 1
        flags = FLAG_CONSUMABLE | extra_flags
        signaled = self._local_index == self._ring_segments - 1
        if extra_flags & FLAG_CLOSED:
            signaled = True
        remote_offset = window.index * self._remote_slot
        base = self._staging_base
        if self._used == self.segment_payload:
            # Full segment: the footer is packed in place right after the
            # payload, and the whole slot goes out as one zero-copy write
            # (the staging ring keeps the slot stable until it commits).
            pack_footer_into(self._staging, base + self._used,
                             self._used, flags, self._seq)
            wr = self.qp.post_write(
                self._staging_view[base:base + self._used + FOOTER_SIZE],
                self.remote.rkey, remote_offset, signaled=signaled,
                assume_stable=True)
        else:
            # Partial segment (final flush): write only the used payload,
            # then the footer at its fixed end-of-segment position. RC
            # guarantees per-QP write ordering, so the footer still lands
            # strictly after the payload.
            if self._used:
                self.qp.post_write(
                    self._staging_view[base:base + self._used],
                    self.remote.rkey, remote_offset, signaled=False,
                    assume_stable=True)
            wr = self.qp.post_write(
                pack_footer(self._used, flags, self._seq), self.remote.rkey,
                remote_offset + self.remote.segment_size,
                signaled=signaled)
        if signaled:
            self._wrap_wr = wr
        self.segments_sent += 1
        if self._obs is not None:
            self._obs.log((WRITE, self.env.now, self, self.remote, self._seq,
                           1, self._used))
        self._seq += 1
        # Pipeline the footer pre-read of the *next* remote segment with
        # this write (paper Section 5.2).
        window.index = (window.index + 1) % self.remote.segment_count
        if self._pipelined_preread:
            window.pending_slot = window.read_ahead(1)
        self._local_index = (self._local_index + 1) % self._ring_segments
        self._used = 0
        self._flushes += 1
        self._staging_base = (self._flushes % self._staging_slots
                              ) * self._slot_size
        return wr

    # -- doorbell trains --------------------------------------------------
    def _train_stage(self, entries) -> None:
        """Stage one full staging slot (payload and footer as one
        contiguous zero-copy write) as a ``post_train`` entry and advance
        the ring state. Unsignaled WQEs — which the ring protocol drops
        without ever observing — get no WorkRequest at all, and the
        remote region is the cached loop-invariant one."""
        base = self._staging_base
        _FOOTER_PACK_INTO(self._staging, base + self.segment_payload,
                          self.segment_payload, _CONSUMABLE_WORD, self._seq)
        if self._local_index == self._ring_segments - 1:
            wr = WorkRequest(self.env, None, Opcode.WRITE, True)
            self._wrap_wr = wr
        else:
            wr = None
        region = self._remote_region
        if region is None:
            region = _resolve_remote_region(self)
        window = self._window
        entries.append((wr, self._slot_size,
                        ((0, self._staging_view[base:base + self._slot_size]),),
                        region, window.index * self._remote_slot))
        self.segments_sent += 1
        self._seq += 1
        window.index = (window.index + 1) % self.remote.segment_count
        window.left -= 1
        self._local_index = (self._local_index + 1) % self._ring_segments
        self._flushes += 1
        self._staging_base = (self._flushes % self._staging_slots
                              ) * self._slot_size

    def _train_finish(self, entries, count: int) -> None:
        """Ring the doorbell for the staged train of ``count`` segments.
        When the train used up the window, pipeline the next window's
        footer read behind it — the train analogue of the paper's
        per-segment footer pre-read."""
        obs = self._obs
        if obs is not None:
            obs.log((WRITE, self.env._now, self, self.remote,
                     self._seq - count, count, None))
        self.qp.post_train(entries)
        # Any per-segment pre-read refers to a slot the train wrote over.
        window = self._window
        window.pending_slot = None
        if not window.left and self._pipelined_preread:
            window.pending_window = window.read_ahead(window.train)


class LatencySourceChannel:
    """Source half of one latency-optimized channel (credit-based)."""

    def __init__(self, node: "Node", descriptor: FlowDescriptor,
                 handle: RingHandle, channel_tag: tuple) -> None:
        if handle.credit_rkey is None:
            raise FlowError("latency channels need a credit counter handle")
        self.node = node
        self.env = node.env
        self.profile = node.cluster.profile
        self.schema = descriptor.schema
        self.segment_payload = segment_payload_size(descriptor)
        self.qp = get_nic(node).create_qp(node.cluster.node(handle.node_id))
        self.remote = handle
        self._remote_slot = handle.segment_size + FOOTER_SIZE
        # Zero-copy staging: one slot per remote segment. A slot posted at
        # send s is only repacked at send s + segment_count, and holding a
        # credit then implies the target consumed segment s — which in turn
        # implies the write had committed. So the slot is stable for the
        # write's whole lifetime.
        self._slot_size = self.segment_payload + FOOTER_SIZE
        self._staging = zeroed(handle.segment_count * self._slot_size)
        self._staging_view = memoryview(self._staging)
        self._rng = node.backoff_rng
        self._tuple_size = self.schema.tuple_size
        self._pack_into = self.schema.pack_into
        #: Payload of a close/abort marker.
        self._zeros = bytes(self.segment_payload)
        #: CPU cost of one push: the tuple copy plus posting its write.
        self._push_cost = (self.profile.cpu_push_cost(self._tuple_size)
                           + self.profile.cpu_post_cost)
        self._segments = handle.segment_count
        #: Remote ring region, resolved once on the first write.
        self._remote_region = None
        self.closed = False
        self.segments_sent = 0
        self.tuples_sent = 0
        self._tid = f"s{channel_tag[1]}->t{channel_tag[2]}"
        self._flow = channel_tag[0]
        self._obs = endpoint_obs(node, self._flow, descriptor.options,
                                 self)
        #: Segments sent against the target's consumed counter.
        self._credit = CreditWindow(self, handle,
                                    descriptor.options.credit_threshold,
                                    descriptor.options.max_backoff_retries)

    _collect_obs = _source_counters

    @property
    def memory_bytes(self) -> int:
        return 8  # only the credit-read scratch; no local ring is needed

    def push(self, values: tuple):
        """Transfer one tuple immediately (one RDMA write); returns the
        generator the caller must ``yield from``."""
        if self.closed:
            raise FlowClosedError("push on a closed flow source")
        return self._send_slot(self._push_cost, self._pack_into, values,
                               self._tuple_size)

    def push_batch(self, tuples):
        """Generator: push a batch of tuples. Latency mode is inherently
        per-tuple (one segment each, credits acquired per write), so this
        is a loop over :meth:`push` with identical simulated timing."""
        push = self.push
        for values in tuples:
            yield from push(values)

    def push_bytes(self, data):
        """Generator: push pre-packed tuple bytes (a byte view, see
        ``ShuffleSource.push_bytes``), one segment per tuple."""
        if self.closed:
            raise FlowClosedError("push on a closed flow source")
        tuple_size = self._tuple_size
        size = len(data)
        if size % tuple_size:
            raise FlowError(
                f"push_bytes got {size} bytes, not a multiple of the "
                f"{tuple_size}-byte tuple size")
        for start in range(0, size, tuple_size):
            yield from self._send_slot(
                self._push_cost, _copy_into, data[start:start + tuple_size],
                tuple_size)

    def close(self):
        """Generator: send the close marker and wait for its ack."""
        wr = yield from self.begin_close()
        if wr is not None and not wr.done.triggered:
            yield wr.done

    def begin_close(self):
        """Generator: post the close marker without waiting for its ack."""
        if self.closed:
            return None
        wr = yield from self._send_marker(FLAG_CLOSED)
        self.closed = True
        if self._obs is not None:
            log_close(self)
        return wr

    def abort(self):
        """Generator: abort the channel (targets raise
        FlowAbortedError)."""
        if self.closed:
            return
        wr = yield from self._send_marker(FLAG_CLOSED | FLAG_ABORTED)
        self.closed = True
        if self._obs is not None:
            log_close(self, {"aborted": True})
        if not wr.done.triggered:
            yield wr.done

    def release(self) -> None:
        """Shed the window's NIC region once the channel is closed (see
        ``BandwidthSourceChannel.release``)."""
        self._credit.release()

    def _send_marker(self, flags: int):
        """Generator: post a signaled segment with no payload (zeroed, the
        padded form the protocol defines) whose footer adds ``flags``;
        returns its work request."""
        return self._send_slot(
            self.profile.cpu_post_cost, _copy_into, self._zeros, 0,
            _flag_word(FLAG_CONSUMABLE | flags), signaled=True)

    def _send_slot(self, cost: float, fill, payload, used: int,
                   word: int = _CONSUMABLE_WORD, signaled: bool = False):
        """Generator: the one latency-mode send. Charge ``cost`` of CPU,
        hold a credit, have ``fill(staging, base, payload)`` stage the
        next slot, footer it as ``used`` bytes under flag word ``word``
        and post it as one zero-copy write; then top the credits up.
        Returns the work request of a ``signaled`` write, else ``None``:
        data writes are fire-and-forget, only a close/abort marker is
        ever observed."""
        yield self.node.compute(cost)
        segments = self._segments
        credit = self._credit
        sent = credit.sent
        if credit.pending is not None or sent - credit.consumed >= segments:
            # A refresh to harvest, or the window is shut.
            yield from credit.acquire()
        index = sent % segments
        base = index * self._slot_size
        fill(self._staging, base, payload)
        _FOOTER_PACK_INTO(self._staging, base + self.segment_payload,
                          used, word, sent)
        region = self._remote_region
        if region is None:
            region = _resolve_remote_region(self)
        wr = (WorkRequest(self.env, None, Opcode.WRITE, True) if signaled
              else None)
        slot_size = self._slot_size
        self.qp.post_lone(
            wr, slot_size, ((0, self._staging_view[base:base + slot_size]),),
            region, index * self._remote_slot)
        if self._obs is not None:
            self._obs.log((WRITE, self.env._now, self, self.remote,
                           sent, 1, used))
        credit.sent = sent = sent + 1
        self.segments_sent += 1
        if wr is None:
            # A tuple went out (the marker that ends the channel carries
            # none and needs no credit after it).
            self.tuples_sent += 1
            if (segments - (sent - credit.consumed) <= credit.threshold
                    and credit.pending is None):
                credit.refresh_async()
        return wr


def _source_channel(node: "Node", descriptor: FlowDescriptor,
                    handle: RingHandle, tag: tuple):
    """The source half of channel ``tag``, of the class the flow's
    optimization selects."""
    channel_cls = (LatencySourceChannel
                   if descriptor.optimization is Optimization.LATENCY
                   else BandwidthSourceChannel)
    return channel_cls(node, descriptor, handle, tag)


class TargetChannel:
    """Target half of one channel: a receive ring drained in ring order."""

    def __init__(self, node: "Node", descriptor: FlowDescriptor,
                 ring: SegmentRing, credit_region, credit_offset: int) -> None:
        self.node = node
        self.schema = descriptor.schema
        self.ring = ring
        self._credit_region = credit_region
        self._credit_offset = credit_offset
        self._track_credits = (descriptor.optimization
                               is Optimization.LATENCY)
        #: Publish the consumed counter once per :meth:`drain` (latency
        #: mode) instead of once per segment. Both placements are
        #: observationally identical — a drain runs inside one event
        #: continuation, so no remote credit read can sample between the
        #: per-segment writes — but the toggle lets tests prove that.
        self.credit_coalescing = True
        self._footer_offsets = tuple(ring.footer_offset(index)
                                     for index in range(ring.segment_count))
        # Proven once, here: a payload is sliced out of the whole-ring
        # view at ``footer offset - segment size`` and the credit counter
        # is packed in place, both without a range check per segment.
        self._segment_size = ring.segment_size
        self._view = ring.region.view(0, ring.total_bytes)
        credit_region.check_range(credit_offset, 8)
        self._index = 0
        self._consumed = 0
        #: The endpoint whose ``_open`` count this channel is part of
        #: (set by ``ShuffleTarget``).
        self._owner = None
        self.done = False
        self.aborted = False
        self.tuples_received = 0
        # One ``_obs.log`` record per drain pass; the per-segment
        # latency join, trace events and histograms are derived from it.
        self._tid = f"t<-s{credit_offset // 8}"
        self._flow = descriptor.name
        self._obs = endpoint_obs(node, self._flow, descriptor.options,
                                 self)

    def _collect_obs(self):
        """Read-time counter harvest (see MetricsRegistry.add_collector)."""
        return (("core.tuples_consumed", self.tuples_received),
                ("core.segments_consumed", self._consumed))

    @property
    def memory_bytes(self) -> int:
        return self.ring.total_bytes

    def poll(self):
        """Check the current segment; return ``(footer, tuples)`` (tuples
        may be empty for a bare close marker) or ``None`` if nothing
        arrived. Per-segment granularity — kept for consumers that need
        the decoded footer (ordered replicate); bulk paths use
        :meth:`drain`."""
        if self.done:
            return None
        mem = self.ring.region.mem
        footer_offset = self._footer_offsets[self._index]
        if not (mem[footer_offset + 4] & FLAG_CONSUMABLE):
            return None
        footer = self.ring.read_footer(self._index)
        count = footer.used // self.schema.tuple_size
        if count:
            payload = self.ring.payload_view(self._index, footer.used)
            tuples = self.schema.unpack_many(payload, count)
        else:
            tuples = []
        if footer.closed:
            self._mark_done()
        if footer.aborted:
            self.aborted = True
            tuples = []  # abort voids any delivery guarantee
        # Release the segment: reset the footer locally (writable again).
        # Direct memory write — no write hooks should fire for local resets.
        mem[footer_offset:footer_offset + FOOTER_SIZE] = BLANK_FOOTER
        self._index = self.ring.next_index(self._index)
        self._consumed += 1
        self.tuples_received += len(tuples)
        if self._obs is not None:
            self._obs.log((CONSUME, self.node.env.now, self, self.ring,
                           footer.seq, (len(tuples),), False, footer.closed))
        if self._track_credits:
            _U64_PACK_INTO(self._credit_region.mem, self._credit_offset,
                           self._consumed)
        return footer, tuples

    def _mark_done(self) -> None:
        """The close marker was consumed: the one place a channel turns
        ``done``, and with it the one place its endpoint's open-channel
        count falls."""
        self.done = True
        self._owner._open -= 1

    def drain(self, out) -> int:
        """Consume every consecutive consumable segment in one pass.

        Unpacked tuples are appended to ``out`` (list or deque); footers
        are released with direct hook-free memory writes as the pass
        walks the ring, and in latency mode the consumed-credit counter
        is published with **one** ``write_u64`` per drain instead of one
        per segment (unless :attr:`credit_coalescing` is off). Returns
        the number of segments drained.
        """
        if self.done:
            return 0
        mem = self.ring.region.mem
        offsets = self._footer_offsets
        segment_count = len(offsets)
        view = self._view
        segment_size = self._segment_size
        unpack_rows = self.schema.unpack_rows
        extend = out.extend
        index = self._index
        consumed = self._consumed
        per_segment_credits = (self._track_credits
                               and not self.credit_coalescing)
        # Observability: one log record per pass — it runs at one sim
        # time and consumes sequence numbers ``consumed, consumed + 1,
        # ...``, so per segment it only collects the tuple count.
        obs = self._obs
        counts = None if obs is None else []
        tuple_size = self.schema.tuple_size
        drained = 0
        received = 0
        while True:
            footer_offset = offsets[index]
            flags = mem[footer_offset + 4]
            if not (flags & FLAG_CONSUMABLE):
                break
            used = _FOOTER_USED(mem, footer_offset)[0]
            if flags & (FLAG_CLOSED | FLAG_ABORTED):
                if flags & FLAG_ABORTED:
                    self.aborted = True
                    used = 0  # abort voids its own segment's delivery
                if flags & FLAG_CLOSED:
                    self._mark_done()
            if used:
                if used > segment_size:
                    raise FlowError(
                        f"payload length {used} exceeds segment size "
                        f"{segment_size}")
                start = footer_offset - segment_size
                tuples = unpack_rows(view[start:start + used])
                extend(tuples)
                received += len(tuples)
            if counts is not None:
                counts.append(used // tuple_size)
            mem[footer_offset:footer_offset + FOOTER_SIZE] = BLANK_FOOTER
            index += 1
            if index == segment_count:
                index = 0
            drained += 1
            if per_segment_credits:
                _U64_PACK_INTO(self._credit_region.mem, self._credit_offset,
                               consumed + drained)
            if self.done:
                break
        if drained:
            self._index = index
            self._consumed = consumed + drained
            self.tuples_received += received
            if obs is not None:
                obs.log((CONSUME, self.node.env._now, self, self.ring,
                         consumed, counts, True, self.done))
            if self._track_credits and not per_segment_credits:
                _U64_PACK_INTO(self._credit_region.mem, self._credit_offset,
                               self._consumed)
        return drained

    def drain_bytes(self, out) -> int:
        """Like :meth:`drain` but appends one zero-copy payload
        ``memoryview`` per data segment (each a whole number of packed
        tuples) instead of unpacking. The views alias ring memory that
        this call already released for overwrite — they are valid only
        until the consuming process yields back to the simulator."""
        if self.done:
            return 0
        mem = self.ring.region.mem
        offsets = self._footer_offsets
        segment_count = len(offsets)
        view = self._view
        segment_size = self._segment_size
        append = out.append
        tuple_size = self.schema.tuple_size
        index = self._index
        consumed = self._consumed
        per_segment_credits = (self._track_credits
                               and not self.credit_coalescing)
        # One log record per pass — see :meth:`drain`.
        obs = self._obs
        counts = None if obs is None else []
        drained = 0
        received = 0
        while True:
            footer_offset = offsets[index]
            flags = mem[footer_offset + 4]
            if not (flags & FLAG_CONSUMABLE):
                break
            used = _FOOTER_USED(mem, footer_offset)[0]
            if flags & (FLAG_CLOSED | FLAG_ABORTED):
                if flags & FLAG_ABORTED:
                    self.aborted = True
                    used = 0
                if flags & FLAG_CLOSED:
                    self._mark_done()
            if used:
                # Whole-row contract: the chunks feed columnar
                # fold/unpack kernels downstream, so a torn row is a
                # protocol bug to surface here.
                if used % tuple_size or used > segment_size:
                    raise FlowError(
                        f"segment {index} holds {used} bytes: not a whole "
                        f"number of {tuple_size}-byte rows within "
                        f"{segment_size}")
                start = footer_offset - segment_size
                append(view[start:start + used])
                received += used // tuple_size
            if counts is not None:
                counts.append(used // tuple_size)
            mem[footer_offset:footer_offset + FOOTER_SIZE] = BLANK_FOOTER
            index += 1
            if index == segment_count:
                index = 0
            drained += 1
            if per_segment_credits:
                _U64_PACK_INTO(self._credit_region.mem, self._credit_offset,
                               consumed + drained)
            if self.done:
                break
        if drained:
            self._index = index
            self._consumed = consumed + drained
            self.tuples_received += received
            if obs is not None:
                obs.log((CONSUME, self.node.env._now, self, self.ring,
                         consumed, counts, True, self.done))
            if self._track_credits and not per_segment_credits:
                _U64_PACK_INTO(self._credit_region.mem, self._credit_offset,
                               self._consumed)
        return drained


class ShuffleSource:
    """The per-thread source endpoint of a shuffle flow."""

    def __init__(self, registry: FlowRegistry, descriptor: FlowDescriptor,
                 source_index: int, channels: list) -> None:
        self.registry = registry
        self.descriptor = descriptor
        self.source_index = source_index
        self.node = registry.cluster.node(
            descriptor.sources[source_index].node_id)
        self._channels = channels
        schema = descriptor.schema
        if descriptor.routing is not None:
            # Routing-function state is per source: a stateful router
            # hands each source endpoint of the flow a router of its own.
            for_source = getattr(descriptor.routing, "for_source", None)
            self._router = (descriptor.routing if for_source is None
                            else for_source())
        elif descriptor.shuffle_key is not None:
            self._router = key_hash_router(schema, descriptor.shuffle_key)
        elif len(channels) == 1:
            self._router = lambda _values, _count: 0
        else:
            self._router = None  # direct routing only
        #: Whether the router's answers are checked: the flow's own
        #: routers cannot leave ``[0, live targets)``, a routing function
        #: of the application can.
        self._vet_routes = descriptor.routing is not None
        #: The router's own batch partitioner, if it brings one.
        try:
            self._route_many = self._router.route_many
        except AttributeError:
            self._route_many = None
        #: How ``push_batch`` drives a group, fixed for the flow's life:
        #: the row packer behind the channels' charge/stage pair, or
        #: ``None`` for latency channels (one segment per tuple — their
        #: ``push_batch`` is the per-tuple loop).
        self._fill = (None if descriptor.optimization is Optimization.LATENCY
                      else schema.pack_many_into)
        self.closed = False
        #: Failure policy (``FlowOptions.on_target_failure``).
        self._policy = descriptor.options.on_target_failure
        #: Channel indices still routable (failed targets drop out).
        self._live = list(range(len(channels)))
        #: Channel indices declared failed.
        self._failed: set[int] = set()

    @classmethod
    def open(cls, registry: FlowRegistry, name: str, source_index: int):
        """Generator: open source endpoint ``source_index`` of flow
        ``name``, waiting for the targets to publish their rings."""
        descriptor = registry.descriptor(name)
        if descriptor.flow_type not in (FlowType.SHUFFLE, FlowType.COMBINER):
            raise FlowError(
                f"flow {name!r} is a {descriptor.flow_type.value} flow")
        if not 0 <= source_index < descriptor.source_count:
            raise FlowError(
                f"source index {source_index} out of range "
                f"[0, {descriptor.source_count})")
        node = registry.cluster.node(
            descriptor.sources[source_index].node_id)
        channels = []
        for target_index in range(descriptor.target_count):
            handle = yield from registry.wait_ring(name, source_index,
                                                   target_index)
            tag = (name, source_index, target_index)
            channels.append(_source_channel(node, descriptor, handle, tag))
        return cls(registry, descriptor, source_index, channels)

    # -- the push primitive ----------------------------------------------
    def push(self, values: tuple, target: "int | None" = None):
        """Push one tuple into the flow; returns an iterable the caller
        must drive with ``yield from``.

        Routing follows the descriptor (shuffle key or routing function)
        unless ``target`` names a target index directly (the paper's third
        routing option). A tuple that merely lands in its channel's send
        buffer returns :data:`NO_FLUSH`; only a push that flushes returns
        a generator, which also applies the flow's failure policy.
        """
        if self.closed:
            raise FlowClosedError("push on a closed flow source")
        explicit = target is not None
        if explicit:
            if (not 0 <= target < len(self._channels)
                    or target in self._failed):
                raise self._bad_target(target)
        else:
            router = self._router
            if router is None:
                raise FlowError(
                    "flow has no shuffle key or routing function; pass "
                    "target= explicitly")
            live = self._live
            if not live:
                raise FlowPeerFailedError(
                    f"every target of flow {self.descriptor.name!r} has "
                    f"failed")
            if self._vet_routes:
                # An application's routing function can answer anything.
                count = len(live)
                slot = router(values, count)
                if slot.__class__ is not int or not 0 <= slot < count:
                    slot = _route_slot(slot, count)
                target = live[slot]
            else:
                target = live[router(values, len(live))]
        flush = self._channels[target].push(values)
        if flush is NO_FLUSH:
            return flush
        return self._guarded_flush(flush, values, target, explicit)

    def _bad_target(self, target: int) -> FlowError:
        """Why an explicitly named target cannot be pushed to: it does
        not exist, or it has failed. (Callers test inline — the valid
        path, taken per tuple, enters no frame for the check.)"""
        if target in self._failed:
            return FlowPeerFailedError(
                f"target {target} of flow {self.descriptor.name!r} "
                f"has failed")
        return FlowError(
            f"routed to target {target}, valid range "
            f"[0, {len(self._channels)})")

    def _guarded_flush(self, flush, values: tuple, target: int,
                       explicit: bool):
        """Generator: drive the flush that pushing ``values`` into
        channel ``target`` triggered, under the flow's failure policy."""
        try:
            yield from flush
        except (QpFlushedError, FlowTimeoutError) as exc:
            yield from self._handle_channel_failure(target, exc)
            if explicit:
                raise FlowPeerFailedError(
                    f"target {target} of flow {self.descriptor.name!r} "
                    f"failed ({exc})") from exc
            # Reroute policy: the survivors absorb the key space — resend
            # this tuple through the shrunken live set.
            yield from self.push(values)

    def push_many(self, tuples, target: "int | None" = None):
        """Generator: push a batch of tuples (convenience wrapper).

        Per-tuple semantics and event patterns — kept for callers that
        depend on the exact interleaving of per-tuple pushes. New code
        wanting wall-clock throughput should use :meth:`push_batch`.
        """
        push = self.push
        for values in tuples:
            yield from push(values, target)

    def push_batch(self, tuples, target: "int | None" = None):
        """Generator: push a batch of tuples (any iterable) through the
        batched channel path — whole segments are packed with one
        ``struct`` call instead of one per tuple.

        Without an explicit ``target`` the batch is partitioned by the
        flow's router first and each per-channel group is pushed as its
        own batch; tuple order is preserved *within* each channel (the
        only ordering a multi-channel shuffle ever guarantees).

        A bandwidth channel's group is driven from here by the channel's
        own contract — yield :meth:`~BandwidthSourceChannel.charge_batch`,
        call :meth:`~BandwidthSourceChannel.stage_batch`, drive what it
        returns — so a group that only lands in its channel's send buffer
        (most of them, once the fan-out leaves a channel less than a
        segment per batch) costs one kernel event and no generator.
        """
        if self.closed:
            raise FlowClosedError("push on a closed flow source")
        # Route kernels measure and index the batch and the reroute
        # policy re-reads it: a one-shot iterable is materialised once,
        # here (a class test: no call on the path every batch takes).
        if tuples.__class__ is not list and tuples.__class__ is not tuple:
            tuples = list(tuples)
        channels = self._channels
        if target is not None:
            if not 0 <= target < len(channels) or target in self._failed:
                raise self._bad_target(target)
            live = (target,)
            groups = (tuples,)
        else:
            live = self._live
            if not live:
                raise FlowPeerFailedError(
                    f"every target of flow {self.descriptor.name!r} has "
                    f"failed")
            if len(live) == 1:
                groups = (tuples,)
            elif self._router is None:
                raise FlowError(
                    "flow has no shuffle key or routing function; pass "
                    "target= explicitly")
            else:
                count = len(live)
                route_many = self._route_many
                if route_many is not None:
                    groups = route_many(tuples, count)
                else:
                    router = self._router
                    groups = [[] for _ in range(count)]
                    appends = [group.append for group in groups]
                    for values in tuples:
                        slot = router(values, count)
                        if slot.__class__ is not int or not 0 <= slot < count:
                            slot = _route_slot(slot, count)
                        appends[slot](values)
        fill = self._fill
        for slot, group in enumerate(groups):
            if group:
                try:
                    index = live[slot]
                except IndexError:
                    # Only a router's own ``route_many`` gets here.
                    raise FlowError(
                        f"route_many filled group {slot}: targets are "
                        f"[0, {len(live)})") from None
                try:
                    if fill is None:
                        yield from channels[index].push_batch(group)
                    else:
                        channel = channels[index]
                        yield channel.charge_batch(len(group))
                        flush = channel.stage_batch(group, fill)
                        if flush is not NO_FLUSH:
                            yield from flush
                except (QpFlushedError, FlowTimeoutError) as exc:
                    yield from self._handle_channel_failure(index, exc)
                    if target is not None:
                        raise FlowPeerFailedError(
                            f"target {target} of flow "
                            f"{self.descriptor.name!r} failed ({exc})"
                        ) from exc
                    # The live set just shrank, so the remaining groups'
                    # slots no longer line up — re-partition the failed
                    # group plus everything not yet pushed over the
                    # survivors. Tuples the dead target already consumed
                    # may recur on a survivor: reroute is at-least-once
                    # across a failure.
                    remaining = [values for rest in groups[slot:]
                                 for values in rest]
                    yield from self.push_batch(remaining)
                    return

    def push_bytes(self, data, target: "int | None" = None):
        """Generator: push pre-packed tuple bytes (zero per-tuple packing).

        ``data`` is any C-contiguous buffer (``bytes``, ``bytearray``,
        ``array.array``, a ``memoryview`` of any item type, a numpy
        array, ...) whose byte length is a whole number of tuples. Raw
        bytes carry no routable key, so a multi-target flow needs an
        explicit ``target``.
        """
        if self.closed:
            raise FlowClosedError("push on a closed flow source")
        try:
            # The channels count and slice in bytes, whatever the item
            # type of the caller's buffer.
            data = memoryview(data).cast("B")
        except TypeError as exc:
            raise FlowError(
                f"push_bytes needs a C-contiguous buffer: {exc}") from None
        if target is None:
            if len(self._channels) != 1:
                raise FlowError(
                    "push_bytes cannot route packed tuples; pass target= "
                    "explicitly")
            target = 0
        if not 0 <= target < len(self._channels) or target in self._failed:
            raise self._bad_target(target)
        try:
            yield from self._channels[target].push_bytes(data)
        except (QpFlushedError, FlowTimeoutError) as exc:
            yield from self._handle_channel_failure(target, exc)
            # Packed bytes carry no routable key, so there is no reroute:
            # the failure always surfaces.
            raise FlowPeerFailedError(
                f"target {target} of flow {self.descriptor.name!r} "
                f"failed ({exc})") from exc

    def close(self):
        """Generator: close every live channel (targets see FLOW_END once
        all sources have closed). Close markers are posted to all channels
        first, then acknowledged in parallel. A target failing during
        close follows the flow's failure policy: under ``"reroute"`` the
        close still succeeds on the survivors, under ``"abort"`` the
        survivors are aborted and FlowPeerFailedError is raised."""
        work_requests = []
        failures = []
        for index, channel in enumerate(self._channels):
            try:
                wr = yield from channel.begin_close()
            except (QpFlushedError, FlowTimeoutError) as exc:
                failures.append((index, exc))
                continue
            if wr is not None:
                work_requests.append((index, wr))
        for index, wr in work_requests:
            try:
                if not wr.done.triggered:
                    yield wr.done
                elif wr.error is not None:
                    raise wr.error
            except (QpFlushedError, FlowTimeoutError) as exc:
                failures.append((index, exc))
        self.closed = True
        for index, exc in failures:
            yield from self._handle_channel_failure(index, exc)
        for channel in self._channels:
            if channel.closed:
                channel.release()

    def abort(self):
        """Generator: abort the flow — staged data is dropped and every
        target's consume raises FlowAbortedError (the fault-tolerance
        extension; paper Section 7 lists flow fault tolerance as future
        work).

        The abort is recorded in the registry *before* any marker goes
        out: a target opening afterwards (e.g. one racing
        ``extend_targets``) sees the flag instead of waiting for ring
        traffic that will never come. Published-but-unadopted rings of
        such targets get the abort marker here too."""
        name = self.descriptor.name
        self.registry.mark_flow_aborted(name)
        descriptor = self.registry.descriptor(name)
        channels = list(self._channels)
        for target_index in range(len(self._channels),
                                  descriptor.target_count):
            handle = self.registry.published_ring(name, self.source_index,
                                                  target_index)
            if handle is not None:
                tag = (name, self.source_index, target_index)
                channels.append(
                    _source_channel(self.node, descriptor, handle, tag))
        for channel in channels:
            try:
                yield from channel.abort()
            except (QpFlushedError, FlowTimeoutError):
                pass  # aborting toward a dead peer: nothing left to void
            channel.release()
        self.closed = True

    def adopt_new_targets(self):
        """Generator: pick up targets added to the flow at runtime
        (elasticity — paper Section 7 future work). New channels are
        opened for every target index beyond the currently known set;
        the router immediately includes them in its fan-out."""
        if self.registry.flow_aborted(self.descriptor.name):
            raise FlowAbortedError(
                f"flow {self.descriptor.name!r} was aborted")
        descriptor = self.registry.descriptor(self.descriptor.name)
        for target_index in range(len(self._channels),
                                  descriptor.target_count):
            handle = yield from self.registry.wait_ring(
                descriptor.name, self.source_index, target_index)
            tag = (descriptor.name, self.source_index, target_index)
            self._channels.append(
                _source_channel(self.node, descriptor, handle, tag))
            self._live.append(len(self._channels) - 1)
        self.descriptor = descriptor

    def retire_target(self, target_index: int):
        """Generator: stop sending to the *last* target (scale-in). The
        target observes this source's close marker; once every source
        retired it, the target drains to FLOW_END."""
        if target_index != len(self._channels) - 1:
            raise FlowError(
                "only the last target can be retired (index "
                f"{len(self._channels) - 1}, got {target_index})")
        if len(self._channels) == 1:
            raise FlowError("cannot retire the only target; close the "
                            "flow instead")
        channel = self._channels.pop()
        index = len(self._channels)
        if index in self._live:
            self._live.remove(index)
        self._failed.discard(index)
        try:
            yield from channel.close()
        except (QpFlushedError, FlowTimeoutError):
            pass  # the retired target is already gone; nothing to close

    # -- failure policy ----------------------------------------------------
    def _handle_channel_failure(self, index: int, exc: Exception):
        """Generator: apply the flow's failure policy after channel
        ``index`` hit a transport flush or exhausted its retry budget.

        Returns normally only when the reroute policy can absorb the
        failure; otherwise raises (FlowTimeoutError for a stall whose
        peer is not known dead, FlowPeerFailedError after aborting the
        survivors under the abort policy)."""
        channel = self._channels[index]
        channel.closed = True  # no further traffic toward the dead ring
        if index not in self._failed:
            self._failed.add(index)
            if index in self._live:
                self._live.remove(index)
        faults = self.node.cluster.faults
        peer = self.registry.cluster.node(
            self.descriptor.targets[index].node_id)
        peer_dead = (isinstance(exc, QpFlushedError)
                     or (faults is not None and faults.active
                         and faults.peer_failed(self.node, peer)))
        obs = self.node.metrics
        if obs is not None:
            obs.inc("core.target_failures")
        if not peer_dead:
            # A stall, not a detected failure (e.g. a slow consumer ran
            # the retry budget out): surface the timeout unchanged.
            raise exc
        now = self.node.env.now
        if obs is not None:
            obs.inc("core.peer_failures_detected")
            obs.log((EVENT, now, FAULT_DETECT, self.descriptor.name,
                     self.node.node_id, f"src{self.source_index}",
                     {"target": index, "peer_node": peer.node_id,
                      "cause": type(exc).__name__}))
        if (self._policy == "reroute" and self._router is not None
                and self._live):
            if obs is not None:
                obs.inc("core.reroutes")
                obs.log((EVENT, now, REROUTE, self.descriptor.name,
                         self.node.node_id, f"src{self.source_index}",
                         {"target": index, "survivors": len(self._live)}))
            return  # the survivors absorb the failed target's share
        yield from self._abort_survivors()
        raise FlowPeerFailedError(
            f"target {index} of flow {self.descriptor.name!r} failed "
            f"({exc})") from exc

    def _abort_survivors(self):
        """Generator: best-effort abort of every remaining live channel
        (the abort-policy teardown — some survivors may be dead too)."""
        self.registry.mark_flow_aborted(self.descriptor.name)
        for index in list(self._live):
            channel = self._channels[index]
            try:
                yield from channel.abort()
            except (QpFlushedError, FlowTimeoutError):
                pass  # that target is gone as well
        self._live.clear()
        self.closed = True

    @property
    def failed_targets(self) -> tuple:
        """Indices of targets this source has declared failed."""
        return tuple(sorted(self._failed))

    # -- introspection -----------------------------------------------------
    @property
    def tuples_sent(self) -> int:
        return sum(channel.tuples_sent for channel in self._channels)

    @property
    def memory_bytes(self) -> int:
        """Send-side buffer memory of this endpoint (§6.1.4 accounting)."""
        return sum(channel.memory_bytes for channel in self._channels)


class ShuffleTarget:
    """The per-thread target endpoint of a shuffle flow."""

    #: Flow types this endpoint class may open (subclasses override).
    _allowed_flow_types = (FlowType.SHUFFLE, FlowType.COMBINER)

    def __init__(self, registry: FlowRegistry, descriptor: FlowDescriptor,
                 target_index: int, channels: list[TargetChannel]) -> None:
        self.registry = registry
        self.descriptor = descriptor
        self.target_index = target_index
        self.node = registry.cluster.node(
            descriptor.targets[target_index].node_id)
        self._channels = channels
        self._buffer: deque = deque()
        # Doorbell set: channel indices whose ring saw a write since the
        # channel was last drained. A persistent write hook per ring feeds
        # it, so a scan touches only channels that actually received data
        # instead of round-robin-polling every idle ring (O(dirty), not
        # O(channels), on N:1 flows). An insertion-ordered dict keeps the
        # drain order deterministic (write-arrival order). All channels
        # start dirty; hooks are registered here — synchronously with ring
        # allocation, before any simulated write can land — so no doorbell
        # ring is ever missed. The same hook doubles as the consume
        # wake-up (succeeding ``_wake_event`` when one is armed) — rings
        # keep exactly one hook, so every RDMA write stays on the
        # region's single-hook fast path. Bounded: keys are channel
        # indices, so the set never exceeds the flow's source count and
        # dies with the target (scale audit: no per-message growth).
        self._dirty: dict = dict.fromkeys(range(len(channels)))
        self._wake_event = None
        #: Channels whose close marker has not been consumed yet
        #: (``TargetChannel._mark_done`` counts it down).
        self._open = len(channels)
        for channel in channels:
            channel._owner = self
        # A flow aborted before this target opened (abort racing
        # extend_targets): surface the abort instead of waiting for ring
        # traffic that will never come.
        self._abort_seen = registry.flow_aborted(descriptor.name)
        self._peer_timeout = descriptor.options.peer_timeout
        self._env = self.node.env
        # Merged wake+poll: with no peer-timeout bound, the post-wake
        # poll charge is an unconditional constant, so the doorbell hook
        # can schedule the armed wake event at ``commit + cpu_poll_cost``
        # instead of a zero-delay wake whose resume immediately arms a
        # poll timeout for that same instant. The consuming process
        # resumes at the identical simulated time (a zero-delay wake
        # never advances the clock, and ``_poll_delay`` is the exact
        # float ``node.compute(cpu_poll_cost)`` would charge —
        # ``_cpu_scale`` is construction-constant); one kernel event and
        # one generator round-trip per wakeup are elided. With a
        # peer-timeout bound the wake outcome feeds a deadline decision,
        # so those flows keep the event-by-event wait verbatim.
        if self._peer_timeout is None:
            self._poll_delay = (self.node.cluster.profile.cpu_poll_cost
                                / self.node._cpu_scale)
        else:
            self._poll_delay = None
        for index, channel in enumerate(channels):
            channel.ring.region.add_write_hook(
                self._make_doorbell(index))

    def _make_doorbell(self, index: int):
        dirty = self._dirty
        poll_delay = self._poll_delay
        if poll_delay is not None:
            env = self._env

            def ring_doorbell(_offset, _length):
                dirty[index] = None
                event = self._wake_event
                if event is not None:
                    self._wake_event = None
                    # Merged wake: trigger the armed event at the exact
                    # instant the bounded wait's post-wake poll timeout
                    # would fire (mirrors Timeout construction).
                    event._value = None
                    env._schedule(event, poll_delay)
            return ring_doorbell

        def ring_doorbell(_offset, _length):
            dirty[index] = None
            event = self._wake_event
            if event is not None:
                self._wake_event = None
                event.succeed()
        return ring_doorbell

    def _arm(self):
        """Arm the doorbell wake-up: returns a fresh event the next ring
        write will succeed (the hook disarms as it fires). Called only
        when about to wait — scans are synchronous, so no write can land
        between a scan that found nothing and the arm that follows it."""
        event = self._wake_event = Event(self._env)
        return event

    def _bounded_wait(self):
        """Generator: block on the doorbell for at most ``peer_timeout``,
        then charge the poll that finds the data (without the bound a
        consume yields :meth:`_arm` itself: the merged wake fires at
        wake + poll cost). A doorbell that stays silent past the bound
        raises FlowPeerFailedError (a pending peer is known dead) or
        FlowTimeoutError (pure stall). Progress resets the bound
        naturally — every wait starts a fresh window."""
        wait_event = self._arm()
        while True:
            timer = self._env.timeout(self._peer_timeout)
            yield self._env.any_of([wait_event, timer])
            if wait_event.triggered:
                break
            if stall_is_congestion(self.node):
                # The silence is explained by active throttling on an
                # inbound path — congestion, not peer death. Re-arm the
                # deadline instead of misfiring; throttle state
                # self-clears, so the grace loop cannot spin forever.
                obs = self.node.metrics
                if obs is not None:
                    obs.inc("core.congestion_grace")
                continue
            self._wake_event = None
            self._raise_peer_failure()
        yield self.node.compute(self.node.cluster.profile.cpu_poll_cost)

    def _raise_peer_failure(self):
        """No progress within the detection bound: classify and raise."""
        pending = [index for index, channel in enumerate(self._channels)
                   if not channel.done]
        faults = self.node.cluster.faults
        obs = self.node.metrics
        if faults is not None and faults.active:
            dead = []
            for index in pending:
                peer = self.registry.cluster.node(
                    self.descriptor.sources[index].node_id)
                if faults.peer_failed(self.node, peer):
                    dead.append(index)
            if dead:
                if obs is not None:
                    obs.inc("core.peer_failures_detected")
                    obs.log((EVENT, self._env.now, FAULT_DETECT,
                             self.descriptor.name, self.node.node_id,
                             f"tgt{self.target_index}", {"sources": dead}))
                raise FlowPeerFailedError(
                    f"flow {self.descriptor.name!r}: source(s) {dead} "
                    f"failed before closing their channels")
        if obs is not None:
            obs.inc("core.consume_timeouts")
        raise FlowTimeoutError(
            f"flow {self.descriptor.name!r}: no segment arrived within "
            f"{self._peer_timeout:.0f} ns; channels {pending} still open")

    @classmethod
    def open(cls, registry: FlowRegistry, name: str,
             target_index: int) -> "ShuffleTarget":
        """Open target endpoint ``target_index`` of flow ``name``:
        allocates the receive rings and publishes them for the sources."""
        descriptor = registry.descriptor(name)
        if descriptor.flow_type not in cls._allowed_flow_types:
            raise FlowError(
                f"flow {name!r} is a {descriptor.flow_type.value} flow")
        if not 0 <= target_index < descriptor.target_count:
            raise FlowError(
                f"target index {target_index} out of range "
                f"[0, {descriptor.target_count})")
        node = registry.cluster.node(
            descriptor.targets[target_index].node_id)
        nic = get_nic(node)
        payload = segment_payload_size(descriptor)
        credit_region = nic.register_memory(8 * descriptor.source_count)
        channels = []
        for source_index in range(descriptor.source_count):
            ring = SegmentRing.allocate(
                nic, descriptor.options.target_segments, payload)
            credit_offset = 8 * source_index
            channels.append(TargetChannel(node, descriptor, ring,
                                          credit_region, credit_offset))
            registry.publish_ring(name, source_index, target_index,
                                  RingHandle(
                                      node_id=node.node_id,
                                      rkey=ring.region.rkey,
                                      segment_count=ring.segment_count,
                                      segment_size=ring.segment_size,
                                      credit_rkey=credit_region.rkey,
                                      credit_offset=credit_offset))
        return cls(registry, descriptor, target_index, channels)

    # -- the consume primitive ----------------------------------------------
    def consume(self):
        """Generator: return the next tuple, or :data:`FLOW_END` once every
        source has closed and all data has been drained.

        Buffered tuples are always delivered before an abort surfaces: a
        single drain pass can pick up data segments *and* an abort marker,
        and per-channel FIFO delivery holds up to the abort point —
        :class:`FlowAbortedError` is raised once the buffer is empty.
        """
        buffer = self._buffer
        if buffer:
            return buffer.popleft()
        while True:
            progressed = self._scan(buffer)
            if buffer:
                return buffer.popleft()
            if self._abort_seen:
                raise FlowAbortedError(
                    f"flow {self.descriptor.name!r} was aborted by a "
                    f"source")
            if self._finished():
                return FLOW_END
            if progressed:
                # Close markers or empty segments arrived; rescan.
                continue
            if self._peer_timeout is None:
                yield self._arm()
            else:
                yield from self._bounded_wait()

    def consume_batch(self):
        """Generator: return every tuple available right now as one list,
        or :data:`FLOW_END` once all sources closed and data drained.

        Batch-size contract: the list holds **all** tuples buffered at
        return time — every ready channel is drained first (all of its
        consecutive consumable segments), so a batch spans segments and
        channels; the flow never returns after just the first buffered
        segment. Its length is bounded by what the receive rings can hold
        (``source_count * target_segments`` segments) plus whatever an
        earlier per-tuple ``consume`` left buffered, and is at least 1 —
        an exhausted flow returns :data:`FLOW_END`, never ``[]``. As with
        :meth:`consume`, buffered tuples are delivered before an abort is
        raised.
        """
        buffer = self._buffer
        if buffer:
            # Leftovers from per-tuple consumes: drain into the deque so
            # FIFO order holds across the mix, then hand over everything.
            if self._dirty:
                self._scan(buffer)
            batch = list(buffer)
            buffer.clear()
            return batch
        if self._dirty:
            # Hot path: drain straight into the batch list — no deque
            # round-trip per tuple.
            batch: list = []
            self._scan(batch)
            if batch:
                return batch
        while True:
            batch = []
            progressed = self._scan(batch)
            if batch:
                return batch
            if self._abort_seen:
                raise FlowAbortedError(
                    f"flow {self.descriptor.name!r} was aborted by a "
                    f"source")
            if self._finished():
                return FLOW_END
            if progressed:
                continue
            if self._peer_timeout is None:
                yield self._arm()
            else:
                yield from self._bounded_wait()

    def consume_bytes(self):
        """Generator: return a list of zero-copy payload ``memoryview``
        chunks — one per drained segment, each a whole number of tuples
        packed in the flow's schema — or :data:`FLOW_END`. The mirror of
        ``push_bytes``: tuples cross the consume boundary without ever
        being unpacked (``Schema.unpack_rows``/``row_views`` decode on
        demand).

        Lifetime rule: the views alias receive-ring memory whose segments
        this call already released for reuse. They stay valid only until
        the consuming process next yields to the simulator (its next
        ``yield``/``yield from`` — another consume, a push, a compute);
        after that a source may overwrite them. Copy with ``bytes(view)``
        to keep data longer.

        Cannot be mixed with tuple-returning consumes while unpacked
        tuples are buffered (raises :class:`FlowError`).
        """
        if self._buffer:
            raise FlowError(
                "consume_bytes with unpacked tuples buffered; drain them "
                "with consume/consume_batch first")
        chunks: list = []
        if self._dirty:
            self._scan_bytes(chunks)
        if chunks:
            return chunks
        while True:
            progressed = self._scan_bytes(chunks)
            if chunks:
                return chunks
            if self._abort_seen:
                raise FlowAbortedError(
                    f"flow {self.descriptor.name!r} was aborted by a "
                    f"source")
            if self._finished():
                return FLOW_END
            if progressed:
                continue
            if self._peer_timeout is None:
                yield self._arm()
            else:
                yield from self._bounded_wait()

    def _finished(self) -> bool:
        """True once the flow is fully drained (hook for subclasses)."""
        return not self._open

    def _scan(self, out) -> bool:
        """Drain every doorbell'd channel into ``out`` (any container
        with ``extend`` — the tuple buffer deque, or a batch list that
        goes straight to the caller without a deque round-trip).

        Each dirty channel is drained of all its consecutive consumable
        segments; a channel leaves the dirty set only here, immediately
        before the drain, so a write landing later re-marks it via the
        hook and nothing is ever missed. Drains fire no write hooks
        themselves (footer releases are direct memory stores), so the
        set cannot grow while it is walked by our own doing.
        """
        progressed = False
        dirty = self._dirty
        channels = self._channels
        while dirty:
            index = next(iter(dirty))
            del dirty[index]
            channel = channels[index]
            if channel.drain(out):
                progressed = True
                if channel.aborted:
                    self._abort_seen = True
        return progressed

    def _scan_bytes(self, out: list) -> bool:
        """Doorbell-set scan for the zero-copy path: chunks, not tuples."""
        progressed = False
        dirty = self._dirty
        channels = self._channels
        while dirty:
            index = next(iter(dirty))
            del dirty[index]
            channel = channels[index]
            if channel.drain_bytes(out):
                progressed = True
                if channel.aborted:
                    self._abort_seen = True
        return progressed

    # -- introspection -----------------------------------------------------
    @property
    def tuples_received(self) -> int:
        return sum(channel.tuples_received for channel in self._channels)

    @property
    def memory_bytes(self) -> int:
        """Receive-side buffer memory of this endpoint."""
        return sum(channel.memory_bytes for channel in self._channels)
