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

from functools import partial
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
    SchemaError,
)
from repro.core.flowdef import (
    FLOW_END,
    MULTICAST_PAYLOAD_LIMIT,
    NO_FLUSH,
    FlowDescriptor,
    Optimization,
)
from repro.core.registry import FlowRegistry, RingHandle
from repro.core.routing import (
    _HASH_MASK,
    _HASH_MULT,
    _ROUTE_NP_MIN,
    key_hash_router,
)
from repro.core.segment import (
    BLANK_FOOTER,
    FLAG_ABORTED,
    FLAG_CLOSED,
    FLAG_CONSUMABLE,
    FOOTER_SIZE,
    FOOTER_STRUCT,
    SegmentRing,
    pack_footer_into,
)
from repro.obs import FAULT_DETECT, REROUTE, endpoint_obs, log_close, log_event
from repro.common.planelog import CONSUME, WRITE
from repro.core.writers import REFRESH_DUE, CreditWindow, FooterWindow
from repro.rdma.completion import Opcode, WorkRequest
from repro.rdma.memory import Doorbell, zeroed
from repro.rdma.nic import get_nic
from repro.simnet.congestion import stall_is_congestion
from repro.simnet.kernel import PARK

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


#: The footer flag word of each close/abort flag set a source seals.
_FLAG_WORDS = {flags: _flag_word(FLAG_CONSUMABLE | flags)
               for flags in (0, FLAG_CLOSED, FLAG_CLOSED | FLAG_ABORTED)}


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


def _regroup(tuples, slots, count: int) -> list:
    """``tuples`` grouped by their ``slots``, in batch order."""
    groups = [[] for _ in range(count)]
    for values, slot in zip(tuples, slots):
        groups[slot].append(values)
    return groups


def segment_payload_size(descriptor: FlowDescriptor) -> int:
    """Per-segment payload bytes for a flow: exactly one tuple in latency
    mode, else the configured segment size — capped to one UD datagram on
    a multicast replicate flow."""
    if descriptor.optimization is Optimization.LATENCY:
        return descriptor.latency_segment_size()
    size = descriptor.options.segment_size
    if descriptor.options.multicast:
        size = min(size, MULTICAST_PAYLOAD_LIMIT)
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


def _node_obs(endpoint):
    """A flow endpoint's ``_obs`` (what ``log_event`` logs through): its
    node's registry, read when a rare record is logged — the plane may
    come on after the endpoint opened."""
    return endpoint.node.metrics


def _source_counters(source):
    """Read-time counter harvest (see MetricsRegistry.add_collector)."""
    return (("core.tuples_pushed", source.tuples_sent),
            ("core.segments_flushed", source.segments_sent))


class SegmentStager:
    """A source's staging: a ring of ``slots`` slots, each a segment's
    ``payload_size`` bytes and a footer behind them. Tuples are packed
    once, into the open slot at ``base`` (``used`` bytes so far), and
    :meth:`seal` footers it and opens the next. ``ShuffleSource.push``
    packs a tuple into a bandwidth channel's stager in place, through
    ``buffer``, ``base`` and ``used``, without the call :meth:`append`
    costs.

    Writes are posted zero-copy, so a sealed slot must stay unchanged
    until every write of it committed. Each owner sizes the ring so that
    holds without completions of its own:

    * A bandwidth shuffle channel, N = ``source_segments``: 2N. The
      wrap-around wait before write f with f % N == 0 implies every write
      up to f - 1 has committed, and a slot is only repacked 2N seals
      after it was posted — at which point the latest wrap wait already
      covered it, even for a batch that packs up to the next wrap before
      it waits. A small routed batch may seal segment s and pack the
      next slot before it posts s: that slot held segment s + 1 - 2N,
      which the wrap wait before a write f in [s - N, s - 1] covered
      (every write up to f - 1 >= s - N - 1), as N >= 2.
    * A naive replicate source: segment h is packed after the fan-out of
      segment h - 1, so every live channel has posted h - 1, and the slot
      h reuses last held segment h - slots. In bandwidth mode a channel
      reaps its signaled wrap WQE before it writes segment m, for every
      m a multiple of N; the last such m <= h - 1 is at least h - N, so
      every write up to h - N - 1 has committed: N + 1. In latency mode
      (T = ``target_segments``, the remote ring) the credit segment h - 1
      held means the target consumed, hence committed, every segment up
      to h - T - 1: T + 1. A batch's whole segments, in a buffer of their
      own, count as channel writes between two ring slots and only widen
      that gap.
    * A multicast replicate or SHARP source: 1. Its flush copies the slot
      out (a datagram, or rows for the switch) before it returns.

    The spare slots are the price of packing before the wait and of not
    having real DMA-completion reuse; memory accounting reports the N (or
    T) slots the protocol needs.
    """

    __slots__ = ("schema", "tuple_size", "_pack_tuple", "_pack_many_into",
                 "payload_size", "_full_above", "slot_size", "slots",
                 "buffer", "view", "base", "used", "sealed")

    def __init__(self, schema, payload_size: int, slots: int = 1) -> None:
        self.schema = schema
        # Bound once: ``append`` runs per tuple, ``room``/``full`` and
        # ``pack_many_into`` per chunk on the batched push path.
        self.tuple_size = schema.tuple_size
        self._pack_tuple = schema.raw_pack_into
        self._pack_many_into = schema.pack_many_into
        self.payload_size = payload_size
        #: The buffer reads as full once ``used`` exceeds this.
        self._full_above = payload_size - self.tuple_size
        self.slot_size = payload_size + FOOTER_SIZE
        self.slots = slots
        self.buffer = zeroed(slots * self.slot_size)
        self.view = memoryview(self.buffer)
        #: Offset of the open slot, and the payload bytes packed into it.
        self.base = 0
        self.used = 0
        #: Slots sealed so far.
        self.sealed = 0

    def append(self, values: tuple) -> bool:
        """Pack one tuple; returns :attr:`full`."""
        used = self.used
        try:
            self._pack_tuple(self.buffer, self.base + used, *values)
        except _struct_error as exc:
            raise self.schema.mismatch(values, exc) from None
        except TypeError:
            raise self.schema.not_a_row(values) from None
        self.used = used = used + self.tuple_size
        return used > self._full_above

    def append_many(self, tuples) -> None:
        """Pack a batch of tuples with one ``struct`` call; the caller
        checks :attr:`room` first."""
        self._pack_many_into(self.buffer, self.base + self.used, tuples)
        self.used += self.tuple_size * len(tuples)

    @property
    def room(self) -> int:
        """How many more tuples fit before the buffer reads as full."""
        return (self.payload_size - self.used) // self.tuple_size

    @property
    def full(self) -> bool:
        return self.used > self._full_above

    def seal(self, flags: int, seq: int) -> memoryview:
        """Footer the open slot as ``used`` bytes under close/abort
        ``flags`` and ``seq``, open the next slot empty, and return the
        sealed slot's view."""
        base = self.base
        _FOOTER_PACK_INTO(self.buffer, base + self.payload_size, self.used,
                          _FLAG_WORDS[flags], seq)
        self.sealed += 1
        self.base = (self.sealed % self.slots) * self.slot_size
        self.used = 0
        return self.view[base:base + self.slot_size]


class _SourceChannel:
    """What both channel classes share: the QP to one target ring, the
    stats the counters are harvested from, the observability identity,
    and the close and abort sequence around the class's marker write,
    ``_flush(flags)``."""

    def __init__(self, node: "Node", descriptor: FlowDescriptor,
                 handle: RingHandle, channel_tag: tuple) -> None:
        self.node = node
        self.env = node.env
        self.profile = node.cluster.profile
        self.schema = descriptor.schema
        self.segment_payload = segment_payload_size(descriptor)
        self.qp = get_nic(node).create_qp(node.cluster.node(handle.node_id))
        self.remote = handle
        self._remote_slot = handle.segment_size + FOOTER_SIZE
        self._slot_size = self.segment_payload + FOOTER_SIZE
        self._rng = node.backoff_rng
        self._tuple_size = self.schema.tuple_size
        #: Remote ring region, resolved once on the first write.
        self._remote_region = None
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

    _collect_obs = _source_counters

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
        wr = yield from self._flush(FLAG_CLOSED | FLAG_ABORTED)
        self.closed = True
        if self._obs is not None:
            log_close(self, {"aborted": True})
        if not wr.done.triggered:
            yield wr.done


class BandwidthSourceChannel(_SourceChannel):
    """Source half of one bandwidth-optimized channel."""

    def __init__(self, node: "Node", descriptor: FlowDescriptor,
                 handle: RingHandle, channel_tag: tuple,
                 staging: bool = True) -> None:
        super().__init__(node, descriptor, handle, channel_tag)
        # The C++ implementation keeps a full send ring so segment memory
        # stays untouched until the NIC finished its DMA; the staging ring
        # is 2N slots for the same reason (see SegmentStager). A channel
        # whose owner posts slots of its own (``staging=False``: a naive
        # replicate source) stages nothing.
        self._ring_segments = descriptor.options.source_segments
        self._pipelined_preread = descriptor.options.pipelined_footer_read
        self._stager = SegmentStager(
            self.schema, self.segment_payload,
            2 * self._ring_segments if staging else 0)
        self._local_index = 0
        self._cpu_debt = 0.0
        # Per-tuple push constants, fixed for the channel's lifetime
        # (``ShuffleSource.push`` stages into this channel in place).
        self._pack_tuple = self.schema.raw_pack_into
        self._tuple_debt = self.profile.cpu_push_cost(self._tuple_size)
        #: A push that leaves the stager's ``used`` above this has filled
        #: the segment.
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
        #: Which remote slot is next and how many are proven writable.
        self._window = FooterWindow(
            self, handle,
            max(1, min(self._ring_segments, handle.segment_count // 2)),
            descriptor.options.max_backoff_retries)
        #: Reused entry list for doorbell trains (cleared per flush;
        #: ``post_train`` copies nothing out of it after it returns).
        self._train_entries = []

    @property
    def memory_bytes(self) -> int:
        return self._ring_segments * (self.segment_payload + FOOTER_SIZE)

    def charge_batch(self, total: int):
        """First step of a batched append of ``total`` tuples (at least
        one): the CPU delay (``Node.compute``) the caller must yield
        before :meth:`stage_batch`.

        The same per-tuple CPU debt accrues as for one-by-one pushes, but
        it is returned as **one delay per channel-batch**: leftover debt
        from earlier pushes, the batch's per-tuple work, and the post cost
        of every flush the batch will trigger (a flush fires each time the
        staged tuple count reaches a full segment). The caller must have
        slept it before a flush :meth:`stage_batch` returns is driven; a
        routed ``ShuffleSource.push_batch`` adds the delays of the groups
        that only stage rows to one deadline and sleeps once per flush
        boundary.
        """
        if self.closed:
            raise FlowClosedError("push on a closed flow source")
        tuple_size = self._tuple_size
        flushes = ((self._stager.used // tuple_size + total)
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
        stager = self._stager
        used = stager.used
        if take is None:
            take = len(rows) // stride
            if used + take * self._tuple_size > self._flush_above:
                return self._flush_batch(rows, take, fill, stride)
        fill(stager.buffer, stager.base + used, rows)
        stager.used = used + take * self._tuple_size
        self.tuples_sent += take
        return NO_FLUSH

    def _flush_batch(self, rows, total: int, fill, stride: int):
        """Generator: stage a batch that fills at least one segment,
        flushing as it goes; each filled segment is packed with a single
        ``fill`` call."""
        tuple_size = self._tuple_size
        capacity = self.segment_payload
        seg_tuples = capacity // tuple_size
        stager = self._stager
        index = 0
        while index < total:
            # Whole segments ahead and nothing staged: packed straight
            # into their slots, up to the next ring wrap, and written as
            # doorbell trains.
            whole = ((total - index) // seg_tuples
                     if self._train_ok and not stager.used else 0)
            seq = stager.sealed
            if whole:
                count = min(whole, self._ring_segments - self._local_index)
                slots = [None] * count
                for position in range(count):
                    try:
                        fill(stager.buffer, stager.base,
                             rows[index * stride:
                                  (index + seg_tuples) * stride])
                    except SchemaError:
                        # The segments sealed ahead of the bad row go out
                        # before it surfaces, as the rows ahead of it do
                        # in a group that starts mid-segment.
                        if position:
                            self.tuples_sent += position * seg_tuples
                            yield from self._post_train(slots[:position])
                        raise
                    index += seg_tuples
                    stager.used = capacity
                    slots[position] = stager.seal(0, seq + position)
                self.tuples_sent += count * seg_tuples
            else:
                take = min((capacity - stager.used) // tuple_size,
                           total - index)
                if take:
                    self.stage_batch(
                        rows[index * stride:(index + take) * stride], fill,
                        stride, take)
                    index += take
                if stager.used + tuple_size <= capacity:
                    continue
                if not self._train_ok:
                    yield from self._flush(0, charge_cpu=False)
                    continue
                # A train of one, for the slot the batch topped up: even
                # that wins over ``_flush``, whose per-segment pre-read
                # the windowed proof replaces (one READ round-trip per
                # window instead of per segment).
                slots = (stager.seal(0, seq),)
            yield from self._post_train(slots)

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
        """Generator: footer the open staging slot under close/abort
        ``extra_flags`` (an abort empties it first) and write it
        (:meth:`_write_slot`); returns the work request of a signaled
        write."""
        # Charge the CPU work accumulated by pushes plus the post cost
        # (a batch's ``charge_batch`` pre-charges both, and its flush
        # loop passes ``charge_cpu=False``).
        if charge_cpu:
            debt = self._cpu_debt + self.profile.cpu_post_cost
            self._cpu_debt = 0.0
            yield self.node.compute(debt)
        stager = self._stager
        if extra_flags & FLAG_ABORTED:
            stager.used = 0  # abort voids delivery: staged tuples go
        used = stager.used
        return (yield from self._write_slot(
            stager.seal(extra_flags, stager.sealed), used, extra_flags))

    def _write_slot(self, slot, used: int, flags: int):
        """Generator: write ``slot`` — one segment as it lies in a source
        ring, ``used`` payload bytes and its footer under close/abort
        ``flags`` behind ``segment_payload``, which its owner (the
        :class:`SegmentStager` of this channel or of a replicate source)
        keeps unchanged until the write commits — into the next remote
        slot; returns the
        work request of a signaled write, else ``None``. A partial
        segment writes its used payload, then the footer at its fixed
        end-of-segment position (RC orders writes per QP, so the footer
        still lands strictly after the payload)."""
        if self.env._ahead is not None:
            yield PARK   # a post books the wire other threads book
        # The wrap WQE is reaped before the slot is proven.
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
        signaled = (flags & FLAG_CLOSED
                    or self._local_index == self._ring_segments - 1)
        wr = (WorkRequest(self.env, None, Opcode.WRITE, True) if signaled
              else None)
        region = self._remote_region
        if region is None:
            region = _resolve_remote_region(self)
        remote_offset = window.index * self._remote_slot
        footer_at = self.segment_payload
        if used == footer_at:
            self.qp.post_lone(wr, self._slot_size, ((0, slot),), region,
                              remote_offset)
        else:
            if used:
                self.qp.post_lone(None, used, ((0, slot[:used]),), region,
                                  remote_offset)
            self.qp.post_lone(wr, FOOTER_SIZE, ((0, slot[footer_at:]),),
                              region, remote_offset + self.remote.segment_size)
        if signaled:
            self._wrap_wr = wr
        if self._obs is not None:
            # Keyed on the ring position the write fills, not on the
            # footer's ``seq`` (an ordered replicate's global number).
            self._obs.log((WRITE, self.env.now, self, self.remote,
                           self.segments_sent, 1, used))
        self.segments_sent += 1
        # Pipeline the footer pre-read of the *next* remote segment with
        # this write (paper Section 5.2).
        window.index = (window.index + 1) % self.remote.segment_count
        if self._pipelined_preread:
            window.pending_slot = window.read_ahead(1)
        self._local_index = (self._local_index + 1) % self._ring_segments
        return wr

    def _post_train(self, slots):
        """Generator: :meth:`_write_slot` for full segments, as doorbell
        trains as long as the window's proof and the send ring's wrap
        allow (the signaled wrap WQE ends its train; an unsignaled WQE
        gets no WorkRequest). A train that used up the window pipelines
        the next window's footer read behind it — the train analogue of
        the paper's per-segment footer pre-read."""
        if self.env._ahead is not None:
            yield PARK   # as in :meth:`_write_slot`
        window = self._window
        entries = self._train_entries
        region = self._remote_region
        if region is None:
            region = _resolve_remote_region(self)
        slot_size = self._slot_size
        ring = self._ring_segments
        while slots:
            if self._local_index == 0 and self._wrap_wr is not None:
                yield from self._reap_wrap()
            if not window.left:
                yield from window.acquire(window.train)
            # Counted in the loop: a train costs no builtin call.
            room = ring - self._local_index
            count = 0
            entries.clear()
            for slot in slots[:window.left if window.left < room else room]:
                if self._local_index == ring - 1:
                    wr = self._wrap_wr = WorkRequest(self.env, None,
                                                     Opcode.WRITE, True)
                else:
                    wr = None
                entries.append((wr, slot_size, ((0, slot),), region,
                                window.index * self._remote_slot))
                window.index = (window.index + 1) % self.remote.segment_count
                self._local_index += 1
                count += 1
            self._local_index %= ring
            window.left -= count
            if self._obs is not None:
                self._obs.log((WRITE, self.env._now, self, self.remote,
                               self.segments_sent, count, None))
            self.segments_sent += count
            slots = slots[count:]
            self.qp.post_train(entries)
            window.pending_slot = None  # a slot the train wrote over
            if not window.left and self._pipelined_preread:
                window.pending_window = window.read_ahead(window.train)


class LatencySourceChannel(_SourceChannel):
    """Source half of one latency-optimized channel (credit-based)."""

    def __init__(self, node: "Node", descriptor: FlowDescriptor,
                 handle: RingHandle, channel_tag: tuple,
                 staging: bool = True) -> None:
        if handle.credit_rkey is None:
            raise FlowError("latency channels need a credit counter handle")
        super().__init__(node, descriptor, handle, channel_tag)
        # Zero-copy staging: one slot per remote segment, plus one because
        # a send stages its slot before it waits for its credit. A slot
        # staged for send s last held send s - segment_count - 1, which the
        # credit send s - 1 held proves consumed, hence committed
        # (``staging=False``: the owner's slots, a SegmentStager).
        self._staging_slots = handle.segment_count + 1
        self._staging = zeroed(
            self._staging_slots * self._slot_size if staging else 0)
        self._staging_view = memoryview(self._staging)
        self._pack_tuple = self.schema.raw_pack_into
        #: The close/abort marker write, ``_flush(flags)``: a zeroed
        #: payload (a partial, so a marker costs no call of its own).
        self._flush = partial(self._send, node.compute(
            self.profile.cpu_post_cost), _copy_into,
            bytes(self.segment_payload), 0)
        #: CPU delay of one push, the tuple copy plus posting its write
        #: (``_cpu_scale`` is construction-constant, see ``Doorbell``).
        self._push_delay = node.compute(
            self.profile.cpu_push_cost(self._tuple_size)
            + self.profile.cpu_post_cost)
        self._segments = handle.segment_count
        #: :meth:`_post` bound once: a push that runs ahead hands it to
        #: ``Environment.run_ahead`` without building a method object.
        self._post_write = self._post
        #: Segments sent against the target's consumed counter.
        self._credit = CreditWindow(self, handle,
                                    descriptor.options.credit_threshold,
                                    descriptor.options.max_backoff_retries)

    @property
    def memory_bytes(self) -> int:
        return 8  # only the credit-read scratch; no local ring is needed

    def release(self) -> None:
        """Shed the window's NIC region once the channel is closed (see
        ``BandwidthSourceChannel.release``)."""
        self._credit.release()

    def _send(self, delay: float, fill, payload, used: int, flags: int = 0):
        """Stage ``fill(staging, base, payload)`` in the next staging slot,
        footered as ``used`` bytes under close/abort ``flags`` (a marker's
        payload is zeroed), and return :meth:`_write_slot` of it."""
        seq = self._credit.sent
        base = (seq % self._staging_slots) * self._slot_size
        fill(self._staging, base, payload)
        _FOOTER_PACK_INTO(self._staging, base + self.segment_payload, used,
                          _FLAG_WORDS[flags], seq)
        return self._write_slot(
            self._staging_view[base:base + self._slot_size], used, flags,
            delay)

    def _write_slot(self, slot, used: int, flags: int,
                    delay: "float | None" = None):
        """Generator: the one latency-mode write. Sleep ``delay``, a CPU
        charge already scaled by ``node.compute`` (``None``: the caller
        charged its own), hold a credit, post ``slot``
        — one segment holding ``used`` payload bytes and its footer
        under close/abort ``flags``, in a buffer its owner keeps
        unchanged until the write commits — as one zero-copy write, then
        top the credits up. Returns the work request of a marker (a
        write with ``flags``), else ``None``: data writes are
        fire-and-forget, only a close/abort marker is ever observed."""
        if delay is not None:
            yield delay
        elif self.env._ahead is not None:
            yield PARK
        credit = self._credit
        sent = credit.sent
        pending = credit.pending
        if (sent - credit.consumed >= self._segments
                or pending is not None and pending.done.triggered):
            # The window is shut, or a refresh to harvest (one still in
            # flight leaves it as it is).
            yield from credit.acquire()
        wr = (WorkRequest(self.env, None, Opcode.WRITE, True) if flags
              else None)
        credit.sent = sent + 1
        self._post(sent, wr, slot, used)
        return wr

    def _post(self, sent: int, wr=None, slot=None, used: int = 0) -> None:
        """Post write ``sent`` — ``slot`` holding ``used`` payload bytes,
        or by default the staging slot a push filled for it — and top
        the credits up after a data write (``wr`` is ``None``). The tail
        of :meth:`_write_slot`, and alone the action of a push that ran
        ahead of the clock (``Environment.run_ahead``): that push counted
        it in ``credit.sent`` and, when this post starts the refresh,
        marked it :data:`REFRESH_DUE` — ``consumed`` has not moved since,
        so the credits the post leaves tell which post that is."""
        segments = self._segments
        if slot is None:
            base = (sent % self._staging_slots) * self._slot_size
            slot = self._staging_view[base:base + self._slot_size]
            used = self._tuple_size
        region = self._remote_region
        if region is None:
            region = _resolve_remote_region(self)
        self.qp.post_lone(wr, self._slot_size, ((0, slot),), region,
                          (sent % segments) * self._remote_slot)
        if self._obs is not None:
            self._obs.log((WRITE, self.env._now, self, self.remote,
                           sent, 1, used))
        self.segments_sent += 1
        if wr is None:
            # A tuple went out (the marker that ends the channel carries
            # none and needs no credit after it).
            self.tuples_sent += 1
            credit = self._credit
            if (segments - (sent + 1 - credit.consumed) <= credit.threshold
                    and (credit.pending is None
                         or credit.pending is REFRESH_DUE)):
                credit.refresh_async()


def _source_channel(node: "Node", descriptor: FlowDescriptor,
                    handle: RingHandle, tag: tuple, staging: bool = True):
    """The source half of channel ``tag``, of the class the flow's
    optimization selects; ``staging=False`` for a channel that only
    writes its owner's slots."""
    channel_cls = (LatencySourceChannel
                   if descriptor.optimization is Optimization.LATENCY
                   else BandwidthSourceChannel)
    return channel_cls(node, descriptor, handle, tag, staging)


def _open_channels(registry: FlowRegistry, node: "Node",
                   descriptor: FlowDescriptor, source_index: int,
                   channels: list, staging: bool = True):
    """Generator: append to ``channels`` the channel from source
    ``source_index`` to every target from ``len(channels)`` on, each
    opened once its target published the ring; returns ``channels``."""
    name = descriptor.name
    for target_index in range(len(channels), descriptor.target_count):
        handle = yield from registry.wait(
            name, ("ring", source_index, target_index))
        tag = (name, source_index, target_index)
        channels.append(_source_channel(node, descriptor, handle, tag,
                                        staging))
    return channels


def torn_segment(index: int, used: int, tuple_size: int,
                 room: int) -> FlowError:
    """The one torn-row error: segment ``index`` claims ``used`` payload
    bytes that are not a whole number of ``tuple_size``-byte rows within
    the ``room`` bytes it may hold (callers test inline). Every consumer
    — rows, packed bytes, the ordered path, a multicast datagram — hands
    out whole rows, so a torn row is a protocol bug to surface where it
    is read."""
    return FlowError(
        f"segment {index} holds {used} bytes: not a whole number of "
        f"{tuple_size}-byte rows within {room}")


class TargetChannel:
    """Target half of one channel: a receive ring drained in ring order.

    ``schema`` is the row layout the ring carries (the flow's unless
    given), ``sources`` the sources the ring waits on until its close
    marker: source ``i`` on an end-host ring (whose credit counter sits
    at ``8 * i``); on the SHARP switch ring, the live set of sources whose
    close marker the switch has not folded. The switch reads no credits,
    so its ring has no ``credit_region``."""

    def __init__(self, node: "Node", descriptor: FlowDescriptor,
                 ring: SegmentRing, credit_region, credit_offset: int,
                 schema=None, sources=None) -> None:
        self.node = node
        self.schema = descriptor.schema if schema is None else schema
        self.sources = (credit_offset // 8,) if sources is None else sources
        self.ring = ring
        self._credit_region = credit_region
        self._credit_offset = credit_offset
        self._track_credits = (credit_region is not None
                               and descriptor.optimization
                               is Optimization.LATENCY)
        self._footer_offsets = tuple(range(
            ring.segment_size, ring.segment_count * ring.slot_size,
            ring.slot_size))
        # Proven once, here: a payload is sliced out of the whole-ring
        # view at ``footer offset - segment size`` and the credit counter
        # is packed in place, both without a range check per segment.
        self._segment_size = ring.segment_size
        self._segment_count = ring.segment_count
        self._tuple_size = self.schema.tuple_size
        self._view = ring.region.view(0, ring.total_bytes)
        if credit_region is not None:
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
        self._tid = (f"t<-s{credit_offset // 8}" if credit_region is not None
                     else "t<-switch")
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
        index = self._index
        mem = self.ring.region.mem
        footer_offset = self._footer_offsets[index]
        if not (mem[footer_offset + 4] & FLAG_CONSUMABLE):
            return None
        footer = self.ring.read_footer(index)
        if footer.closed:
            self._mark_done()
        tuples = []
        used = footer.used
        if footer.aborted:
            self.aborted = True  # abort voids any delivery guarantee
        elif used:
            if used % self._tuple_size or used > self._segment_size:
                raise torn_segment(index, used, self._tuple_size,
                                   self._segment_size)
            start = footer_offset - self._segment_size
            tuples = self.schema.unpack_rows(self._view[start:start + used])
        # Release the segment: reset the footer locally (writable again).
        # Direct memory write — no write hooks should fire for local resets.
        mem[footer_offset:footer_offset + FOOTER_SIZE] = BLANK_FOOTER
        self._index = self.ring.next_index(index)
        self.tuples_received += len(tuples)
        if self._obs is not None:
            # Keyed on the ring position, as ``drain``'s record is (the
            # footer's ``seq`` may be an ordered replicate's global number).
            self._obs.log((CONSUME, self.node.env.now, self, self.ring,
                           self._consumed, (len(tuples),), False,
                           footer.closed))
        self._consumed += 1
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

    def drain(self, out, unpack) -> int:
        """Consume every consecutive consumable segment in one pass.

        With ``unpack`` (the schema's ``iter_unpack``; the torn-row check
        proves each payload whole rows) each segment's rows are
        ``extend``ed onto the list ``out``. With ``None`` its
        payload is ``append``ed as one zero-copy ``memoryview``, a whole
        number of packed rows; the view aliases ring memory this call
        already released for overwrite, so it is valid only until the
        consuming process yields back to the simulator. Footers are
        released with direct hook-free memory writes as the pass walks
        the ring. In latency mode the consumed counter is published once
        per pass: the pass runs inside one event continuation, so no
        remote credit read can sample between its segments. Returns the
        number of rows drained.
        """
        if self.done:
            return 0
        mem = self.ring.region.mem
        offsets = self._footer_offsets
        segment_count = self._segment_count
        view = self._view
        segment_size = self._segment_size
        tuple_size = self._tuple_size
        add = out.append if unpack is None else out.extend
        index = self._index
        consumed = self._consumed
        # Observability: one log record per pass — it runs at one sim
        # time and consumes sequence numbers ``consumed, consumed + 1,
        # ...``, so per segment it only collects the tuple count.
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
                    used = 0  # abort voids its own segment's delivery
                if flags & FLAG_CLOSED:
                    self._mark_done()
            if used:
                if used % tuple_size or used > segment_size:
                    raise torn_segment(index, used, tuple_size,
                                       segment_size)
                start = footer_offset - segment_size
                payload = view[start:start + used]
                add(payload if unpack is None else unpack(payload))
                received += used // tuple_size
            if counts is not None:
                counts.append(used // tuple_size)
            mem[footer_offset:footer_offset + FOOTER_SIZE] = BLANK_FOOTER
            index += 1
            if index == segment_count:
                index = 0
            drained += 1
            if self.done:
                break
        if drained:
            self._index = index
            self._consumed = consumed + drained
            self.tuples_received += received
            if obs is not None:
                obs.log((CONSUME, self.node.env._now, self, self.ring,
                         consumed, counts, True, self.done))
            if self._track_credits:
                _U64_PACK_INTO(self._credit_region.mem, self._credit_offset,
                               self._consumed)
        return received


class _FlowSource:
    """What every source endpoint shares: its identity, the live and
    failed target sets, and the one failure path. A transport brings how
    it voids the flow (:meth:`_void`) and, if it writes RC rings, its
    ``_channels``.

    A failed channel enters :meth:`_handle_channel_failure`, a write-off
    with other evidence (a multicast credit stall) enters
    :meth:`_fail_targets` at the count step; both end in the flow's
    policy: reroute while the survivors can absorb the load, else
    :meth:`_abort_survivors` and :class:`FlowPeerFailedError`."""

    #: The RC channels, one per target; a transport without any (UD
    #: multicast, the send to the switch) has none to fail or release.
    _channels = ()

    def __init__(self, registry: FlowRegistry, descriptor: FlowDescriptor,
                 source_index: int, absorbs: bool = True) -> None:
        self.registry = registry
        self.descriptor = descriptor
        self.source_index = source_index
        self.node = registry.cluster.node(
            descriptor.sources[source_index].node_id)
        self.closed = False
        #: Target indices still written to, ascending (failed targets
        #: drop out), and their count: both only ever set by
        #: :meth:`_set_live`.
        self._live = []
        self._set_live(range(len(descriptor.targets)))
        #: Target indices declared failed.
        self._failed: set[int] = set()
        #: Whether the reroute policy applies: it is the flow's
        #: (``FlowOptions.on_target_failure``) and the survivors can
        #: absorb a failed target's load (``absorbs``: a shuffle source
        #: needs a router).
        self._reroute = (absorbs and descriptor.options.on_target_failure
                         == "reroute")
        #: Set once the flow is being voided: failures the abort itself
        #: runs into are only marked.
        self._aborting = False
        self._flow = descriptor.name
        self._tid = f"src{source_index}"

    @property
    def failed_targets(self) -> tuple:
        """Indices of targets this source has declared failed."""
        return tuple(sorted(self._failed))

    def _set_live(self, live) -> None:
        """Make ``live`` the live targets — in place, as a fan-out may be
        walking them — and keep ``_fanout``, the count a push routes
        over, in step."""
        self._live[:] = live
        self._fanout = len(self._live)

    def _mark_failed(self, targets) -> None:
        self._failed.update(targets)
        self._set_live([index for index in self._live
                        if index not in self._failed])

    def _handle_channel_failure(self, index: int, exc: Exception):
        """Generator: channel ``index`` hit a transport flush or ran out
        its retry budget. The one liveness test — a flushed QP, or the
        fault plane's ``peer_failed`` — decides whether the peer is dead:
        then :meth:`_fail_targets` applies the policy; otherwise ``exc``
        (a stall, e.g. a slow consumer ran the retry budget out) is
        raised unchanged."""
        self._channels[index].closed = True  # no more traffic toward it
        self._mark_failed((index,))
        if self._aborting:
            return
        faults = self.node.cluster.faults
        peer = self.registry.cluster.node(
            self.descriptor.targets[index].node_id)
        if (isinstance(exc, QpFlushedError)
                or (faults is not None and faults.active
                    and faults.peer_failed(self.node, peer))):
            yield from self._fail_targets([index], type(exc).__name__,
                                          peer.node_id, exc)
            return
        if self._obs is not None:
            self._obs.inc("core.target_failures")
        raise exc

    def _fail_targets(self, targets: list, cause: str, peer_node, exc):
        """Generator: ``targets``, already marked failed, are known dead
        — ``exc`` is the evidence, ``cause`` its name in the
        ``FAULT_DETECT`` record, ``peer_node`` the dead node where one is
        known. Counts them and, under the reroute policy with survivors
        left, returns (the survivors absorb the load); otherwise voids
        the flow and raises :class:`FlowPeerFailedError`."""
        obs = self._obs
        if obs is not None:
            detail = {"targets": targets, "cause": cause,
                      "peer_node": peer_node, "survivors": len(self._live)}
            obs.inc("core.target_failures", len(targets))
            obs.inc("core.peer_failures_detected", len(targets))
            log_event(self, FAULT_DETECT, detail)
        if self._reroute and self._live:
            if obs is not None:
                obs.inc("core.reroutes", len(targets))
                log_event(self, REROUTE, detail)
            return
        yield from self._abort_survivors()
        raise self._peer_failed(targets, exc) from exc

    def _peer_failed(self, targets, exc) -> FlowPeerFailedError:
        """The one error a source raises for dead ``targets``."""
        return FlowPeerFailedError(
            f"target {', '.join(map(str, targets))} of flow "
            f"{self.descriptor.name!r} failed ({exc})")

    def _abort_survivors(self):
        """Generator: void the flow — mark it aborted in the registry, so
        a target opening later sees the flag instead of waiting for
        traffic that will never come, send the transport's abort marker
        (:meth:`_void`; best effort, some survivors may be dead too),
        then release every channel."""
        if self.node.env._ahead is not None:
            yield PARK
        self._aborting = True
        self.registry.mark_flow_aborted(self.descriptor.name)
        yield from self._void()
        self.closed = True
        self._set_live(())
        self._release()

    def _await_acks(self, work_requests):
        """Generator: wait for the ack of every ``(target, work request)``
        pair; returns the ``(target, error)`` pairs of the ones that
        failed."""
        failures = []
        for index, wr in work_requests:
            try:
                if not wr.done.triggered:
                    yield wr.done
                elif wr.error is not None:
                    raise wr.error
            except (QpFlushedError, FlowTimeoutError) as exc:
                failures.append((index, exc))
        return failures

    def _release(self) -> None:
        """Every marker is acknowledged (or its target is gone): the
        channels post nothing more, so their NIC regions go — a
        flow-cycling cluster must not keep one per channel per flow."""
        for channel in self._channels:
            channel.release()


class ShuffleSource(_FlowSource):
    """The per-thread source endpoint of a shuffle flow."""

    #: Transports this class opens on (see ``FlowRegistry.open_endpoint``).
    transports = ("shuffle", "combiner")

    def __init__(self, registry: FlowRegistry, descriptor: FlowDescriptor,
                 source_index: int, channels: list) -> None:
        self._channels = channels
        schema = descriptor.schema
        #: The key field ``push`` hashes in its own frame: the flow's
        #: own key-hash router's, never an application's.
        self._key_index = None
        if descriptor.routing is not None:
            # Routing-function state is per source: a stateful router
            # hands each source endpoint of the flow a router of its own.
            for_source = getattr(descriptor.routing, "for_source", None)
            self._router = (descriptor.routing if for_source is None
                            else for_source())
        elif descriptor.shuffle_key is not None:
            self._router = key_hash_router(schema, descriptor.shuffle_key)
            self._key_index = self._router.key_index
        elif len(channels) == 1:
            self._router = lambda _values, _count: 0
        else:
            self._router = None  # direct routing only
        #: Whether the router's answers are checked: the flow's own
        #: routers cannot leave ``[0, live targets)``, a routing function
        #: of the application can.
        self._vet_routes = descriptor.routing is not None
        #: Whether a push writes its tuple at once, one segment per tuple
        #: (latency channels), instead of staging it into segments.
        self._latency = descriptor.optimization is Optimization.LATENCY
        #: ``push_batch``'s row packer: a bandwidth group's rows into the
        #: channel's staging slot, a latency row into the slot it is sent
        #: from.
        self._fill = schema.pack_many_into
        #: How ``push_batch`` splits a batch it does not route row by
        #: row: an application router's own ``route_many``, if it brings
        #: one, else on a bandwidth flow the key-hash router's packed
        #: ``partition`` (which may decline a batch).
        self._route_many = self._partition = None
        if self._vet_routes:
            self._route_many = getattr(self._router, "route_many", None)
        elif self._key_index is not None and not self._latency:
            self._partition = self._router.partition
        #: The most rows of a routed batch ``push_batch`` stages row by
        #: row (see there).
        payload = segment_payload_size(descriptor)
        self._row_loop_max = (
            min(_ROUTE_NP_MIN - 1, payload // schema.tuple_size)
            if not self._latency and not payload % schema.tuple_size
            and self._route_many is None else 0)
        #: Tuples pushed into channels ``retire_target`` has dropped.
        self._retired_sent = 0
        #: ``(instant, deadline)`` of the CPU a batch charged and left
        #: unslept: the source's next post sleeps it (``_carried``).
        self._carry = None
        # Survivors absorb a failed target's key share only through a
        # router.
        super().__init__(registry, descriptor, source_index,
                         absorbs=self._router is not None)

    _obs = property(_node_obs)

    @classmethod
    def open(cls, registry: FlowRegistry, name: str, source_index: int):
        """Generator: open source endpoint ``source_index`` of flow
        ``name``, waiting for the targets to publish their rings."""
        descriptor, node = registry.open_endpoint(name, cls, source_index)
        channels = yield from _open_channels(registry, node, descriptor,
                                             source_index, [])
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

        On a bandwidth flow a push that only stages enters no frame but
        this one: a plain ``int`` key is hashed here (``route`` of
        :func:`key_hash_router`, inlined) and the tuple is packed straight
        into the channel's open staging slot. On a latency flow every
        push writes its tuple at once: it is staged here too, and while
        the channel's credit window is open, with no refresh pending,
        the thread runs ahead of the clock by the push's CPU charge
        (``Environment.run_ahead``, which queues the channel's ``_post``
        at the instant the charge reaches) and the push returns
        :data:`NO_FLUSH`: that write cannot wait for a credit, so the
        failure policy has nothing to guard. A shut window, a pending
        refresh or a charge that would cross a ``run(until=...)``
        horizon takes the guarded ``_write_slot``, which sleeps the
        charge.
        """
        if self.closed:
            raise FlowClosedError("push on a closed flow source")
        explicit = target is not None
        if explicit:
            if (not 0 <= target < len(self._channels)
                    or target in self._failed):
                raise self._bad_target(target)
        else:
            count = self._fanout
            if not count or self._router is None:
                raise self._unroutable()
            index = self._key_index
            try:
                key = values[index] if index is not None else None
            except TypeError:
                raise self.descriptor.schema.not_a_row(values) from None
            if key.__class__ is int:
                slot = (((key & _HASH_MASK) * _HASH_MULT & _HASH_MASK)
                        >> 32) % count
            else:
                slot = self._router(values, count)
                # An application's routing function can answer anything.
                if self._vet_routes and (slot.__class__ is not int
                                         or not 0 <= slot < count):
                    slot = _route_slot(slot, count)
            target = self._live[slot]
        channel = self._channels[target]
        if channel.closed:
            raise FlowClosedError("push on a closed flow source")
        if self._latency:
            # One write now, its tuple staged in place as
            # ``LatencySourceChannel._send`` stages batch rows and markers.
            credit = channel._credit
            seq = credit.sent
            base = (seq % channel._staging_slots) * channel._slot_size
            staging = channel._staging
            try:
                channel._pack_tuple(staging, base, *values)
            except _struct_error as exc:
                raise channel.schema.mismatch(values, exc) from None
            except TypeError:
                raise channel.schema.not_a_row(values) from None
            used = channel._tuple_size
            _FOOTER_PACK_INTO(staging, base + channel.segment_payload, used,
                              _FLAG_WORDS[0], seq)
            segments = channel._segments
            if (credit.pending is None
                    and seq - credit.consumed < segments
                    and channel.env.run_ahead(channel._push_delay,
                                              channel._post_write, seq)):
                # An open window with no refresh to harvest stays so
                # until the write posts (only this thread moves ``sent``,
                # ``consumed`` and ``pending``), so the write cannot fail:
                # the thread runs ahead of the clock by the push's CPU
                # charge, and the post is the queued link's action. The
                # write holds its credit now; a post that will start a
                # refresh marks it due, so the next push takes
                # ``_write_slot`` exactly where a sleeping push would
                # have.
                credit.sent = seq + 1
                if segments - (seq + 1 - credit.consumed) <= credit.threshold:
                    credit.pending = REFRESH_DUE
                return NO_FLUSH
            flush = channel._write_slot(
                channel._staging_view[base:base + channel._slot_size], used,
                0, channel._push_delay)
        else:
            stager = channel._stager
            used = stager.used
            try:
                channel._pack_tuple(stager.buffer, stager.base + used,
                                    *values)
            except _struct_error as exc:
                raise channel.schema.mismatch(values, exc) from None
            except TypeError:
                raise channel.schema.not_a_row(values) from None
            stager.used = used = used + channel._tuple_size
            channel._cpu_debt += channel._tuple_debt
            channel.tuples_sent += 1
            if used <= channel._flush_above:
                return NO_FLUSH
            flush = channel._flush(0)
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

    def _unroutable(self) -> FlowError:
        """Why a tuple without a named target cannot be routed: every
        target failed, or the flow has no router. (Callers test inline,
        as for :meth:`_bad_target`.)"""
        if not self._live:
            return FlowPeerFailedError(
                f"every target of flow {self.descriptor.name!r} has failed")
        return FlowError("flow has no shuffle key or routing function; "
                         "pass target= explicitly")

    def _carried(self) -> float:
        """Take the carried CPU charge (see :meth:`push_batch`) off the
        source: its deadline, or, once the clock has moved past the
        instant it was carried at, the same charge from ``now``."""
        (at, when), self._carry = self._carry, None
        now = self.node.env._now
        return when if now == at else now + (when - at)

    def _guarded_flush(self, flush, values: tuple, target: int,
                       explicit: bool):
        """Generator: drive the flush that pushing ``values`` into
        channel ``target`` triggered, under the flow's failure policy."""
        if self._carry is not None:
            yield self.node.env.sleep_until(self._carried())
        try:
            yield from flush
        except (QpFlushedError, FlowTimeoutError) as exc:
            if explicit:
                yield from self._fail_named(target, exc)
            yield from self._handle_channel_failure(target, exc)
            # Reroute policy: the survivors absorb the key space — resend
            # this tuple through the shrunken live set.
            yield from self.push(values)

    def _fail_named(self, target: int, exc: Exception):
        """Generator: a target the caller named explicitly failed. The
        policy runs, then the failure surfaces whatever it decided:
        naming a target opts out of rerouting."""
        yield from self._handle_channel_failure(target, exc)
        raise self._peer_failed([target], exc) from exc

    def push_batch(self, tuples, target: "int | None" = None):
        """Generator: push a batch of tuples (any iterable) through the
        batched channel path — whole segments are packed with one
        ``struct`` call instead of one per tuple. A ``memoryview`` is
        :meth:`push_bytes`'s packed rows, one tuple per ``tuple_size``
        bytes, which it validated and names a target for.

        Without an explicit ``target`` the batch is partitioned by the
        flow's router first and each per-channel group is pushed as its
        own batch; tuple order is preserved *within* each channel (the
        only ordering a multi-channel shuffle ever guarantees). An
        application router's own ``route_many`` partitions it, and the
        key-hash router's ``partition`` splits a long bandwidth batch
        packed; every other batch takes the routing pass, which routes
        each row as :meth:`push` does. A batch over two live targets or
        more, of fewer than ``_ROUTE_NP_MIN`` rows and at most a segment's
        worth, on tuple-aligned bandwidth segments, is then staged row by
        row as :meth:`push` stages, charged and its sealed slots posted
        group by group, in slot order; a longer one is grouped.

        A bandwidth channel's group is driven from here by the channel's
        own contract — :meth:`~BandwidthSourceChannel.charge_batch`, then
        :meth:`~BandwidthSourceChannel.stage_batch`, then drive what it
        returns — and the CPU is charged once per flush boundary: staged
        rows are invisible until a flush, so the process sleeps only
        before driving a flush. The groups' charges in between are added
        to an absolute deadline one at a time, as the kernel adds
        separate sleeps, and slept through ``Environment.sleep_until``:
        the wake lands on the float the per-group sleeps reach. A
        boundary with one charge behind it — a named target, a single
        live target, a group that flushes — yields that charge's
        ``float``. A group that only stages rows costs no kernel event
        and no generator, and in the row loop no call. The charges behind
        the batch's last flush stay on the source as that deadline, and
        the source's next post sleeps it first: the next batch's first
        flush (its deadline chain starts there), a flushing :meth:`push`,
        :meth:`close`, :meth:`abort` or :meth:`retire_target`. So a batch
        that posts nothing returns at once, as a staging :meth:`push`
        does; once the clock has moved past it, the carried charge is
        slept from ``now``.

        On a latency flow every row of a group is one write, sent by the
        channel's ``_send`` as :meth:`push` sends it.
        """
        if self.closed:
            raise FlowClosedError("push on a closed flow source")
        # Groups of tuples, or packed rows (``stride`` bytes each: the
        # byte view of ``push_bytes``, or ``partition``'s byte runs with
        # their batch indices in ``order``).
        fill, stride, order = self._fill, 1, None
        # The split measures and indexes the batch and the reroute
        # policy re-reads it: a one-shot iterable is materialised once,
        # here (a class test: no call on the path every batch takes).
        if tuples.__class__ is not list and tuples.__class__ is not tuple:
            if tuples.__class__ is memoryview:
                fill = _copy_into
                stride = self.descriptor.schema.tuple_size
            else:
                tuples = list(tuples)
        channels = self._channels
        # The row loop's sealed slot per group (each group the count of
        # rows it staged, ``route_of`` their slots), else ``None``.
        seals = None
        if target is not None:
            if not 0 <= target < len(channels) or target in self._failed:
                raise self._bad_target(target)
            live = (target,)
            groups = (tuples,)
        else:
            live = self._live
            if self._router is None or not live:
                raise self._unroutable()
            count, rows = len(live), len(tuples)
            small = 0 < rows <= self._row_loop_max
            if count == 1:
                groups = (tuples,)
            elif self._route_many is not None:
                groups = self._route_many(tuples, count)
            elif (not small and self._partition is not None
                  and (split := self._partition(tuples, count)) is not None):
                groups, order = split
                fill = _copy_into
                stride = self.descriptor.schema.tuple_size
            else:
                # Every row routed as ``push`` routes it, then a small
                # batch staged as ``push`` stages it (written out again so
                # that ``push`` stays one frame), sealing at most one slot
                # per channel (see ``SegmentStager``).
                route_of = [0] * rows
                key_index, router = self._key_index, self._router
                vet = self._vet_routes
                for row, values in enumerate(tuples):
                    try:
                        key = (values[key_index] if key_index is not None
                               else None)
                    except TypeError:
                        raise self.descriptor.schema.not_a_row(
                            values) from None
                    if key.__class__ is int:
                        slot = (((key & _HASH_MASK) * _HASH_MULT
                                 & _HASH_MASK) >> 32) % count
                    else:
                        slot = router(values, count)
                        if vet and (slot.__class__ is not int
                                    or not 0 <= slot < count):
                            slot = _route_slot(slot, count)
                    route_of[row] = slot
                if not small:
                    groups = _regroup(tuples, route_of, count)
                else:
                    groups, seals = [0] * count, [None] * count
                    first = channels[live[0]]
                    pack, size, full = (first._pack_tuple, first._tuple_size,
                                        first._flush_above)
                    for values, slot in zip(tuples, route_of):
                        stager = channels[live[slot]]._stager
                        used = stager.used
                        try:
                            pack(stager.buffer, stager.base + used, *values)
                        except (_struct_error, TypeError):
                            # The group walk raises it behind the CPU the
                            # groups before its own charged.
                            self._unstage(groups, seals, 0)
                            groups = _regroup(tuples, route_of, count)
                            seals = None
                            break
                        stager.used = used = used + size
                        groups[slot] += 1
                        if used > full:
                            seals[slot] = stager.seal(0, stager.sealed)
        # The CPU charged but not slept yet: the one charge's delay, and
        # from a second charge on the absolute deadline — from the first
        # when the source carries one (``_carried`` inlined: this runs
        # once per batch).
        delay = when = None
        if self._carry is not None:
            env = self.node.env
            (at, when), self._carry = self._carry, None
            if env._now != at:
                when = env._now + (when - at)
            delay = 0.0
        try:
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
                        channel = channels[index]
                        if self._latency:
                            # One write per row, as ``push`` writes it;
                            # ``fill`` packs a one-tuple slice or copies
                            # a packed row.
                            if channel.closed:
                                raise FlowClosedError(
                                    "push on a closed flow source")
                            for row in range(0, len(group), stride):
                                yield from channel._send(
                                    channel._push_delay, fill,
                                    group[row:row + stride],
                                    channel._tuple_size)
                            continue
                        if seals is None:
                            charge = channel.charge_batch(len(group) // stride)
                        else:
                            # ``charge_batch``, its float operations kept.
                            if channel.closed:
                                self._unstage(groups, seals, slot)
                                raise FlowClosedError(
                                    "push on a closed flow source")
                            debt = (channel._cpu_debt
                                    + group * channel._tuple_debt)
                            if seals[slot] is not None:
                                debt += channel.profile.cpu_post_cost
                            channel._cpu_debt = 0.0
                            charge = debt / self.node._cpu_scale
                        if delay is None:
                            delay = charge
                        elif when is None:
                            env = self.node.env
                            when = env._now + delay + charge
                        else:
                            when += charge
                        if seals is None:
                            flush = channel.stage_batch(group, fill, stride)
                        else:
                            channel.tuples_sent += group
                            if seals[slot] is None:
                                continue
                            flush = channel._post_train((seals[slot],))
                        if flush is not NO_FLUSH:
                            yield (delay if when is None
                                   else env.sleep_until(when))
                            delay = when = None
                            yield from flush
                    except (QpFlushedError, FlowTimeoutError) as exc:
                        if seals is not None:
                            # The group walk stages the rows past a seal,
                            # and later groups, after the post: unstage.
                            channel.tuples_sent -= (channel._stager.used
                                                    // size)
                            self._unstage(groups, seals, slot + 1)
                            groups = _regroup(tuples, route_of, count)
                        if target is not None:
                            yield from self._fail_named(target, exc)
                        yield from self._handle_channel_failure(index, exc)
                        # The live set just shrank, so the remaining
                        # groups' slots no longer line up — re-partition
                        # the failed group plus everything not yet pushed
                        # over the survivors. Tuples the dead target
                        # already consumed may recur on a survivor:
                        # reroute is at-least-once across a failure.
                        if order is None:
                            remaining = [values for rest in groups[slot:]
                                         for values in rest]
                        else:
                            start = sum(map(len, groups[:slot])) // stride
                            remaining = list(map(tuples.__getitem__,
                                                 order[start:].tolist()))
                        yield from self.push_batch(remaining)
                        return
        except FlowError:
            # A row the schema rejects, or a bad ``route_many`` group,
            # surfaces behind the CPU the groups before it charged.
            if delay is not None:
                yield delay if when is None else env.sleep_until(when)
            raise
        if delay is not None:
            # Nothing posted behind this charge: the next post sleeps it.
            now = self.node.env._now
            self._carry = (now, now + delay if when is None else when)

    def _unstage(self, counts, seals, start: int) -> None:
        """Take ``counts[slot]`` rows, and the slot ``seals[slot]`` if any,
        back out of the stager of each live slot from ``start`` on."""
        for slot in range(start, len(counts)):
            if counts[slot]:
                stager = self._channels[self._live[slot]]._stager
                stager.used -= counts[slot] * stager.tuple_size
                if seals[slot] is not None:
                    stager.used += stager.payload_size
                    stager.sealed -= 1
                    stager.base = (stager.sealed % stager.slots
                                   * stager.slot_size)

    def push_bytes(self, data, target: "int | None" = None):
        """Generator: push pre-packed tuple bytes (zero per-tuple packing)
        — a :meth:`push_batch` of packed rows to one named target.

        ``data`` is any C-contiguous buffer (``bytes``, ``bytearray``,
        ``array.array``, a ``memoryview`` of any item type, a numpy
        array, ...) whose byte length is a whole number of tuples. Raw
        bytes carry no routable key, so a multi-target flow needs an
        explicit ``target``, and a failed target always surfaces: there
        is no reroute.
        """
        if self.closed:
            raise FlowClosedError("push on a closed flow source")
        try:
            # ``push_batch`` counts and slices it in bytes, whatever the
            # item type of the caller's buffer.
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
        tuple_size = self.descriptor.schema.tuple_size
        if len(data) % tuple_size:
            raise FlowError(
                f"push_bytes got {len(data)} bytes, not a multiple of the "
                f"{tuple_size}-byte tuple size")
        yield from self.push_batch(data, target)

    def close(self):
        """Generator: close every live channel (targets see FLOW_END once
        all sources have closed). Close markers are posted to all channels
        first, then acknowledged in parallel. A target failing during
        close follows the flow's failure policy: under ``"reroute"`` the
        close still succeeds on the survivors, under ``"abort"`` the
        survivors are aborted and FlowPeerFailedError is raised."""
        if self._carry is not None:
            yield self.node.env.sleep_until(self._carried())
        if self.node.env._ahead is not None:
            yield PARK
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
        failures += yield from self._await_acks(work_requests)
        self.closed = True
        for index, exc in failures:
            yield from self._handle_channel_failure(index, exc)
        self._release()

    def abort(self):
        """Generator: abort the flow — staged data is dropped and every
        target's consume raises FlowAbortedError (the fault-tolerance
        extension; paper Section 7 lists flow fault tolerance as future
        work). The abort is recorded in the registry *before* any marker
        goes out (see :meth:`_abort_survivors`)."""
        if self._carry is not None:
            yield self.node.env.sleep_until(self._carried())
        yield from self._abort_survivors()

    def _void(self):
        """Generator: one abort marker per channel — a failed channel is
        closed already and sends none. A target racing ``extend_targets``
        may have published a ring this source never adopted: it is
        adopted here, so the marker reaches it too."""
        name = self.descriptor.name
        descriptor = self.registry.descriptor(name)
        for target_index in range(len(self._channels),
                                  descriptor.target_count):
            handle = self.registry.published(
                name, ("ring", self.source_index, target_index))
            if handle is not None:
                tag = (name, self.source_index, target_index)
                self._channels.append(
                    _source_channel(self.node, descriptor, handle, tag))
        for channel in self._channels:
            try:
                yield from channel.abort()
            except (QpFlushedError, FlowTimeoutError):
                pass  # aborting toward a dead peer: nothing left to void

    def adopt_new_targets(self):
        """Generator: pick up targets added to the flow at runtime
        (elasticity — paper Section 7 future work). New channels are
        opened for every target index beyond the currently known set;
        the router immediately includes them in its fan-out."""
        if self.node.env._ahead is not None:
            yield PARK
        if self.registry.flow_aborted(self.descriptor.name):
            raise FlowAbortedError(
                f"flow {self.descriptor.name!r} was aborted")
        descriptor = self.registry.descriptor(self.descriptor.name)
        known = len(self._channels)
        yield from _open_channels(self.registry, self.node, descriptor,
                                  self.source_index, self._channels)
        self._set_live(self._live + list(range(known, len(self._channels))))
        self.descriptor = descriptor

    def retire_target(self, target_index: int):
        """Generator: stop sending to the *last* target (scale-in). The
        target observes this source's close marker; once every source
        retired it, the target drains to FLOW_END. The only live target
        (the only target, or the last one left when the others failed)
        cannot be retired: a routed push would have nowhere to go."""
        if target_index != len(self._channels) - 1:
            raise FlowError(
                "only the last target can be retired (index "
                f"{len(self._channels) - 1}, got {target_index})")
        live = [index for index in self._live if index != target_index]
        if not live:
            raise FlowError("cannot retire the only target; close the "
                            "flow instead")
        if self._carry is not None:
            yield self.node.env.sleep_until(self._carried())
        channel = self._channels.pop()
        self._retired_sent += channel.tuples_sent
        self._set_live(live)
        self._failed.discard(target_index)
        try:
            yield from channel.close()
        except (QpFlushedError, FlowTimeoutError):
            pass  # the retired target is already gone; nothing to close

    # -- introspection -----------------------------------------------------
    @property
    def tuples_sent(self) -> int:
        return self._retired_sent + sum(channel.tuples_sent
                                        for channel in self._channels)

    @property
    def memory_bytes(self) -> int:
        """Send-side buffer memory of this endpoint (§6.1.4 accounting)."""
        return sum(channel.memory_bytes for channel in self._channels)


def _judge_silence(target, pending: list, silence: str) -> None:
    """The one verdict on a ``target`` endpoint that saw no progress
    within its ``peer_timeout``. A congested egress queue into the
    target's node explains the silence: count ``core.congestion_grace``
    and return, the caller re-arms its deadline (the queue drains by
    itself, so the grace cannot loop forever). Otherwise raise :class:`FlowPeerFailedError`
    naming the ``pending`` sources the fault plane knows dead, else
    :class:`FlowTimeoutError` (``silence``: what did not happen) — the
    peer may merely be slow."""
    obs = target._obs
    if stall_is_congestion(target.node):
        if obs is not None:
            obs.inc("core.congestion_grace")
        return
    faults = target.node.cluster.faults
    if faults is not None and faults.active:
        nodes = target.registry.cluster.node
        dead = [index for index in pending if faults.peer_failed(
            target.node, nodes(target.descriptor.sources[index].node_id))]
        if dead:
            if obs is not None:
                obs.inc("core.peer_failures_detected", len(dead))
                log_event(target, FAULT_DETECT, {"sources": dead})
            raise FlowPeerFailedError(
                f"flow {target.descriptor.name!r}: source(s) {dead} "
                f"failed before closing")
    if obs is not None:
        obs.inc("core.consume_timeouts")
    raise FlowTimeoutError(f"flow {target.descriptor.name!r}: {silence}")


class ShuffleTarget:
    """The per-thread target endpoint of a shuffle flow."""

    #: Transports this class opens on (see ``FlowRegistry.open_endpoint``).
    transports = ("shuffle", "combiner")

    def __init__(self, registry: FlowRegistry, descriptor: FlowDescriptor,
                 target_index: int, channels: list[TargetChannel]) -> None:
        self.registry = registry
        self.descriptor = descriptor
        self.target_index = target_index
        self.node = registry.cluster.node(
            descriptor.targets[target_index].node_id)
        self._channels = channels
        #: Rows a scan buffered for per-tuple consumes: the first
        #: ``_held`` are ``_rows``, of which ``_taken`` were handed out.
        self._rows: list = []
        self._taken = 0
        self._held = 0
        # Doorbell set: channel indices whose ring saw a write since the
        # channel was last drained (``Doorbell.dirty``), so a scan
        # touches only channels that actually received data instead of
        # round-robin-polling every idle ring (O(dirty), not O(channels),
        # on N:1 flows) and drains them in write-arrival order. The
        # doorbell attaches here, synchronously with ring allocation. With
        # no ``peer_timeout`` a wait is ``arm(poll=True)``, the merged
        # wake+poll; a bounded wait races a zero-delay wake against the
        # deadline (:meth:`_bounded_wait`).
        self._doorbell = Doorbell(
            self.node, [channel.ring.region for channel in channels])
        self._unpack = descriptor.schema.iter_unpack
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
        self._flow = descriptor.name
        self._tid = f"tgt{target_index}"

    _obs = property(_node_obs)

    def _bounded_wait(self):
        """Generator: block on the doorbell for at most ``peer_timeout``,
        then charge the poll that finds the data (without the bound a
        consume yields ``arm(poll=True)`` itself: the merged wake fires at
        wake + poll cost). A doorbell that stays silent past the bound
        raises FlowPeerFailedError (a pending peer is known dead) or
        FlowTimeoutError (pure stall). Progress resets the bound
        naturally — every wait starts a fresh window."""
        doorbell = self._doorbell
        wait_event = doorbell.arm()
        while True:
            timer = self._env.timeout(self._peer_timeout)
            yield self._env.any_of([wait_event, timer])
            if wait_event.triggered:
                break
            doorbell.disarm()
            pending = sorted({source for channel in self._channels
                              if not channel.done
                              for source in channel.sources})
            _judge_silence(
                self, pending, f"no segment arrived within "
                f"{self._peer_timeout:.0f} ns; sources {pending} still open")
            wait_event = doorbell.arm()
        yield self.node.compute(self.node.cluster.profile.cpu_poll_cost)

    @classmethod
    def open(cls, registry: FlowRegistry, name: str,
             target_index: int) -> "ShuffleTarget":
        """Open target endpoint ``target_index`` of flow ``name``:
        allocates the receive rings and publishes them for the sources."""
        descriptor, node = registry.open_endpoint(name, cls, target_index,
                                                  "target")
        nic = get_nic(node)
        payload = segment_payload_size(descriptor)
        credit_region = nic.register_memory(8 * descriptor.source_count)
        registry.hold_region(name, node.node_id, credit_region.rkey)
        channels = []
        for source_index in range(descriptor.source_count):
            ring = SegmentRing.allocate(
                nic, descriptor.options.target_segments, payload)
            registry.hold_region(name, node.node_id, ring.region.rkey)
            credit_offset = 8 * source_index
            channels.append(TargetChannel(node, descriptor, ring,
                                          credit_region, credit_offset))
            registry.publish(name, ("ring", source_index, target_index),
                             RingHandle(node_id=node.node_id,
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
        A buffered row is handed out by index, without a call.
        """
        taken = self._taken
        if taken < self._held:
            self._taken = taken + 1
            return self._rows[taken]
        dirty = self._doorbell.dirty
        while True:
            # Only a write marks a channel dirty: a clean set scans
            # nothing, and a scan leaves the set clean (so a scan that
            # found only close markers or empty segments needs no other).
            # A scan releases slots other threads read: a thread ahead of
            # the clock parks first. A clean set only grows until then,
            # and a write that lands first resumes it from its wait.
            if dirty:
                if self._env._ahead is not None:
                    yield PARK
                    continue
                rows = []
                held = self._scan(rows, self._unpack)
                if held:
                    self._rows = rows
                    self._held = held
                    self._taken = 1
                    return rows[0]
            if self._abort_seen:
                raise FlowAbortedError(
                    f"flow {self.descriptor.name!r} was aborted by a "
                    f"source")
            if self._finished():
                return FLOW_END
            if self._peer_timeout is None:
                yield self._doorbell.arm(poll=True)
            elif self._env._ahead is not None:
                yield PARK
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
        return self._consume_list(self._unpack)

    def consume_bytes(self):
        """Generator: return a list of zero-copy payload ``memoryview``
        chunks — one per drained segment, each a whole number of tuples
        packed in the flow's schema — or :data:`FLOW_END`. The mirror of
        ``push_bytes``: tuples cross the consume boundary without ever
        being unpacked (``Schema.unpack_rows`` decodes one on demand).

        Lifetime rule: the views alias receive-ring memory whose segments
        this call already released for reuse. They stay valid only until
        the consuming process next yields to the simulator (its next
        ``yield``/``yield from`` — another consume, a push, a compute);
        after that a source may overwrite them. Copy with ``bytes(view)``
        to keep data longer.

        Cannot be mixed with tuple-returning consumes while unpacked
        tuples are buffered (raises :class:`FlowError`).
        """
        if self._taken < self._held:
            raise FlowError(
                "consume_bytes with unpacked tuples buffered; drain them "
                "with consume/consume_batch first")
        return self._consume_list(None)

    def _consume_list(self, unpack):
        """Generator: the one wait loop of :meth:`consume_batch` (rows,
        ``unpack`` is the schema's ``iter_unpack``) and
        :meth:`consume_bytes` (payload views, ``unpack`` is ``None``).
        Every ready channel is drained straight into the list it
        returns."""
        dirty = self._doorbell.dirty
        taken = self._taken
        if taken < self._held:
            # Leftovers from per-tuple consumes (rows only, see
            # consume_bytes) go first, so FIFO order holds across the
            # mix, then everything ready.
            if dirty and self._env._ahead is not None:
                yield PARK
            batch = self._rows[taken:]
            self._taken = self._held
            if dirty:
                self._scan(batch, unpack)
            return batch
        while True:
            if dirty and self._env._ahead is not None:
                yield PARK   # as in :meth:`consume`
            batch = []
            if dirty and self._scan(batch, unpack):
                return batch
            if self._abort_seen:
                raise FlowAbortedError(
                    f"flow {self.descriptor.name!r} was aborted by a "
                    f"source")
            if self._finished():
                return FLOW_END
            if self._peer_timeout is None:
                yield self._doorbell.arm(poll=True)
            elif self._env._ahead is not None:
                yield PARK
            else:
                yield from self._bounded_wait()

    def _finished(self) -> bool:
        """True once the flow is fully drained (hook for subclasses)."""
        return not self._open

    def _scan(self, out, unpack) -> int:
        """Drain every doorbell'd channel into the list ``out`` through
        :meth:`TargetChannel.drain` with ``unpack``; returns the number
        of rows drained.

        Callers skip the call while the doorbell's dirty set is empty,
        and it returns with the set empty: each dirty channel, first
        marked first, is drained of all its consecutive consumable
        segments; a channel leaves the dirty set only here, immediately
        before the drain, so a write landing later re-marks it via the
        hook and nothing is ever missed. Drains fire no write hooks
        themselves (footer releases are direct memory stores), so the
        set cannot grow while it is walked by our own doing.
        """
        held = 0
        dirty = self._doorbell.dirty
        channels = self._channels
        while dirty:
            for index in dirty:
                break
            del dirty[index]
            channel = channels[index]
            held += channel.drain(out, unpack)
            if channel.aborted:
                self._abort_seen = True
        return held

    # -- introspection -----------------------------------------------------
    @property
    def tuples_received(self) -> int:
        return sum(channel.tuples_received for channel in self._channels)

    @property
    def memory_bytes(self) -> int:
        """Receive-side buffer memory of this endpoint."""
        return sum(channel.memory_bytes for channel in self._channels)
