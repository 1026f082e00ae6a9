"""Replicate flows (paper Sections 4.2.2 and 5.4).

A replicate flow sends every tuple to *all* targets. Two transports:

* **naive** (one-sided): the source writes the segment once per target —
  N copies share the source uplink, which becomes the bottleneck the paper
  measures in Fig. 8a;
* **multicast**: one UD datagram per segment, replicated inside the switch
  (Fig. 8b shows the aggregate receive bandwidth sailing past the sender's
  link speed). UD is unreliable, so segments carry sequence numbers,
  targets pre-populate receive queues under a credit scheme, report
  consumed counts and NACK missing sequence numbers through a one-sided
  back-flow into the source's control region, and sources retransmit from a
  bounded history buffer — what is NACKed, and on timeout the newest
  segment, which exposes any older loss as a gap to NACK
  (:class:`~repro.core.writers.MulticastWindow`).

Globally-ordered replicate flows additionally stamp every segment with a
sequence number drawn from the *tuple sequencer* — an RDMA fetch-and-add on
a counter hosted by the registry master — and targets deliver strictly in
that order. Every target orders and drops duplicates with one
:class:`SeqWindow` (the paper's receive and next lists of Fig. 6 as a
next-expected pointer and a dictionary of what arrived ahead of it): an
ordered flow's one window holds segments until their turn, an unordered
multicast flow keeps one per source that holds only markers. In
``gap_notify`` mode a timed-out gap is surfaced to the application as a
:class:`~repro.core.flowdef.GapNotification` instead of being NACKed —
the hook NOPaxos' gap agreement builds on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import (
    FlowAbortedError,
    FlowClosedError,
    FlowError,
    FlowTimeoutError,
    QpFlushedError,
)
from repro.core.flowdef import (
    FLOW_END,
    NO_FLUSH,
    RETRANSMIT_HISTORY,
    FlowDescriptor,
    GapNotification,
    Optimization,
    Ordering,
)
from repro.core.registry import FlowRegistry
from repro.core.segment import (
    FLAG_ABORTED,
    FLAG_CLOSED,
    FLAG_CONSUMABLE,
    FOOTER_SIZE,
    FOOTER_STRUCT,
    SOURCE_SHIFT,
    pack_footer_into,
)
from repro.core.shuffle import (
    SegmentStager,
    ShuffleTarget,
    _FlowSource,
    _judge_silence,
    _open_channels,
    _source_counters,
    segment_payload_size,
    torn_segment,
)
from repro.core.writers import MulticastWindow
from repro.obs import endpoint_obs, log_close
from repro.common.planelog import CLOSE, CONSUME, WRITE
from repro.rdma.memory import Doorbell, zeroed
from repro.rdma.nic import get_nic
from repro.simnet.kernel import PARK

_FOOTER_UNPACK_FROM = FOOTER_STRUCT.unpack_from


@dataclass(frozen=True)
class ControlHandle:
    """Remote handle of a source's control region: per-target credit and
    NACK slots written one-sidedly by targets."""

    node_id: int
    rkey: int
    credit_offset: int
    nack_offset: int


class SeqWindow:
    """Sequence numbers that arrive in any order, duplicates among them,
    released in order (paper Fig. 6): ``next`` is the lowest number not
    yet released, and ``held`` maps each number above it that arrived
    to what it carried. After a :meth:`release`, ``next`` is a gap — the
    lowest missing number — exactly while ``held`` is not empty. The
    duplicate test, the insert, the release at ``next`` and the gap test
    are dictionary operations, with no scan.

    A globally ordered target holds segments here until they can be
    delivered in order. An unordered one delivers every segment as it
    arrives and holds ``None`` only for those ahead of a gap, to know
    which numbers it has seen."""

    __slots__ = ("next", "held")

    def __init__(self) -> None:
        self.next = 0
        self.held: dict = {}

    def add(self, seq: int, item=None) -> bool:
        """Hold ``seq`` with ``item``; returns False for a duplicate."""
        if seq < self.next or seq in self.held:
            return False
        self.held[seq] = item
        return True

    def release(self) -> list:
        """Step ``next`` past every held number from it up; returns the
        items they carried, in sequence order."""
        held = self.held
        seq = self.next
        items = []
        while seq in held:
            items.append(held[seq])
            del held[seq]
            seq += 1
        self.next = seq
        return items

    def skip(self, seq: int) -> None:
        """Give up on ``seq``, the lowest missing number
        (application-level gap handling): :meth:`release` then goes on
        past it."""
        if seq != self.next:
            raise FlowError(
                f"can only skip the lowest missing sequence number "
                f"({self.next}), not {seq}")
        self.next = seq + 1


class TupleSequencer:
    """Source-side client of the global tuple sequencer: one RDMA
    fetch-and-add per segment (paper Section 5.4)."""

    def __init__(self, registry: FlowRegistry, name: str, node) -> None:
        self._handle = registry.sequencer(name)
        self._qp = get_nic(node).create_qp(
            registry.cluster.node(self._handle.node_id))

    def next(self):
        """Generator: draw the next global sequence number."""
        if self._qp.env._ahead is not None:
            yield PARK
        wr = self._qp.post_fetch_add(self._handle.rkey, self._handle.offset,
                                     1, signaled=False)
        seq = yield wr.done
        return seq


class _StagedSource(_FlowSource):
    """What the sources that stage for a transport of their own share —
    naive replicate (RC fan-out), multicast replicate (UD multicast) and
    SHARP (the send to the switch): one :class:`SegmentStager` each tuple
    is packed into once, the CPU debt the next flush pays, ``push`` and
    ``push_batch``. A subclass brings ``_flush(extra_flags)``, sets up
    its transport, then ``_obs`` last."""

    def __init__(self, registry: FlowRegistry, descriptor: FlowDescriptor,
                 source_index: int, sequencer: "TupleSequencer | None",
                 payload_size: int, slots: int = 1) -> None:
        super().__init__(registry, descriptor, source_index)
        self.env = self.node.env
        self.profile = self.node.cluster.profile
        self._sequencer = sequencer
        self._payload_size = payload_size
        self._stager = SegmentStager(descriptor.schema, payload_size, slots)
        self._latency = descriptor.optimization is Optimization.LATENCY
        self._cpu_debt = 0.0
        self._tuple_debt = self.profile.cpu_push_cost(
            descriptor.schema.tuple_size)
        self._local_seq = 0
        self.segments_sent = 0
        self.tuples_sent = 0

    def push(self, values: tuple):
        """Push one tuple; returns what the caller must ``yield from`` —
        :data:`NO_FLUSH` while the staged segment has room, the flush
        generator once it is full (always, in latency mode)."""
        if self.closed:
            raise FlowClosedError("push on a closed flow source")
        full = self._stager.append(values)
        self.tuples_sent += 1
        self._cpu_debt += self._tuple_debt
        if full or self._latency:
            return self._flush(0)
        return NO_FLUSH

    def push_batch(self, tuples):
        """Generator: push a batch of tuples.

        Same semantics and simulated cost as per-tuple push; each segment
        is packed with one ``struct`` call and flushed as it fills.
        """
        if self.closed:
            raise FlowClosedError("push on a closed flow source")
        if self._latency:
            for values in tuples:
                yield from self.push(values)
            return
        if not isinstance(tuples, (list, tuple)):
            tuples = list(tuples)
        stager = self._stager
        per_tuple = self._tuple_debt
        total = len(tuples)
        index = 0
        while index < total:
            room = stager.room
            take = min(room, total - index)
            if take:
                stager.append_many(tuples[index:index + take])
                self.tuples_sent += take
                self._cpu_debt += take * per_tuple
                index += take
            if take == room:  # the stager reads as full
                yield from self._flush(0)


class NaiveReplicateSource(_StagedSource):
    """Replicate source over one shuffle source channel per target: every
    tuple is packed once, into a slot of the source's ring, and each
    finished slot is handed to every live channel, which writes it under
    its own ring protocol. The channels stage nothing of their own."""

    transports = ("replicate",)

    def __init__(self, registry: FlowRegistry, descriptor: FlowDescriptor,
                 source_index: int, channels: list,
                 sequencer: "TupleSequencer | None") -> None:
        options = descriptor.options
        #: The ring the protocol needs, in slots (see SegmentStager).
        latency = descriptor.optimization is Optimization.LATENCY
        self._ring_segments = (options.target_segments if latency
                               else options.source_segments)
        super().__init__(registry, descriptor, source_index, sequencer,
                         segment_payload_size(descriptor),
                         self._ring_segments + 1)
        self._channels = channels
        # Batched full segments leave as doorbell trains: whole slots go
        # out as contiguous payload+footer writes (tuple-aligned segments
        # only) numbered by the source (no sequencer value per segment).
        self._trains = (not self._latency and sequencer is None
                        and self._payload_size
                        % descriptor.schema.tuple_size == 0)
        self._obs = endpoint_obs(self.node, self._flow, options, self)

    def _collect_obs(self):
        """Read-time counter harvest (see MetricsRegistry.add_collector):
        a tuple counts once. The channels count the segments they write,
        one per target ring, and a tuple per ring a latency write carries
        it to — taken back out here."""
        carried = sum(channel.tuples_sent for channel in self._channels)
        return (("core.tuples_pushed", self.tuples_sent - carried),)

    @classmethod
    def open(cls, registry: FlowRegistry, name: str, source_index: int):
        """Generator: open a naive replicate source endpoint."""
        descriptor, node = registry.open_endpoint(name, cls, source_index)
        channels = yield from _open_channels(registry, node, descriptor,
                                             source_index, [], staging=False)
        sequencer = None
        if descriptor.ordering is Ordering.GLOBAL:
            sequencer = TupleSequencer(registry, name, node)
        return cls(registry, descriptor, source_index, channels, sequencer)

    def push_batch(self, tuples):
        """Generator: replicate a batch of tuples to all targets.

        Simulated cost matches per-tuple push (same CPU debt, same flush
        points). Unordered bandwidth flows hand every full segment the
        batch produces to each channel's train loop at once (globally-
        ordered flows must draw one sequencer value per segment over the
        wire, so they keep the eager per-segment path). All are packed
        before the first channel writes one, so whole segments go into
        slots the batch owns and no later segment reuses; a slot the
        batch tops up is in the ring, and so is the tail it leaves,
        packed once the segments before it went out.
        """
        if not self._trains:
            yield from super().push_batch(tuples)
            return
        if self.closed:
            raise FlowClosedError("push on a closed flow source")
        if not isinstance(tuples, (list, tuple)):
            tuples = list(tuples)
        stager = self._stager
        per_tuple = self._tuple_debt
        total = len(tuples)
        seq = self._local_seq
        slots = []
        index = 0
        if stager.used:
            index = min(stager.room, total)
            stager.append_many(tuples[:index])
            self._cpu_debt += index * per_tuple
            if stager.full:
                slots.append(stager.seal(0, seq))
        seg_tuples = self._payload_size // stager.tuple_size
        whole = (total - index) // seg_tuples
        if whole:
            slot_size = stager.slot_size
            batch = zeroed(whole * slot_size)
            view = memoryview(batch)
            for base in range(0, whole * slot_size, slot_size):
                stager._pack_many_into(batch, base,
                                       tuples[index:index + seg_tuples])
                pack_footer_into(batch, base + self._payload_size,
                                 self._payload_size, FLAG_CONSUMABLE,
                                 seq + len(slots))
                self._cpu_debt += seg_tuples * per_tuple
                index += seg_tuples
                slots.append(view[base:base + slot_size])
        tail = tuples[index:]
        self._cpu_debt += len(tail) * per_tuple
        self.tuples_sent += total
        if slots:
            # One coalesced CPU charge: the debt a per-segment schedule
            # would accrue.
            yield self.node.compute(self._take_debt(len(slots)))
            self._local_seq += len(slots)
            self.segments_sent += len(slots)
            yield from self._fan_out(
                lambda channel: channel._post_train(slots))
        if tail:
            # Only now: segment h is packed after the fan-out of h - 1
            # (see SegmentStager).
            stager.append_many(tail)

    def close(self):
        """Generator: flush, send the close marker, and wait for acks."""
        if self.closed:
            return
        work_requests = yield from self._flush(FLAG_CLOSED)
        self.closed = True
        if self._obs is not None:
            log_close(self)
        for index, exc in (yield from self._await_acks(work_requests)):
            yield from self._handle_channel_failure(index, exc)
        self._release()

    def abort(self):
        """Generator: abort the flow on every target (staged tuples are
        dropped; targets raise FlowAbortedError)."""
        if not self.closed:
            yield from self._abort_survivors()

    def _take_debt(self, segments: int) -> float:
        """The CPU owed once ``segments`` finished segments go out: the
        pushes' debt plus one post per segment per target."""
        debt = (self._cpu_debt + self.profile.cpu_post_cost
                * segments * len(self._channels))
        self._cpu_debt = 0.0
        return debt

    def _void(self):
        """Generator: one abort segment, fanned out to the live targets
        (staged tuples are dropped), and its acks, best effort."""
        self._stager.used = 0
        if not self.closed:
            work_requests = yield from self._flush(
                FLAG_CLOSED | FLAG_ABORTED)
            self.closed = True
            if self._obs is not None:
                log_close(self, {"aborted": True})
            yield from self._await_acks(work_requests)

    def _flush(self, extra_flags: int):
        """Generator: send the staged segment (with close/abort
        ``extra_flags``) to every live target; returns the ``(target,
        work request)`` pairs of the writes it posted."""
        yield self.node.compute(self._take_debt(1))
        if self._sequencer is not None:
            seq = yield from self._sequencer.next()
        else:
            seq = self._local_seq
            self._local_seq += 1
        used = self._stager.used
        slot = self._stager.seal(extra_flags, seq)
        self.segments_sent += 1
        return (yield from self._fan_out(
            lambda channel: channel._write_slot(slot, used, extra_flags)))

    def _fan_out(self, send):
        """Generator: drive ``send(channel)`` on every live channel in
        target order, then apply the failure policy to the ones that
        failed; returns the ``(target, work request)`` pairs of the
        writes posted."""
        work_requests = []
        failures = []
        for index in self._live:
            try:
                wr = yield from send(self._channels[index])
            except (QpFlushedError, FlowTimeoutError) as exc:
                failures.append((index, exc))
                continue
            if wr is not None:
                work_requests.append((index, wr))
        for index, exc in failures:
            yield from self._handle_channel_failure(index, exc)
        return work_requests

    @property
    def memory_bytes(self) -> int:
        """The ring the protocol needs (see SegmentStager): the one copy
        of every segment in flight to all targets."""
        return self._ring_segments * self._stager.slot_size


class NaiveReplicateTarget(ShuffleTarget):
    """Replicate target over per-source one-sided rings.

    Unordered mode behaves like a shuffle target (arrival order). Globally
    ordered mode holds polled segments in a :class:`SeqWindow` and
    releases them in sequence order, so all targets observe the same
    delivery order.
    """

    transports = ("replicate",)

    def __init__(self, registry, descriptor, target_index, channels) -> None:
        super().__init__(registry, descriptor, target_index, channels)
        self._ordered = descriptor.ordering is Ordering.GLOBAL
        self._window = SeqWindow() if self._ordered else None

    def _scan(self, out, unpack) -> int:
        if not self._ordered:
            return super()._scan(out, unpack)
        # Ordered mode goes segment-by-segment through ``poll`` (the
        # window needs each footer's sequence number) but still
        # rides the doorbell set: only channels whose ring saw a write
        # are polled, and each is drained until empty. ``poll`` decodes
        # rows itself: ``consume_bytes`` is refused here, so ``unpack``
        # could only name that decoder.
        dirty = self._doorbell.dirty
        channels = self._channels
        window = self._window
        while dirty:
            for index in dirty:
                break
            del dirty[index]
            channel = channels[index]
            while True:
                polled = channel.poll()
                if polled is None:
                    break
                footer, tuples = polled
                window.add(footer.seq, tuples)
            if channel.aborted:
                self._abort_seen = True
        # A consume skips this scan while nothing is dirty, and with it
        # this release: safe, because a segment becomes ready only
        # through an add above, and every scan releases all that are.
        held = 0
        for tuples in window.release():
            out.extend(tuples)
            held += len(tuples)
        return held

    def consume_bytes(self):
        if self._ordered:
            raise FlowError(
                "consume_bytes is not available on globally ordered "
                "replicate flows: raw segment views cannot pass the "
                "sequence window")
        return super().consume_bytes()

    def _finished(self) -> bool:
        return not self._open and (not self._ordered
                                   or not self._window.held)


class MulticastReplicateSource(_StagedSource):
    """Replicate source over switch multicast with credit/NACK back-flow
    (:class:`~repro.core.writers.MulticastWindow`)."""

    transports = ("multicast replicate",)

    def __init__(self, registry: FlowRegistry, descriptor: FlowDescriptor,
                 source_index: int, control_region, ud_qp,
                 sequencer: "TupleSequencer | None") -> None:
        super().__init__(registry, descriptor, source_index, sequencer,
                         segment_payload_size(descriptor))
        self._ud_qp = ud_qp
        self._group = registry.multicast_group(descriptor.name)
        options = descriptor.options
        self._gap_notify = options.gap_notify
        #: Un-credited segments a send may leave behind it.
        self._send_limit = options.target_segments - 1
        self._window = MulticastWindow(
            self, control_region, Doorbell(self.node, (control_region,)),
            descriptor.target_count, RETRANSMIT_HISTORY)
        self.retransmissions = 0
        self._obs = endpoint_obs(self.node, self._flow, options, self)

    _collect_obs = _source_counters

    @classmethod
    def open(cls, registry: FlowRegistry, name: str, source_index: int):
        """Generator: open a multicast replicate source endpoint; blocks
        until every target joined the multicast group."""
        descriptor, node = registry.open_endpoint(name, cls, source_index)
        nic = get_nic(node)
        stride = MulticastWindow.STRIDE
        control = nic.register_memory(stride * descriptor.target_count)
        registry.hold_region(name, node.node_id, control.rkey)
        for target_index in range(descriptor.target_count):
            registry.publish(
                name, ("control", source_index, target_index),
                ControlHandle(
                    node_id=node.node_id, rkey=control.rkey,
                    credit_offset=stride * target_index,
                    nack_offset=stride * target_index + 8))
        ud_qp = nic.create_ud_qp()
        sequencer = None
        if descriptor.ordering is Ordering.GLOBAL:
            sequencer = TupleSequencer(registry, name, node)
        for target_index in range(descriptor.target_count):
            yield from registry.wait(name, ("joined", target_index))
        return cls(registry, descriptor, source_index, control, ud_qp,
                   sequencer)

    def _fail_stalled(self):
        """Generator: the window stayed shut through every resend
        ``max_retransmits`` allows — the lowest-credit targets are
        failed, with the credit stall as the evidence
        (:meth:`_fail_targets`: the reroute policy drops them from flow
        control and carries on)."""
        stalled = self._window.laggards()
        self._mark_failed(stalled)
        rounds = self.descriptor.options.max_retransmits
        yield from self._fail_targets(
            stalled, "credit_stall", None,
            FlowTimeoutError(f"no credit through {rounds} retransmit "
                             f"rounds"))

    def _void(self):
        """Generator: drop the staged tuples and multicast the abort
        marker once, so the targets do not hang on a flow that will never
        close."""
        self._stager.used = 0
        yield from self._flush(FLAG_CLOSED | FLAG_ABORTED)
        if self._obs is not None:
            log_close(self, {"aborted": True})

    # -- close ---------------------------------------------------------------
    def close(self):
        """Generator: flush, send the close marker, then stay responsive
        (retransmissions) until every target confirmed full consumption."""
        if self.closed:
            return
        yield from self._flush(FLAG_CLOSED)
        if self._gap_notify:
            # The application owns loss recovery in gap_notify mode, and
            # skipped segments never bump credits — waiting for full
            # consumption could block forever.
            yield from self._repeat_marker(until_credited=True)
        else:
            yield from self._window.acquire(0)
        self.closed = True
        if self._obs is not None:
            log_close(self)

    def abort(self):
        """Generator: abort the flow — the marker is re-multicast a few
        times against loss, then the source stops (no delivery guarantee
        survives an abort)."""
        if self.closed:
            return
        yield from self._abort_survivors()
        yield from self._repeat_marker(until_credited=False)

    def _repeat_marker(self, until_credited: bool):
        """Generator: re-multicast the close/abort marker three times, one
        ``retransmit_timeout`` apart, for the ends that wait for no
        credit; ``until_credited`` stops once every target took it."""
        for _ in range(3):
            yield float(self.descriptor.options.retransmit_timeout)
            if (until_credited
                    and self._window.min_credit() >= self.segments_sent):
                break
            self._window.resend_last()

    def _flush(self, extra_flags: int):
        debt = self._cpu_debt + self.profile.cpu_post_cost
        self._cpu_debt = 0.0
        yield self.node.compute(debt)
        if self._sequencer is not None:
            seq = yield from self._sequencer.next()
        else:
            seq = self._local_seq
            self._local_seq += 1
        # UD datagrams carry their length, so the footer rides directly
        # after the used payload — no padding to the segment size. The
        # resend history owns the datagram: the one copy out of staging.
        stager = self._stager
        used = stager.used
        pack_footer_into(stager.buffer, used, used,
                         FLAG_CONSUMABLE | extra_flags, seq,
                         self.source_index)
        slot = bytes(stager.view[:used + FOOTER_SIZE])
        stager.used = 0
        # OUM semantics (NOPaxos) under gap_notify: no flow control, a
        # receiver that cannot keep up drops datagrams, which surface as
        # gaps. An abort marker goes out even with the window shut: the
        # flow is void anyway.
        if not (self._gap_notify or self._aborting):
            yield from self._window.acquire(self._send_limit)
        self._window.post(seq, slot)
        self.segments_sent += 1
        if self._obs is not None:
            self._obs.log((WRITE, self.env.now, self, None, seq, 1, used))
        self._window.service_nacks()

    @property
    def memory_bytes(self) -> int:
        return (self._payload_size + FOOTER_SIZE
                + self._window.region.size)


class MulticastReplicateTarget:
    """Replicate target receiving switch-replicated UD datagrams."""

    transports = ("multicast replicate",)

    def __init__(self, registry: FlowRegistry, descriptor: FlowDescriptor,
                 target_index: int, ud_qp, ring_region, slot_size: int,
                 control_qps: list, control_handles: list) -> None:
        self.registry = registry
        self.descriptor = descriptor
        self.target_index = target_index
        self.node = registry.cluster.node(
            descriptor.targets[target_index].node_id)
        self.env = self.node.env
        self._ud_qp = ud_qp
        self._ring = ring_region
        self._slot_size = slot_size
        self._payload_size = slot_size - FOOTER_SIZE
        # Proven once, here: every receive slot lies inside the ring (each
        # was range-checked when first posted), so a datagram's footer is
        # read and its payload sliced without a check per datagram.
        self._mem = ring_region.mem
        self._view = ring_region.view(0, ring_region.size)
        self._completions = ud_qp.recv_cq.entries
        self._recv_queue = ud_qp.recv_queue
        self._iter_unpack = descriptor.schema.iter_unpack
        self._tuple_size = descriptor.schema.tuple_size
        #: Per source: the control QP, the source's control region —
        #: resolved and range-checked once, the registration lives as long
        #: as the flow — and this target's handle into it.
        self._control = []
        for qp, handle in zip(control_qps, control_handles):
            region = qp._get_remote_nic().region(handle.rkey)
            region.check_range(handle.credit_offset, 8)
            self._control.append((qp, region, handle))
        self._ordered = descriptor.ordering is Ordering.GLOBAL
        self._gap_notify = descriptor.options.gap_notify
        #: Ordered: the flow's one window, of sequencer numbers, holding
        #: each segment until it is delivered; unordered: one per source,
        #: holding ``None`` for each segment ahead of a gap.
        self._windows = [SeqWindow() for _ in range(
            1 if self._ordered else descriptor.source_count)]
        self._consumed = [0] * descriptor.source_count
        self._close_seq: list[int | None] = [None] * descriptor.source_count
        self._closed_delivered = 0
        #: Rows the last pump took in: the first ``_held`` are ``_rows``,
        #: of which ``_taken`` were handed out.
        self._rows: list = []
        self._taken = 0
        self._held = 0
        self._gap_deadlines: dict = {}
        self._gap_pending: "GapNotification | None" = None
        self._aborted = False
        self._peer_timeout = descriptor.options.peer_timeout
        self._doorbell = Doorbell(self.node, (ring_region,))
        #: Tuples / segments delivered to the application (stats).
        self.tuples_received = 0
        self.segments_received = 0
        self._tid = f"tgt{target_index}"
        self._flow = descriptor.name
        self._close_logged = False
        self._obs = endpoint_obs(self.node, self._flow,
                                 descriptor.options, self)

    def _collect_obs(self):
        """Read-time counter harvest (see MetricsRegistry.add_collector)."""
        return (("core.tuples_consumed", self.tuples_received),
                ("core.segments_consumed", self.segments_received))

    @classmethod
    def open(cls, registry: FlowRegistry, name: str, target_index: int):
        """Generator: open a multicast replicate target endpoint — joins
        the group, pre-populates the receive queue, wires the back-flow."""
        descriptor, node = registry.open_endpoint(name, cls, target_index,
                                                  "target")
        nic = get_nic(node)
        payload = segment_payload_size(descriptor)
        slot_size = payload + FOOTER_SIZE
        segments = descriptor.options.target_segments
        ring_region = nic.register_memory(segments * slot_size)
        registry.hold_region(name, node.node_id, ring_region.rkey)
        ud_qp = nic.create_ud_qp()
        for slot in range(segments):
            ud_qp.post_recv(ring_region, slot * slot_size, slot_size)
        control_qps = []
        control_handles = []
        for source_index in range(descriptor.source_count):
            handle = yield from registry.wait(
                name, ("control", source_index, target_index))
            control_qps.append(nic.create_qp(
                registry.cluster.node(handle.node_id)))
            control_handles.append(handle)
        group = registry.multicast_group(name)
        group.join(ud_qp)
        registry.publish(name, ("joined", target_index), True)
        return cls(registry, descriptor, target_index, ud_qp, ring_region,
                   slot_size, control_qps, control_handles)

    # -- receive processing --------------------------------------------------
    def _pump(self) -> None:
        """One pass over the UD receive completions, oldest first, popped
        straight off the receive CQ's entries.

        Per datagram: one ``unpack_from`` reads the footer at the end of
        what it carried, which must be a whole number of rows
        (:func:`torn_segment`); its receive slot goes straight back onto
        the QP's receive queue. The rows are decoded out of the
        whole-ring view within this pass, before any datagram can land
        in the slot again (one lands only in a later kernel event). An
        abort voids the flow with no credit. Otherwise the hand-off
        differs by ordering only in what the :class:`SeqWindow` holds —
        the flow's window holds the rows until the pass ends, the
        source's a ``None`` marker, and only for a datagram out of order
        (an in-order ``seq`` with nothing held ahead steps it inline) —
        and an accepted datagram is credited to its source at once:
        credits are granted at parse time, the moment the receive slot
        is reposted, so the credit window tracks receive-queue capacity
        (its purpose) rather than application consumption, which may
        stall behind a gap in ordered mode. Duplicates (late
        retransmissions) take no credit and are counted in
        ``core.duplicates_dropped``. The gap check runs only when it
        could act: a segment held out of order or a gap deadline armed.
        A pump runs only once every buffered row was handed out, so the
        rows it takes in go into a fresh row list."""
        rows = self._rows = []
        held = 0
        completions = self._completions
        if completions:
            mem = self._mem
            view = self._view
            repost = self._recv_queue.append
            ring = self._ring
            slot_size = self._slot_size
            tuple_size = self._tuple_size
            iter_unpack = self._iter_unpack
            windows = self._windows
            ordered = windows[0] if self._ordered else None
            consumed = self._consumed
            control = self._control
            obs = self._obs
            while completions:
                _region, offset, length = completions.popleft().result
                carried = length - FOOTER_SIZE
                used, flags, seq = _FOOTER_UNPACK_FROM(mem, offset + carried)
                if flags & FLAG_ABORTED:
                    # Aborts bypass ordering: the flow is void at once.
                    repost((ring, offset, slot_size, None))
                    self._aborted = True
                    continue
                if used % tuple_size or used > carried:
                    raise torn_segment(offset // slot_size, used, tuple_size,
                                       carried)
                source = flags >> SOURCE_SHIFT
                if ordered is not None:
                    tuples = list(iter_unpack(view[offset:offset + used]))
                    repost((ring, offset, slot_size, None))
                    if not ordered.add(seq, (flags & FLAG_CLOSED, tuples)):
                        if obs is not None:
                            obs.inc("core.duplicates_dropped")
                        continue
                else:
                    repost((ring, offset, slot_size, None))
                    window = windows[source]
                    if seq == window.next and not window.held:
                        window.next = seq + 1
                    elif window.add(seq):
                        window.release()
                    else:
                        if obs is not None:
                            obs.inc("core.duplicates_dropped")
                        continue
                count = consumed[source] = consumed[source] + 1
                qp, region, handle = control[source]
                qp.post_lone(None, 8, [(0, count.to_bytes(8, "little"))],
                             region, handle.credit_offset)
                if ordered is not None:
                    continue
                if flags & FLAG_CLOSED:
                    self._close_seq[source] = seq
                if used:
                    rows.extend(iter_unpack(view[offset:offset + used]))
                count = used // tuple_size
                held += count
                self.tuples_received += count
                self.segments_received += 1
                if obs is not None:
                    obs.log((CONSUME, self.env.now, self, None, seq,
                             (count,), False, False))
        if self._ordered:
            held += self._release_ordered(rows)
        self._held = held
        self._taken = 0
        # Held out of order: a segment ahead of a window's lowest
        # missing one.
        ahead = False
        for window in self._windows:  # a loop: no call per pump
            if window.held:
                ahead = True
                break
        if ahead or self._gap_deadlines:
            self._check_gaps()

    def _release_ordered(self, rows: list) -> int:
        """Append every segment the flow's window releases in order to
        ``rows``; returns the number of rows appended."""
        window = self._windows[0]
        seq = window.next
        held = 0
        for closed, tuples in window.release():
            if closed:
                self._closed_delivered += 1
            count = len(tuples)
            rows.extend(tuples)
            held += count
            self.tuples_received += count
            self.segments_received += 1
            if self._obs is not None:
                self._obs.log((CONSUME, self.env.now, self, None, seq,
                               (count,), False, False))
            seq += 1
        return held

    # -- gap detection -------------------------------------------------------
    def _check_gaps(self) -> None:
        """Arm a deadline for each window's lowest missing number (the
        key is the source, or ``"global"`` for the flow's window), act on
        the ones that expired, and drop the ones that closed."""
        scopes = ("global",) if self._ordered else range(len(self._windows))
        gaps = [(scope, window.next)
                for scope, window in zip(scopes, self._windows)
                if window.held]
        now = self.env.now
        live_keys = set()
        for key in gaps:
            live_keys.add(key)
            deadline = self._gap_deadlines.get(key)
            if deadline is None:
                self._gap_deadlines[key] = (
                    now + self.descriptor.options.retransmit_timeout)
            elif now >= deadline:
                self._handle_gap_timeout(key)
                self._gap_deadlines[key] = (
                    now + self.descriptor.options.retransmit_timeout)
        for key in list(self._gap_deadlines):
            if key not in live_keys:
                del self._gap_deadlines[key]

    def _handle_gap_timeout(self, key: tuple) -> None:
        scope, missing = key
        if self._gap_notify:
            source = None if scope == "global" else scope
            self._gap_pending = GapNotification(missing, source)
            if self._obs is not None:
                self._obs.inc("core.gap_notifications")
            return
        if self.registry.flow_aborted(self.descriptor.name):
            # The abort marker was lost here, and an aborting source
            # serves no NACK: the flag every abort path sets stands in.
            self._aborted = True
            return
        if self._obs is not None:
            self._obs.inc("core.nacks_sent")
        # NACK the missing sequence number into the source's control region
        # (for globally ordered flows the owner is unknown, so every source
        # is notified; non-owners ignore it).
        targets = (range(self.descriptor.source_count)
                   if scope == "global" else [scope])
        for source in targets:
            qp, _region, handle = self._control[source]
            qp.post_write((missing + 1).to_bytes(8, "little"),
                          handle.rkey, handle.nack_offset, signaled=False)

    # -- consume ---------------------------------------------------------
    def consume(self):
        """Generator: next tuple, a :class:`GapNotification` (gap_notify
        mode), or :data:`FLOW_END`.

        With ``options.peer_timeout`` set, a wait that sees no receive
        progress at all for that long consults the fault plane and raises
        :class:`FlowPeerFailedError` (a source is known dead) or
        :class:`FlowTimeoutError`; any arriving datagram restarts the
        window. A buffered row is handed out by index, without a
        call."""
        taken = self._taken
        if taken < self._held:
            self._taken = taken + 1
            return self._rows[taken]
        if self.env._ahead is not None:
            yield PARK   # the receive pass reads what the NIC delivered
        deadline = (None if self._peer_timeout is None
                    else self.env.now + self._peer_timeout)
        while True:
            if deadline is not None:
                before = self._progress_mark()
            self._pump()
            if self._aborted:
                raise FlowAbortedError(
                    f"flow {self.descriptor.name!r} was aborted by a "
                    f"source")
            if self._held:
                self._taken = 1
                return self._rows[0]
            if self._gap_pending is not None:
                pending = self._gap_pending
                self._gap_pending = None
                return pending
            if self._finished():
                if self._obs is not None and not self._close_logged:
                    self._close_logged = True
                    self._obs.log((CLOSE, self.env.now, self._flow,
                                   self.node.node_id, None, None))
                return FLOW_END
            if deadline is not None:
                if self._progress_mark() != before:
                    deadline = self.env.now + self._peer_timeout
                elif self.env.now >= deadline:
                    _judge_silence(
                        self, list(range(self.descriptor.source_count)),
                        f"no multicast progress within "
                        f"{self._peer_timeout} ns")
                    deadline = self.env.now + self._peer_timeout
            elif not self._gap_deadlines:
                # Only a datagram can end this wait: resume one poll cost
                # after it commits.
                yield self._doorbell.arm(poll=True)
                continue
            waits = [self._doorbell.arm()]
            if self._gap_deadlines:
                waits.append(self.env.timeout(
                    self.descriptor.options.retransmit_timeout))
            if deadline is not None:
                waits.append(self.env.timeout(deadline - self.env.now))
            yield self.env.any_of(waits)
            self._doorbell.disarm()
            yield self.node.compute(
                self.node.cluster.profile.cpu_poll_cost)

    def consume_batch(self):
        """Generator: every tuple ready right now as one list (never
        ``[]``), or what :meth:`consume` returns or raises in its place —
        :data:`FLOW_END`, a pending :class:`GapNotification`, an abort, a
        ``peer_timeout`` error — buffered tuples first. The contract of
        ``ShuffleTarget.consume_batch`` on :meth:`consume`'s wait loop: a
        batch loop polls, waits and grants credits at the instants the
        per-tuple loop does."""
        first = yield from self.consume()
        if first is FLOW_END or type(first) is GapNotification:
            return first
        batch = self._rows[self._taken - 1:]
        self._taken = self._held
        return batch

    def _progress_mark(self) -> tuple:
        """Cheap receive-progress stamp: changes whenever any datagram
        was accepted (tuples, close markers, or credit-only segments)."""
        return (self.tuples_received, self._closed_delivered,
                sum(self._consumed))

    def _finished(self) -> bool:
        if self._taken < self._held:
            return False
        if self._ordered:
            return (self._closed_delivered == self.descriptor.source_count
                    and not self._windows[0].held)
        for window, close_seq in zip(self._windows, self._close_seq):
            if close_seq is None or window.next <= close_seq:
                return False
        return True

    @property
    def next_expected_seq(self) -> "int | None":
        """Next global sequence number awaited (ordered flows only)."""
        return self._windows[0].next if self._ordered else None

    def skip_gap(self, seq: int, source_index: "int | None" = None) -> None:
        """Give up on sequence number ``seq`` after application-level gap
        agreement (``gap_notify`` mode). Unordered flows identify the
        source via ``source_index`` (as carried by the notification)."""
        if self._ordered:
            # The next pump releases what the gap held back.
            self._windows[0].skip(seq)
            self._gap_deadlines.pop(("global", seq), None)
            return
        if source_index is None:
            raise FlowError(
                "unordered flows need the source_index of the gap")
        window = self._windows[source_index]
        window.skip(seq)
        window.release()
        self._gap_deadlines.pop((source_index, seq), None)

    @property
    def memory_bytes(self) -> int:
        return self._ring.size
