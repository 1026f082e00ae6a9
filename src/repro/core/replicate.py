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
  bounded history buffer.

Globally-ordered replicate flows additionally stamp every segment with a
sequence number drawn from the *tuple sequencer* — an RDMA fetch-and-add on
a counter hosted by the registry master — and targets deliver strictly in
that order via the receive-list/next-list reorder buffer (Fig. 6). In
``gap_notify`` mode a timed-out gap is surfaced to the application as a
:class:`~repro.core.flowdef.GapNotification` instead of being NACKed —
the hook NOPaxos' gap agreement builds on.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from struct import Struct, error as _struct_error

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
    MULTICAST_PAYLOAD_LIMIT,
    NO_FLUSH,
    FlowDescriptor,
    FlowType,
    GapNotification,
    Optimization,
    Ordering,
)
from repro.core.ordering import ReorderBuffer
from repro.core.registry import FlowRegistry
from repro.core.segment import (
    FLAG_ABORTED,
    FLAG_CLOSED,
    FLAG_CONSUMABLE,
    FOOTER_SIZE,
    pack_footer,
    unpack_footer,
)
from repro.core.shuffle import (
    ShuffleTarget,
    _Doorbell,
    _source_counters,
)
from repro.core.writers import CreditRingWriter, FooterRingWriter
from repro.obs import (
    FAULT_DETECT,
    REROUTE,
    RETRANSMIT,
    endpoint_obs,
    log_close,
    log_event,
    log_stall,
)
from repro.common.planelog import CLOSE, CONSUME, WRITE
from repro.rdma.nic import get_nic


@dataclass(frozen=True)
class ControlHandle:
    """Remote handle of a source's control region: per-target credit and
    NACK slots written one-sidedly by targets."""

    node_id: int
    rkey: int
    credit_offset: int
    nack_offset: int


class SeqTracker:
    """Per-source sequence bookkeeping for *unordered* multicast delivery:
    duplicate filtering, contiguity, and lowest-missing detection."""

    def __init__(self) -> None:
        self._next = 0
        self._ahead: set[int] = set()
        self.duplicates_dropped = 0

    @property
    def contiguous(self) -> int:
        """All sequence numbers below this value have been processed."""
        return self._next

    @property
    def delivered(self) -> int:
        """Total unique segments processed (contiguous or not)."""
        return self._next + len(self._ahead)

    def add(self, seq: int) -> bool:
        """Record ``seq``; returns False for duplicates."""
        if seq < self._next or seq in self._ahead:
            self.duplicates_dropped += 1
            return False
        if seq == self._next:
            self._next += 1
            while self._next in self._ahead:
                self._ahead.discard(self._next)
                self._next += 1
        else:
            self._ahead.add(seq)
        return True

    def missing(self) -> "int | None":
        """Lowest missing sequence number, if later ones already arrived."""
        return self._next if self._ahead else None

    def skip(self, seq: int) -> None:
        """Give up on ``seq`` (application-level gap handling)."""
        if seq != self._next:
            raise FlowError(
                f"can only skip the lowest missing sequence number "
                f"({self._next}), not {seq}")
        self._next += 1
        while self._next in self._ahead:
            self._ahead.discard(self._next)
            self._next += 1


class TupleSequencer:
    """Source-side client of the global tuple sequencer: one RDMA
    fetch-and-add per segment (paper Section 5.4)."""

    def __init__(self, registry: FlowRegistry, name: str, node) -> None:
        self._handle = registry.sequencer(name)
        self._qp = get_nic(node).create_qp(
            registry.cluster.node(self._handle.node_id))

    def next(self):
        """Generator: draw the next global sequence number."""
        wr = self._qp.post_fetch_add(self._handle.rkey, self._handle.offset,
                                     1, signaled=False)
        seq = yield wr.done
        return seq


def _replicate_payload_size(descriptor: FlowDescriptor) -> int:
    """Segment payload for a replicate flow (MTU-capped when multicast)."""
    if descriptor.optimization is Optimization.LATENCY:
        payload = descriptor.schema.tuple_size
    else:
        payload = descriptor.options.segment_size
    if descriptor.options.multicast:
        if descriptor.schema.tuple_size > MULTICAST_PAYLOAD_LIMIT:
            raise FlowError(
                f"tuple size {descriptor.schema.tuple_size} exceeds the UD "
                f"multicast payload limit ({MULTICAST_PAYLOAD_LIMIT} B)")
        payload = min(payload, MULTICAST_PAYLOAD_LIMIT)
    if payload < descriptor.schema.tuple_size:
        raise FlowError(
            f"segment payload {payload} smaller than one tuple "
            f"({descriptor.schema.tuple_size} B)")
    return payload


def _check_replicate(descriptor: FlowDescriptor, index: int,
                     count: int, kind: str) -> None:
    if descriptor.flow_type is not FlowType.REPLICATE:
        raise FlowError(
            f"flow {descriptor.name!r} is a {descriptor.flow_type.value} "
            f"flow, not replicate")
    if not 0 <= index < count:
        raise FlowError(f"{kind} index {index} out of range [0, {count})")


class _StagingBuffer:
    """Shared staging segment for replicate sources: tuples are packed once
    and the finished slot is fanned out by the transport."""

    def __init__(self, descriptor: FlowDescriptor, payload_size: int) -> None:
        self.schema = descriptor.schema
        # Bound once: ``append`` runs per tuple, ``room``/``full`` and
        # ``pack_many_into`` per chunk on the batched push path.
        self.tuple_size = descriptor.schema.tuple_size
        self._pack_tuple = descriptor.schema.raw_pack_into
        self._pack_many_into = descriptor.schema.pack_many_into
        self.payload_size = payload_size
        #: The buffer reads as full once ``used`` exceeds this.
        self._full_above = payload_size - self.tuple_size
        self._buffer = bytearray(payload_size)
        self.used = 0

    def append(self, values: tuple) -> bool:
        """Pack one tuple; returns :attr:`full`."""
        used = self.used
        try:
            self._pack_tuple(self._buffer, used, *values)
        except _struct_error as exc:
            raise self.schema.mismatch(values, exc) from None
        self.used = used = used + self.tuple_size
        return used > self._full_above

    def append_many(self, tuples) -> None:
        """Pack a batch of tuples with one ``struct`` call; the caller
        checks :attr:`room` first."""
        self._pack_many_into(self._buffer, self.used, tuples)
        self.used += self.tuple_size * len(tuples)

    @property
    def room(self) -> int:
        """How many more tuples fit before the buffer reads as full."""
        return (self.payload_size - self.used) // self.tuple_size

    @property
    def full(self) -> bool:
        return self.used > self._full_above

    def take(self) -> bytes:
        payload = bytes(self._buffer[:self.used])
        self.used = 0
        return payload


class NaiveReplicateSource:
    """Replicate source using one one-sided write per target."""

    def __init__(self, registry: FlowRegistry, descriptor: FlowDescriptor,
                 source_index: int, writers: list,
                 sequencer: "TupleSequencer | None") -> None:
        self.registry = registry
        self.descriptor = descriptor
        self.source_index = source_index
        self.node = registry.cluster.node(
            descriptor.sources[source_index].node_id)
        self.profile = self.node.cluster.profile
        self._writers = writers
        self._sequencer = sequencer
        self._payload_size = _replicate_payload_size(descriptor)
        self._staging = _StagingBuffer(descriptor, self._payload_size)
        # Doorbell trains need tuple-aligned segments (whole slots go out
        # as contiguous payload+footer writes).
        self._train_ok = (self._payload_size
                          % descriptor.schema.tuple_size == 0)
        self._latency = descriptor.optimization is Optimization.LATENCY
        self._cpu_debt = 0.0
        self._tuple_debt = self.profile.cpu_push_cost(
            descriptor.schema.tuple_size)
        self._local_seq = 0
        #: Writer indices declared failed (their targets are gone).
        self._failed: set[int] = set()
        self._aborting = False
        self.segments_sent = 0
        self.tuples_sent = 0
        self.closed = False
        self._tid = f"src{source_index}"
        self._flow = descriptor.name
        self._obs = endpoint_obs(self.node, self._flow,
                                 descriptor.options, self)

    _collect_obs = _source_counters

    @classmethod
    def open(cls, registry: FlowRegistry, name: str, source_index: int):
        """Generator: open a naive replicate source endpoint."""
        descriptor = registry.descriptor(name)
        _check_replicate(descriptor, source_index, descriptor.source_count,
                         "source")
        node = registry.cluster.node(
            descriptor.sources[source_index].node_id)
        latency = descriptor.optimization is Optimization.LATENCY
        retries = descriptor.options.max_backoff_retries
        writers = []
        for target_index in range(descriptor.target_count):
            handle = yield from registry.wait_ring(name, source_index,
                                                   target_index)
            tag = (name, source_index, target_index)
            if latency:
                writers.append(CreditRingWriter(
                    node, handle, tag,
                    descriptor.options.credit_threshold,
                    max_retries=retries))
            else:
                writers.append(FooterRingWriter(node, handle, tag,
                                                max_retries=retries))
        sequencer = None
        if descriptor.ordering is Ordering.GLOBAL:
            sequencer = TupleSequencer(registry, name, node)
        return cls(registry, descriptor, source_index, writers, sequencer)

    def push(self, values: tuple):
        """Replicate one tuple to all targets; returns what the caller
        must ``yield from`` — :data:`NO_FLUSH` while the staged segment
        has room, the flush generator once it is full (always, in
        latency mode)."""
        if self.closed:
            raise FlowClosedError("push on a closed replicate source")
        full = self._staging.append(values)
        self.tuples_sent += 1
        self._cpu_debt += self._tuple_debt
        if full or self._latency:
            return self._flush(0)
        return NO_FLUSH

    def push_batch(self, tuples):
        """Generator: replicate a batch of tuples to all targets.

        Simulated cost matches per-tuple push (same CPU debt, same flush
        points); segments are packed with one ``struct`` call each.
        Unordered bandwidth flows replicate every full segment the batch
        produces as one doorbell train per writer (globally-ordered flows
        must draw one sequencer value per segment over the wire, so they
        keep the eager per-segment path).
        """
        if self.closed:
            raise FlowClosedError("push on a closed replicate source")
        if self._latency:
            for values in tuples:
                yield from self.push(values)
            return
        if not isinstance(tuples, (list, tuple)):
            tuples = list(tuples)
        per_tuple = self._tuple_debt
        total = len(tuples)
        index = 0
        train = self._train_ok and self._sequencer is None
        payloads = []
        while index < total:
            take = min(self._staging.room, total - index)
            if take:
                self._staging.append_many(tuples[index:index + take])
                self.tuples_sent += take
                self._cpu_debt += take * per_tuple
                index += take
            if self._staging.full:
                if train:
                    payloads.append(self._staging.take())
                else:
                    yield from self._flush(0)
        if payloads:
            yield from self._flush_train(payloads)

    def close(self):
        """Generator: flush, send the close marker, and wait for acks."""
        if self.closed:
            return
        work_requests = yield from self._flush(FLAG_CLOSED)
        self.closed = True
        if self._obs is not None:
            log_close(self)
        failures = []
        for index, wr in work_requests:
            try:
                if not wr.done.triggered:
                    yield wr.done
                elif wr.error is not None:
                    raise wr.error
            except (QpFlushedError, FlowTimeoutError) as exc:
                failures.append((index, exc))
        for index, exc in failures:
            yield from self._handle_writer_failure(index, exc)
        self._release_writers()

    def abort(self):
        """Generator: abort the flow on every target (staged tuples are
        dropped; targets raise FlowAbortedError)."""
        if self.closed:
            return
        self.registry.mark_flow_aborted(self.descriptor.name)
        self._aborting = True
        self._staging.take()  # discard staged tuples
        work_requests = yield from self._flush(FLAG_CLOSED | FLAG_ABORTED)
        self.closed = True
        if self._obs is not None:
            log_close(self, {"aborted": True})
        for _index, wr in work_requests:
            try:
                if not wr.done.triggered:
                    yield wr.done
            except (QpFlushedError, FlowTimeoutError):
                pass  # abort is best-effort on a failing fabric
        self._release_writers()

    def _release_writers(self) -> None:
        """Every marker is acknowledged (or its target is gone): the
        writers post nothing more, so their NIC regions go — a
        flow-cycling cluster must not keep one per writer per flow."""
        for writer in self._writers:
            writer.release()

    def _flush(self, extra_flags: int):
        debt = (self._cpu_debt
                + self.profile.cpu_post_cost * len(self._writers))
        self._cpu_debt = 0.0
        yield self.node.compute(debt)
        if self._sequencer is not None:
            seq = yield from self._sequencer.next()
        else:
            seq = self._local_seq
            self._local_seq += 1
        payload = self._staging.take()
        flags = FLAG_CONSUMABLE | extra_flags
        work_requests = []
        failures = []
        for index, writer in enumerate(self._writers):
            if index in self._failed:
                continue
            try:
                wr = yield from writer.write_segment(payload, flags, seq,
                                                     self.source_index)
            except (QpFlushedError, FlowTimeoutError) as exc:
                failures.append((index, exc))
                continue
            work_requests.append((index, wr))
        self.segments_sent += 1
        if self._obs is not None:
            self._obs.log((WRITE, self.node.env.now, self, None, seq, 1,
                           len(payload)))
        for index, exc in failures:
            yield from self._handle_writer_failure(index, exc)
        return work_requests

    def _flush_train(self, payloads):
        """Generator: replicate a train of full segments to every target —
        one coalesced CPU charge (same debt a per-segment schedule would
        accrue), then one doorbell train per writer."""
        debt = (self._cpu_debt + self.profile.cpu_post_cost
                * len(payloads) * len(self._writers))
        self._cpu_debt = 0.0
        yield self.node.compute(debt)
        base_seq = self._local_seq
        self._local_seq += len(payloads)
        segments = [(payload, FLAG_CONSUMABLE, base_seq + i)
                    for i, payload in enumerate(payloads)]
        failures = []
        for index, writer in enumerate(self._writers):
            if index in self._failed:
                continue
            try:
                yield from writer.write_segments(segments,
                                                 self.source_index)
            except (QpFlushedError, FlowTimeoutError) as exc:
                failures.append((index, exc))
        self.segments_sent += len(payloads)
        for index, exc in failures:
            yield from self._handle_writer_failure(index, exc)

    def _handle_writer_failure(self, index: int, exc: Exception):
        """Generator: one target's writer failed. Replicate semantics
        promise delivery to *all* targets, so under the default abort
        policy any confirmed peer death voids the flow; the reroute
        policy degrades to replicating to the survivors only."""
        self._failed.add(index)
        if self._aborting:
            return
        faults = self.node.cluster.faults
        peer = self.registry.cluster.node(
            self.descriptor.targets[index].node_id)
        peer_dead = (isinstance(exc, QpFlushedError)
                     or (faults is not None and faults.active
                         and faults.peer_failed(self.node, peer)))
        obs = self._obs
        if obs is not None:
            obs.inc("core.target_failures")
        if not peer_dead:
            # A stall without evidence of peer death (backoff budget
            # exhausted against a live but wedged target) surfaces the
            # original error unchanged.
            raise exc
        if obs is not None:
            obs.inc("core.peer_failures_detected")
            log_event(self, FAULT_DETECT,
                      {"target": index, "peer_node": peer.node_id,
                       "cause": type(exc).__name__})
        if (self.descriptor.options.on_target_failure == "reroute"
                and len(self._failed) < len(self._writers)):
            if obs is not None:
                obs.inc("core.reroutes")
                log_event(self, REROUTE, {"target": index})
            return  # keep replicating to the survivors
        yield from self._abort_survivors()
        raise FlowPeerFailedError(
            f"target {index} of replicate flow {self.descriptor.name!r} "
            f"failed: {exc}") from exc

    def _abort_survivors(self):
        """Generator: best-effort abort markers to the still-live targets
        so they do not hang on a flow that will never close."""
        self._aborting = True
        self.registry.mark_flow_aborted(self.descriptor.name)
        self._staging.take()
        if not self.closed:
            work_requests = yield from self._flush(
                FLAG_CLOSED | FLAG_ABORTED)
            for _index, wr in work_requests:
                try:
                    if not wr.done.triggered:
                        yield wr.done
                except (QpFlushedError, FlowTimeoutError):
                    pass
        self.closed = True
        self._release_writers()

    @property
    def failed_targets(self) -> tuple:
        """Indices of targets declared failed (sorted)."""
        return tuple(sorted(self._failed))

    @property
    def memory_bytes(self) -> int:
        return self._payload_size + FOOTER_SIZE  # one staging slot


class NaiveReplicateTarget(ShuffleTarget):
    """Replicate target over per-source one-sided rings.

    Unordered mode behaves like a shuffle target (arrival order). Globally
    ordered mode feeds polled segments through the reorder buffer so all
    targets observe the same delivery order.
    """

    _allowed_flow_types = (FlowType.REPLICATE,)

    def __init__(self, registry, descriptor, target_index, channels) -> None:
        super().__init__(registry, descriptor, target_index, channels)
        self._ordered = descriptor.ordering is Ordering.GLOBAL
        self._reorder = ReorderBuffer() if self._ordered else None

    def _scan(self, out) -> bool:
        if not self._ordered:
            return super()._scan(out)
        # Ordered mode goes segment-by-segment through ``poll`` (the
        # reorder buffer needs each footer's sequence number) but still
        # rides the doorbell set: only channels whose ring saw a write
        # are polled, and each is drained until empty.
        progressed = False
        dirty = self._dirty
        channels = self._channels
        while dirty:
            index = next(iter(dirty))
            del dirty[index]
            channel = channels[index]
            while True:
                polled = channel.poll()
                if polled is None:
                    break
                footer, tuples = polled
                self._reorder.insert(footer.seq, tuples)
                progressed = True
            if channel.aborted:
                self._abort_seen = True
        while True:
            ready = self._reorder.pop_ready()
            if ready is None:
                break
            _seq, tuples = ready
            out.extend(tuples)
        return progressed

    def consume_bytes(self):
        if self._ordered:
            raise FlowError(
                "consume_bytes is not available on globally ordered "
                "replicate flows: raw segment views cannot pass the "
                "reorder buffer")
        return super().consume_bytes()

    def _finished(self) -> bool:
        return not self._open and (not self._ordered
                                   or self._reorder.pending == 0)


class MulticastReplicateSource:
    """Replicate source over switch multicast with credit/NACK back-flow."""

    #: Control-region layout: 16 bytes per target (credit u64, nack u64).
    _CONTROL_STRIDE = 16

    def __init__(self, registry: FlowRegistry, descriptor: FlowDescriptor,
                 source_index: int, control_region, ud_qp,
                 sequencer: "TupleSequencer | None") -> None:
        self.registry = registry
        self.descriptor = descriptor
        self.source_index = source_index
        self.node = registry.cluster.node(
            descriptor.sources[source_index].node_id)
        self.env = self.node.env
        self.profile = self.node.cluster.profile
        self._control = control_region
        self._ud_qp = ud_qp
        self._group = registry.multicast_group(descriptor.name)
        self._sequencer = sequencer
        self._payload_size = _replicate_payload_size(descriptor)
        self._staging = _StagingBuffer(descriptor, self._payload_size)
        self._latency = descriptor.optimization is Optimization.LATENCY
        self._window = descriptor.options.target_segments
        self._retransmit: dict[int, bytes] = {}
        self._retransmit_order: deque[int] = deque()
        self._doorbell = _Doorbell(self.node, control_region)
        #: The whole control region as (credit, nack) word pairs.
        self._control_words = Struct(
            f"<{2 * descriptor.target_count}Q").unpack_from
        self._cpu_debt = 0.0
        self._tuple_debt = self.profile.cpu_push_cost(
            descriptor.schema.tuple_size)
        self._local_seq = 0
        self._close_slot: "bytes | None" = None
        #: Target indices declared failed (excluded from flow control).
        self._failed_targets: set[int] = set()
        self._aborting = False
        self.segments_sent = 0
        self.tuples_sent = 0
        self.retransmissions = 0
        self.closed = False
        self._tid = f"src{source_index}"
        self._flow = descriptor.name
        self._obs = endpoint_obs(self.node, self._flow,
                                 descriptor.options, self)

    _collect_obs = _source_counters

    def _note_retransmit(self, seq: "int | None") -> None:
        """Count one multicast retransmission (local tally + registry)."""
        self.retransmissions += 1
        obs = self._obs
        if obs is not None:
            obs.inc("core.retransmits")
            log_event(self, RETRANSMIT,
                      None if seq is None else {"seq": seq})

    @classmethod
    def open(cls, registry: FlowRegistry, name: str, source_index: int):
        """Generator: open a multicast replicate source endpoint; blocks
        until every target joined the multicast group."""
        descriptor = registry.descriptor(name)
        _check_replicate(descriptor, source_index, descriptor.source_count,
                         "source")
        node = registry.cluster.node(
            descriptor.sources[source_index].node_id)
        nic = get_nic(node)
        control = nic.register_memory(
            cls._CONTROL_STRIDE * descriptor.target_count)
        for target_index in range(descriptor.target_count):
            registry.publish_backchannel(
                name, source_index, target_index,
                ControlHandle(
                    node_id=node.node_id, rkey=control.rkey,
                    credit_offset=cls._CONTROL_STRIDE * target_index,
                    nack_offset=cls._CONTROL_STRIDE * target_index + 8))
        ud_qp = nic.create_ud_qp()
        sequencer = None
        if descriptor.ordering is Ordering.GLOBAL:
            sequencer = TupleSequencer(registry, name, node)
        yield from registry.wait_all_targets(name)
        return cls(registry, descriptor, source_index, control, ud_qp,
                   sequencer)

    # -- credit / NACK bookkeeping -----------------------------------------
    def _min_credit(self) -> int:
        credits = self._control_words(self._control.mem)[0::2]
        failed = self._failed_targets
        if failed:
            credits = [credit for target, credit in enumerate(credits)
                       if target not in failed]
            if not credits:
                # Every target failed: nothing constrains the window
                # anymore.
                return self.segments_sent
        return min(credits)

    def _service_nacks(self) -> None:
        nacks = self._control_words(self._control.mem)[1::2]
        for target, value in enumerate(nacks):
            if not value:
                continue
            offset = self._CONTROL_STRIDE * target + 8
            seq = value - 1
            slot = self._retransmit.get(seq)
            if slot is not None:
                self._ud_qp.post_send_multicast(self._group, slot)
                self._note_retransmit(seq)
            # Clear the NACK slot directly (our own memory; a hook-free
            # write so we do not wake ourselves).
            self._control.mem[offset:offset + 8] = b"\x00" * 8

    def _remember(self, seq: int, slot: bytes) -> None:
        self._retransmit[seq] = slot
        self._retransmit_order.append(seq)
        while len(self._retransmit_order) > self.descriptor.options.retransmit_buffer:
            evicted = self._retransmit_order.popleft()
            self._retransmit.pop(evicted, None)

    def _wait_credit(self):
        if self.descriptor.options.gap_notify:
            # OUM semantics (NOPaxos): the library gives no delivery
            # guarantee and applies no flow control — a receiver that
            # cannot keep up drops datagrams, which surface as gaps for
            # the application's gap agreement. A lost segment would
            # otherwise hole the credit count forever.
            return
        if self._aborting:
            # Abort markers go out even with the window shut: overwriting
            # a receive ring slot is moot on a flow that is already void.
            return
        limit = self.descriptor.options.max_retransmits
        stalled_rounds = 0
        floor = self._min_credit()
        while self.segments_sent - self._min_credit() >= self._window:
            obs = self._obs
            if obs is not None:
                obs.inc("core.credit_stalls")
            self._service_nacks()
            wait_from = self.env.now
            yield self.env.any_of([
                self._doorbell.arm(),
                self.env.timeout(self.descriptor.options.retransmit_timeout),
            ])
            self._doorbell.disarm()
            if obs is not None:
                log_stall(self, wait_from)
            credit = self._min_credit()
            if credit > floor:
                floor = credit
                stalled_rounds = 0
            elif limit is not None:
                stalled_rounds += 1
                if stalled_rounds >= limit:
                    yield from self._fail_stalled()
                    stalled_rounds = 0
                    floor = self._min_credit()

    def _fail_stalled(self):
        """Generator: the credit window stayed shut through the whole
        retransmit budget — declare the lowest-credit targets failed.
        The reroute policy drops them from flow control and carries on
        with the survivors; the abort policy (default) voids the flow
        and surfaces :class:`FlowPeerFailedError`."""
        credits = self._control_words(self._control.mem)[0::2]
        live = [t for t in range(len(credits))
                if t not in self._failed_targets]
        floor = min(credits[t] for t in live)
        stalled = [t for t in live if credits[t] == floor]
        self._failed_targets.update(stalled)
        obs = self._obs
        if obs is not None:
            obs.inc("core.target_failures", len(stalled))
            obs.inc("core.peer_failures_detected", len(stalled))
            log_event(self, FAULT_DETECT,
                      {"targets": stalled, "cause": "credit_stall"})
        if (self.descriptor.options.on_target_failure == "reroute"
                and len(stalled) < len(live)):
            if obs is not None:
                obs.inc("core.reroutes")
                log_event(self, REROUTE, {"targets": stalled})
            return
        yield from self._abort_for_failure()
        raise FlowPeerFailedError(
            f"target(s) {stalled} of replicate flow "
            f"{self.descriptor.name!r} made no progress through "
            f"{self.descriptor.options.max_retransmits} retransmit rounds")

    def _abort_for_failure(self):
        """Generator: best-effort abort multicast before surfacing a
        failure, so surviving targets do not hang on a half-closed flow."""
        self._aborting = True
        self.registry.mark_flow_aborted(self.descriptor.name)
        self._staging.take()
        yield from self._flush(FLAG_CLOSED | FLAG_ABORTED)
        self.closed = True

    # -- push / close --------------------------------------------------------
    def push(self, values: tuple):
        """Replicate one tuple through the switch; returns what the caller
        must ``yield from`` — :data:`NO_FLUSH` while the staged segment
        has room, the flush generator once it is full (always, in
        latency mode)."""
        if self.closed:
            raise FlowClosedError("push on a closed replicate source")
        full = self._staging.append(values)
        self.tuples_sent += 1
        self._cpu_debt += self._tuple_debt
        if full or self._latency:
            return self._flush(0)
        return NO_FLUSH

    def push_batch(self, tuples):
        """Generator: replicate a batch of tuples through the switch.

        Same semantics and simulated cost as per-tuple push; whole
        segments are packed with one ``struct`` call.
        """
        if self.closed:
            raise FlowClosedError("push on a closed replicate source")
        if self._latency:
            for values in tuples:
                yield from self.push(values)
            return
        if not isinstance(tuples, (list, tuple)):
            tuples = list(tuples)
        per_tuple = self._tuple_debt
        total = len(tuples)
        index = 0
        while index < total:
            take = min(self._staging.room, total - index)
            if take:
                self._staging.append_many(tuples[index:index + take])
                self.tuples_sent += take
                self._cpu_debt += take * per_tuple
                index += take
            if self._staging.full:
                yield from self._flush(0)

    def close(self):
        """Generator: flush, send the close marker, then stay responsive
        (retransmissions) until every target confirmed full consumption."""
        if self.closed:
            return
        yield from self._flush(FLAG_CLOSED)
        if self.descriptor.options.gap_notify:
            # The application owns loss recovery in gap_notify mode, and
            # skipped segments never bump credits — waiting for full
            # consumption could block forever. Re-send the close marker a
            # few times against loss and return.
            for _ in range(3):
                yield self.env.timeout(
                    self.descriptor.options.retransmit_timeout)
                if self._min_credit() >= self.segments_sent:
                    break
                self._ud_qp.post_send_multicast(self._group,
                                                self._close_slot)
                self._note_retransmit(None)
            self.closed = True
            if self._obs is not None:
                log_close(self)
            return
        total = self.segments_sent
        limit = self.descriptor.options.max_retransmits
        stalled_rounds = 0
        floor = self._min_credit()
        resend_deadline = (self.env.now
                           + self.descriptor.options.retransmit_timeout)
        while self._min_credit() < total:
            self._service_nacks()
            wait_from = self.env.now
            yield self.env.any_of([
                self._doorbell.arm(),
                self.env.timeout(self.descriptor.options.retransmit_timeout),
            ])
            self._doorbell.disarm()
            if self._obs is not None:
                log_stall(self, wait_from)
            credit = self._min_credit()
            if credit > floor:
                floor = credit
                stalled_rounds = 0
            elif limit is not None:
                stalled_rounds += 1
                if stalled_rounds >= limit:
                    yield from self._fail_stalled()
                    stalled_rounds = 0
                    floor = self._min_credit()
                    continue
            if (self.env.now >= resend_deadline
                    and self._close_slot is not None):
                # The close marker itself may have been lost; it is the only
                # segment no later traffic can expose, so resend it until
                # every target has caught up.
                self._ud_qp.post_send_multicast(self._group,
                                                self._close_slot)
                self._note_retransmit(None)
                resend_deadline = (self.env.now + self.descriptor.options
                                   .retransmit_timeout)
        self.closed = True
        if self._obs is not None:
            log_close(self)

    def abort(self):
        """Generator: abort the flow — the marker is re-multicast a few
        times against loss, then the source stops (no delivery guarantee
        survives an abort)."""
        if self.closed:
            return
        self.registry.mark_flow_aborted(self.descriptor.name)
        self._aborting = True
        self._staging.take()  # discard staged tuples
        yield from self._flush(FLAG_CLOSED | FLAG_ABORTED)
        for _ in range(3):
            yield self.env.timeout(
                self.descriptor.options.retransmit_timeout)
            self._ud_qp.post_send_multicast(self._group, self._close_slot)
            self._note_retransmit(None)
        self.closed = True
        if self._obs is not None:
            log_close(self, {"aborted": True})

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
        # after the used payload — no padding to the segment size.
        payload = self._staging.take()
        slot = payload + pack_footer(len(payload),
                                     FLAG_CONSUMABLE | extra_flags, seq,
                                     self.source_index)
        yield from self._wait_credit()
        self._remember(seq, slot)
        if extra_flags & FLAG_CLOSED:
            self._close_slot = slot
        self._ud_qp.post_send_multicast(self._group, slot)
        self.segments_sent += 1
        if self._obs is not None:
            self._obs.log((WRITE, self.env.now, self, None, seq, 1,
                           len(payload)))
        self._service_nacks()

    @property
    def failed_targets(self) -> tuple:
        """Indices of targets declared failed (sorted)."""
        return tuple(sorted(self._failed_targets))

    @property
    def memory_bytes(self) -> int:
        return (self._payload_size + FOOTER_SIZE
                + self._control.size)


class MulticastReplicateTarget:
    """Replicate target receiving switch-replicated UD datagrams."""

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
        self._reorder = ReorderBuffer() if self._ordered else None
        self._trackers = [SeqTracker()
                          for _ in range(descriptor.source_count)]
        self._consumed = [0] * descriptor.source_count
        self._close_seq: list[int | None] = [None] * descriptor.source_count
        self._closed_delivered = 0
        self._ready: deque = deque()
        self._gap_deadlines: dict = {}
        self._gap_pending: "GapNotification | None" = None
        self._aborted = False
        self._peer_timeout = descriptor.options.peer_timeout
        self._doorbell = _Doorbell(self.node, ring_region)
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
        descriptor = registry.descriptor(name)
        _check_replicate(descriptor, target_index, descriptor.target_count,
                         "target")
        node = registry.cluster.node(
            descriptor.targets[target_index].node_id)
        nic = get_nic(node)
        payload = _replicate_payload_size(descriptor)
        slot_size = payload + FOOTER_SIZE
        segments = descriptor.options.target_segments
        ring_region = nic.register_memory(segments * slot_size)
        ud_qp = nic.create_ud_qp()
        for slot in range(segments):
            ud_qp.post_recv(ring_region, slot * slot_size, slot_size)
        control_qps = []
        control_handles = []
        for source_index in range(descriptor.source_count):
            handle = yield from registry.wait_backchannel(
                name, source_index, target_index)
            control_qps.append(nic.create_qp(
                registry.cluster.node(handle.node_id)))
            control_handles.append(handle)
        group = registry.multicast_group(name)
        group.join(ud_qp)
        registry.mark_target_ready(name, target_index)
        return cls(registry, descriptor, target_index, ud_qp, ring_region,
                   slot_size, control_qps, control_handles)

    # -- receive processing --------------------------------------------------
    def _pump(self) -> None:
        schema = self.descriptor.schema
        while True:
            completions = self._ud_qp.recv_cq.poll(max_entries=64)
            if not completions:
                break
            for wc in completions:
                region, offset, length = wc.result
                footer = unpack_footer(
                    region.view(offset + length - FOOTER_SIZE, FOOTER_SIZE))
                tuples = (schema.unpack_rows(region.view(offset, footer.used))
                          if footer.used else [])
                # Free the slot for the next datagram right away: the
                # payload has been decoded out of the ring.
                self._ud_qp.post_recv(region, offset, self._slot_size)
                self._accept(footer, tuples)
        if self._ordered:
            self._drain_reorder()
        self._check_gaps()

    def _accept(self, footer, tuples) -> None:
        if footer.aborted:
            # Aborts bypass ordering: the flow is void immediately.
            self._aborted = True
            return
        # Credits are granted at parse time — the moment the receive slot
        # is reposted — so the credit window tracks receive-queue capacity
        # (its purpose) rather than application consumption, which may
        # stall behind a gap in ordered mode.
        source = footer.source_index
        if self._ordered:
            if self._reorder.insert(footer.seq,
                                    (source, footer.closed, tuples)):
                self._bump_credit(source)
            return
        tracker = self._trackers[source]
        if not tracker.add(footer.seq):
            if self._obs is not None:
                self._obs.inc("core.duplicates_dropped")
            return  # duplicate (late retransmission)
        self._bump_credit(source)
        if footer.closed:
            self._close_seq[source] = footer.seq
        self._ready.extend(tuples)
        self.tuples_received += len(tuples)
        self.segments_received += 1
        if self._obs is not None:
            self._obs.log((CONSUME, self.env.now, self, None, footer.seq,
                           (len(tuples),), False, False))

    def _drain_reorder(self) -> None:
        while True:
            ready = self._reorder.pop_ready()
            if ready is None:
                return
            seq, (_source, closed, tuples) = ready
            if closed:
                self._closed_delivered += 1
            self._ready.extend(tuples)
            self.tuples_received += len(tuples)
            self.segments_received += 1
            if self._obs is not None:
                self._obs.log((CONSUME, self.env.now, self, None, seq,
                               (len(tuples),), False, False))

    def _bump_credit(self, source: int) -> None:
        consumed = self._consumed[source] = self._consumed[source] + 1
        qp, region, handle = self._control[source]
        qp.post_lone(None, 8, [(0, consumed.to_bytes(8, "little"))],
                     region, handle.credit_offset)

    # -- gap detection -------------------------------------------------------
    def _current_gaps(self) -> list[tuple]:
        if self._ordered:
            missing = self._reorder.missing_seq()
            return [("global", missing)] if missing is not None else []
        gaps = []
        for source, tracker in enumerate(self._trackers):
            missing = tracker.missing()
            if missing is not None:
                gaps.append((source, missing))
        return gaps

    def _check_gaps(self) -> None:
        gaps = self._current_gaps()
        if not gaps and not self._gap_deadlines:
            return
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
        window."""
        ready = self._ready
        if ready:
            return ready.popleft()
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
            if ready:
                return ready.popleft()
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
                    from repro.simnet.congestion import stall_is_congestion
                    if stall_is_congestion(self.node):
                        # Silence explained by inbound throttling: grant
                        # a fresh window instead of misreporting
                        # congestion as failure. Throttle state
                        # self-clears, so the grace cannot loop forever.
                        if self._obs is not None:
                            self._obs.inc("core.congestion_grace")
                        deadline = self.env.now + self._peer_timeout
                    else:
                        self._raise_peer_failure()
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
        ready = self._ready
        batch = [first, *ready]
        ready.clear()
        return batch

    def _progress_mark(self) -> tuple:
        """Cheap receive-progress stamp: changes whenever any datagram
        was accepted (tuples, close markers, or credit-only segments)."""
        return (self.tuples_received, self._closed_delivered,
                sum(self._consumed))

    def _raise_peer_failure(self):
        faults = self.node.cluster.faults
        if faults is not None and faults.active:
            dead = [s for s in range(self.descriptor.source_count)
                    if faults.peer_failed(
                        self.node, self.registry.cluster.node(
                            self.descriptor.sources[s].node_id))]
            if dead:
                if self._obs is not None:
                    self._obs.inc("core.peer_failures_detected", len(dead))
                    log_event(self, FAULT_DETECT, {"sources": dead})
                raise FlowPeerFailedError(
                    f"source(s) {dead} of flow {self.descriptor.name!r} "
                    f"failed before closing the multicast stream")
        if self._obs is not None:
            self._obs.inc("core.consume_timeouts")
        raise FlowTimeoutError(
            f"no multicast progress on flow {self.descriptor.name!r} "
            f"within {self._peer_timeout} ns")

    def _finished(self) -> bool:
        if self._ready:
            return False
        if self._ordered:
            return (self._closed_delivered == self.descriptor.source_count
                    and self._reorder.pending == 0)
        for source, tracker in enumerate(self._trackers):
            close_seq = self._close_seq[source]
            if close_seq is None or tracker.contiguous <= close_seq:
                return False
        return True

    @property
    def next_expected_seq(self) -> "int | None":
        """Next global sequence number awaited (ordered flows only)."""
        return self._reorder.next_expected if self._ordered else None

    def skip_gap(self, seq: int, source_index: "int | None" = None) -> None:
        """Give up on sequence number ``seq`` after application-level gap
        agreement (``gap_notify`` mode). Unordered flows identify the
        source via ``source_index`` (as carried by the notification)."""
        if self._ordered:
            self._reorder.skip(seq)
            self._gap_deadlines.pop(("global", seq), None)
            return
        if source_index is None:
            raise FlowError(
                "unordered flows need the source_index of the gap")
        self._trackers[source_index].skip(seq)
        self._gap_deadlines.pop((source_index, seq), None)

    @property
    def memory_bytes(self) -> int:
        return self._ring.size


class ReplicateSource:
    """Factory facade: opens the transport matching the flow options."""

    @staticmethod
    def open(registry: FlowRegistry, name: str, source_index: int):
        """Generator: open a replicate source endpoint."""
        descriptor = registry.descriptor(name)
        if descriptor.options.multicast:
            endpoint = yield from MulticastReplicateSource.open(
                registry, name, source_index)
        else:
            endpoint = yield from NaiveReplicateSource.open(
                registry, name, source_index)
        return endpoint


class ReplicateTarget:
    """Factory facade: opens the transport matching the flow options."""

    @staticmethod
    def open(registry: FlowRegistry, name: str, target_index: int):
        """Generator: open a replicate target endpoint."""
        descriptor = registry.descriptor(name)
        if descriptor.options.multicast:
            endpoint = yield from MulticastReplicateTarget.open(
                registry, name, target_index)
        else:
            endpoint = NaiveReplicateTarget.open(registry, name,
                                                 target_index)
        return endpoint
