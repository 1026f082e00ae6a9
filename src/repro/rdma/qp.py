"""Queue pairs: reliable connection (RC) and unreliable datagram (UD).

The RC queue pair offers the verbs DFI builds on:

* one-sided ``WRITE`` with the increasing-address DMA commit order (payload
  bytes land strictly before the trailing footer bytes — the property that
  lets DFI use a footer flag instead of checksums, paper Section 5.2);
* one-sided ``READ`` (used to poll remote footers);
* atomics ``FETCH_ADD`` / ``COMPARE_SWAP`` (the tuple sequencer);
* two-sided ``SEND``/``RECV`` with eager buffering;
* selective signaling: only signaled requests produce CQ entries, all
  requests expose a ``done`` event.

The UD queue pair carries multicast: unreliable (fabric loss + drops when no
receive request is posted) and MTU-limited, matching InfiniBand UD.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any

from repro.common.errors import QpFlushedError, RdmaError
from repro.common.planelog import EDGE, TRAIN, WQE
from repro.rdma.completion import Completion, CompletionQueue, Opcode, WcStatus, WorkRequest
from repro.rdma.memory import MemoryRegion
from repro.rdma.nic import RNic, get_nic
from repro.simnet.node import Node

if TYPE_CHECKING:
    pass

#: Wire size of a one-sided READ / atomic request packet.
_REQUEST_PACKET_SIZE = 16
#: Trailing bytes of a WRITE that commit last (covers DFI's 16-byte footer).
_ORDERED_TAIL = 64
#: InfiniBand UD MTU: the largest datagram an unreliable QP can carry.
UD_MTU = 4096


def _as_bytes(payload: bytes | bytearray | memoryview) -> bytes:
    if isinstance(payload, bytes):
        return payload
    return bytes(payload)


def _byte_view(buffer) -> memoryview:
    """Zero-copy view of ``buffer`` whose ``len`` is its byte length, the
    unit of every size, range check and commit (``array('Q')`` has 8)."""
    try:
        return memoryview(buffer).cast("B")
    except TypeError as exc:
        raise RdmaError(
            f"a zero-copy write needs a C-contiguous buffer: {exc}") from None


def _action_when(action) -> float:
    """Sort key for (when, fn, arg) train actions (stable on equal
    times)."""
    return action[0]


def _commit_write(args) -> None:
    """Shared train action: commit one write's payload pieces to remote
    memory. ``args`` is a ``(region, base, parts)`` record — one shared
    function plus a tuple per WQE replaces a closure per WQE on the
    fault-free train path."""
    region, base, parts = args
    write = region.write
    for piece_offset, chunk in parts:
        write(base + piece_offset, chunk)


def _split_ordered_tail(pieces, split: int):
    """Split a write's ``(offset, chunk)`` pieces at byte ``split`` (its
    size less the ``_ORDERED_TAIL`` bytes that commit last, positive):
    ``(prefix_pieces, tail_pieces)``. A piece straddling the boundary is
    cut zero-copy."""
    if len(pieces) == 1:
        # The dominant shape: one buffer holding the whole write.
        view = memoryview(pieces[0][1])
        return ((0, view[:split]),), ((split, view[split:]),)
    prefix_pieces = []
    tail_pieces = []
    for offset, chunk in pieces:
        end = offset + len(chunk)
        if end <= split:
            prefix_pieces.append((offset, chunk))
        elif offset >= split:
            tail_pieces.append((offset, chunk))
        else:
            view = memoryview(chunk)
            cut = split - offset
            prefix_pieces.append((offset, view[:cut]))
            tail_pieces.append((split, view[cut:]))
    return prefix_pieces, tail_pieces


#: A scatter-gather payload: one buffer or a sequence of buffers that are
#: written contiguously (e.g. ``[payload_view, footer]``).
Gather = "bytes | bytearray | memoryview | list | tuple"


def _gather_chunks(payload, assume_stable: bool) -> list:
    """Normalize a payload (single buffer or gather list) into chunks.

    Without ``assume_stable`` every mutable buffer is snapshotted at post
    time (the classical verbs-emulation behaviour). With it, bytearray /
    memoryview chunks are wrapped zero-copy; the caller guarantees the
    bytes stay unchanged until the write has committed remotely.
    """
    chunks = (list(payload) if isinstance(payload, (list, tuple))
              else [payload])
    if assume_stable:
        return [chunk if isinstance(chunk, bytes) else _byte_view(chunk)
                for chunk in chunks]
    return [_as_bytes(chunk) for chunk in chunks]


class QueuePair:
    """A reliable-connection queue pair bound to one remote node."""

    __slots__ = ("nic", "env", "qpn", "node", "remote_node", "send_cq",
                 "recv_cq", "_peer", "_recv_queue", "_pending_rx",
                 "_staged", "_obs", "_obs_wqes_posted",
                 "_obs_wqes_signaled", "_obs_trains", "_obs_reads_posted",
                 "_ack_delta", "_inline_max", "_remote_nic")

    def __init__(self, nic: RNic, qpn: int, remote_node: Node,
                 send_cq: CompletionQueue, recv_cq: CompletionQueue) -> None:
        self.nic = nic
        self.env = nic.env
        self.qpn = qpn
        self.node = nic.node
        self.remote_node = remote_node
        self.send_cq = send_cq
        self.recv_cq = recv_cq
        self._peer: "QueuePair | None" = None
        self._recv_queue: deque[tuple[MemoryRegion, int, int, Any]] = deque()
        self._pending_rx: deque[tuple[bytes, int | None]] = deque()
        #: WQEs staged by ``post_write(doorbell=False)`` awaiting the
        #: explicit ``ring_doorbell()``.
        self._staged: list = []
        #: Path constants precomputed once per QP: the profile is frozen
        #: and the endpoints never change, so the per-train code reads
        #: attributes instead of re-deriving them per WQE.
        profile = nic.profile
        self._ack_delta = (profile.loopback_latency
                           if remote_node is nic.node
                           else profile.wire_latency)
        self._inline_max = profile.max_inline_size
        #: Remote NIC, resolved lazily (the peer NIC may not exist yet at
        #: QP construction time).
        self._remote_nic: "RNic | None" = None
        #: Cached per-node observability handle (``None`` while the plane
        #: is off — enable it before creating queue pairs). The tallies
        #: below are harvested at read time via the collector; each train
        #: or lone WQE appends one ``_obs.log`` record that its histogram
        #: sample and causal edges are derived from (``repro.obs.log``).
        self._obs = nic.node.metrics
        self._obs_wqes_posted = 0
        self._obs_wqes_signaled = 0
        self._obs_trains = 0
        self._obs_reads_posted = 0
        if self._obs is not None:
            self._obs.add_collector(self._collect_obs)

    def _collect_obs(self):
        """Read-time counter harvest (see MetricsRegistry.add_collector)."""
        posted = self._obs_wqes_posted
        signaled = self._obs_wqes_signaled
        return (("rdma.wqes_posted", posted),
                ("rdma.wqes_signaled", signaled),
                ("rdma.wqes_unsignaled", posted - signaled),
                ("rdma.doorbell_trains", self._obs_trains),
                ("rdma.reads_posted", self._obs_reads_posted))

    # -- connection handling (two-sided only) ------------------------------
    def connect(self, peer: "QueuePair") -> None:
        """Pair this QP with ``peer`` for two-sided SEND/RECV traffic."""
        if peer.node is not self.remote_node or peer.remote_node is not self.node:
            raise RdmaError(
                f"QP pair mismatch: {self.node.name}->{self.remote_node.name} "
                f"vs {peer.node.name}->{peer.remote_node.name}")
        self._peer = peer
        peer._peer = self

    # -- helpers -----------------------------------------------------------
    def _fabric(self):
        return self.node.cluster.fabric

    def _faults(self):
        """The installed fault plane, or ``None`` when absent/empty (the
        empty-plane case short-circuits here so fault-free runs keep the
        exact event pattern of a build without the fault plane)."""
        faults = self.node.cluster.faults
        if faults is None or not faults.active:
            return None
        return faults

    def _congestion(self):
        """The installed congestion plane, or ``None`` when absent — the
        ``congestion=None`` default short-circuits here, keeping the
        exact event pattern (and bit-identical timeline) of a build
        without the congestion subsystem."""
        plane = self.node.cluster.congestion
        if plane is None or not plane.active:
            return None
        return plane

    def _flush_after(self, wr: WorkRequest, delay: float,
                     status: WcStatus) -> None:
        """Fail ``wr`` after ``delay`` ns with ``status``. The error
        completion is pushed regardless of ``signaled`` — real verbs
        report failed work requests even when unsignaled."""
        obs = self._obs
        if obs is not None:
            obs.inc("rdma.wqe_flushes")
            if status is WcStatus.RETRY_EXC_ERR:
                obs.inc("rdma.retry_exc_err")
            if obs.causal:
                now = self.env.now
                obs.log((EDGE, now + delay, now, "fault_backoff",
                         self.node.node_id, f"qp{self.qpn}", None, None))
        timer = self.env.pooled_timeout(delay)

        def on_timeout(_event, wr=wr, status=status):
            wr._fail(QpFlushedError(
                f"{wr.opcode.value} {self.node.name} -> "
                f"{self.remote_node.name} flushed: {status.value}"))
            self.send_cq.push(Completion(
                wr_id=wr.wr_id, opcode=wr.opcode, status=status))

        timer.callbacks.append(on_timeout)

    def _flush_wr(self, opcode: Opcode, wr_id: Any, signaled: bool,
                  faults, status: WcStatus = WcStatus.RETRY_EXC_ERR) -> WorkRequest:
        """Create a work request destined to complete in error after the
        transport's retry window: the peer is unreachable at post time."""
        wr = WorkRequest(self.env, wr_id, opcode, signaled)
        self._flush_after(wr, faults.detection_timeout, status)
        return wr

    def _get_remote_nic(self) -> "RNic":
        remote_nic = self._remote_nic
        if remote_nic is None:
            remote_nic = self._remote_nic = get_nic(self.remote_node)
        return remote_nic

    def _finish_signaled(self, args) -> None:
        """Shared train action: complete a signaled WQE and push its CQ
        entry. ``args`` is a ``(wr, size)`` record (see
        :func:`_commit_write` for the record rationale)."""
        wr, size = args
        wr._complete(None)
        self.send_cq.push(Completion(
            wr_id=wr.wr_id, opcode=wr.opcode,
            status=WcStatus.SUCCESS, byte_len=size))

    def _finish(self, wr: WorkRequest, delay: float, byte_len: int,
                result: Any = None) -> None:
        """Complete ``wr`` after ``delay`` ns: trigger ``done`` and push a
        CQ entry if the request was signaled."""
        done_timer = self.env.pooled_timeout(delay)

        def on_done(_event, wr=wr, result=result, byte_len=byte_len):
            faults = self._faults()
            if faults is not None and not faults.node_alive(self.remote_node):
                # The peer died while the operation was in flight: no ACK
                # ever comes back, the QP enters the error state.
                wr._fail(QpFlushedError(
                    f"{wr.opcode.value} {self.node.name} -> "
                    f"{self.remote_node.name} flushed: peer failed in "
                    f"flight"))
                self.send_cq.push(Completion(
                    wr_id=wr.wr_id, opcode=wr.opcode,
                    status=WcStatus.WR_FLUSH_ERR, byte_len=byte_len))
                return
            wr._complete(result)
            if wr.signaled:
                self.send_cq.push(Completion(
                    wr_id=wr.wr_id, opcode=wr.opcode, status=WcStatus.SUCCESS,
                    byte_len=byte_len, result=result))

        done_timer.callbacks.append(on_done)

    # -- one-sided WRITE -----------------------------------------------------
    def post_write(self, payload,
                   remote_rkey: int, remote_offset: int,
                   signaled: bool = False, wr_id: Any = None,
                   assume_stable: bool = False,
                   doorbell: bool = True) -> WorkRequest:
        """Post a one-sided RDMA WRITE of ``payload`` into the remote region.

        ``payload`` is one buffer or a gather list of buffers (written
        contiguously — DFI posts ``[payload_view, footer]`` so a full
        segment goes out without an intermediate concatenation).

        With ``assume_stable`` mutable buffers are *not* snapshotted at
        post time: the commit into remote memory reads the live buffer, so
        the caller must not touch the bytes until the write completed —
        exactly the send-ring contract real verbs impose (DFI reuses a
        ring slot only after the wrap-around completion drained).

        With ``doorbell=False`` the WQE is only staged on the send queue:
        no NIC arbitration, no wire reservation, no timers. A later
        :meth:`ring_doorbell` submits every staged WQE as one doorbell
        train. Mutable buffers are still snapshotted (or wrapped, under
        ``assume_stable``) at *staging* time.

        Returns the work request; its ``done`` event triggers when the RC
        acknowledgment returns to this sender. The remote CPU is never
        involved. The payload bytes are committed to remote memory in
        increasing address order: everything before the trailing
        ``_ORDERED_TAIL`` bytes lands strictly earlier, so a footer flag at
        the end of a segment proves the whole segment arrived.
        """
        if isinstance(payload, (list, tuple)):
            chunks = _gather_chunks(payload, assume_stable)
            size = 0
            pieces = []  # (offset within the write, chunk)
            for chunk in chunks:
                if len(chunk):
                    pieces.append((size, chunk))
                    size += len(chunk)
        else:
            # Fast path for the dominant case: one buffer, no gather list.
            chunk = payload
            if not isinstance(chunk, bytes):
                if not assume_stable:
                    chunk = bytes(chunk)
                # Already one (a segment flush posts a slice of its
                # staging view): no call, no second view object.
                elif not (type(chunk) is memoryview and chunk.itemsize
                          == chunk.ndim == 1 and chunk.c_contiguous):
                    chunk = _byte_view(chunk)
            size = len(chunk)
            pieces = [(0, chunk)]
        if not size:
            raise RdmaError("cannot post a zero-length write")
        region = self._get_remote_nic().region(remote_rkey)
        region.check_range(remote_offset, size)
        wr = WorkRequest(self.env, wr_id, Opcode.WRITE, signaled)
        if doorbell:
            self.post_lone(wr, size, pieces, region, remote_offset)
        else:
            self._staged.append((wr, size, pieces, region, remote_offset))
        return wr

    def post_lone(self, wr: "WorkRequest | None", size: int, pieces,
                  region: MemoryRegion, offset: int) -> None:
        """Post one WQE eagerly — a train of one that rings no doorbell
        train and keeps the ordered-tail rule. The arguments are one
        :meth:`post_train` entry (``wr`` is ``None`` for an unsignaled
        write nobody observes, ``region`` is resolved and range-checked).

        The NIC slot and the wire are reserved with the arithmetic of
        ``engine_delay`` / ``Fabric.unicast`` and one macro-event walks
        the write: the prefix bytes commit one tail-serialization before
        arrival, the trailing ``_ORDERED_TAIL`` bytes at arrival, a
        signaled completion one ack latency later; an unsignaled
        acknowledgment expands lazily (``WorkRequest._complete_at``).
        Unlike a train the lone write may not coalesce its prefix into
        the arrival commit: a latency-mode target's doorbell hook wakes
        on the prefix commit (DESIGN.md §9). An active fault or
        congestion plane, checked on every call, takes the discrete
        per-WQE events of :meth:`_post_discrete` instead.
        """
        obs = self._obs
        if obs is not None:
            self._obs_wqes_posted += 1
            if wr is not None and wr.signaled:
                self._obs_wqes_signaled += 1
            if not self._obs_wqes_posted & 15:
                obs.bound()  # the plane log's memory bound
        # ``_faults()`` / ``_congestion()`` without their two frames.
        cluster = self.node.cluster
        faults = cluster.faults
        if faults is not None and not faults.active:
            faults = None
        congestion = cluster.congestion
        if congestion is not None and not congestion.active:
            congestion = None
        if faults is not None or congestion is not None:
            self._post_lone_discrete(wr, size, pieces, region, offset,
                                     faults, congestion)
            return
        nic = self.nic
        env = self.env
        delay = nic.engine_delay(size <= self._inline_max)
        nic.bytes_posted += size
        arrival_delay = cluster.fabric.unicast_delay(
            self.node, self.remote_node, size, delay)
        # Every instant is ``now + offset``: the float a Timeout armed
        # with that offset fires at (an absolute arrival round-tripped
        # through ``arrival - now`` may differ by one ulp).
        now = env._now
        arrival = now + arrival_delay
        ack_at = now + (arrival_delay + self._ack_delta)
        if obs is not None and obs.causal:
            issued = now + delay
            obs.log((WQE, self, now, issued, issued, arrival))
        split = size - _ORDERED_TAIL
        if split > 0:
            prefix_pieces, tail_pieces = _split_ordered_tail(pieces, split)
            prefix_delay = (arrival_delay
                            - _ORDERED_TAIL / nic.profile.link_bandwidth)
            actions = [
                (now + prefix_delay if prefix_delay > 0.0 else now,
                 _commit_write, (region, offset, prefix_pieces)),
                (arrival, _commit_write, (region, offset, tail_pieces))]
        else:
            actions = [(arrival, _commit_write, (region, offset, pieces))]
        if wr is not None:
            if wr.signaled:
                actions.append((ack_at, self._finish_signaled, (wr, size)))
            else:
                wr._complete_at(ack_at)
        env.schedule_train(actions)

    def _post_lone_discrete(self, wr, size, pieces, region, offset,
                            faults, congestion) -> None:
        """Eager posting under an active fault and/or congestion plane:
        admit the WQE against the path state now, then arm its discrete
        events."""
        if wr is None:
            wr = WorkRequest(self.env, None, Opcode.WRITE, False)
        admit = 0.0
        if faults is not None:
            admit = faults.rc_admission(self.node, self.remote_node)
            if admit is None:
                self._flush_after(wr, faults.detection_timeout,
                                  WcStatus.RETRY_EXC_ERR)
                return
        if congestion is not None:
            admit += congestion.rc_admit(self, size)
        # Admission precedes arbitration here: the planes anchor their
        # edges on [now, now + admit], the NIC edge starts where they end.
        issue_delay = self.nic.engine_delay(size <= self._inline_max) + admit
        split = size - _ORDERED_TAIL
        prefix_pieces, tail_pieces = (
            _split_ordered_tail(pieces, split) if split > 0 else ((), pieces))
        self._post_discrete(wr, size, prefix_pieces, tail_pieces, region,
                            offset, admit, issue_delay, 0.0, congestion)

    def _post_discrete(self, wr: WorkRequest, size: int, prefix_pieces,
                       tail_pieces, region: MemoryRegion, base: int,
                       arb_from: float, arb_to: float, held: float,
                       congestion) -> None:
        """The discrete per-WQE body every admitted plane-active write
        takes (:meth:`_post_lone_discrete`, :meth:`_post_train_sequential`):
        an arrival event, a prefix timer one tail-serialization earlier
        when ``prefix_pieces`` is non-empty, and a completion timer, each
        re-checking the peer's liveness when it fires. NIC arbitration
        spans the offsets ``[arb_from, arb_to]`` from now; the WQE is
        handed to the wire ``held`` ns after that (admission a train
        applies per WQE at its wire-start time)."""
        env = self.env
        self.nic.bytes_posted += size
        arrival = self._fabric().unicast(self.node, self.remote_node, size,
                                         delay=arb_to + held)
        if congestion is not None:
            congestion.rc_sent(self, size, arrival.delay)
        obs = self._obs
        if obs is not None and obs.causal:
            # The admission planes log the delay they add themselves.
            now = env.now
            obs.log((WQE, self, now + arb_from, now + arb_to,
                     now + arb_to + held, now + arrival.delay))
        if prefix_pieces:
            prefix_timer = env.pooled_timeout(max(
                0.0, arrival.delay
                - _ORDERED_TAIL / self.nic.profile.link_bandwidth))
            prefix_timer.callbacks.append(
                self._commit_if_alive(region, base, prefix_pieces))
        arrival.callbacks.append(
            self._commit_if_alive(region, base, tail_pieces))
        self._finish(wr, arrival.delay + self._ack_delta, size)

    def _commit_if_alive(self, region: MemoryRegion, base: int, parts):
        """Event callback committing ``parts`` into ``region`` unless the
        peer crashed while they were in flight."""
        def commit(_event):
            faults = self._faults()
            if faults is not None and not faults.node_alive(self.remote_node):
                return  # crashed memory accepts no more commits
            _commit_write((region, base, parts))
        return commit

    # -- doorbell trains ----------------------------------------------------
    def ring_doorbell(self) -> list[WorkRequest]:
        """Submit every WQE staged with ``post_write(doorbell=False)`` as
        one doorbell train and return their work requests (in posting
        order). A no-op returning ``[]`` when nothing is staged."""
        staged = self._staged
        if not staged:
            return []
        self._staged = []
        self.post_train(staged)
        return [entry[0] for entry in staged]

    def post_write_batch(self, writes,
                         assume_stable: bool = False) -> list[WorkRequest]:
        """Post a train of one-sided WRITEs as one scheduling unit.

        ``writes`` is a sequence of ``(payload, remote_rkey,
        remote_offset, signaled)`` tuples (``signaled`` may be omitted and
        defaults to False; a fifth element is taken as ``wr_id``). The
        train is equivalent to posting each write back-to-back at the
        current instant — identical NIC arbitration, wire occupancy,
        commit and acknowledgment times — but is driven by O(1) in-flight
        kernel events instead of O(writes): one macro-event walks the
        commit train and unsignaled acknowledgments expand lazily (see
        ``WorkRequest._complete_at``).
        """
        # The batch is its own train: WQEs the caller staged earlier stay
        # staged, and a write that fails validation posts nothing.
        held, self._staged = self._staged, []
        try:
            for write in writes:
                self.post_write(
                    write[0], write[1], write[2],
                    signaled=write[3] if len(write) > 3 else False,
                    wr_id=write[4] if len(write) > 4 else None,
                    assume_stable=assume_stable, doorbell=False)
            return self.ring_doorbell()
        finally:
            self._staged = held

    def post_train(self, entries) -> None:
        """The one doorbell-train primitive: submit ``entries`` — a list
        of ``(wr, size, pieces, region, offset)`` — as one train.

        ``wr`` is ``None`` for an unsignaled fire-and-forget WQE nobody
        observes (the ring protocols drop those, so no WorkRequest needs
        to exist); ``region`` is the resolved, range-checked remote
        region (``post_write(doorbell=False)`` resolves it per WQE, ring
        channels pass their cached whole-ring proof).

        The NIC pipeline and the wire are reserved for the whole train at
        once and one macro-event commits each write's payload at its
        exact arrival time. Every timestamp matches the unbatched path
        bit-for-bit — the only behavioural difference is that a write's
        *prefix* bytes commit together with its tail at arrival instead
        of one tail-serialization earlier (the coalescing is
        protocol-invisible: DFI only ever acts on the footer, which
        commits at arrival either way). An active fault or congestion
        plane is checked on every call and hands the train to
        :meth:`_post_train_sequential`, so a plane installed between two
        trains governs the very next one.
        """
        if not entries:
            return
        nic = self.nic
        nic.doorbell_trains += 1
        obs = self._obs
        if obs is not None:
            count = signaled = 0
            for entry in entries:
                count += 1
                wr = entry[0]
                if wr is not None and wr.signaled:
                    signaled += 1
            self._obs_wqes_posted += count
            self._obs_wqes_signaled += signaled
            self._obs_trains += 1
            if not self._obs_trains & 15:
                obs.bound()  # the plane log's memory bound
        faults = self._faults()
        congestion = self._congestion()
        if faults is not None or congestion is not None:
            if obs is not None:
                # The per-WQE path logs its own arbitration and wire spans.
                obs.log((TRAIN, self.env._now, self, count, (), ()))
            self._post_train_sequential(entries, faults, congestion)
            return
        inline_max = self._inline_max
        ack_latency = self._ack_delta
        if len(entries) == 1:
            # Trains of one are the common shape on hash-routed shuffles
            # (each channel's share of a batch is about one segment);
            # skip the multi-entry list/zip machinery. Same arbitration
            # and wire arithmetic, so timestamps stay bit-identical.
            wr, size, pieces, region, offset = entries[0]
            delay = nic.engine_delay_train_one(size <= inline_max)
            nic.bytes_posted += size
            arrival = self._fabric().unicast_train_one(
                self.node, self.remote_node, size, delay)
            if obs is not None:
                obs.log((TRAIN, self.env._now, self, 1, (delay,), (arrival,)))
            actions = [(arrival, _commit_write, (region, offset, pieces))]
            if wr is not None:
                if wr.signaled:
                    actions.append((arrival + ack_latency,
                                    self._finish_signaled, (wr, size)))
                else:
                    wr._complete_at(arrival + ack_latency)
            self.env.schedule_train(actions)
            return
        sizes = []
        inlines = []
        total = 0
        for entry in entries:
            size = entry[1]
            sizes.append(size)
            inlines.append(size <= inline_max)
            total += size
        delays = nic.engine_delay_train(inlines)
        nic.bytes_posted += total
        arrivals = self._fabric().unicast_train(self.node, self.remote_node,
                                                sizes, delays)
        if obs is not None:
            obs.log((TRAIN, self.env._now, self, count, delays, arrivals))
        actions = []
        finish_signaled = self._finish_signaled
        last = len(entries) - 1
        needs_sort = False
        for position, ((wr, size, pieces, region, offset),
                       arrival) in enumerate(zip(entries, arrivals)):
            actions.append((arrival, _commit_write,
                            (region, offset, pieces)))
            if wr is None:
                continue
            if wr.signaled:
                actions.append((arrival + ack_latency, finish_signaled,
                                (wr, size)))
                # A mid-train ack interleaves with later arrivals; a
                # trailing ack (the selective-signaling shape) lands at or
                # after the last arrival, so order is already correct.
                if position != last:
                    needs_sort = True
            else:
                wr._complete_at(arrival + ack_latency)
        if needs_sort:
            actions.sort(key=_action_when)
        self.env.schedule_train(actions)

    def _post_train_sequential(self, entries, faults, congestion) -> None:
        """Train posting under an active fault and/or congestion plane.

        The NIC drains a doorbell train sequentially, so each WQE is
        admitted against the path state at its own wire-serialization start
        time (NIC issue or the uplink busy horizon, whichever is later):
        an outage that begins mid-train delivers the prefix of the train
        and flushes the failing WQE *and every later one* with
        ``RETRY_EXC_ERR`` (the QP enters the error state; real RC flushes
        the rest of the send queue). Under congestion each WQE is rate-
        paced and marked individually — a train is not exempt from the
        egress queue bound. Admitted WQEs take the discrete per-WQE body
        (:meth:`_post_discrete`) — chaos/congestion runs trade the
        O(1)-event macro path for exact per-WQE observability (arrival
        and ack timestamps stay bit-identical to the macro path when both
        planes add zero delay: the PR 4 train-equivalence contract). That
        body completes a WorkRequest per WQE, so a ``None`` entry gets
        one here.
        """
        env = self.env
        nic = self.nic
        inline_max = self._inline_max
        loopback = self.remote_node is self.node
        uplink = None if loopback else self.node.uplink
        flush_rest = False
        for wr, size, pieces, region, offset in entries:
            if wr is None:
                wr = WorkRequest(env, None, Opcode.WRITE, False)
            if flush_rest:
                self._flush_after(wr, faults.detection_timeout,
                                  WcStatus.RETRY_EXC_ERR)
                continue
            inline = size <= inline_max
            offset_delay = nic.engine_delay(inline)
            admit = 0.0
            if faults is not None:
                wire_at = env.now + offset_delay
                if uplink is not None and uplink.busy_until > wire_at:
                    wire_at = uplink.busy_until
                admit = faults.rc_admission(self.node, self.remote_node,
                                            at=wire_at)
                if admit is None:
                    flush_rest = True
                    self._flush_after(wr, faults.detection_timeout,
                                      WcStatus.RETRY_EXC_ERR)
                    continue
            if congestion is not None:
                admit += congestion.rc_admit(self, size)
            # Trains coalesce the prefix into the arrival commit.
            self._post_discrete(wr, size, (), pieces, region, offset, 0.0,
                                offset_delay, admit, congestion)

    # -- one-sided READ ----------------------------------------------------
    def post_read(self, local_region: MemoryRegion, local_offset: int,
                  remote_rkey: int, remote_offset: int, length: int,
                  signaled: bool = True, wr_id: Any = None) -> WorkRequest:
        """Post a one-sided RDMA READ of ``length`` remote bytes into
        ``local_region`` at ``local_offset``.

        The remote memory is snapshotted when the request packet reaches
        the remote NIC; ``done`` triggers (with the bytes as its value)
        when the response lands locally.
        """
        if length <= 0:
            raise RdmaError("read length must be positive")
        if self._obs is not None:
            self._obs_reads_posted += 1
        faults = self._faults()
        fault_delay = 0.0
        if faults is not None:
            admit = faults.rc_admission(self.node, self.remote_node)
            if admit is None:
                return self._flush_wr(Opcode.READ, wr_id, signaled, faults)
            fault_delay = admit
        remote_region = self._get_remote_nic().region(remote_rkey)
        remote_region.check_range(remote_offset, length)
        local_region.check_range(local_offset, length)
        offset_delay = self.nic.engine_delay(inline=True) + fault_delay
        wr = WorkRequest(self.env, wr_id, Opcode.READ, signaled)
        request = self._fabric().unicast(self.node, self.remote_node,
                                         _REQUEST_PACKET_SIZE,
                                         delay=offset_delay, control=True)

        def on_request_arrival(_event):
            faults = self._faults()
            if faults is not None and not faults.node_alive(self.remote_node):
                # Peer crashed while the request packet was in flight: no
                # response ever comes; the transport gives up after the
                # detection bound.
                self._flush_after(wr, faults.detection_timeout,
                                  WcStatus.WR_FLUSH_ERR)
                return
            data = remote_region.read(remote_offset, length)
            response = self._fabric().unicast(self.remote_node, self.node,
                                              length, control=True)

            def on_response(_event2, data=data):
                local_region.write(local_offset, data)
                wr._complete(data)
                if wr.signaled:
                    self.send_cq.push(Completion(
                        wr_id=wr.wr_id, opcode=Opcode.READ,
                        status=WcStatus.SUCCESS, byte_len=length,
                        result=data))

            response.callbacks.append(on_response)

        request.callbacks.append(on_request_arrival)
        return wr

    # -- atomics ------------------------------------------------------------
    def _post_atomic(self, opcode: Opcode, remote_rkey: int,
                     remote_offset: int, apply, signaled: bool,
                     wr_id: Any) -> WorkRequest:
        remote_region = self._get_remote_nic().region(remote_rkey)
        remote_region.check_range(remote_offset, 8)
        if self._obs is not None:
            self._obs.inc("rdma.atomics_posted")
        faults = self._faults()
        fault_delay = 0.0
        if faults is not None:
            admit = faults.rc_admission(self.node, self.remote_node)
            if admit is None:
                return self._flush_wr(opcode, wr_id, signaled, faults)
            fault_delay = admit
        offset_delay = self.nic.engine_delay(inline=True) + fault_delay
        wr = WorkRequest(self.env, wr_id, opcode, signaled)
        request = self._fabric().unicast(self.node, self.remote_node,
                                         _REQUEST_PACKET_SIZE,
                                         delay=offset_delay, control=True)

        def on_request_arrival(_event):
            faults = self._faults()
            if faults is not None and not faults.node_alive(self.remote_node):
                self._flush_after(wr, faults.detection_timeout,
                                  WcStatus.WR_FLUSH_ERR)
                return
            old_value = apply(remote_region, remote_offset)
            response = self._fabric().unicast(self.remote_node, self.node, 8,
                                              control=True)

            def on_response(_event2, old_value=old_value):
                wr._complete(old_value)
                if wr.signaled:
                    self.send_cq.push(Completion(
                        wr_id=wr.wr_id, opcode=opcode,
                        status=WcStatus.SUCCESS, byte_len=8,
                        result=old_value))

            response.callbacks.append(on_response)

        request.callbacks.append(on_request_arrival)
        return wr

    def post_fetch_add(self, remote_rkey: int, remote_offset: int,
                       addend: int, signaled: bool = True,
                       wr_id: Any = None) -> WorkRequest:
        """Atomic fetch-and-add on a remote u64; ``done`` yields the old
        value. This is the primitive behind DFI's tuple sequencer."""
        return self._post_atomic(
            Opcode.FETCH_ADD, remote_rkey, remote_offset,
            lambda region, offset: region.fetch_add_u64(offset, addend),
            signaled, wr_id)

    def post_compare_swap(self, remote_rkey: int, remote_offset: int,
                          expected: int, swap: int, signaled: bool = True,
                          wr_id: Any = None) -> WorkRequest:
        """Atomic compare-and-swap on a remote u64; ``done`` yields the old
        value (swap succeeded iff it equals ``expected``)."""
        return self._post_atomic(
            Opcode.COMPARE_SWAP, remote_rkey, remote_offset,
            lambda region, offset: region.compare_swap_u64(offset, expected,
                                                           swap),
            signaled, wr_id)

    # -- two-sided SEND/RECV -------------------------------------------------
    def post_recv(self, region: MemoryRegion, offset: int, length: int,
                  wr_id: Any = None) -> None:
        """Post a receive buffer; completions appear on ``recv_cq``."""
        region.check_range(offset, length)
        self._recv_queue.append((region, offset, length, wr_id))
        self._match_pending()

    def post_send(self, payload: bytes | bytearray | memoryview,
                  signaled: bool = True, wr_id: Any = None,
                  imm: int | None = None) -> WorkRequest:
        """Post a two-sided SEND to the connected peer QP."""
        if self._peer is None:
            raise RdmaError("post_send on an unconnected RC queue pair")
        data = _as_bytes(payload)
        if not data:
            raise RdmaError("cannot send an empty message")
        size = len(data)
        if self._obs is not None:
            self._obs.inc("rdma.sends_posted")
        faults = self._faults()
        if faults is not None:
            admit = faults.rc_admission(self.node, self.remote_node)
            if admit is None:
                return self._flush_wr(Opcode.SEND, wr_id, signaled, faults)
            fault_delay = admit
        else:
            fault_delay = 0.0
        congestion = self._congestion()
        if congestion is not None:
            fault_delay += congestion.rc_admit(self, size)
        inline = size <= self._inline_max
        offset_delay = self.nic.engine_delay(inline) + fault_delay
        self.nic.bytes_posted += size
        arrival = self._fabric().unicast(self.node, self.remote_node, size,
                                         delay=offset_delay)
        if congestion is not None:
            congestion.rc_sent(self, size, arrival.delay)
        peer = self._peer

        def on_arrival(_event, data=data, imm=imm):
            faults = self._faults()
            if faults is not None and not faults.node_alive(self.remote_node):
                return  # the receiving QP died with its node
            peer._deliver(data, imm)

        arrival.callbacks.append(on_arrival)
        wr = WorkRequest(self.env, wr_id, Opcode.SEND, signaled)
        self._finish(wr, arrival.delay + self._ack_delta, size)
        return wr

    def _deliver(self, data: bytes, imm: int | None) -> None:
        self._pending_rx.append((data, imm))
        self._match_pending()

    def _match_pending(self) -> None:
        while self._pending_rx and self._recv_queue:
            data, imm = self._pending_rx.popleft()
            region, offset, length, wr_id = self._recv_queue.popleft()
            if len(data) > length:
                raise RdmaError(
                    f"received {len(data)} bytes into a {length}-byte "
                    f"receive buffer on {self.node.name}")
            region.write(offset, data)
            self.recv_cq.push(Completion(
                wr_id=wr_id, opcode=Opcode.RECV, status=WcStatus.SUCCESS,
                byte_len=len(data), imm=imm,
                result=(region, offset, len(data))))

    @property
    def posted_recv_count(self) -> int:
        return len(self._recv_queue)

    def __repr__(self) -> str:
        return (f"<QueuePair {self.node.name}:{self.qpn} -> "
                f"{self.remote_node.name}>")


class MulticastGroup:
    """A hardware multicast group: UD QPs attach to receive replicated
    datagrams. Replication happens in the switch (see Fabric.multicast)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._members: dict[int, list["UdQueuePair"]] = {}
        self._nodes: dict[int, Node] = {}
        #: ``member_nodes``, or ``None`` after a ``join``/``leave``.
        self._sorted: "list[Node] | None" = None

    def join(self, qp: "UdQueuePair") -> None:
        """Attach a UD queue pair to the group."""
        node = qp.node
        self._members.setdefault(node.node_id, [])
        if qp in self._members[node.node_id]:
            raise RdmaError(f"{qp!r} already joined group {self.name!r}")
        self._members[node.node_id].append(qp)
        self._nodes[node.node_id] = node
        self._sorted = None

    def leave(self, qp: "UdQueuePair") -> None:
        """Detach a UD queue pair from the group."""
        members = self._members.get(qp.node.node_id, [])
        try:
            members.remove(qp)
        except ValueError:
            raise RdmaError(f"{qp!r} is not in group {self.name!r}") from None
        if not members:
            del self._members[qp.node.node_id]
            del self._nodes[qp.node.node_id]
        self._sorted = None

    @property
    def member_nodes(self) -> list[Node]:
        """Member nodes in node-id order — the order a multicast reserves
        downlinks, draws losses and commits equal-time arrivals in (one
        list shared by every call until the membership changes)."""
        nodes = self._sorted
        if nodes is None:
            nodes = self._sorted = [self._nodes[node_id]
                                    for node_id in sorted(self._nodes)]
        return nodes

    def _deliver(self, args) -> None:
        """The one delivery routine (train action and timer callback body):
        hand ``data`` to every QP now attached on node ``node_id``."""
        node_id, data = args
        for qp in self._members.get(node_id, ()):
            qp._deliver_datagram(data)

    def __len__(self) -> int:
        return sum(len(qps) for qps in self._members.values())


class UdQueuePair:
    """Unreliable-datagram queue pair (multicast capable).

    Delivery is best-effort: datagrams are dropped by fabric loss injection
    or when the receiver has no receive request posted — the condition DFI's
    credit-based receive-queue pre-population exists to avoid.
    """

    __slots__ = ("nic", "env", "qpn", "node", "recv_cq", "_recv_queue")

    def __init__(self, nic: RNic, qpn: int, recv_cq: CompletionQueue) -> None:
        self.nic = nic
        self.env = nic.env
        self.qpn = qpn
        self.node = nic.node
        self.recv_cq = recv_cq
        self._recv_queue: deque[tuple[MemoryRegion, int, int, Any]] = deque()

    def post_recv(self, region: MemoryRegion, offset: int, length: int,
                  wr_id: Any = None) -> None:
        """Post a receive buffer for incoming datagrams."""
        region.check_range(offset, length)
        self._recv_queue.append((region, offset, length, wr_id))

    @property
    def posted_recv_count(self) -> int:
        return len(self._recv_queue)

    def post_send_multicast(self, group: MulticastGroup,
                            payload: bytes | bytearray | memoryview,
                            wr_id: Any = None) -> WorkRequest:
        """Send one datagram to every QP attached to ``group``.

        Returns a work request whose ``done`` event triggers when the local
        NIC has finished transmitting (UD has no acknowledgments).
        """
        data = _as_bytes(payload)
        if not data:
            raise RdmaError("cannot send an empty datagram")
        if len(data) > UD_MTU:
            raise RdmaError(
                f"datagram of {len(data)} bytes exceeds the UD MTU "
                f"({UD_MTU} bytes)")
        members = group.member_nodes
        if not members:
            raise RdmaError(f"multicast group {group.name!r} has no members")
        size = len(data)
        node = self.node
        cluster = node.cluster
        congestion = cluster.congestion
        if congestion is not None and not congestion.active:
            congestion = None
        offset_delay = self.nic.engine_delay(
            size <= self.nic.profile.max_inline_size)
        if congestion is not None:
            offset_delay += congestion.ud_admit(node, size)
        self.nic.bytes_posted += size
        env = self.env
        now = env.now
        fabric = cluster.fabric
        deliver = group._deliver
        if env.shard_count > 1:
            # A macro-event carries one shard tag, every arrival its
            # member's: the tagged kernel keeps one tagged timer each.
            for member, arrival in fabric.multicast(
                    node, members, size, delay=offset_delay).items():
                if arrival is not None:  # else lost in the fabric
                    arrival.callbacks.append(
                        lambda _event, args=(member.node_id, data):
                        deliver(args))
        else:
            # One macro-event walks the fan-out. Every instant is ``now +
            # offset``, the float a Timeout armed with that offset fires
            # at; the stable sort keeps equal-time members in member order.
            actions = [(now + offset, deliver, (member.node_id, data))
                       for member, offset in fabric.multicast_delays(
                           node, members, size, delay=offset_delay)
                       if offset is not None]
            actions.sort(key=_action_when)
            env.schedule_train(actions)
        if congestion is not None:
            congestion.ud_sent(node, members, size)
        wr = WorkRequest(env, wr_id, Opcode.SEND, False)
        wr._complete_at(
            now + (offset_delay + size / self.nic.profile.link_bandwidth))
        return wr

    def _deliver_datagram(self, data: bytes) -> None:
        if not self._recv_queue:
            self.nic.rx_dropped_no_recv += 1
            return
        region, offset, length, wr_id = self._recv_queue.popleft()
        if len(data) > length:
            self.nic.rx_dropped_no_recv += 1
            return
        region.write(offset, data)
        self.recv_cq.push(Completion(
            wr_id=wr_id, opcode=Opcode.RECV, status=WcStatus.SUCCESS,
            byte_len=len(data), result=(region, offset, len(data))))

    def __repr__(self) -> str:
        return f"<UdQueuePair {self.node.name}:{self.qpn}>"
