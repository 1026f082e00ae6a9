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
from typing import Any

from repro.common.errors import QpFlushedError, RdmaError
from repro.common.planelog import EDGE, TRAIN, WQE
from repro.rdma.completion import Completion, CompletionQueue, Opcode, WcStatus, WorkRequest
from repro.rdma.memory import MemoryRegion
from repro.rdma.nic import RNic, get_nic
from repro.simnet.node import Node

#: Wire size of a one-sided READ / atomic request packet.
_REQUEST_PACKET_SIZE = 16
#: Trailing bytes of a WRITE that commit last (covers DFI's 16-byte footer).
_ORDERED_TAIL = 64
#: InfiniBand UD MTU: the largest datagram an unreliable QP can carry.
UD_MTU = 4096
#: Crash instant of a node the fault plane never crashes.
_NEVER = float("inf")


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


def _commit_actions(when: float, region: MemoryRegion, base: int,
                    pieces) -> list:
    """Train actions committing a write's ``(offset, chunk)`` pieces at
    ``base`` of ``region``: one ``region.commit`` per piece, all at
    ``when``, in address order (a train queues equal-instant actions as
    one entry, so a gather list draws the sequence number one action
    would)."""
    commit = region.commit
    return [(when, commit, (base + offset, chunk, len(chunk)))
            for offset, chunk in pieces]


def _split_ordered_tail(pieces, split: int):
    """Split a write's ``(offset, chunk)`` pieces at byte ``split`` (its
    size less the ``_ORDERED_TAIL`` bytes that commit last, positive):
    ``(prefix_pieces, tail_pieces)``. A piece straddling the boundary is
    cut zero-copy."""
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
                 "_obs", "_obs_wqes_posted",
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
    def _faults(self):
        """The installed fault plane, or ``None`` when absent/empty (the
        empty-plane case short-circuits here so fault-free runs keep the
        exact event pattern of a build without the fault plane)."""
        faults = self.node.cluster.faults
        if faults is None or not faults.active:
            return None
        return faults

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
        env = self.env
        env.schedule_train([(env._now + delay, self._flushed, (wr, status))])

    def _flushed(self, args) -> None:
        """Train action of :meth:`_flush_after`: fail the ``(wr,
        status)`` record's request and push its error completion."""
        wr, status = args
        wr._fail(QpFlushedError(
            f"{wr.opcode.value} {self.node.name} -> "
            f"{self.remote_node.name} flushed: {status.value}"))
        self.send_cq.push(Completion(
            wr_id=wr.wr_id, opcode=wr.opcode, status=status))

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
        entry. ``args`` is a ``(wr, size)`` record: one shared bound
        method plus a tuple per WQE, not a closure per WQE."""
        wr, size = args
        wr._complete(None)
        self.send_cq.push(Completion(
            wr_id=wr.wr_id, opcode=wr.opcode,
            status=WcStatus.SUCCESS, byte_len=size))

    def _fail_in_flight(self, args) -> None:
        """The peer died while the operation was in flight: no ACK ever
        comes back, the QP enters the error state. ``args`` is a ``(wr,
        byte_len)`` record; a ``None`` ``wr`` (a write nobody observes)
        gets only its ``WR_FLUSH_ERR`` CQ entry."""
        wr, byte_len = args
        if wr is None:
            wr_id, opcode = None, Opcode.WRITE
        else:
            wr_id, opcode = wr.wr_id, wr.opcode
            wr._fail(QpFlushedError(
                f"{opcode.value} {self.node.name} -> "
                f"{self.remote_node.name} flushed: peer failed in flight"))
        self.send_cq.push(Completion(
            wr_id=wr_id, opcode=opcode, status=WcStatus.WR_FLUSH_ERR,
            byte_len=byte_len))

    def _finish(self, args) -> None:
        """Train action at a SEND's acknowledgment: complete the ``(wr,
        byte_len)`` record's request, re-checking the peer's liveness
        now — trigger ``done`` and push a CQ entry if it was signaled."""
        wr = args[0]
        faults = self._faults()
        if faults is not None and not faults.node_alive(self.remote_node):
            self._fail_in_flight(args)
        elif wr.signaled:
            self._finish_signaled(args)
        else:
            wr._complete(None)

    # -- one-sided WRITE -----------------------------------------------------
    def post_write(self, payload,
                   remote_rkey: int, remote_offset: int,
                   signaled: bool = False, wr_id: Any = None,
                   assume_stable: bool = False) -> WorkRequest:
        """Post a one-sided RDMA WRITE of ``payload`` into the remote region.

        ``payload`` is one buffer or a gather list of buffers (written
        contiguously — DFI posts ``[payload_view, footer]`` so a full
        segment goes out without an intermediate concatenation).

        With ``assume_stable`` mutable buffers are *not* snapshotted at
        post time: the commit into remote memory reads the live buffer, so
        the caller must not touch the bytes until the write completed —
        exactly the send-ring contract real verbs impose (DFI reuses a
        ring slot only after the wrap-around completion drained).

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
        self.post_lone(wr, size, pieces, region, remote_offset)
        return wr

    def post_lone(self, wr: "WorkRequest | None", size: int, pieces,
                  region: MemoryRegion, offset: int) -> None:
        """Post one WQE eagerly — a train of one that rings no doorbell
        train and keeps the ordered-tail rule. The arguments are one
        :meth:`post_train` entry (``wr`` is ``None`` for an unsignaled
        write nobody observes, ``region`` is resolved and range-checked).

        The NIC slot and the wire are reserved by ``RNic.engine_delay``
        and ``Fabric.unicast_arrival``, the per-WQE calls every write
        makes, and one train books the write: the prefix bytes
        commit one tail-serialization before arrival, the trailing
        ``_ORDERED_TAIL`` bytes at arrival, a signaled completion one ack
        latency later; an unsignaled acknowledgment expands lazily
        (``WorkRequest._complete_at``).
        Unlike a train the lone write may not coalesce its prefix into
        the arrival commit: a latency-mode target's doorbell wakes
        on the prefix commit (DESIGN.md §9). Active planes, checked on
        every call, only switch hooks on: the fault plane admits the WQE
        against the path state now (``rc_admission``; refused, it flushes
        with ``RETRY_EXC_ERR``), the congestion plane then holds it back
        for egress-queue room (``rc_admit``), and the walk
        is cut at the peer's crash instant (:meth:`_post_cut_at_crash`).
        """
        obs = self._obs
        if obs is not None:
            self._obs_wqes_posted += 1
            if wr is not None and wr.signaled:
                self._obs_wqes_signaled += 1
            if not self._obs_wqes_posted & 15:
                obs.bound()  # the plane log's memory bound
        # ``_faults()`` without its frame.
        cluster = self.node.cluster
        faults = cluster.faults
        if faults is not None and not faults.active:
            faults = None
        congestion = cluster.congestion
        nic = self.nic
        env = self.env
        admit = 0.0
        if faults is not None:
            admit = faults.rc_admission(self.node, self.remote_node)
            if admit is None:
                self._flush_after(
                    wr or WorkRequest(env, None, Opcode.WRITE, False),
                    faults.detection_timeout, WcStatus.RETRY_EXC_ERR)
                return
        if congestion is not None:
            admit += congestion.rc_admit(self, size)
        # Admission precedes arbitration: the planes anchor their edges
        # on [now, now + admit], the NIC edge starts where they end.
        now = env._now
        delay = nic.engine_delay(size <= self._inline_max) + admit
        nic.bytes_posted += size
        arrival_delay = cluster.fabric.unicast_arrival(
            self.node, self.remote_node, size, now + delay) - now
        # Every instant is ``now + offset``: the float a Timeout armed
        # with that offset fires at (an absolute arrival round-tripped
        # through ``arrival - now`` may differ by one ulp).
        arrival = now + arrival_delay
        ack_at = now + (arrival_delay + self._ack_delta)
        if obs is not None and obs.causal:
            issued = now + delay
            obs.log((WQE, self, now + admit, issued, issued, arrival))
        split = size - _ORDERED_TAIL
        piece = pieces[0]
        if piece is pieces[-1]:
            # The dominant shape, one buffer holding the whole write (its
            # last piece is its first): split inline, each commit
            # carrying its length.
            chunk = piece[1]
            if split > 0:
                if chunk.__class__ is not memoryview:
                    chunk = memoryview(chunk)
                prefix_delay = (arrival_delay
                                - _ORDERED_TAIL / nic.profile.link_bandwidth)
                commit = region.commit
                actions = [
                    (now + prefix_delay if prefix_delay > 0.0 else now,
                     commit, (offset, chunk[:split], split)),
                    (arrival, commit, (offset + split, chunk[split:],
                                       _ORDERED_TAIL))]
            else:
                actions = [(arrival, region.commit, (offset, chunk, size))]
        elif split > 0:
            prefix_pieces, tail_pieces = _split_ordered_tail(pieces, split)
            prefix_delay = (arrival_delay
                            - _ORDERED_TAIL / nic.profile.link_bandwidth)
            actions = _commit_actions(
                now + prefix_delay if prefix_delay > 0.0 else now,
                region, offset, prefix_pieces)
            actions += _commit_actions(arrival, region, offset, tail_pieces)
        else:
            actions = _commit_actions(arrival, region, offset, pieces)
        if faults is not None and self._post_cut_at_crash(
                faults, actions, wr, size, ack_at):
            return
        if wr is not None:
            if wr.signaled:
                actions.append((ack_at, self._finish_signaled, (wr, size)))
            else:
                wr._complete_at(ack_at)
        env.schedule_train(actions)

    def _post_cut_at_crash(self, faults, actions, wr, size: int,
                           ack_at: float) -> bool:
        """Walk a write's commit ``actions`` cut at the peer's crash
        instant if its ack would return at or after it; else post
        nothing and return False. A fault plane fixes its crash instants
        when installed, so the verdict ``node_alive`` would give when
        each event fires is known now: a commit at or after the crash is
        voided (crashed memory accepts none), and the WQE fails in flight
        at ``ack_at`` instead of completing."""
        crash_at = faults._crash_at.get(self.remote_node.node_id, _NEVER)
        if ack_at < crash_at:
            return False
        actions = [action for action in actions if action[0] < crash_at]
        actions.append((ack_at, self._fail_in_flight, (wr, size)))
        self.env.schedule_train(actions)
        return True

    # -- doorbell trains ----------------------------------------------------
    def post_train(self, entries) -> None:
        """The one doorbell-train primitive: submit ``entries`` — a list
        of ``(wr, size, pieces, region, offset)`` — as one train.

        ``wr`` is ``None`` for an unsignaled fire-and-forget WQE nobody
        observes (the ring protocols drop those, so no WorkRequest needs
        to exist); ``region`` is the resolved remote region, range-checked
        by the caller (ring channels pass their cached whole-ring proof),
        and ``pieces`` are ``(offset within the write, buffer)`` pairs the
        caller keeps unchanged until the write commits.

        Each WQE takes its NIC slot (``RNic.engine_delay``) and then its
        path (``Fabric.unicast_arrival`` from its issue instant), in
        posting order (the NIC and the links hold independent state, so
        the interleaving is the whole train's arbitration followed by its
        wire bookings), and one train commits each write's payload
        at its exact arrival time. Every timestamp matches the unbatched
        path bit-for-bit — the only behavioural difference is that a
        write's *prefix* bytes commit together with its tail at arrival
        instead of one tail-serialization earlier (the coalescing is
        protocol-invisible: DFI only ever acts on the footer, which
        commits at arrival either way). Both planes are checked on every
        call, so a plane installed between two trains governs the very
        next one. An active plane walks the train WQE by WQE, in posting
        order, with the hooks of :meth:`post_lone`, except that the NIC
        drains a train sequentially: the fault plane admits each WQE at
        its own wire start (NIC issue or the uplink busy horizon,
        whichever is later), so an outage that begins mid-train delivers
        the prefix and flushes the failing WQE *and every later one*
        with ``RETRY_EXC_ERR`` (the QP enters the error state).
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
        cluster = self.node.cluster
        congestion = cluster.congestion
        env = self.env
        fabric = cluster.fabric
        inline_max = self._inline_max
        ack_latency = self._ack_delta
        if faults is None and congestion is None:
            now = env._now
            node = self.node
            remote_node = self.remote_node
            if obs is not None:
                delays = [0.0] * count
                arrivals = [0.0] * count
            actions = []
            finish_signaled = self._finish_signaled
            last = len(entries) - 1
            needs_sort = False
            total = 0
            for position, (wr, size, pieces, region,
                           offset) in enumerate(entries):
                delay = nic.engine_delay(size <= inline_max)
                arrival = fabric.unicast_arrival(node, remote_node, size,
                                                 now + delay)
                total += size
                if obs is not None:
                    delays[position] = delay
                    arrivals[position] = arrival
                piece = pieces[0]
                if piece is pieces[-1]:
                    actions.append((arrival, region.commit,
                                    (offset, piece[1], size)))
                else:
                    actions += _commit_actions(arrival, region, offset,
                                               pieces)
                if wr is None:
                    continue
                if wr.signaled:
                    actions.append((arrival + ack_latency, finish_signaled,
                                    (wr, size)))
                    # A mid-train ack interleaves with later arrivals; a
                    # trailing ack (the selective-signaling shape) lands
                    # at or after the last arrival, so order is already
                    # correct.
                    if position != last:
                        needs_sort = True
                else:
                    wr._complete_at(arrival + ack_latency)
            nic.bytes_posted += total
            if obs is not None:
                obs.log((TRAIN, now, self, count, delays, arrivals))
            if needs_sort:
                actions.sort(key=_action_when)
            env.schedule_train(actions)
            return
        # Under a plane a train walks one WQE at a time; each WQE logs its own
        # arbitration and wire spans.
        if obs is not None:
            obs.log((TRAIN, env._now, self, count, (), ()))
        uplink = None if self.remote_node is self.node else self.node.uplink
        refused = False
        for wr, size, pieces, region, offset in entries:
            if not refused:
                delay = nic.engine_delay(size <= inline_max)
                now = env._now
                admit = 0.0
                if faults is not None:
                    wire_at = now + delay
                    if uplink is not None and uplink.busy_until > wire_at:
                        wire_at = uplink.busy_until
                    admit = faults.rc_admission(
                        self.node, self.remote_node, at=wire_at)
                    refused = admit is None
            if refused:
                self._flush_after(
                    wr or WorkRequest(env, None, Opcode.WRITE, False),
                    faults.detection_timeout, WcStatus.RETRY_EXC_ERR)
                continue
            if congestion is not None:
                admit += congestion.rc_admit(self, size)
            nic.bytes_posted += size
            arrival_delay = fabric.unicast_arrival(
                self.node, self.remote_node, size,
                now + (delay + admit)) - now
            arrival = now + arrival_delay
            ack_at = now + (arrival_delay + ack_latency)
            if obs is not None and obs.causal:
                issued = now + delay
                obs.log((WQE, self, now, issued, issued + admit, arrival))
            piece = pieces[0]
            if piece is pieces[-1]:
                actions = [(arrival, region.commit, (offset, piece[1], size))]
            else:
                actions = _commit_actions(arrival, region, offset, pieces)
            if faults is not None and self._post_cut_at_crash(
                    faults, actions, wr, size, ack_at):
                continue
            if wr is not None:
                if wr.signaled:
                    actions.append((ack_at, self._finish_signaled,
                                    (wr, size)))
                else:
                    wr._complete_at(ack_at)
            env.schedule_train(actions)

    # -- one-sided READ and atomics -------------------------------------------
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
        return self._post_request(Opcode.READ, remote_rkey, remote_offset,
                                  length, (local_region, local_offset),
                                  signaled, wr_id, MemoryRegion.read,
                                  (length,))

    def post_fetch_add(self, remote_rkey: int, remote_offset: int,
                       addend: int, signaled: bool = True,
                       wr_id: Any = None) -> WorkRequest:
        """Atomic fetch-and-add on a remote u64; ``done`` yields the old
        value. This is the primitive behind DFI's tuple sequencer."""
        return self._post_request(Opcode.FETCH_ADD, remote_rkey,
                                  remote_offset, 8, None, signaled, wr_id,
                                  MemoryRegion.fetch_add_u64, (addend,))

    def post_compare_swap(self, remote_rkey: int, remote_offset: int,
                          expected: int, swap: int, signaled: bool = True,
                          wr_id: Any = None) -> WorkRequest:
        """Atomic compare-and-swap on a remote u64; ``done`` yields the old
        value (swap succeeded iff it equals ``expected``)."""
        return self._post_request(Opcode.COMPARE_SWAP, remote_rkey,
                                  remote_offset, 8, None, signaled, wr_id,
                                  MemoryRegion.compare_swap_u64,
                                  (expected, swap))

    def _post_request(self, opcode: Opcode, remote_rkey: int,
                      remote_offset: int, length: int, landing,
                      signaled: bool, wr_id: Any, apply,
                      operands: tuple) -> WorkRequest:
        """The one request/response walk of READ and the atomics. Check
        the remote range of ``length`` bytes and, for a READ, the local
        one its ``landing`` ``(region, offset)`` names; admit against the
        fault plane (refused, the request flushes with ``RETRY_EXC_ERR``);
        send the request packet. At its arrival the peer applies
        ``apply(region, remote_offset, *operands)``
        (:meth:`_request_arrived`) and sends the ``length``-byte result
        back; ``done`` triggers with it when it lands
        (:meth:`_response_arrived`)."""
        remote_region = self._get_remote_nic().region(remote_rkey)
        remote_region.check_range(remote_offset, length)
        obs = self._obs
        if landing is None:
            if obs is not None:
                obs.inc("rdma.atomics_posted")
        else:
            landing[0].check_range(landing[1], length)
            if obs is not None:
                self._obs_reads_posted += 1
        faults = self._faults()
        fault_delay = 0.0
        if faults is not None:
            admit = faults.rc_admission(self.node, self.remote_node)
            if admit is None:
                return self._flush_wr(opcode, wr_id, signaled, faults)
            fault_delay = admit
        offset_delay = self.nic.engine_delay(inline=True) + fault_delay
        env = self.env
        wr = WorkRequest(env, wr_id, opcode, signaled)
        now = env._now
        arrival = self.node.cluster.fabric.unicast_arrival(
            self.node, self.remote_node, _REQUEST_PACKET_SIZE,
            now + offset_delay, True)
        env.schedule_train([(now + (arrival - now), self._request_arrived,
                             (wr, remote_region, remote_offset, length,
                              landing, apply, operands))])
        return wr

    def _request_arrived(self, request) -> None:
        """Train action: a READ or atomic request reached the peer."""
        wr, region, offset, length, landing, apply, operands = request
        faults = self._faults()
        if faults is not None and not faults.node_alive(self.remote_node):
            # Peer crashed while the request packet was in flight: no
            # response ever comes; the transport gives up after the
            # detection bound.
            self._flush_after(wr, faults.detection_timeout,
                              WcStatus.WR_FLUSH_ERR)
            return
        result = apply(region, offset, *operands)
        env = self.env
        now = env._now
        arrival = self.node.cluster.fabric.unicast_arrival(
            self.remote_node, self.node, length, now, True)
        env.schedule_train([(now + (arrival - now), self._response_arrived,
                             (wr, length, landing, result))])

    def _response_arrived(self, response) -> None:
        """Train action: the response landed back at this node."""
        wr, length, landing, result = response
        if landing is not None:
            landing[0].commit((landing[1], result, length))
        wr._complete(result)
        if wr.signaled:
            self.send_cq.push(Completion(
                wr_id=wr.wr_id, opcode=wr.opcode, status=WcStatus.SUCCESS,
                byte_len=length, result=result))

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
        cluster = self.node.cluster
        congestion = cluster.congestion
        if congestion is not None:
            fault_delay += congestion.rc_admit(self, size)
        inline = size <= self._inline_max
        offset_delay = self.nic.engine_delay(inline) + fault_delay
        self.nic.bytes_posted += size
        env = self.env
        now = env._now
        arrival_delay = cluster.fabric.unicast_arrival(
            self.node, self.remote_node, size, now + offset_delay) - now
        env.schedule_train([(now + arrival_delay, self._send_arrived,
                             (self._peer, data, imm))])
        wr = WorkRequest(env, wr_id, Opcode.SEND, signaled)
        env.schedule_train([(now + (arrival_delay + self._ack_delta),
                             self._finish, (wr, size))])
        return wr

    def _send_arrived(self, args) -> None:
        """Train action: a SEND's ``(peer, data, imm)`` reached the peer."""
        faults = self._faults()
        if faults is not None and not faults.node_alive(self.remote_node):
            return  # the receiving QP died with its node
        peer, data, imm = args
        peer._deliver(data, imm)

    def _deliver(self, data: bytes, imm: int | None) -> None:
        self._pending_rx.append((data, imm))
        self._match_pending()

    def _match_pending(self) -> None:
        while self._pending_rx and self._recv_queue:
            data, imm = self._pending_rx.popleft()
            region, offset, length, wr_id = self._recv_queue.popleft()
            size = len(data)
            if size > length:
                raise RdmaError(
                    f"received {size} bytes into a {length}-byte "
                    f"receive buffer on {self.node.name}")
            region.commit((offset, data, size))
            self.recv_cq.push(Completion(
                wr_id=wr_id, opcode=Opcode.RECV, status=WcStatus.SUCCESS,
                byte_len=size, imm=imm, result=(region, offset, size)))

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

    __slots__ = ("nic", "env", "qpn", "node", "recv_cq", "recv_queue")

    def __init__(self, nic: RNic, qpn: int, recv_cq: CompletionQueue) -> None:
        self.nic = nic
        self.env = nic.env
        self.qpn = qpn
        self.node = nic.node
        self.recv_cq = recv_cq
        #: Posted receive requests ``(region, offset, length, wr_id)``, in
        #: the order datagrams fill them. :meth:`post_recv` range-checks a
        #: buffer; a consumer re-posting one it posted before may append
        #: it here directly.
        self.recv_queue: deque[tuple[MemoryRegion, int, int, Any]] = deque()

    def post_recv(self, region: MemoryRegion, offset: int, length: int,
                  wr_id: Any = None) -> None:
        """Post a receive buffer for incoming datagrams."""
        region.check_range(offset, length)
        self.recv_queue.append((region, offset, length, wr_id))

    @property
    def posted_recv_count(self) -> int:
        return len(self.recv_queue)

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
        offset_delay = self.nic.engine_delay(
            size <= self.nic.profile.max_inline_size)
        self.nic.bytes_posted += size
        env = self.env
        now = env.now
        fabric = cluster.fabric
        deliver = group._deliver
        # One train carries the fan-out; a member lost in the fabric
        # has no action. Every instant is ``now + offset``, the float a
        # Timeout armed with that offset fires at; the stable sort keeps
        # equal-time members in member order.
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
        recv_queue = self.recv_queue
        if not recv_queue:
            self.nic.rx_dropped_no_recv += 1
            return
        region, offset, length, wr_id = recv_queue.popleft()
        size = len(data)
        if size > length:
            self.nic.rx_dropped_no_recv += 1
            return
        region.commit((offset, data, size))
        self.recv_cq.push(Completion(
            wr_id=wr_id, opcode=Opcode.RECV, status=WcStatus.SUCCESS,
            byte_len=size, result=(region, offset, size)))

    def __repr__(self) -> str:
        return f"<UdQueuePair {self.node.name}:{self.qpn}>"
