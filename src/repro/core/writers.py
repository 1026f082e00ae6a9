"""The RC ring-write protocol, and the ring writers of replicate flows.

The paper defines two ways for a source to learn that a remote ring slot
may be written (Sections 5.2 / 5.3), and each is written once, here:

* :class:`FooterWindow` — bandwidth protocol: pipelined footer pre-read
  of segment *n+1* with the write of *n*, random-backoff polling on a full
  ring;
* :class:`CreditWindow` — latency protocol: a target-side consumed
  counter read asynchronously when the local credit estimate runs low.

A window answers only "may I write slots *r … r+W−1*"; whoever holds it —
a shuffle source channel (``core/shuffle.py``) or one of the replicate
writers below, :class:`FooterRingWriter` / :class:`CreditRingWriter` —
posts its own writes, signals selectively in its own way and moves the
window's cursor inline on its hot path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.errors import FlowTimeoutError
from repro.core.backoff import traced_backoff
from repro.core.registry import RingHandle
from repro.core.segment import (
    FOOTER_SIZE,
    footer_consumable,
    pack_footer,
)
from repro.obs import CREDIT, FOOTER_POLL, PREREAD, log_event, log_stall
from repro.rdma.nic import get_nic
from repro.simnet.congestion import stall_is_congestion

if TYPE_CHECKING:
    from repro.simnet.node import Node

#: Replicate writers signal one write in this many (selective signaling);
#: a doorbell train never spans the signaled WQE.
SIGNAL_INTERVAL = 16


def _congestion_grace(node: "Node", remote_id: int, obs) -> bool:
    """A writer whose backoff budget ran out is forgiven while the path to
    the remote ring is visibly congestion-throttled: the ring is full
    because the fabric is slow, not because the peer went silent, so
    raising ``FlowTimeoutError`` would misreport congestion as failure.
    Throttle state self-clears (queues drain, rates recover), so grace is
    bounded — once the path looks healthy again the very next exhausted
    round raises."""
    remote = node.cluster.node(remote_id)
    if not stall_is_congestion(node, remote):
        return False
    if obs is not None:
        obs.inc("core.congestion_grace")
    return True


class _RingWindow:
    """What both protocols share: the owner whose clock, seeded backoff
    RNG (``_rng``) and observability identity (``_obs``/``_flow``/``_tid``)
    every wait is charged to and whose QP the reads go out on, the
    scratch region they land in, and the retry budget of a stalled ring."""

    __slots__ = ("owner", "qp", "handle", "_scratch", "_max_retries")

    def __init__(self, owner, handle: RingHandle, scratch_bytes: int,
                 max_retries: "int | None") -> None:
        self.owner = owner
        self.qp = owner.qp
        self.handle = handle
        self._scratch = self.qp.nic.register_memory(scratch_bytes)
        self._max_retries = max_retries

    def release(self) -> None:
        """Deregister the scratch region. Called by the owner once its
        close/abort marker is acknowledged — it posts no more reads, and a
        flow-cycling cluster must shed every per-ring NIC region
        (``tests/test_scale_memory`` pins the steady state). A read still
        in flight holds the region object itself, not the rkey, so dropping
        the NIC table entry is safe. Idempotent."""
        if self._scratch is not None:
            self.qp.nic.deregister_memory(self._scratch.rkey)
            self._scratch = None

    def _backoff(self, attempt: int, complaint: str):
        """The sleep of stalled round ``attempt`` (exponential, jittered
        from the owner's RNG), or ``FlowTimeoutError`` — ``complaint``
        about the remote node — once the budget is spent on a path that
        is not congestion-throttled."""
        owner = self.owner
        remote_id = self.handle.node_id
        if (self._max_retries is not None and attempt >= self._max_retries
                and not _congestion_grace(owner.node, remote_id, owner._obs)):
            raise FlowTimeoutError(
                f"{complaint.format(remote_id)} after {attempt} backoff "
                f"rounds")
        return owner.env.timeout(traced_backoff(owner, attempt))


class FooterWindow(_RingWindow):
    """Bandwidth-mode writability of one remote ring.

    ``index`` is the next slot to write and ``left`` how many slots from
    it on are proven writable; the owner advances both as it posts (hot
    paths test ``if not window.left:`` before entering :meth:`acquire`).
    ``pending_slot`` is the pre-read of slot ``index`` pipelined with a
    per-segment write, ``pending_window`` the read pipelined behind a
    doorbell train that used the window up, ``train`` slots wide — capped
    by the owner at half the ring, so source and target keep
    double-buffering. Whoever advances ``index`` drops the read that the
    move makes stale: a train clears ``pending_slot`` (it wrote that
    slot), a per-segment write clears ``pending_window`` (it proves from
    the index before the write).
    """

    __slots__ = ("index", "left", "pending_slot", "pending_window", "train")

    def __init__(self, owner, handle: RingHandle, train: int,
                 max_retries: "int | None") -> None:
        super().__init__(owner, handle, FOOTER_SIZE, max_retries)
        self.index = 0
        self.left = 0
        self.pending_slot = None
        self.pending_window = None
        self.train = train

    def read_ahead(self, window: int):
        """Unsignaled read of the footer ``window - 1`` slots past
        ``index`` (see :meth:`acquire`)."""
        handle = self.handle
        slot = (self.index + window - 1) % handle.segment_count
        return self.qp.post_read(
            self._scratch, 0, handle.rkey,
            slot * (handle.segment_size + FOOTER_SIZE) + handle.segment_size,
            FOOTER_SIZE, signaled=False)

    def acquire(self, want: int):
        """Generator: make ``left`` positive with one footer read — 1 for
        a per-segment write, ``train`` for a doorbell train.

        Reading the footer ``W - 1`` slots ahead of ``index`` proves the
        whole ``W``-slot window: the target consumes in ring order and
        blanks each footer as it drains, so a non-consumable footer at
        slot ``r + W - 1`` implies every slot in ``r .. r + W - 1`` has
        been drained (or never written). A read already in flight is used
        first; a consumable footer means the ring is full — back off,
        then poll again for ``want``.
        """
        owner = self.owner
        obs = owner._obs
        wr = self.pending_window
        self.pending_window = None
        if wr is not None:
            window = self.train
        else:
            # A leftover per-segment pre-read proves exactly slot ``index``.
            wr = self.pending_slot
            self.pending_slot = None
            window = want if wr is None else 1
        if obs is not None:
            obs.inc("core.preread_hits" if wr is not None
                    else "core.preread_misses")
            log_event(owner, PREREAD, {"hit": wr is not None})
        if wr is None:
            wr = self.read_ahead(window)
        attempt = 0
        while True:
            if wr.done.triggered:
                data = wr.done.value
            else:
                wait_from = owner.env.now
                data = yield wr.done
                if obs is not None:
                    log_stall(owner, wait_from)
            if not footer_consumable(data):
                self.left = window
                return
            yield self._backoff(attempt,
                                "remote ring on node {} still full")
            attempt += 1
            window = want
            wr = self.read_ahead(want)
            if obs is not None:
                log_event(owner, FOOTER_POLL, {"attempt": attempt})


class CreditWindow(_RingWindow):
    """Latency-mode writability of one remote ring: ``sent`` segments
    against the target's ``consumed`` counter as last read. The owner
    bumps ``sent`` per write and calls :meth:`refresh_async` once the
    credits left fall to ``threshold``, so the common-case write finds
    the window open and issues nothing else."""

    __slots__ = ("sent", "consumed", "pending", "threshold", "_issued")

    def __init__(self, owner, handle: RingHandle, threshold: int,
                 max_retries: "int | None") -> None:
        super().__init__(owner, handle, 8, max_retries)
        self.sent = 0
        self.consumed = 0
        self.pending = None
        self.threshold = threshold
        self._issued = 0.0

    def refresh_async(self) -> None:
        """Post the read of the target's consumed counter."""
        owner = self.owner
        if owner._obs is not None:
            self._issued = owner.env.now
        handle = self.handle
        self.pending = self.qp.post_read(
            self._scratch, 0, handle.credit_rkey, handle.credit_offset, 8,
            signaled=False)

    def _apply(self, data) -> None:
        self.pending = None
        consumed = int.from_bytes(data, "little")
        if consumed > self.consumed:
            self.consumed = consumed

    def acquire(self):
        """Generator: harvest a finished refresh, then hold until at
        least one credit is left — reading the counter, and backing off
        between reads that bring nothing."""
        owner = self.owner
        obs = owner._obs
        segments = self.handle.segment_count
        pending = self.pending
        if pending is not None and pending.done.triggered:
            self._apply(pending.done.value)
            if obs is not None:
                obs.observe("core.credit_rtt", owner.env.now - self._issued)
        attempt = 0
        while self.sent - self.consumed >= segments:
            if obs is not None:
                obs.inc("core.credit_stalls")
            if self.pending is None:
                self.refresh_async()
            wait_from = owner.env.now
            self._apply((yield self.pending.done))
            if obs is not None:
                log_stall(owner, wait_from)
                obs.observe("core.credit_rtt", owner.env.now - self._issued)
                log_event(owner, CREDIT,
                          {"credits": segments - (self.sent - self.consumed)})
            if self.sent - self.consumed >= segments:
                yield self._backoff(attempt, "no credit from node {}")
                attempt += 1


class _RingWriter:
    """One replicate source's write side of one target ring: the QP, the
    identity its window logs under, and the segment tally."""

    def __init__(self, node: "Node", handle: RingHandle, tag: tuple) -> None:
        self.node = node
        self.env = node.env
        self.qp = get_nic(node).create_qp(node.cluster.node(handle.node_id))
        self.handle = handle
        self.slot_size = handle.segment_size + FOOTER_SIZE
        self._rng = node.backoff_rng
        self.segments_written = 0
        #: Observability handle of the owning node (``None`` when the
        #: plane is off — one attribute check per guarded site).
        self._obs = node.metrics
        if self._obs is not None:
            self._obs.add_collector(self._collect_obs)
        self._flow = tag[0]
        # Replicate passes (flow, source_index, target_index); tests may
        # construct writers with a bare (flow,) tag.
        self._tid = (f"r{tag[1]}->t{tag[2]}" if len(tag) >= 3
                     else f"r{tag[0]}")

    def _collect_obs(self):
        """Read-time counter harvest (see MetricsRegistry.add_collector)."""
        return (("core.segments_written", self.segments_written),)

    def release(self) -> None:
        """Shed the window's NIC region once the last marker is acked."""
        self.window.release()

    def _post_segment(self, payload: bytes, flags: int, seq: int,
                      source_index: int, slot: int, signaled: bool):
        """Post one segment into remote slot ``slot``; returns the work
        request of the write that carries the footer.

        Full segments go out as one gather write (payload + footer, no
        concatenation copy). Partial segments (final flushes, close
        markers) write only the used payload followed by a separate
        footer write at the fixed end-of-segment position — RC per-QP
        ordering keeps the footer landing strictly after the payload.
        """
        handle = self.handle
        remote_offset = slot * self.slot_size
        footer = pack_footer(len(payload), flags, seq, source_index)
        if len(payload) == handle.segment_size:
            wr = self.qp.post_write([payload, footer], handle.rkey,
                                    remote_offset, signaled=signaled)
        else:
            if payload:
                self.qp.post_write(payload, handle.rkey, remote_offset,
                                   signaled=False)
            wr = self.qp.post_write(
                footer, handle.rkey, remote_offset + handle.segment_size,
                signaled=signaled)
        self.segments_written += 1
        return wr


class FooterRingWriter(_RingWriter):
    """Writes whole segment slots to a remote ring, footer-synchronized."""

    def __init__(self, node: "Node", handle: RingHandle, tag: tuple,
                 max_retries: "int | None" = None) -> None:
        super().__init__(node, handle, tag)
        self._since_signal = 0
        self._signal_wr = None
        self.window = FooterWindow(self, handle,
                                   max(1, handle.segment_count // 2),
                                   max_retries)

    def _reap_signal(self):
        """Generator: wait out the last signaled write, so at most
        :data:`SIGNAL_INTERVAL` writes are ever unobserved."""
        if not self._signal_wr.done.triggered:
            yield self._signal_wr.done
        self._signal_wr = None
        self._since_signal = 0
        self.qp.send_cq.poll(max_entries=64)

    def write_segment(self, payload: bytes, flags: int, seq: int,
                      source_index: int = 0):
        """Generator: transfer one segment into the next remote slot,
        proving it writable first (and only then reaping the signaled
        write — the channels reap before they prove)."""
        window = self.window
        window.pending_window = None
        if not window.left:
            yield from window.acquire(1)
        window.left -= 1
        if (self._signal_wr is not None
                and self._since_signal >= SIGNAL_INTERVAL):
            yield from self._reap_signal()
        signaled = self._since_signal + 1 >= SIGNAL_INTERVAL
        wr = self._post_segment(payload, flags, seq, source_index,
                                window.index, signaled)
        if signaled:
            self._signal_wr = wr
        self._since_signal += 1
        window.index = (window.index + 1) % self.handle.segment_count
        window.pending_slot = window.read_ahead(1)
        return wr

    def write_segments(self, segments, source_index: int = 0):
        """Generator: transfer a train of *full* segments, one doorbell
        ring per windowed chunk.

        ``segments`` is a sequence of ``(payload, flags, seq)`` tuples
        whose payloads each fill a whole segment (partial segments and
        close markers must go through :meth:`write_segment`). Each chunk
        is bounded by the writability window and the selective-signaling
        interval, so at most the last WQE of a chunk is signaled and one
        footer read proves a half-ring of slots. Returns the last posted
        work request.
        """
        handle = self.handle
        rkey = handle.rkey
        slot_size = self.slot_size
        segment_size = handle.segment_size
        segment_count = handle.segment_count
        post_write = self.qp.post_write
        window = self.window
        wr = None
        index = 0
        total = len(segments)
        while index < total:
            if (self._signal_wr is not None
                    and self._since_signal >= SIGNAL_INTERVAL):
                yield from self._reap_signal()
            if not window.left:
                yield from window.acquire(window.train)
            take = min(window.left, total - index,
                       SIGNAL_INTERVAL - self._since_signal)
            # Per-chunk state lives in locals across the inner loop; the
            # chunk bound guarantees only its last WQE can be signaled.
            remote_index = window.index
            since_signal = self._since_signal
            for payload, flags, seq in segments[index:index + take]:
                since_signal += 1
                signaled = since_signal >= SIGNAL_INTERVAL
                wr = post_write(
                    [payload,
                     pack_footer(segment_size, flags, seq, source_index)],
                    rkey, remote_index * slot_size, signaled=signaled,
                    doorbell=False)
                if signaled:
                    self._signal_wr = wr
                remote_index += 1
                if remote_index == segment_count:
                    remote_index = 0
            window.index = remote_index
            self._since_signal = since_signal
            self.segments_written += take
            window.left -= take
            index += take
            self.qp.ring_doorbell()
            window.pending_slot = None
            if not window.left:
                window.pending_window = window.read_ahead(window.train)
        return wr


class CreditRingWriter(_RingWriter):
    """Writes segment slots to a remote ring under credit flow control."""

    def __init__(self, node: "Node", handle: RingHandle, tag: tuple,
                 credit_threshold: int,
                 max_retries: "int | None" = None) -> None:
        if handle.credit_rkey is None:
            raise ValueError("credit writer needs a credit counter handle")
        super().__init__(node, handle, tag)
        self.window = CreditWindow(self, handle, credit_threshold,
                                   max_retries)

    def write_segment(self, payload: bytes, flags: int, seq: int,
                      source_index: int = 0):
        """Generator: transfer one segment after acquiring a credit."""
        credit = self.window
        yield from credit.acquire()
        segments = self.handle.segment_count
        wr = self._post_segment(payload, flags, seq, source_index,
                                credit.sent % segments, False)
        credit.sent += 1
        if (segments - (credit.sent - credit.consumed) <= credit.threshold
                and credit.pending is None):
            credit.refresh_async()
        return wr

