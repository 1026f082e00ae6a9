"""The RC ring-write protocol.

The paper defines two ways for a source to learn that a remote ring slot
may be written (Sections 5.2 / 5.3), and each is written once, here:

* :class:`FooterWindow` — bandwidth protocol: pipelined footer pre-read
  of segment *n+1* with the write of *n*, random-backoff polling on a full
  ring;
* :class:`CreditWindow` — latency protocol: a target-side consumed
  counter read asynchronously when the local credit estimate runs low.

A window answers only "may I write slots *r … r+W−1*"; its owner — a
shuffle source channel (``core/shuffle.py``), which is also what a naive
replicate source writes each target ring through — posts the writes,
signals selectively and moves the window's cursor inline on its hot path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.errors import FlowTimeoutError
from repro.core.backoff import traced_backoff
from repro.core.registry import RingHandle
from repro.core.segment import FOOTER_SIZE, footer_consumable
from repro.obs import CREDIT, FOOTER_POLL, PREREAD, log_event, log_stall
from repro.simnet.congestion import stall_is_congestion

if TYPE_CHECKING:
    from repro.simnet.node import Node


def _congestion_grace(node: "Node", remote_id: int, obs) -> bool:
    """A source whose backoff budget ran out is forgiven while the path to
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
