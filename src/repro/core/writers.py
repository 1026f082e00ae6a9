"""The write-side windows: when a source may send the next segment.

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

The third, :class:`MulticastWindow`, is the unreliable transport's: the
targets write credits back one-sidedly, and the source resends on timeout.
"""

from __future__ import annotations

from collections import deque
from struct import Struct
from typing import TYPE_CHECKING

from repro.common.errors import FlowTimeoutError
from repro.core.backoff import traced_backoff
from repro.core.registry import RingHandle
from repro.core.segment import FOOTER_SIZE, footer_consumable
from repro.obs import (CREDIT, FOOTER_POLL, PREREAD, RETRANSMIT, log_event,
                       log_stall)
from repro.simnet.congestion import stall_is_congestion

if TYPE_CHECKING:
    from repro.simnet.node import Node


#: :attr:`CreditWindow.pending` from a push that ran ahead of the clock
#: until its post starts the refresh read that push predicted.
REFRESH_DUE = object()


def _congestion_grace(node: "Node", remote_id: int, obs) -> bool:
    """A source whose backoff budget ran out is forgiven while the path to
    the remote ring's egress queue is congested: the ring is full
    because the fabric is slow, not because the peer went silent, so
    raising ``FlowTimeoutError`` would misreport congestion as failure.
    A queue drains by itself, so grace is bounded — once the queue is
    below ``kmin`` again the very next exhausted round raises."""
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

    def _backoff(self, attempt: int, complaint: str) -> float:
        """The sleep of stalled round ``attempt`` (exponential, jittered
        from the owner's RNG) as the delay to yield, or
        ``FlowTimeoutError`` — ``complaint`` about the remote node — once
        the budget is spent on a path that is not congested."""
        owner = self.owner
        remote_id = self.handle.node_id
        if (self._max_retries is not None and attempt >= self._max_retries
                and not _congestion_grace(owner.node, remote_id, owner._obs)):
            raise FlowTimeoutError(
                f"{complaint.format(remote_id)} after {attempt} backoff "
                f"rounds")
        return traced_backoff(owner, attempt)


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
    the window open and issues nothing else.

    A push that runs ahead of the clock bumps ``sent`` before its post
    and, when that post will start the refresh, sets ``pending`` to
    :data:`REFRESH_DUE` until it does: ``consumed`` moves only in the
    owner's own :meth:`acquire`, which runs at the clock (the owner's
    ``_write_slot`` sleeps its charge or parks first), so the refresh is
    known at push time and the next push waits for it exactly when a
    push that slept through its charge would."""

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


class MulticastWindow:
    """Multicast-mode writability of one switch group, and the sender
    half of retransmit-on-timeout (paper §1).

    Every target writes into the owner's control region, ``STRIDE`` bytes
    each, how many of the owner's segments it has taken (credit) and one
    plus the lowest it found missing (NACK). The owner may send while its
    ``segments_sent`` runs less than a ring ahead of the lowest credit of
    its ``_live`` targets. Every segment goes out through :meth:`post`,
    which keeps the last ``keep`` — at least a ring, so whatever a target
    NACKs can be sent again.
    """

    __slots__ = ("owner", "region", "_doorbell", "_words", "_history",
                 "_order", "_keep")

    #: Control-region bytes per target: credit u64, NACK u64.
    STRIDE = 16

    def __init__(self, owner, region, doorbell, targets: int,
                 keep: int) -> None:
        self.owner = owner
        self.region = region
        self._doorbell = doorbell
        #: The whole control region as (credit, NACK) word pairs.
        self._words = Struct(f"<{2 * targets}Q").unpack_from
        #: Kept segments by sequence number, and the numbers in send order.
        self._history: dict[int, bytes] = {}
        self._order: deque[int] = deque()
        self._keep = keep

    def min_credit(self) -> int:
        """The lowest live credit (all of ``segments_sent`` if none)."""
        credits = self._words(self.region.mem)[0::2]
        failed = self.owner._failed
        if failed:
            credits = [credit for target, credit in enumerate(credits)
                       if target not in failed] or [self.owner.segments_sent]
        return min(credits)

    def laggards(self) -> list:
        """The live targets at the lowest credit."""
        credits = self._words(self.region.mem)[0::2]
        live = self.owner._live
        floor = min(credits[t] for t in live)
        return [t for t in live if credits[t] == floor]

    def post(self, seq: int, slot: bytes) -> None:
        """Multicast segment ``seq`` and keep it for resends."""
        self._history[seq] = slot
        order = self._order
        order.append(seq)
        if len(order) > self._keep:
            del self._history[order.popleft()]
        owner = self.owner
        owner._ud_qp.post_send_multicast(owner._group, slot)

    def _resend(self, seq: int) -> None:
        slot = self._history.get(seq)
        if slot is None:
            return  # NACKed by a target, sent by another source
        owner = self.owner
        owner._ud_qp.post_send_multicast(owner._group, slot)
        owner.retransmissions += 1
        obs = owner._obs
        if obs is not None:
            obs.inc("core.retransmits")
            log_event(owner, RETRANSMIT, {"seq": seq})

    def resend_last(self) -> None:
        """Resend the newest segment posted."""
        self._resend(self._order[-1])

    def service_nacks(self) -> None:
        """Resend every NACKed segment and clear the NACK words (our own
        memory, written without hooks, so it wakes nobody)."""
        mem = self.region.mem
        for target, nack in enumerate(self._words(mem)[1::2]):
            if nack:
                self._resend(nack - 1)
                offset = self.STRIDE * target + 8
                mem[offset:offset + 8] = bytes(8)

    def acquire(self, limit: int):
        """Generator: hold until at most ``limit`` sent segments are
        un-credited — one less than the window before a send, none at
        close.

        Each wait is on the control region's doorbell, raced by a guard
        timer at the end of the current round and withdrawn from the
        kernel queue when a write wins. A round is one
        ``retransmit_timeout`` without a rise in the minimum credit; it
        ends with a resend of the newest segment, the tail of the
        un-credited suffix (the close marker, at close). A target that
        lost the whole suffix has no gap to NACK until the tail arrives;
        one that holds the tail already NACKs what it misses below it.
        The expiry after ``max_retransmits`` rounds in a row fails the
        laggards (the owner's ``_fail_stalled``).
        """
        owner = self.owner
        credit = self.min_credit()
        if owner.segments_sent - credit <= limit:
            return
        env = owner.env
        obs = owner._obs
        options = owner.descriptor.options
        floor = credit
        deadline = env.now + options.retransmit_timeout
        rounds = 0
        while owner.segments_sent - credit > limit:
            if obs is not None:
                obs.inc("core.credit_stalls")
            self.service_nacks()
            wait_from = env.now
            # A wake at the last guard's own instant may sit an ulp past
            # ``deadline``.
            guard = env.timeout(max(deadline - wait_from, 0.0))
            yield env.any_of([self._doorbell.arm(), guard])
            self._doorbell.disarm()
            if obs is not None:
                log_stall(owner, wait_from)
            expired = guard.processed
            if not expired:
                env.cancel(guard)
            credit = self.min_credit()
            if credit > floor:
                floor = credit
                rounds = 0
            elif not expired:
                continue
            elif (options.max_retransmits is None
                  or rounds < options.max_retransmits):
                rounds += 1
                self.resend_last()
            else:
                yield from owner._fail_stalled()
                credit = floor = self.min_credit()
                rounds = 0
            deadline = env.now + options.retransmit_timeout
