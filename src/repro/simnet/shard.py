"""Shard attribution for the event kernel: a tag on the one event queue.

``ShardedEnvironment`` files every event in the heap and the zero-delay
deque it inherits from :class:`~repro.simnet.kernel.Environment`, as
``(when, sequence, event, shard)``. Sequence numbers are unique, so
comparisons never reach past the second field and the inherited
``_pop_next`` / ``peek`` / ``run`` serve the 4-tuples unchanged. Global
``(time, sequence)`` order holds because there is one queue — not
because a merge across per-shard queues reproduces it.

The shard of an event is the delivery tag set by the shard-aware call
sites (fabric arrivals, node spawn, fault transitions) or, untagged, the
shard of the event whose callbacks scheduled it. That buys attribution
and nothing else: per-shard event and round tallies, the inbound-mailbox
and crossing counts, ``shard_crossing`` causal spans. Shard count and
``shard_map`` can therefore never move a simulated metric.

There are no per-shard queues (DESIGN.md §8): cross-node effects are
synchronous Python calls (``Fabric.unicast`` books the destination's
downlink at send time), so shards may never run out of global order, and
merging per-shard queues only re-derived, at a cost, the order one
queue already has. Truly independent clusters run in separate
processes through :mod:`repro.simnet.shardexec`.
"""

from __future__ import annotations

import heapq

from repro.common.errors import ConfigurationError, SimulationError
from repro.simnet.kernel import _TIMEOUT_POOL_CAP, Environment, Event, Timeout


def block_shard_map(node_count: int, shards: int) -> list[int]:
    """Contiguous block partition: node ``i`` goes to shard
    ``i * shards // node_count``. Keeps rack-style node ranges together,
    which is what flow placement helpers produce for 256-1024-node
    clusters."""
    if shards < 1:
        raise ConfigurationError(f"shard count must be >= 1, got {shards}")
    return [node * shards // node_count for node in range(node_count)]


class ShardedEnvironment(Environment):
    """Event kernel whose queue entries carry a shard tag.

    Drop-in for :class:`Environment`: storage and ordering are
    inherited; this class tags entries as they are scheduled and tallies
    them per shard as it executes them (:meth:`step`, and the same
    steps written out in :meth:`_run_all`).
    """

    __slots__ = ("shard_count", "_active_shard", "_post_shard", "_round_shard",
                 "_drained", "_rounds", "_mailbox_in", "mailbox_crossings",
                 "crossing_log")

    def __init__(self, shards: int, initial_time: float = 0.0) -> None:
        if shards < 1:
            raise ConfigurationError(
                f"shard count must be >= 1, got {shards}")
        super().__init__(initial_time)
        self.shard_count = shards
        #: Shard of the event currently executing; events scheduled from
        #: its callbacks inherit it unless a delivery tag
        #: (:attr:`_post_shard`) redirects them.
        self._active_shard = 0
        #: One-shot delivery tag set by shard-aware call sites (fabric
        #: arrivals, node spawn, fault transitions): the next scheduled
        #: event is attributed to this shard instead of the active one.
        #: -1 = unset.
        self._post_shard = -1
        #: Shard of the last executed event (-1 before the first): a
        #: change of shard between consecutive events opens a new round.
        self._round_shard = -1
        #: Per-shard events executed.
        self._drained = [0] * shards
        #: Per-shard rounds — maximal runs of consecutive events on one
        #: shard, in execution order.
        self._rounds = [0] * shards
        #: Per-shard events scheduled under a foreign shard's context
        #: (the shard's inbound mailbox).
        self._mailbox_in = [0] * shards
        #: Cross-shard deliveries posted through the fabric (unicast
        #: messages, train messages, multicast member deliveries).
        self.mailbox_crossings = 0
        #: The obs plane log's ``append`` when causal observability is
        #: on: the fabric logs ``shard_crossing`` context spans through it
        #: (set by ``Cluster.enable_observability(causal=True)``).
        self.crossing_log = None

    # -- scheduling -------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        if event._scheduled:
            raise SimulationError(f"{event!r} already scheduled")
        event._scheduled = True
        self._sequence += 1
        shard = self._post_shard
        if shard < 0:
            shard = self._active_shard
        elif shard != self._active_shard:
            self._mailbox_in[shard] += 1
        if delay == 0.0:
            self._immediate.append((self._now, self._sequence, event, shard))
        else:
            heapq.heappush(self._queue, (self._now + delay, self._sequence,
                                         event, shard))

    def _schedule_abs(self, event: Event, when: float) -> None:
        if event._scheduled:
            raise SimulationError(f"{event!r} already scheduled")
        event._scheduled = True
        self._sequence += 1
        shard = self._post_shard
        if shard < 0:
            shard = self._active_shard
        elif shard != self._active_shard:
            self._mailbox_in[shard] += 1
        if when <= self._now:
            self._immediate.append((self._now, self._sequence, event, shard))
        else:
            heapq.heappush(self._queue, (when, self._sequence, event, shard))

    def _requeue(self, macro, when: float) -> None:
        # A macro re-arms from its own callback, so the active shard is
        # the one it was scheduled under: every hop stays there.
        heapq.heappush(self._queue,
                       (when, macro.seq, macro, self._active_shard))

    # -- dispatch ---------------------------------------------------------
    def step(self) -> None:
        """Process the single next event, attributed to its shard."""
        when, _seq, event, shard = self._pop_next()
        self._now = when
        self.events_executed += 1
        if shard != self._round_shard:
            self._round_shard = self._active_shard = shard
            self._rounds[shard] += 1
        self._drained[shard] += 1
        callbacks = event.callbacks
        event.callbacks = None
        event._processed = True
        for callback in callbacks:
            callback(event)
        if event._exception is not None and not event._defused:
            raise event._exception
        if (type(event) is Timeout and event._poolable
                and len(self._timeout_pool) < _TIMEOUT_POOL_CAP):
            self._timeout_pool.append(event)

    def _run_all(self) -> None:
        """Run until nothing is pending: :meth:`step` in a loop, written
        out as :meth:`Environment._run_all` is — the 4-tuple pop, the
        tallies and the dispatch inline, so that a tagged event costs no
        frame of the kernel's own either. :meth:`step` stays the
        reference (``run(until=...)`` drives it)."""
        queue = self._queue
        immediate = self._immediate
        popleft = immediate.popleft
        heappop = heapq.heappop
        pool = self._timeout_pool
        drained = self._drained
        rounds = self._rounds
        while True:
            if immediate:
                if queue and queue[0] < immediate[0]:
                    when, _seq, event, shard = heappop(queue)
                else:
                    when, _seq, event, shard = popleft()
            elif queue:
                when, _seq, event, shard = heappop(queue)
            else:
                return
            self._now = when
            self.events_executed += 1
            if shard != self._round_shard:
                self._round_shard = self._active_shard = shard
                rounds[shard] += 1
            drained[shard] += 1
            callbacks = event.callbacks
            event.callbacks = None
            event._processed = True
            for callback in callbacks:
                callback(event)
            if event._exception is not None and not event._defused:
                raise event._exception
            if (type(event) is Timeout and event._poolable
                    and len(pool) < _TIMEOUT_POOL_CAP):
                pool.append(event)

    # -- observability ----------------------------------------------------
    def shard_stats(self) -> dict:
        """Read-time snapshot of the always-on shard tallies: per shard
        events drained / rounds / inbound mailbox posts, plus the global
        crossing count. Reading schedules nothing and draws nothing (the
        ``repro.obs`` contract)."""
        lanes = [
            {"drained": drained, "rounds": rounds, "mailbox_in": mailbox_in,
             "mean_window": drained / rounds if rounds else 0.0}
            for drained, rounds, mailbox_in in zip(
                self._drained, self._rounds, self._mailbox_in)]
        return {
            "shards": self.shard_count,
            "mailbox_crossings": self.mailbox_crossings,
            "events_drained": sum(self._drained),
            "drain_rounds": sum(self._rounds),
            "lanes": lanes,
        }
