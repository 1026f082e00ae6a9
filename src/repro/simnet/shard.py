"""Sharded event kernel with conservative drain windows.

``ShardedEnvironment`` partitions a cluster's event population into
per-shard :class:`~repro.simnet.kernel.EventLane` queues (each a full
zero-delay-deque + calendar-ring scheduler) and advances one shard at a
time in *conservative batches*: the shard holding the globally earliest
event drains its lane until the runner-up shard's head key would be
overtaken. Cross-shard deliveries — all of which flow through
``Fabric.unicast`` / ``unicast_train`` / ``multicast`` — are posted into
the destination shard's lane (its inbound mailbox) carrying their global
``(time, sequence)`` key, so the merge across lanes reproduces the exact
event order of the single-queue kernel.

Why the merge stays *exact* rather than relaxed
-----------------------------------------------
Classic conservative PDES lets a shard run ahead of its peers by the
lookahead (here ``wire_latency``: every cross-node interaction pays at
least one wire crossing, so a peer at simulated time ``t`` cannot affect
this shard before ``t + wire_latency``). That bound is real in this
simulator too — but out-of-order execution *within* the safe window is
still observable, because cross-node effects are synchronous Python
calls, not messages:

* ``Fabric.unicast`` books the destination's downlink at send time and
  returns the exact arrival; under contention (every N:1 shuffle) the
  booking *order* decides queueing delays, so two shards sending into
  one downlink out of time order would shift simulated arrivals.
* ``unicast_train`` returns plain arrival floats that the doorbell-train
  hot path (PR 4/6) consumes immediately to chain completion timers.

Both are the foundation of the repo's determinism contract: same
topology + seed ⇒ bit-identical ``fingerprint.py`` metrics. The sharded
kernel therefore keeps the global ``(time, sequence)`` execution order —
making bit-identity hold *by construction for arbitrary node→shard
maps* — and uses the conservative structure where it is honestly free:

* batch draining amortizes the cross-lane merge (one argmin per round,
  not per event) and keeps each node group's cascades on its own shallow
  lane structures;
* the lookahead is tracked as *horizon accounting*: rounds cut short by
  a peer head within ``lookahead`` ns are counted as ``horizon_stalls``
  — the events a relaxed-order engine could have run early — so the
  cost of exactness is measurable, not hidden;
* truly independent shard groups (no cross-shard flows) escape the
  merge entirely through the multiprocess window executor
  (:mod:`repro.simnet.shardexec`), which is where the GIL-free win
  lives.

Shard assignment is pure attribution + locality: any event executes
identically whichever lane holds it, so ``REPRO_SHARDS`` and arbitrary
``shard_map``s are always safe.
"""

from __future__ import annotations

from typing import Any

from repro.common.errors import ConfigurationError, SimulationError
from repro.simnet.kernel import (
    _TIMEOUT_POOL_CAP,
    Environment,
    Event,
    EventLane,
    Timeout,
)


def block_shard_map(node_count: int, shards: int) -> list[int]:
    """Contiguous block partition: node ``i`` goes to shard
    ``i * shards // node_count``. Keeps rack-style node ranges together,
    which is what flow placement helpers produce for 256-1024-node
    clusters."""
    if shards < 1:
        raise ConfigurationError(f"shard count must be >= 1, got {shards}")
    return [node * shards // node_count for node in range(node_count)]


class ShardedEnvironment(Environment):
    """Event kernel with per-shard lanes and exact-order batch draining.

    Drop-in for :class:`Environment`: every event/process/timeout API is
    inherited; only the storage and the run loop change. ``lookahead``
    (the cluster's ``wire_latency``) feeds the horizon-stall accounting
    described in the module docstring.
    """

    __slots__ = ("_lanes", "_active_shard", "_post_shard", "_drain_limit",
                 "_drain_dirty", "lookahead", "mailbox_crossings",
                 "crossing_recorder")

    def __init__(self, shards: int, initial_time: float = 0.0,
                 lookahead: float = 0.0) -> None:
        if shards < 1:
            raise ConfigurationError(
                f"shard count must be >= 1, got {shards}")
        super().__init__(initial_time)
        self._lanes = [EventLane(initial_time) for _ in range(shards)]
        #: Shard whose event is currently executing; events scheduled
        #: from its callbacks land on its lane unless a delivery tag
        #: (:attr:`_post_shard`) redirects them.
        self._active_shard = 0
        #: One-shot delivery tag set by shard-aware call sites (fabric
        #: arrivals, node spawn, fault transitions): the next scheduled
        #: event goes to this lane instead of the active one. -1 = unset.
        self._post_shard = -1
        #: Runner-up head key bounding the current drain round (None
        #: outside rounds or when only one lane holds events).
        self._drain_limit: "tuple[float, int] | None" = None
        #: Set when a foreign-lane push undercuts the current round's
        #: limit — the round must re-merge before executing further.
        self._drain_dirty = False
        #: Conservative lookahead (ns) for horizon-stall accounting.
        self.lookahead = float(lookahead)
        #: Cross-shard deliveries posted through the fabric (unicast
        #: messages, train messages, multicast member deliveries).
        self.mailbox_crossings = 0
        #: ``repro.obs.CausalRecorder`` when causal observability is on:
        #: the fabric records ``shard_crossing`` context spans through it
        #: (set by ``Cluster.enable_observability(causal=True)``).
        self.crossing_recorder = None

    @property
    def shard_count(self) -> int:  # type: ignore[override]
        return len(self._lanes)

    # -- scheduling -------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        if event._scheduled:
            raise SimulationError(f"{event!r} already scheduled")
        event._scheduled = True
        self._sequence += 1
        seq = self._sequence
        shard = self._post_shard
        if shard < 0:
            shard = self._active_shard
        elif shard != self._active_shard:
            self._lanes[shard].mailbox_in += 1
        lane = self._lanes[shard]
        if delay == 0.0:
            when = self._now
            lane.immediate.append((when, seq, event))
        else:
            when = self._now + delay
            lane.push_timed(when, seq, event)
        if shard != self._active_shard and not self._drain_dirty:
            limit = self._drain_limit
            if limit is None or when < limit[0] or (when == limit[0]
                                                    and seq < limit[1]):
                self._drain_dirty = True

    def _schedule_abs(self, event: Event, when: float) -> None:
        if event._scheduled:
            raise SimulationError(f"{event!r} already scheduled")
        event._scheduled = True
        self._sequence += 1
        seq = self._sequence
        shard = self._post_shard
        if shard < 0:
            shard = self._active_shard
        elif shard != self._active_shard:
            self._lanes[shard].mailbox_in += 1
        lane = self._lanes[shard]
        if when <= self._now:
            when = self._now
            lane.immediate.append((when, seq, event))
        else:
            lane.push_timed(when, seq, event)
        if shard != self._active_shard and not self._drain_dirty:
            limit = self._drain_limit
            if limit is None or when < limit[0] or (when == limit[0]
                                                    and seq < limit[1]):
                self._drain_dirty = True

    def _requeue(self, macro, when: float) -> None:
        # A macro re-arms from its own callback, so its lane is the
        # active one: no mailbox, no drain-limit bookkeeping.
        self._lanes[self._active_shard].push_timed(when, macro.seq, macro)

    # -- merge ------------------------------------------------------------
    def _argmin(self):
        """``(lane_index, head_entry, runner_up_key)`` of the globally
        earliest pending event, or ``(None, None, None)`` when drained.
        ``runner_up_key`` is the earliest ``(time, seq)`` held by any
        *other* lane — the conservative bound for a drain round."""
        best = None
        best_head = None
        second: "tuple[float, int] | None" = None
        for index, lane in enumerate(self._lanes):
            head = lane.head()
            if head is None:
                continue
            if best_head is None or head[0] < best_head[0] or (
                    head[0] == best_head[0] and head[1] < best_head[1]):
                if best_head is not None:
                    second = (best_head[0], best_head[1])
                best = index
                best_head = head
            elif second is None or head[0] < second[0] or (
                    head[0] == second[0] and head[1] < second[1]):
                second = (head[0], head[1])
        return best, best_head, second

    def _pop_next(self) -> tuple[float, int, Event]:
        """Pop the globally next (time, sequence) event across all lanes
        (compatibility path for :meth:`Environment.step`; the batched run
        loop below inlines the same logic per round)."""
        best, _head, _second = self._argmin()
        if best is None:
            raise SimulationError("event queue is empty")
        self._active_shard = best
        return self._lanes[best].pop()

    def peek(self) -> float:
        """Time of the next pending event across all lanes (``inf`` when
        drained)."""
        _best, head, _second = self._argmin()
        return head[0] if head is not None else float("inf")

    def _pending(self) -> bool:
        return any(len(lane) for lane in self._lanes)

    # -- run loop ---------------------------------------------------------
    def run(self, until: "float | Event | None" = None) -> Any:
        """Run the simulation (same contract as :meth:`Environment.run`).

        The hot loop drains one shard per round: pick the lane holding
        the global minimum, bound the round by the runner-up lane's head
        key, and execute that lane's events back-to-back until the bound
        (or a foreign push undercutting it) forces a re-merge. Execution
        order — and therefore every simulated metric — is bit-identical
        to the single-queue kernel.
        """
        stop_event: "Event | None" = None
        stop_time: "float | None" = None
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if stop_time < self._now:
                raise SimulationError(
                    f"until ({stop_time}) lies in the past (now={self._now})")
        lanes = self._lanes
        pool = self._timeout_pool
        lookahead = self.lookahead
        while True:
            best, head, limit = self._argmin()
            if best is None:
                break
            if stop_time is not None and head[0] > stop_time:
                self._now = stop_time
                return None
            lane = lanes[best]
            self._active_shard = best
            self._drain_limit = limit
            self._drain_dirty = False
            lane.rounds += 1
            drained = 0
            while True:
                if stop_event is not None and stop_event._processed:
                    lane.drained += drained
                    self.events_executed += drained
                    self._drain_limit = None
                    return stop_event.value
                when, _seq, event = lane.pop()
                self._now = when
                callbacks = event.callbacks
                event.callbacks = None
                event._processed = True
                drained += 1
                for callback in callbacks:
                    callback(event)
                if event._exception is not None and not event._defused:
                    lane.drained += drained
                    self.events_executed += drained
                    self._drain_limit = None
                    raise event._exception
                if (type(event) is Timeout and event._poolable
                        and len(pool) < _TIMEOUT_POOL_CAP):
                    pool.append(event)
                if self._drain_dirty:
                    break
                head = lane.head()
                if head is None:
                    break
                if limit is not None and (head[0] > limit[0] or (
                        head[0] == limit[0] and head[1] > limit[1])):
                    # Horizon accounting: a relaxed-order engine could
                    # keep draining up to limit + lookahead; count the
                    # rounds where that freedom existed.
                    if head[0] < limit[0] + lookahead:
                        lane.stalls += 1
                    break
                if stop_time is not None and head[0] > stop_time:
                    break
            lane.drained += drained
            self.events_executed += drained
        self._drain_limit = None
        if stop_event is not None:
            if stop_event._processed:
                return stop_event.value
            raise SimulationError(
                "run() until an event, but the queue drained before the "
                "event triggered (deadlock?)")
        if stop_time is not None:
            self._now = stop_time
        return None

    # -- observability ----------------------------------------------------
    def shard_stats(self) -> dict:
        """Read-time snapshot of the sharded kernel's always-on tallies:
        per-lane events drained / drain rounds / horizon stalls / inbound
        mailbox posts, plus the global crossing count. Reading schedules
        nothing and draws nothing (the ``repro.obs`` contract)."""
        lanes = [lane.stats() for lane in self._lanes]
        return {
            "shards": len(self._lanes),
            "lookahead_ns": self.lookahead,
            "mailbox_crossings": self.mailbox_crossings,
            "events_drained": sum(lane["drained"] for lane in lanes),
            "drain_rounds": sum(lane["rounds"] for lane in lanes),
            "horizon_stalls": sum(lane["horizon_stalls"] for lane in lanes),
            "lanes": lanes,
        }
