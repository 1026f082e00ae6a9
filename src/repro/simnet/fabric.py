"""The switch fabric: unicast and hardware-multicast message delivery.

Models a single cut-through InfiniBand switch (the paper's SB7890): a
message serializes once onto the sender's uplink, crosses the fabric after
``wire_latency``, and serializes onto each receiver's downlink. Cut-through
forwarding means an uncongested transfer completes at
``start + wire_latency + size/bandwidth`` — not twice the serialization time.

Multicast replicates inside the switch: the sender pays one uplink
serialization regardless of group size, while every receiver's downlink is
occupied independently. This is what lets the aggregate receive bandwidth of
a replicate flow exceed the sender's link speed (paper Fig. 8b). UD
multicast is *unreliable*: per-receiver drops are injected with the
profile's ``multicast_loss_probability``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.errors import SimulationError
from repro.common.rand import derive_rng
from repro.common.planelog import EDGE
from repro.simnet.kernel import Timeout
from repro.simnet.node import Node

if TYPE_CHECKING:
    from repro.simnet.cluster import Cluster


class Fabric:
    """Message transport between cluster nodes through one switch."""

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster
        self.env = cluster.env
        self.profile = cluster.profile
        #: True when the kernel is sharded: arrival events are then tagged
        #: with the destination node's shard so they land on its lane (the
        #: per-shard inbound mailbox). Cached because the kernel choice is
        #: fixed at cluster construction.
        self._shard_tag = cluster.env.shard_count > 1
        self._loss_rng = derive_rng(cluster.seed, "fabric", "multicast-loss")
        #: Last loopback delivery time per node: loopback transfers keep
        #: FIFO order (a later-posted inline WQE has lower NIC latency and
        #: would otherwise overtake an earlier bulk write). Bounded: one
        #: float per node that ever looped back (≤ node_count entries,
        #: ~100 KB at 1024 nodes) — scale audit, no clearing needed.
        self._loopback_last: dict[int, float] = {}
        #: Unicast messages delivered.
        self.unicast_count = 0
        #: Doorbell trains shipped through :meth:`unicast_train`.
        self.unicast_trains = 0
        #: Multicast packets sent (one per multicast, not per receiver).
        self.multicast_count = 0
        #: Multicast receiver deliveries dropped by loss injection.
        self.multicast_drops = 0
        #: Multicast receiver deliveries dropped by the fault plane
        #: (member crashed / partitioned away).
        self.fault_drops = 0
        #: Installed fault plane (set by ``Cluster.install_faults``).
        self._faults = None

    # -- unicast -----------------------------------------------------------
    def unicast(self, source: Node, destination: Node, size: int,
                delay: float = 0.0, control: bool = False) -> Timeout:
        """Transmit ``size`` bytes from ``source`` to ``destination``.

        Returns an event that triggers when the last byte has arrived at
        the destination — :meth:`unicast_delay` plus the arrival timer
        (filed on the destination's lane when the kernel is sharded).
        """
        offset = self.unicast_delay(source, destination, size, delay, control)
        if self._shard_tag:
            env = self.env
            env._post_shard = destination._shard
            event = env.timeout(offset)
            env._post_shard = -1
            return event
        return self.env.timeout(offset)

    def unicast_delay(self, source: Node, destination: Node, size: int,
                      delay: float = 0.0, control: bool = False) -> float:
        """Reserve the path for ``size`` bytes from ``source`` to
        ``destination`` and return the offset (ns from now) at which the
        last byte has arrived — the message without an arrival event, for
        callers that fold the arrival into a macro-event of their own.

        ``delay`` postpones the transmission start (used by the RNIC
        model for work-request processing time). ``control`` marks tiny
        control messages (footer/credit reads, atomics) that interleave
        with queued bulk traffic instead of waiting behind it (see
        ``Link.reserve_priority``). Loopback transfers (same node) bypass
        the switch and are charged the NIC's loopback latency and
        memory-bus copy.
        """
        cluster = self.cluster
        if source.cluster is not cluster or destination.cluster is not cluster:
            self._check_nodes(source, destination)
        self.unicast_count += 1
        now = self.env._now
        if source is destination:
            arrival = (now + delay + self.profile.loopback_latency
                       + size / self.profile.loopback_bandwidth)
            arrival = max(arrival,
                          self._loopback_last.get(source.node_id, 0.0))
            self._loopback_last[source.node_id] = arrival
            return arrival - now
        reserve_up = (source.uplink.reserve_priority if control
                      else source.uplink.reserve)
        reserve_down = (destination.downlink.reserve_priority if control
                        else destination.downlink.reserve)
        _up_start, up_end = reserve_up(size, now + delay)
        send_start = up_end - source.uplink.serialization_time(size)
        # Cut-through: the downlink starts clocking bytes one wire latency
        # after the first byte left the sender.
        _down_start, down_end = reserve_down(
            size, send_start + self.profile.wire_latency)
        arrival = up_end + self.profile.wire_latency
        if down_end > arrival:
            arrival = down_end
        if self._shard_tag and destination._shard != source._shard:
            env = self.env
            env.mailbox_crossings += 1
            log = env.crossing_log
            if log is not None:
                log((EDGE, up_end + self.profile.wire_latency, up_end,
                     "shard_crossing", destination.node_id, "fabric", None,
                     source.node_id))
        return arrival - now

    def unicast_train(self, source: Node, destination: Node, sizes,
                      delays) -> list[float]:
        """Transmit a doorbell train of messages from ``source`` to
        ``destination`` as one scheduling unit.

        Per-message arithmetic (uplink/downlink reservation, cut-through
        arrival) is identical to calling :meth:`unicast` once per message
        in posting order, but no arrival events are created — the caller
        receives the absolute arrival *times* and expands completions
        lazily (see ``QueuePair.post_write_batch``). ``delays`` holds the
        per-message transmission-start offsets from now (NIC engine
        arbitration).
        """
        cluster = self.cluster
        if source.cluster is not cluster or destination.cluster is not cluster:
            self._check_nodes(source, destination)
        count = len(sizes)
        self.unicast_count += count
        self.unicast_trains += 1
        if (self._shard_tag and source is not destination
                and destination._shard != source._shard):
            # No arrival events to tag (the caller chains its own timers
            # from the returned floats), but the train's messages still
            # cross shards — keep the crossing tally honest.
            self.env.mailbox_crossings += count
        now = self.env.now
        if source is destination:
            loop_latency = self.profile.loopback_latency
            loop_bandwidth = self.profile.loopback_bandwidth
            last = self._loopback_last.get(source.node_id, 0.0)
            arrivals = []
            for size, delay in zip(sizes, delays):
                arrival = now + delay + loop_latency + size / loop_bandwidth
                arrival = max(arrival, last)
                last = arrival
                arrivals.append(arrival)
            self._loopback_last[source.node_id] = last
            return arrivals
        uplink = source.uplink
        downlink = destination.downlink
        wire_latency = self.profile.wire_latency
        up_slots = uplink.reserve_train(sizes,
                                        [now + delay for delay in delays])
        log = (self.env.crossing_log
               if self._shard_tag and destination._shard != source._shard
               else None)
        arrivals = []
        for size, (_up_start, up_end) in zip(sizes, up_slots):
            send_start = up_end - uplink.serialization_time(size)
            _down_start, down_end = downlink.reserve(
                size, send_start + wire_latency)
            arrivals.append(max(down_end, up_end + wire_latency))
            if log is not None:
                log((EDGE, up_end + wire_latency, up_end, "shard_crossing",
                     destination.node_id, "fabric", None, source.node_id))
        return arrivals

    def unicast_train_one(self, source: Node, destination: Node,
                          size: int, delay: float) -> float:
        """Single-message shape of :meth:`unicast_train` — identical
        float arithmetic and tallies for a train of one (the common
        shape on hash-routed shuffles), without the list machinery."""
        cluster = self.cluster
        if source.cluster is not cluster or destination.cluster is not cluster:
            self._check_nodes(source, destination)
        self.unicast_count += 1
        self.unicast_trains += 1
        if (self._shard_tag and source is not destination
                and destination._shard != source._shard):
            self.env.mailbox_crossings += 1
        now = self.env.now
        if source is destination:
            arrival = (now + delay + self.profile.loopback_latency
                       + size / self.profile.loopback_bandwidth)
            last = self._loopback_last.get(source.node_id, 0.0)
            if arrival < last:
                arrival = last
            self._loopback_last[source.node_id] = arrival
            return arrival
        uplink = source.uplink
        wire_latency = self.profile.wire_latency
        _up_start, up_end = uplink.reserve_train_one(size, now + delay)
        send_start = up_end - uplink.serialization_time(size)
        _down_start, down_end = destination.downlink.reserve(
            size, send_start + wire_latency)
        up_arrival = up_end + wire_latency
        if (self._shard_tag and source is not destination
                and destination._shard != source._shard):
            log = self.env.crossing_log
            if log is not None:
                log((EDGE, up_arrival, up_end, "shard_crossing",
                     destination.node_id, "fabric", None, source.node_id))
        return down_end if down_end > up_arrival else up_arrival

    # -- multicast -----------------------------------------------------------
    def multicast(self, source: Node, members: list[Node], size: int,
                  delay: float = 0.0) -> dict[Node, Timeout | None]:
        """Replicate ``size`` bytes to all ``members`` via the switch.

        Returns a mapping from member node to its arrival event, or ``None``
        if that member's copy was dropped — :meth:`multicast_delays` plus
        one arrival timer per member (filed on the member's lane when the
        kernel is sharded).
        """
        env = self.env
        shard_tag = self._shard_tag
        arrivals: dict[Node, Timeout | None] = {}
        for member, offset in self.multicast_delays(source, members, size,
                                                    delay):
            if shard_tag:
                env._post_shard = member._shard
            arrivals[member] = None if offset is None else env.timeout(offset)
        if shard_tag:
            env._post_shard = -1
        return arrivals

    def multicast_delays(self, source: Node, members: list[Node], size: int,
                         delay: float = 0.0
                         ) -> list[tuple[Node, float | None]]:
        """Reserve the paths of one multicast and return ``(member,
        offset)`` per member, in member order: the offset (ns from now) at
        which the member's copy has arrived, or ``None`` if the fault plane
        or loss injection dropped it — the multicast without arrival
        events, for callers that fold the fan-out into a macro-event of
        their own. The source pays one uplink serialization; each member
        pays its own downlink."""
        if not members:
            raise SimulationError("multicast group must not be empty")
        self._check_nodes(source, *members)
        self.multicast_count += 1
        env = self.env
        now = env.now
        wire_latency = self.profile.wire_latency
        _up_start, up_end = source.uplink.reserve(size, now + delay)
        send_start = up_end - source.uplink.serialization_time(size)
        up_arrival = up_end + wire_latency
        loss_p = self.profile.multicast_loss_probability
        faults = self._faults
        if faults is not None and not faults.active:
            faults = None
        offsets: list[tuple[Node, float | None]] = []
        for member in members:
            if faults is not None and not faults.ud_deliverable(source,
                                                                member):
                # Crashed or partitioned-away member: the datagram never
                # reaches its port (UD has no retransmission).
                self.fault_drops += 1
                offsets.append((member, None))
                continue
            if loss_p > 0.0 and self._loss_rng.random() < loss_p:
                self.multicast_drops += 1
                offsets.append((member, None))
                continue
            if self._shard_tag and member._shard != source._shard:
                env.mailbox_crossings += 1
                log = env.crossing_log
                if log is not None:
                    log((EDGE, up_arrival, up_end, "shard_crossing",
                         member.node_id, "fabric", None, source.node_id))
            if member is source:
                arrival = (now + delay + self.profile.loopback_latency
                           + size / self.profile.loopback_bandwidth)
                arrival = max(arrival,
                              self._loopback_last.get(source.node_id, 0.0))
                self._loopback_last[source.node_id] = arrival
            else:
                _d_start, d_end = member.downlink.reserve(
                    size, send_start + wire_latency)
                arrival = max(d_end, up_arrival)
            offsets.append((member, arrival - now))
        return offsets

    # -- switch-terminated transfers (in-network processing) -----------------
    def to_switch(self, source: Node, size: int,
                  delay: float = 0.0) -> Timeout:
        """Transmit ``size`` bytes from ``source`` into the switch itself
        (for in-network processing such as SHARP aggregation). Costs the
        uplink serialization plus half the wire latency."""
        self._check_nodes(source)
        now = self.env.now
        _start, up_end = source.uplink.reserve(size, now + delay)
        arrival = up_end + self.profile.wire_latency / 2
        return self.env.timeout(arrival - now)

    def from_switch(self, destination: Node, size: int) -> Timeout:
        """Transmit ``size`` bytes from the switch to ``destination``:
        the downlink serialization plus half the wire latency."""
        self._check_nodes(destination)
        env = self.env
        now = env.now
        _start, down_end = destination.downlink.reserve(size, now)
        arrival = down_end + self.profile.wire_latency / 2
        if self._shard_tag:
            env._post_shard = destination._shard
            event = env.timeout(arrival - now)
            env._post_shard = -1
            return event
        return env.timeout(arrival - now)

    def _check_nodes(self, *nodes: Node) -> None:
        for node in nodes:
            if node.cluster is not self.cluster:
                raise SimulationError(
                    f"{node!r} does not belong to this cluster")
