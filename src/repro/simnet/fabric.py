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
        self._loss_rng = derive_rng(cluster.seed, "fabric", "multicast-loss")
        #: Last loopback delivery time per node: loopback transfers keep
        #: FIFO order (a later-posted inline WQE has lower NIC latency and
        #: would otherwise overtake an earlier bulk write). Bounded: one
        #: float per node that ever looped back (≤ node_count entries,
        #: ~100 KB at 1024 nodes) — scale audit, no clearing needed.
        self._loopback_last: dict[int, float] = {}
        #: Unicast messages delivered.
        self.unicast_count = 0
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
        the destination — :meth:`unicast_arrival` plus the arrival timer,
        for a process to yield. Code that only runs a callback at the
        arrival schedules it as a ``schedule_train`` action at
        ``now + (arrival - now)``, the instant this timer fires at.
        """
        env = self.env
        now = env._now
        return env.timeout(self.unicast_arrival(source, destination, size,
                                                now + delay, control) - now)

    def unicast_arrival(self, source: Node, destination: Node, size: int,
                        earliest: float, control: bool = False) -> float:
        """Reserve the path for ``size`` bytes from ``source`` to
        ``destination`` whose first byte may leave at ``earliest`` and
        return the absolute instant the last byte has arrived — the one
        message walk, without an arrival event, for callers that fold
        the arrival into a ``schedule_train`` action of their own (a
        doorbell train calls it once per WQE, in posting order).

        ``control`` marks tiny control messages (footer/credit reads,
        atomics) that interleave with queued bulk traffic instead of
        waiting behind it (see ``Link.reserve_priority``). Loopback
        transfers (same node) bypass the switch and are charged the NIC's
        loopback latency and memory-bus copy, in FIFO order.
        """
        cluster = self.cluster
        if source.cluster is not cluster or destination.cluster is not cluster:
            self._check_nodes(source, destination)
        self.unicast_count += 1
        if source is destination:
            arrival = (earliest + self.profile.loopback_latency
                       + size / self.profile.loopback_bandwidth)
            last = self._loopback_last.get(source.node_id, 0.0)
            if arrival < last:
                arrival = last
            self._loopback_last[source.node_id] = arrival
            return arrival
        uplink = source.uplink
        downlink = destination.downlink
        wire_latency = self.profile.wire_latency
        if control:
            _up_start, up_end = uplink.reserve_priority(size, earliest)
        else:
            _up_start, up_end = uplink.reserve(size, earliest)
        # Cut-through: the downlink starts clocking bytes one wire latency
        # after the first byte left the sender.
        down_earliest = up_end - size / uplink.bandwidth + wire_latency
        if control:
            _down_start, down_end = downlink.reserve_priority(
                size, down_earliest)
        else:
            _down_start, down_end = downlink.reserve(size, down_earliest)
        up_arrival = up_end + wire_latency
        return down_end if down_end > up_arrival else up_arrival

    # -- multicast -----------------------------------------------------------
    def multicast(self, source: Node, members: list[Node], size: int,
                  delay: float = 0.0) -> dict[Node, Timeout | None]:
        """Replicate ``size`` bytes to all ``members`` via the switch.

        Returns a mapping from member node to its arrival event, or ``None``
        if that member's copy was dropped — :meth:`multicast_delays` plus
        one arrival timer per member.
        """
        timeout = self.env.timeout
        return {member: None if offset is None else timeout(offset)
                for member, offset in self.multicast_delays(
                    source, members, size, delay)}

    def multicast_delays(self, source: Node, members: list[Node], size: int,
                         delay: float = 0.0
                         ) -> list[tuple[Node, float | None]]:
        """Reserve the paths of one multicast and return ``(member,
        offset)`` per member, in member order: the offset (ns from now) at
        which the member's copy has arrived, or ``None`` if the fault plane
        or loss injection dropped it — the multicast without arrival
        events, for callers that fold the fan-out into a train of their
        own. The source pays one uplink serialization; each member
        pays its own downlink."""
        if not members:
            raise SimulationError("multicast group must not be empty")
        self._check_nodes(source, *members)
        self.multicast_count += 1
        now = self.env.now
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
    def to_switch(self, source: Node, size: int, fn, arg,
                  delay: float = 0.0) -> None:
        """Transmit ``size`` bytes from ``source`` into the switch itself
        (for in-network processing such as SHARP aggregation) and run
        ``fn(arg)`` when they have arrived. Costs the uplink
        serialization plus half the wire latency."""
        self._check_nodes(source)
        env = self.env
        now = env._now
        _start, up_end = source.uplink.reserve(size, now + delay)
        arrival = up_end + self.profile.wire_latency / 2
        env.schedule_train([(now + (arrival - now), fn, arg)])

    def from_switch(self, destination: Node, size: int, fn, arg) -> None:
        """Transmit ``size`` bytes from the switch to ``destination`` and
        run ``fn(arg)`` when they have arrived: the downlink
        serialization plus half the wire latency."""
        self._check_nodes(destination)
        env = self.env
        now = env._now
        _start, down_end = destination.downlink.reserve(size, now)
        arrival = down_end + self.profile.wire_latency / 2
        env.schedule_train([(now + (arrival - now), fn, arg)])

    def _check_nodes(self, *nodes: Node) -> None:
        for node in nodes:
            if node.cluster is not self.cluster:
                raise SimulationError(
                    f"{node!r} does not belong to this cluster")
