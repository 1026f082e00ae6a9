"""Congestion of the simulated fabric: bounded egress queues that hold
senders back losslessly.

The ``busy_until`` link model already yields exact FIFO queueing, but the
queues are unbounded and invisible to senders: every flow sees an ideal
pipe, so the classic datacenter pathologies (N:1 incast collapse,
elephants starving mice) never appear. This module closes that gap with
one deterministic mechanism, guarded so that a cluster without an
installed plane executes the exact pre-congestion code paths
(``congestion=None`` keeps every fingerprint metric bit-identical):
each destination downlink (the switch egress port) carries a *virtual
queue* — occupancy that fills per admitted packet and drains at line
rate, computed in closed form (no extra kernel events). A sender whose
message would overflow the configured capacity holds the WQE back just
long enough for the queue to drain room (PFC-style lossless hold-off),
so the level stays bounded by construction. The ``busy_until`` horizon
cannot play this role — it absorbs every posted byte at post time,
hold-offs included.

InfiniBand's link-level flow control is lossless and the fabric runs no
end-host rate controller, so the plane marks nothing: a full queue shows
as hold-off (``pfc_stalls``), as the ``net.queue_depth`` histogram, and
to failure detection as ``congested()`` — a queue at or above ``kmin``.
The plane schedules no kernel events and draws no randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.common.errors import ConfigurationError
from repro.common.planelog import EDGE

if TYPE_CHECKING:
    from repro.simnet.cluster import Cluster
    from repro.simnet.node import Node

_INF = math.inf


@dataclass(frozen=True)
class CongestionConfig:
    """Queue policy of one cluster (``FlowOptions(congestion=...)``).

    The defaults scale a datacenter switch's egress buffer down to the
    simulator's microsecond-scale flows: a handful of 8 KiB segments.
    """

    #: Egress queue bound per link, in bytes. A sender holds a WQE back
    #: until the destination queue has room (lossless PFC-style
    #: hold-off). ``inf`` disables the bound.
    queue_capacity: float = 256 * 1024
    #: Occupancy, in bytes, at or above which the queue into a node counts
    #: as congested: failure detection grants a stalled peer grace while
    #: it does (:func:`stall_is_congestion`).
    kmin: float = 32 * 1024

    def __post_init__(self) -> None:
        if self.queue_capacity <= 0:
            raise ConfigurationError("queue_capacity must be positive")
        if not self.kmin > 0:
            raise ConfigurationError("kmin must be positive")

    @classmethod
    def unbounded(cls) -> "CongestionConfig":
        """A config whose thresholds never trip: the plane's machinery
        runs end to end but adds zero delay and never reports a node
        congested — the neutrality probe used by
        ``fingerprint.py --check-congestion-neutral``."""
        return cls(queue_capacity=_INF, kmin=_INF)

    @classmethod
    def datacenter(cls) -> "CongestionConfig":
        """The scenario-suite config: a grace threshold that an 8:1 incast
        crosses and a queue small enough that 8:1 and wider incasts
        stall."""
        return cls(queue_capacity=192 * 1024, kmin=24 * 1024)


class _LinkQueue:
    """Virtual egress queue of one link: occupancy that fills on each
    admitted packet and drains at line rate, in closed form (no kernel
    events). The ``busy_until`` horizon can't serve as the queue — every
    posted-but-unserialized byte lands on it *at post time*, even bytes a
    PFC hold-off is still keeping at the sender — so the plane tracks
    what the switch egress port would actually hold: bytes whose
    admission time has passed but whose serialization hasn't finished.
    ``admit`` keeps this level ≤ ``queue_capacity`` by construction.

    Also carries the per-link tallies."""

    __slots__ = ("level", "last", "packets", "peak", "pfc_stalls")

    def __init__(self) -> None:
        #: Queue level in bytes at time ``last``.
        self.level = 0.0
        self.last = 0.0
        self.packets = 0
        self.peak = 0.0
        self.pfc_stalls = 0

    def admit(self, t: float, size: int, capacity: float,
              bandwidth: float) -> tuple[float, float]:
        """Admit ``size`` bytes arriving at the port at ``t``. Returns
        ``(holdoff_delay, level_after)``: the PFC hold-off needed to keep
        the queue within ``capacity`` (0.0 when it fits) and the
        occupancy including this packet."""
        level = self.level - (t - self.last) * bandwidth
        if level < 0.0:
            level = 0.0
        delay = 0.0
        if level + size > capacity:
            # Hold the packet at the sender until the queue has drained
            # room for it — lossless PFC back-pressure in closed form.
            delay = (level + size - capacity) / bandwidth
            level = capacity - size
        level += size
        self.level = level
        self.last = t + delay
        if level > self.peak:
            self.peak = level
        return delay, level

    def peek(self, now: float, bandwidth: float) -> float:
        """Occupancy at ``now`` (conservative: a level stamped by a
        hold-off in the near future is reported undrained)."""
        elapsed = now - self.last
        if elapsed <= 0.0:
            return self.level
        level = self.level - elapsed * bandwidth
        return level if level > 0.0 else 0.0


class CongestionPlane:
    """Congestion state of one cluster (``cluster.congestion``).

    Installed via :meth:`repro.simnet.cluster.Cluster.install_congestion`
    (directly, or implicitly by initializing a flow whose
    ``FlowOptions.congestion`` is set). Queue pairs consult the plane per
    posted operation through one attribute lookup that short-circuits on
    ``None`` — an uninstalled plane costs the hot path nothing and keeps
    the event pattern of a build without this module.
    """

    def __init__(self, cluster: "Cluster", config: CongestionConfig) -> None:
        if not isinstance(config, CongestionConfig):
            raise ConfigurationError(
                f"install_congestion needs a CongestionConfig, got "
                f"{type(config).__name__}")
        self.cluster = cluster
        self.env = cluster.env
        self.config = config
        self._links: dict = {}
        # Plane-wide tallies (per-link detail lives in _LinkQueue).
        self.packets_seen = 0
        self.pfc_stalls = 0

    def _link(self, link) -> _LinkQueue:
        queue = self._links.get(link)
        if queue is None:
            queue = self._links[link] = _LinkQueue()
        return queue

    # -- RC hot-path hook (called from rdma.qp) ----------------------------
    def rc_admit(self, qp, size: int) -> float:
        """Admit one RC data WQE to its destination's egress queue and
        return the PFC hold-off (ns from now) that keeps the queue
        bounded. Loopback bypasses the switch: no queue, no hold-off."""
        node = qp.node
        dst = qp.remote_node
        if dst is node:
            return 0.0
        now = self.env.now
        down = dst.downlink
        queue = self._link(down)
        hold, occupancy = queue.admit(now, size, self.config.queue_capacity,
                                      down.bandwidth)
        if hold > 0.0:
            queue.pfc_stalls += 1
            self.pfc_stalls += 1
            obs = node.metrics
            if obs is not None and obs.causal:
                # Charged against the *destination* — hold-off is the hot
                # target's bounded egress queue pushing back, which is
                # what hot-target ranking sums per node.
                obs.log((EDGE, now + hold, now, "congestion_holdoff",
                         dst.node_id, f"qp{qp.qpn}", None, node.node_id))
        queue.packets += 1
        self.packets_seen += 1
        metrics = dst.metrics
        if metrics is not None:
            metrics.observe("net.queue_depth", occupancy)
        return hold

    # -- UD multicast hook -------------------------------------------------
    def ud_sent(self, node: "Node", members, size: int) -> None:
        """Observe one multicast send: each member downlink's virtual
        queue absorbs the datagram (no hold-off — UD is unacknowledged,
        so the bytes are already committed to the wire)."""
        now = self.env.now
        for member in members:
            if member is node:
                continue
            down = member.downlink
            queue = self._link(down)
            _, occupancy = queue.admit(now, size, _INF, down.bandwidth)
            queue.packets += 1
            metrics = member.metrics
            if metrics is not None:
                metrics.observe("net.queue_depth", occupancy)
        self.packets_seen += 1

    # -- failure-detection query (flow layer) ------------------------------
    def congested(self, node: "Node") -> bool:
        """True while the egress queue into ``node`` (its downlink) sits at
        or above ``kmin``. Self-clearing by construction — the queue
        drains at line rate whenever no sender adds to it — so a failure
        deadline granting grace on this query can never hang."""
        down = node.downlink
        queue = self._links.get(down)
        return (queue is not None
                and queue.peek(self.env.now, down.bandwidth)
                >= self.config.kmin)

    # -- observability -----------------------------------------------------
    def stats(self) -> dict:
        """JSON-safe snapshot: plane tallies and per-link queue detail (integer bytes — see ``Link.busy_until_ns``)."""
        now = self.env.now
        links = {}
        for link, queue in self._links.items():
            links[link.name] = {
                "packets": queue.packets,
                "peak_queue_bytes": int(queue.peak),
                "queue_bytes": int(queue.peek(now, link.bandwidth)),
                "horizon_backlog_bytes": link.backlog_bytes(now),
                "pfc_stalls": queue.pfc_stalls,
            }
        return {
            "packets_seen": self.packets_seen,
            "pfc_stalls": self.pfc_stalls,
            "links": links,
        }


def stall_is_congestion(node: "Node",
                        remote: "Node | None" = None) -> bool:
    """Failure-detection helper: is a stall observed at ``node`` plausibly
    congestion rather than peer failure? One rule: the receiving end's
    egress queue sits at or above ``kmin`` (:meth:`CongestionPlane.congested`).
    ``remote`` names the peer a writer sends to, the receiving end;
    ``None`` asks about ``node`` itself, a target waiting on inbound
    traffic. False whenever no plane is installed — the deadline
    semantics of a congestion-free build are untouched."""
    plane = node.cluster.congestion
    if plane is None:
        return False
    return plane.congested(node if remote is None else remote)


# -- default-config hook (fingerprint --check-congestion-neutral) ------------
#: When set, every newly built Cluster installs a congestion plane with
#: this config in its constructor — the harness hook that proves an
#: unbounded config causes zero timeline drift even for clusters built
#: deep inside bench helpers.
_default_config: "CongestionConfig | None" = None


def set_default_config(config: "CongestionConfig | None") -> None:
    """Install ``config`` on every cluster created from now on (``None``
    clears). Intended for harnesses, not applications."""
    global _default_config
    _default_config = config


def _install_default(cluster: "Cluster") -> None:
    if _default_config is not None:
        cluster.install_congestion(_default_config)
