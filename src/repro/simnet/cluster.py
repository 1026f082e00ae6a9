"""Cluster builder: environment + nodes + fabric in one object.

Typical setup::

    cluster = Cluster(node_count=8)
    node = cluster.node(0)
    node.spawn(my_worker(node))
    cluster.run()
"""

from __future__ import annotations

from typing import Any

from repro.common.config import DEFAULT_HARDWARE, HardwareProfile
from repro.common.errors import ConfigurationError
from repro.simnet.fabric import Fabric
from repro.simnet.kernel import Environment, Event
from repro.simnet.node import Node


class Cluster:
    """A simulated cluster of ``node_count`` servers behind one switch,
    whose events run on one :class:`Environment`: a single queue ordered
    by ``(time, sequence)`` (DESIGN.md §8).
    """

    def __init__(self, node_count: int,
                 profile: HardwareProfile = DEFAULT_HARDWARE,
                 seed: int = 0) -> None:
        if node_count < 1:
            raise ConfigurationError("cluster needs at least one node")
        self.env = Environment()
        self.profile = profile
        self.seed = seed
        self.nodes = [Node(self, node_id) for node_id in range(node_count)]
        self.fabric = Fabric(self)
        #: The installed fault plane, if any (see ``repro.simnet.faults``).
        self.faults = None
        #: The observability plane, if enabled (see ``repro.obs``).
        self.obs = None
        #: The congestion plane, if installed (see
        #: ``repro.simnet.congestion``). ``None`` keeps every hot path on
        #: the exact pre-congestion code — bit-identical timelines.
        self.congestion = None
        from repro.simnet.faults import _install_default
        _install_default(self)
        from repro.obs import _install_default as _install_obs_default
        _install_obs_default(self)
        from repro.simnet.congestion import _install_default as _install_cc
        _install_cc(self)

    def install_faults(self, plan, detection_timeout: float | None = None):
        """Install a :class:`~repro.simnet.faults.FaultPlan` on this
        cluster and return the resulting
        :class:`~repro.simnet.faults.FaultPlane`.

        Install before opening flow endpoints (queue pairs consult
        ``cluster.faults`` per posted operation). One plane per cluster;
        an empty plan is a supported no-op (zero simulated overhead)."""
        from repro.simnet.faults import DEFAULT_DETECTION_TIMEOUT, FaultPlane

        if self.faults is not None:
            raise ConfigurationError(
                "a fault plane is already installed on this cluster")
        if detection_timeout is None:
            detection_timeout = DEFAULT_DETECTION_TIMEOUT
        self.faults = FaultPlane(self, plan, detection_timeout)
        self.fabric._faults = self.faults
        return self.faults

    def install_congestion(self, config):
        """Install a :class:`~repro.simnet.congestion.CongestionConfig` on
        this cluster and return the resulting
        :class:`~repro.simnet.congestion.CongestionPlane`.

        Usually implicit: initializing a flow whose
        ``FlowOptions.congestion`` is set installs the config
        cluster-wide. Idempotent for an *equal* config (several flows may
        carry the same policy); a conflicting config raises — one fabric
        has one queueing discipline."""
        from repro.simnet.congestion import CongestionPlane

        if self.congestion is not None:
            if self.congestion.config == config:
                return self.congestion
            raise ConfigurationError(
                "a congestion plane with a different config is already "
                "installed on this cluster")
        self.congestion = CongestionPlane(self, config)
        return self.congestion

    def enable_observability(self, trace: bool = False,
                             trace_capacity: int | None = None,
                             causal: bool = False):
        """Enable the observability plane (see ``repro.obs``) and return
        it. Idempotent; call *before* opening flow endpoints or creating
        queue pairs (they cache ``node.metrics`` at construction).
        ``trace=True`` traces every flow regardless of its
        ``FlowOptions.trace`` knob; ``causal=True`` additionally derives
        causal edges for the critical-path engine (``repro.obs.causal``).
        Enabling never perturbs the simulated timeline: it schedules no
        kernel events and draws no randomness.
        """
        from repro.obs import DEFAULT_TRACE_CAPACITY, ObsPlane

        if self.obs is None:
            if trace_capacity is None:
                trace_capacity = DEFAULT_TRACE_CAPACITY
            self.obs = ObsPlane(self, trace=trace,
                                trace_capacity=trace_capacity,
                                causal=causal)
            for node in self.nodes:
                node.metrics = self.obs.registry(node.node_id)
        else:
            if trace:
                self.obs.trace_all = True
            if causal:
                self.obs.enable_causal()
        return self.obs

    def metrics_snapshot(self) -> dict:
        """One dict of everything measurable about this cluster: per-node
        registries (empty unless :meth:`enable_observability` was called)
        plus the always-on infrastructure tallies of the NICs, links and
        fabric. Render with :func:`repro.obs.render_report`."""
        nics = {}
        for node in self.nodes:
            nic = getattr(node, "_rnic", None)
            if nic is not None:
                nics[node.node_id] = {
                    "wqes_processed": nic.wqes_processed,
                    "bytes_posted": nic.bytes_posted,
                    "doorbell_trains": nic.doorbell_trains,
                    "rx_dropped_no_recv": nic.rx_dropped_no_recv,
                    "engine_wait_ns": nic.engine_wait_ns,
                }
        links = {}
        for node in self.nodes:
            for link in (node.uplink, node.downlink):
                links[link.name] = {
                    "bytes_carried": link.bytes_carried,
                    "messages_carried": link.messages_carried,
                    "busy_until_ns": link.busy_until_ns,
                    "hol_wait_ns": link.hol_wait_ns,
                }
        snapshot = {
            "nodes": self.obs.snapshot() if self.obs is not None else {},
            "nics": nics,
            "links": links,
            "kernel": {"events_executed": self.env.events_executed},
            "fabric": {
                "unicast_count": self.fabric.unicast_count,
                "multicast_count": self.fabric.multicast_count,
                "multicast_drops": self.fabric.multicast_drops,
                "fault_drops": self.fabric.fault_drops,
            },
        }
        if self.congestion is not None:
            snapshot["congestion"] = self.congestion.stats()
        if self.obs is not None:
            if self.obs.tracers:
                snapshot["trace_rings"] = {
                    tracer.flow: tracer.stats()
                    for tracer in self.obs.tracers.values()
                }
            recorder = self.obs.causal
            if recorder is not None:
                snapshot["causal"] = {
                    "edges": sum(len(ring.items) + ring.lost
                                 for ring in recorder.logs.values()),
                    "flows_closed": len(recorder.closes),
                    "dropped": recorder.dropped(),
                }
        return snapshot

    @classmethod
    def racked(cls, racks: int, nodes_per_rack: int,
               profile: HardwareProfile = DEFAULT_HARDWARE,
               seed: int = 0) -> "Cluster":
        """Build a ``racks × nodes_per_rack`` cluster — the topology
        helper for 256-1024-node scenarios.

        Node ids are assigned rack-major: rack ``r`` owns nodes
        ``r*nodes_per_rack .. (r+1)*nodes_per_rack - 1``, so a flow
        placed on one rack's nodes uses a contiguous id range. Every
        rack hangs off the same switch, and the cluster is the flat
        ``Cluster(racks * nodes_per_rack)`` plus ``nodes_per_rack``."""
        if racks < 1 or nodes_per_rack < 1:
            raise ConfigurationError(
                "racked() needs racks >= 1 and nodes_per_rack >= 1")
        cluster = cls(racks * nodes_per_rack, profile=profile, seed=seed)
        cluster.nodes_per_rack = nodes_per_rack
        return cluster

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def node(self, node_id: int) -> Node:
        """Return the node with the given id (raises on bad id)."""
        if not 0 <= node_id < len(self.nodes):
            raise ConfigurationError(
                f"node id {node_id} out of range [0, {len(self.nodes)})")
        return self.nodes[node_id]

    def run(self, until: float | Event | None = None) -> Any:
        """Run the simulation (delegates to the kernel)."""
        return self.env.run(until)

    @property
    def now(self) -> float:
        """Current simulated time in nanoseconds."""
        return self.env.now

    def total_bytes_sent(self) -> int:
        """Sum of payload bytes scheduled on all node uplinks."""
        return sum(node.uplink.bytes_carried for node in self.nodes)

    def total_bytes_received(self) -> int:
        """Sum of payload bytes scheduled on all node downlinks."""
        return sum(node.downlink.bytes_carried for node in self.nodes)

    def __repr__(self) -> str:
        return f"<Cluster nodes={len(self.nodes)} t={self.env.now:.0f}ns>"
