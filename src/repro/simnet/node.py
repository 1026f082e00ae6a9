"""Compute-node model: CPU cost accounting plus one full-duplex port."""

from __future__ import annotations

from collections.abc import Generator
from typing import TYPE_CHECKING, Any

from repro.common.rand import derive_rng
from repro.simnet.kernel import Event, Process, Timeout
from repro.simnet.link import Link

if TYPE_CHECKING:
    import random

    from repro.simnet.cluster import Cluster


class Node:
    """One server in the cluster.

    Worker "threads" are simulated processes spawned on the node via
    :meth:`spawn`. CPU work is charged through :meth:`compute`, which scales
    by the node's CPU frequency factor — the mechanism used to model
    stragglers (paper Fig. 12).
    """

    def __init__(self, cluster: "Cluster", node_id: int) -> None:
        self.cluster = cluster
        self.env = cluster.env
        self.node_id = node_id
        self.name = f"node{node_id}"
        bandwidth = cluster.profile.link_bandwidth
        self.uplink = Link(f"{self.name}.up", bandwidth)
        self.downlink = Link(f"{self.name}.down", bandwidth)
        #: Event-kernel shard owning this node's lane (0 when unsharded).
        self._shard = cluster.shard_map[node_id]
        self._cpu_scale = cluster.profile.cpu_scale(node_id)
        self._processes: list[Process] = []
        self._backoff_rng: "random.Random | None" = None
        #: Set by the fault plane's fail-stop injection.
        self.crashed = False
        #: Per-node :class:`repro.obs.MetricsRegistry`, or ``None`` while
        #: observability is disabled (the hot-path guard: endpoints cache
        #: this at construction and skip all instrumentation on ``None``;
        #: otherwise they append records to its ``log``).
        self.metrics = None

    @property
    def cpu_scale(self) -> float:
        """CPU frequency factor (1.0 = nominal, 0.5 = half-speed straggler)."""
        return self._cpu_scale

    @property
    def backoff_rng(self) -> "random.Random":
        """The node's deterministic backoff stream: one stream per node
        (not per channel), mirroring a per-core PRNG — every channel and
        writer on the node draws from it in event order."""
        rng = self._backoff_rng
        if rng is None:
            rng = self._backoff_rng = derive_rng(
                self.cluster.seed, "node-backoff", self.node_id)
        return rng

    def compute(self, ns: float) -> Timeout:
        """Return a timeout charging ``ns`` of nominal CPU work, stretched
        by the node's frequency scale.

        The timeout is pool-recycled once it fires: yield it right away
        (as every call site does) rather than storing it."""
        return self.env.pooled_timeout(ns / self._cpu_scale)

    def spawn(self, generator: Generator[Event, Any, Any],
              name: str | None = None) -> Process:
        """Start a worker-thread process on this node.

        Spawned processes are tracked so a fail-stop crash of the node
        can kill them (processes started via ``env.process`` directly are
        not covered by crash injection)."""
        label = name or f"{self.name}.worker"
        env = self.env
        if env.shard_count > 1:
            # Home the worker's kick-off event on this node's shard lane
            # (spawn may be called from another shard's context, e.g. a
            # coordinator starting workers cluster-wide).
            env._post_shard = self._shard
            try:
                process = env.process(generator, name=label)
            finally:
                env._post_shard = -1
        else:
            process = env.process(generator, name=label)
        if self.crashed:
            process.kill()
            return process
        processes = self._processes
        if len(processes) > 32:
            self._processes = processes = [p for p in processes
                                           if p.is_alive]
        processes.append(process)
        return process

    def fail_stop(self) -> None:
        """Kill every live process spawned on this node (crash injection:
        called by the fault plane at the node's crash time)."""
        self.crashed = True
        processes, self._processes = self._processes, []
        for process in processes:
            process.kill()

    def __repr__(self) -> str:
        return f"<Node {self.name} cpu_scale={self._cpu_scale}>"
