"""Compute-node model: CPU cost accounting plus one full-duplex port."""

from __future__ import annotations

from collections.abc import Generator
from typing import TYPE_CHECKING, Any

from repro.common.errors import SimulationError
from repro.common.rand import derive_rng
from repro.simnet.kernel import Event, Process
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

    def compute(self, ns: float) -> float:
        """Return the delay that charges ``ns`` of nominal CPU work,
        stretched by the node's frequency scale: a ``float`` the calling
        process yields at once (``yield node.compute(ns)``), which the
        kernel turns into a sleep on the process's own wake entry.
        Negative work raises :class:`SimulationError` here."""
        delay = ns / self._cpu_scale
        if delay < 0:
            raise SimulationError(f"negative compute charge: {ns} ns")
        return delay

    def spawn(self, generator: Generator[Event, Any, Any],
              name: str | None = None) -> Process:
        """Start a worker-thread process on this node.

        Spawned processes are tracked so a fail-stop crash of the node
        can kill them (processes started via ``env.process`` directly are
        not covered by crash injection)."""
        process = self.env.process(generator,
                                   name=name or f"{self.name}.worker")
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
