"""The RDMA-capable NIC (RNIC) model.

One :class:`RNic` per node. It owns registered memory regions and queue
pairs and models the NIC's work-request processing pipeline: WQEs are
serviced sequentially at ``nic_processing`` ns each (``nic_processing_inline``
for inlined payloads), which caps the small-message rate exactly like a real
ConnectX-5 verbs pipeline does. Wire serialization and congestion are
handled by the fabric; the commit of incoming one-sided writes preserves the
increasing-address DMA order DFI's footer protocol depends on.
"""

from __future__ import annotations

from itertools import count
from typing import TYPE_CHECKING

from repro.common.errors import MemoryRegionError, RdmaError
from repro.rdma.completion import CompletionQueue
from repro.rdma.memory import MemoryRegion
from repro.simnet.node import Node

if TYPE_CHECKING:
    from repro.rdma.qp import QueuePair, UdQueuePair


class RNic:
    """RDMA NIC attached to one simulated node."""

    def __init__(self, node: Node) -> None:
        self.node = node
        self.env = node.env
        self.profile = node.cluster.profile
        self._regions: dict[int, MemoryRegion] = {}
        self._rkeys = count(1)
        self._qp_numbers = count(1)
        self._engine_busy_until = 0.0
        #: Work requests processed by the NIC pipeline.
        self.wqes_processed = 0
        #: Payload bytes posted for transmission.
        self.bytes_posted = 0
        #: UD packets dropped because no receive request was posted.
        self.rx_dropped_no_recv = 0
        #: Doorbell trains rung on this NIC (``QueuePair.post_train``
        #: counts every train, whichever way it is then walked).
        self.doorbell_trains = 0
        #: Accumulated WQE arbitration wait: time work requests spent
        #: queued behind earlier WQEs before entering the pipeline.
        self._engine_wait = 0.0

    @property
    def engine_wait_ns(self) -> int:
        """Integer-ns total pipeline arbitration wait (always-on tally,
        truncated at the read like ``Link.busy_until_ns``)."""
        return int(self._engine_wait)

    # -- memory ----------------------------------------------------------
    def register_memory(self, size: int) -> MemoryRegion:
        """Register a new ``size``-byte memory region and return it."""
        rkey = next(self._rkeys)
        region = MemoryRegion(self, rkey, size)
        self._regions[rkey] = region
        return region

    def region(self, rkey: int) -> MemoryRegion:
        """Resolve a remote key to its region (raises on unknown keys)."""
        try:
            return self._regions[rkey]
        except KeyError:
            raise MemoryRegionError(
                f"unknown rkey {rkey} on {self.node.name}") from None

    def deregister_memory(self, rkey: int) -> None:
        """Drop the region behind ``rkey``: subsequent remote accesses
        fail, and the region's buffer becomes collectible once in-flight
        references drain. Long-running clusters that open and close many
        flows (the 256-1024-node serving scenarios) must deregister, or
        the region table grows without bound — see
        ``FlowRegistry.release_flow``. Unknown rkeys raise, so double
        frees surface instead of passing silently."""
        try:
            del self._regions[rkey]
        except KeyError:
            raise MemoryRegionError(
                f"unknown rkey {rkey} on {self.node.name}") from None

    def registered_bytes(self) -> int:
        """Total bytes of registered memory on this NIC."""
        return sum(region.size for region in self._regions.values())

    # -- queue pairs --------------------------------------------------------
    def create_qp(self, remote_node: Node,
                  send_cq: CompletionQueue | None = None,
                  recv_cq: CompletionQueue | None = None) -> "QueuePair":
        """Create a reliable-connection QP targeting ``remote_node``."""
        from repro.rdma.qp import QueuePair

        qpn = next(self._qp_numbers)
        metrics = self.node.metrics
        if send_cq is None:
            send_cq = CompletionQueue(self.env, f"{self.node.name}.scq{qpn}",
                                      metrics=metrics)
        if recv_cq is None:
            recv_cq = CompletionQueue(self.env, f"{self.node.name}.rcq{qpn}",
                                      metrics=metrics)
        return QueuePair(self, qpn, remote_node, send_cq, recv_cq)

    def create_ud_qp(self, recv_cq: CompletionQueue | None = None) -> "UdQueuePair":
        """Create an unreliable-datagram QP (used for multicast)."""
        from repro.rdma.qp import UdQueuePair

        qpn = next(self._qp_numbers)
        if recv_cq is None:
            recv_cq = CompletionQueue(self.env,
                                      f"{self.node.name}.udcq{qpn}",
                                      metrics=self.node.metrics)
        return UdQueuePair(self, qpn, recv_cq)

    # -- WQE pipeline ----------------------------------------------------
    def engine_delay(self, inline: bool) -> float:
        """Reserve a slot on the WQE pipeline; return the offset (ns from
        now) at which this work request's transmission may begin.

        The pipeline admits one WQE per ``nic_wqe_service`` ns (the NIC's
        message-rate limit); each WQE additionally experiences the fixed
        processing *latency* before its data hits the wire.
        """
        latency = (self.profile.nic_processing_inline if inline
                   else self.profile.nic_processing)
        now = self.env._now
        busy = self._engine_busy_until
        start = busy if busy > now else now
        self._engine_busy_until = start + self.profile.nic_wqe_service
        self.wqes_processed += 1
        self._engine_wait += start - now
        return (start - now) + latency

    def engine_delay_train(self, inlines) -> list[float]:
        """Reserve consecutive WQE pipeline slots for a doorbell train.

        One doorbell ring hands the NIC a list of WQEs; arbitration is
        identical to calling :meth:`engine_delay` once per WQE in order
        (same slot times, same counters), returned as the per-WQE
        transmission-start offsets from now.
        """
        now = self.env.now
        busy = self._engine_busy_until
        service = self.profile.nic_wqe_service
        profile = self.profile
        offsets = []
        wait = 0.0
        for inline in inlines:
            latency = (profile.nic_processing_inline if inline
                       else profile.nic_processing)
            start = busy if busy > now else now
            busy = start + service
            wait += start - now
            offsets.append((start - now) + latency)
        self._engine_busy_until = busy
        self.wqes_processed += len(offsets)
        self._engine_wait += wait
        return offsets

    def engine_delay_train_one(self, inline: bool) -> float:
        """Single-WQE shape of :meth:`engine_delay_train` — identical
        arithmetic and counters for trains of one, the common case on
        hash-routed shuffles, without the list machinery."""
        now = self.env.now
        busy = self._engine_busy_until
        start = busy if busy > now else now
        self._engine_busy_until = start + self.profile.nic_wqe_service
        self.wqes_processed += 1
        self._engine_wait += start - now
        return (start - now) + (self.profile.nic_processing_inline
                                if inline else self.profile.nic_processing)

    def __repr__(self) -> str:
        return f"<RNic {self.node.name} regions={len(self._regions)}>"


def get_nic(node: Node) -> RNic:
    """Get (or lazily create) the RNIC of ``node``."""
    nic = getattr(node, "_rnic", None)
    if nic is None:
        nic = RNic(node)
        node._rnic = nic  # type: ignore[attr-defined]
    return nic
