"""Hardware and software calibration profiles.

The constants below anchor the simulator to the paper's evaluation cluster
(Section 6): 8 nodes, Mellanox ConnectX-5 InfiniBand EDR NICs (100 Gbps),
one SB7890 switch. They are deliberately explicit and overridable so that
experiments can model other fabrics.

See DESIGN.md Section 5 for the calibration rationale.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.common.errors import ConfigurationError
from repro.common.units import MICROSECONDS, gbps_to_bytes_per_ns

#: Shard count of a :class:`~repro.simnet.cluster.Cluster` built without
#: ``shards=``: 1, the untagged single-queue kernel. A named constant
#: rather than a literal so one test can rebuild every cluster in a
#: scenario with shard tags and check that no simulated metric moves.
DEFAULT_SHARDS: int = 1


@dataclass(frozen=True)
class HardwareProfile:
    """Physical model of one cluster: links, switch, NIC and CPU costs.

    All times are nanoseconds, all sizes bytes, bandwidths bytes/ns.
    """

    #: Per-port link bandwidth. 100 Gbps EDR = 12.5 GB/s = 11.64 GiB/s.
    link_bandwidth: float = gbps_to_bytes_per_ns(100.0)
    #: One-way propagation + switch forwarding latency per hop pair.
    wire_latency: float = 0.85 * MICROSECONDS
    #: NIC work-request processing *latency* (per WQE, non-inlined).
    nic_processing: float = 150.0
    #: NIC processing latency for inlined sends (payload inside the WQE).
    nic_processing_inline: float = 70.0
    #: NIC pipeline service interval: one WQE enters the pipeline every
    #: this many ns (~40M WQE/s — processing is pipelined, so the rate is
    #: far higher than 1/latency, as on real ConnectX-class NICs).
    nic_wqe_service: float = 25.0
    #: Largest payload that can be inlined into a work request.
    max_inline_size: int = 220
    #: Fixed CPU cost of pushing one tuple into a flow (branching, routing).
    cpu_tuple_overhead: float = 12.0
    #: CPU cost per byte copied into a send buffer (memcpy throughput).
    cpu_copy_per_byte: float = 0.065
    #: CPU cost of polling a local footer / completion queue once.
    cpu_poll_cost: float = 40.0
    #: CPU cost to post one RDMA work request from software.
    cpu_post_cost: float = 60.0
    #: Probability that a multicast (UD) packet is dropped in the fabric.
    multicast_loss_probability: float = 0.0
    #: Latency of a loopback transfer (same-node RDMA through the local NIC).
    loopback_latency: float = 200.0
    #: Effective copy bandwidth for loopback transfers (memory-bus bound,
    #: far above the wire speed).
    loopback_bandwidth: float = gbps_to_bytes_per_ns(400.0)
    #: Per-node CPU frequency scale factors, e.g. ``{3: 0.5}`` makes node 3 a
    #: straggler running at half speed. Nodes default to 1.0.
    cpu_frequency_scale: dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.link_bandwidth <= 0:
            raise ConfigurationError("link_bandwidth must be positive")
        if self.wire_latency < 0:
            raise ConfigurationError("wire_latency must be non-negative")
        if not 0.0 <= self.multicast_loss_probability <= 1.0:
            raise ConfigurationError(
                "multicast_loss_probability must be in [0, 1]")
        for node, scale in self.cpu_frequency_scale.items():
            if scale <= 0:
                raise ConfigurationError(
                    f"cpu frequency scale for node {node} must be positive, "
                    f"got {scale}")

    def cpu_scale(self, node_id: int) -> float:
        """Frequency scale factor for ``node_id`` (1.0 unless overridden)."""
        return self.cpu_frequency_scale.get(node_id, 1.0)

    def cpu_push_cost(self, tuple_size: int) -> float:
        """CPU cost of pushing one ``tuple_size``-byte tuple into a send
        buffer. Sources compute it once per channel; simulated time
        depends on the exact float, so there is one expression for it."""
        return self.cpu_tuple_overhead + tuple_size * self.cpu_copy_per_byte

    def with_straggler(self, node_id: int, scale: float) -> "HardwareProfile":
        """Return a copy of the profile with ``node_id`` slowed to
        ``scale`` times its CPU frequency (paper Fig. 12 setup)."""
        scales = dict(self.cpu_frequency_scale)
        scales[node_id] = scale
        return replace(self, cpu_frequency_scale=scales)

    def with_multicast_loss(self, probability: float) -> "HardwareProfile":
        """Return a copy with multicast loss injection enabled."""
        return replace(self, multicast_loss_probability=probability)


@dataclass(frozen=True)
class MpiProfile:
    """Software cost model for the MPI baseline (HPC-X-like behaviour).

    The constants encode the properties the paper's Experiment 2 measures:
    per-message software overhead with no batching, a process-global latch
    under ``MPI_THREAD_MULTIPLE`` whose contention grows with thread count,
    and shared-memory surcharges for the multi-process alternative.
    """

    #: Software overhead charged per MPI point-to-point message (matching,
    #: envelope handling). Applies to eager and rendezvous alike.
    per_message_overhead: float = 250.0
    #: Messages up to this size use the eager protocol (one copy, no
    #: handshake); larger messages pay a rendezvous round trip.
    eager_threshold: int = 8192
    #: Extra CPU copy cost per byte for eager sends (bounce buffer copy).
    eager_copy_per_byte: float = 0.10
    #: Time the process-global latch is held per MPI call when the runtime
    #: is initialized with ``MPI_THREAD_MULTIPLE``.
    thread_latch_hold: float = 400.0
    #: Additional latch hold per *contending* thread; models the quadratic
    #: collapse seen in the paper's Fig. 10b.
    thread_latch_contention: float = 450.0
    #: Per-byte surcharge for accessing shared data structures across
    #: process boundaries in multi-process mode.
    shm_access_per_byte: float = 0.012
    #: Synchronization overhead of entering one collective operation.
    collective_entry_overhead: float = 3_000.0

    def __post_init__(self) -> None:
        if self.eager_threshold < 0:
            raise ConfigurationError("eager_threshold must be non-negative")
        if self.per_message_overhead < 0:
            raise ConfigurationError(
                "per_message_overhead must be non-negative")


#: Default profile mirroring the paper's cluster.
DEFAULT_HARDWARE = HardwareProfile()
#: Default MPI software model.
DEFAULT_MPI = MpiProfile()
