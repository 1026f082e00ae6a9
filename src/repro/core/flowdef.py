"""Flow definitions: types, options and descriptors (paper Table 1)."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.common.errors import ConfigurationError, FlowError
from repro.core.nodes import Endpoint
from repro.core.schema import Schema
from repro.core.segment import FOOTER_SIZE
from repro.rdma.qp import UD_MTU


#: Largest segment payload one UD multicast datagram carries.
MULTICAST_PAYLOAD_LIMIT = UD_MTU - FOOTER_SIZE


class FlowType(enum.Enum):
    """The three DFI flow types."""

    SHUFFLE = "shuffle"
    REPLICATE = "replicate"
    COMBINER = "combiner"


class Optimization(enum.Enum):
    """Declarative optimization goal of a flow (bandwidth vs. latency)."""

    BANDWIDTH = "bandwidth"
    LATENCY = "latency"


class Ordering(enum.Enum):
    """Ordering guarantee for replicate flows."""

    NONE = "none"
    #: Globally-ordered delivery via the tuple sequencer (OUM semantics).
    GLOBAL = "global"


@dataclass(frozen=True)
class FlowOptions:
    """Tuning knobs of a flow.

    Defaults reproduce the paper's configuration: 8 KiB segments, 32
    segments per ring on both sides (which yields exactly the memory
    footprint reported in Section 6.1.4).
    """

    #: Payload bytes per segment (bandwidth-optimized flows batch tuples
    #: up to this size; latency-optimized flows size segments per tuple).
    segment_size: int = 8192
    #: Segments in each target-side receive ring.
    target_segments: int = 32
    #: Segments in each source-side send ring.
    source_segments: int = 32
    #: Latency flows: refresh the cached remote credit when the local
    #: credit estimate drops to this many segments.
    credit_threshold: int = 8
    #: Replicate flows: replicate in the switch via RDMA multicast instead
    #: of one one-sided write per target.
    multicast: bool = False
    #: Replicate flows: timeout (ns) before a missing segment is NACKed.
    retransmit_timeout: float = 50_000.0
    #: Replicate flows: surface gaps to the application instead of
    #: transparently retransmitting (used by NOPaxos' gap agreement).
    gap_notify: bool = False
    #: Segments a replicate source retains for retransmission.
    retransmit_buffer: int = 4096
    #: Bandwidth flows: pre-read the *next* remote footer together with
    #: each write (paper Section 5.2). Disabling moves the writability
    #: check onto the critical path — kept as an ablation knob.
    pipelined_footer_read: bool = True
    #: Combiner flows: reduce inside the switch (SHARP-style) instead of
    #: at the target — the future-work extension of paper Sections 4.2.3
    #: and 6.1.3, lifting the target-in-link bandwidth cap of Fig. 9.
    in_network_aggregation: bool = False
    #: Failure detection bound (ns): a push or consume that makes no
    #: progress for this long consults the fault plane and raises
    #: :class:`~repro.common.errors.FlowPeerFailedError` (peer known dead)
    #: or :class:`~repro.common.errors.FlowTimeoutError`. ``None`` (the
    #: default) waits forever — the pre-fault-plane behaviour.
    peer_timeout: "float | None" = None
    #: Ring-full backoff rounds before a writer gives up with
    #: :class:`~repro.common.errors.FlowTimeoutError`. ``None`` retries
    #: forever.
    max_backoff_retries: "int | None" = None
    #: Multicast replicate: consecutive credit-stalled retransmission
    #: rounds tolerated before the stalled target counts as failed.
    #: ``None`` retries forever.
    max_retransmits: "int | None" = None
    #: Shuffle sources, when a target fails mid-flow: ``"abort"`` tears
    #: the whole flow down (surviving targets see an abort marker, the
    #: push raises FlowPeerFailedError); ``"reroute"`` re-hashes the
    #: failed target's share onto the survivors (requires a hash/routing
    #: key — round-robin and key-routed flows only).
    on_target_failure: str = "abort"
    #: Event tracing for this flow (see ``repro.obs``): ``None``/``False``
    #: off, ``True`` on with the default ring capacity, an ``int`` on
    #: with that many retained events. Opening a traced endpoint enables
    #: the cluster's observability plane if it is not already on; tracing
    #: never perturbs the simulated timeline.
    trace: "bool | int | None" = None
    #: Fabric congestion policy (see
    #: :class:`~repro.simnet.congestion.CongestionConfig`): bounded egress
    #: queues, ECN marking, and DCQCN-flavoured rate control. Initializing
    #: a flow with this set installs the policy cluster-wide (one fabric,
    #: one queueing discipline — a different config on a second flow
    #: raises). ``None`` (the default) keeps the ideal-pipe fabric with a
    #: bit-identical timeline.
    congestion: "object | None" = None

    def __post_init__(self) -> None:
        if self.segment_size <= 0:
            raise ConfigurationError("segment_size must be positive")
        if self.target_segments < 2 or self.source_segments < 2:
            raise ConfigurationError("rings need at least 2 segments")
        if not 0 < self.credit_threshold <= self.target_segments:
            raise ConfigurationError(
                "credit_threshold must be in (0, target_segments]")
        if self.retransmit_timeout <= 0:
            raise ConfigurationError("retransmit_timeout must be positive")
        if self.multicast and self.retransmit_buffer < self.target_segments:
            # A NACK may name any segment of the open credit window: the
            # source must still hold every segment it is not credited for.
            raise ConfigurationError(
                "multicast flows need retransmit_buffer >= target_segments")
        if self.peer_timeout is not None and self.peer_timeout <= 0:
            raise ConfigurationError("peer_timeout must be positive")
        if (self.max_backoff_retries is not None
                and self.max_backoff_retries < 1):
            raise ConfigurationError("max_backoff_retries must be >= 1")
        if self.max_retransmits is not None and self.max_retransmits < 1:
            raise ConfigurationError("max_retransmits must be >= 1")
        if self.on_target_failure not in ("abort", "reroute"):
            raise ConfigurationError(
                "on_target_failure must be 'abort' or 'reroute'")
        if (self.trace is not None and not isinstance(self.trace, bool)
                and (not isinstance(self.trace, int) or self.trace < 1)):
            raise ConfigurationError(
                "trace must be None, a bool, or a positive ring capacity")
        if self.congestion is not None:
            from repro.simnet.congestion import CongestionConfig
            if not isinstance(self.congestion, CongestionConfig):
                raise ConfigurationError(
                    "congestion must be None or a CongestionConfig")


@dataclass(frozen=True)
class AggregationSpec:
    """Combiner-flow aggregation: ``op`` over ``value`` grouped by
    ``group_by`` (both schema field references)."""

    op: str
    group_by: "str | int"
    value: "str | int"

    _OPS = ("sum", "count", "min", "max")

    def __post_init__(self) -> None:
        if self.op not in self._OPS:
            raise ConfigurationError(
                f"unknown aggregation op {self.op!r}; supported: {self._OPS}")


@dataclass(frozen=True)
class FlowDescriptor:
    """Published metadata of an initialized flow."""

    name: str
    flow_type: FlowType
    sources: tuple[Endpoint, ...]
    targets: tuple[Endpoint, ...]
    schema: Schema
    optimization: Optimization = Optimization.BANDWIDTH
    ordering: Ordering = Ordering.NONE
    shuffle_key: "str | int | None" = None
    routing: "Callable[[tuple, int], int] | None" = None
    aggregation: "AggregationSpec | None" = None
    options: FlowOptions = field(default_factory=FlowOptions)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("flow name must not be empty")
        if not self.sources or not self.targets:
            raise ConfigurationError(
                f"flow {self.name!r} needs at least one source and one "
                f"target")
        if self.flow_type is FlowType.COMBINER and len(self.targets) != 1:
            raise ConfigurationError(
                "combiner flows are N:1 — exactly one target required")
        if self.flow_type is FlowType.COMBINER and self.aggregation is None:
            raise ConfigurationError(
                "combiner flows require an AggregationSpec")
        if self.flow_type is not FlowType.COMBINER and self.aggregation:
            raise ConfigurationError(
                "aggregation is only valid on combiner flows")
        if self.ordering is Ordering.GLOBAL:
            if self.flow_type is not FlowType.REPLICATE:
                raise ConfigurationError(
                    "global ordering is only available on replicate flows")
        if self.flow_type is FlowType.REPLICATE:
            if self.shuffle_key is not None or self.routing is not None:
                raise ConfigurationError(
                    "replicate flows deliver to all targets; routing/key "
                    "make no sense")
            if (self.options.multicast
                    and self.schema.tuple_size > MULTICAST_PAYLOAD_LIMIT):
                raise ConfigurationError(
                    f"tuple size {self.schema.tuple_size} exceeds the UD "
                    f"multicast payload limit ({MULTICAST_PAYLOAD_LIMIT} B)")

    @property
    def source_count(self) -> int:
        return len(self.sources)

    @property
    def target_count(self) -> int:
        return len(self.targets)

    @property
    def topology(self) -> str:
        """Human-readable topology tag, e.g. ``'N:M'`` or ``'1:1'``."""
        n = "1" if len(self.sources) == 1 else "N"
        m = "1" if len(self.targets) == 1 else ("N" if n == "1" else "M")
        return f"{n}:{m}"

    def latency_segment_size(self) -> int:
        """Per-segment payload for latency-optimized execution: exactly one
        tuple per segment (paper Section 5.3)."""
        return self.schema.tuple_size


#: Sentinel returned by ``consume`` once a flow has fully drained.
class _FlowEnd:
    __slots__ = ()

    def __repr__(self) -> str:
        return "FLOW_END"

    def __bool__(self) -> bool:
        return False


FLOW_END = _FlowEnd()

#: What a per-tuple ``push`` returns when the tuple was staged and there
#: is nothing to wait for: one shared empty iterable, so ``yield from
#: source.push(values)`` enters no generator frame. A push that has to
#: flush returns the flush generator instead.
NO_FLUSH: tuple = ()


class GapNotification:
    """Returned by replicate targets in ``gap_notify`` mode when a sequence
    gap timed out: the application decides how to recover (NOPaxos' gap
    agreement protocol does exactly this).

    ``source_index`` identifies the sending source for unordered flows;
    globally-ordered flows use a shared sequence space, so it is ``None``.
    """

    __slots__ = ("missing_seq", "source_index")

    def __init__(self, missing_seq: int,
                 source_index: "int | None" = None) -> None:
        self.missing_seq = missing_seq
        self.source_index = source_index

    def __repr__(self) -> str:
        return (f"GapNotification(seq={self.missing_seq}, "
                f"source={self.source_index})")

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, GapNotification)
                and other.missing_seq == self.missing_seq
                and other.source_index == self.source_index)

    def __hash__(self) -> int:
        return hash(("gap", self.missing_seq, self.source_index))
