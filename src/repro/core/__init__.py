"""DFI core: the paper's primary contribution — flow-based communication."""

from repro.core.combiner import CombinerSource, CombinerTarget
from repro.core.flow import DfiRuntime
from repro.core.flowdef import (
    FLOW_END,
    NO_FLUSH,
    AggregationSpec,
    FlowDescriptor,
    FlowOptions,
    FlowType,
    GapNotification,
    Optimization,
    Ordering,
)
from repro.core.nodes import Endpoint, endpoints_on, parse_endpoints
from repro.core.ordering import ReorderBuffer
from repro.core.registry import FlowRegistry, RingHandle, SequencerHandle
from repro.core.replicate import (
    MulticastReplicateSource,
    MulticastReplicateTarget,
    NaiveReplicateSource,
    NaiveReplicateTarget,
    ReplicateSource,
    ReplicateTarget,
    SeqTracker,
)
from repro.core.routing import (
    key_hash_router,
    radix_router,
    range_router,
    round_robin_router,
)
from repro.core.schema import Field, Schema
from repro.core.sharp import (
    SharpCombinerSource,
    SharpCombinerTarget,
    SwitchAggregator,
)
from repro.core.segment import FLAG_CLOSED, FLAG_CONSUMABLE, FOOTER_SIZE, SegmentRing
from repro.core.shuffle import ShuffleSource, ShuffleTarget
from repro.core.types import (
    CHAR,
    DOUBLE,
    FLOAT,
    INT8,
    INT16,
    INT32,
    INT64,
    UINT8,
    UINT16,
    UINT32,
    UINT64,
    DataType,
    fixed_bytes,
)

__all__ = [
    "DfiRuntime",
    "FlowRegistry",
    "FlowDescriptor",
    "FlowOptions",
    "FlowType",
    "Optimization",
    "Ordering",
    "AggregationSpec",
    "FLOW_END",
    "NO_FLUSH",
    "GapNotification",
    "Schema",
    "Field",
    "DataType",
    "fixed_bytes",
    "INT8", "UINT8", "INT16", "UINT16", "INT32", "UINT32",
    "INT64", "UINT64", "FLOAT", "DOUBLE", "CHAR",
    "Endpoint",
    "parse_endpoints",
    "endpoints_on",
    "ShuffleSource",
    "ShuffleTarget",
    "ReplicateSource",
    "ReplicateTarget",
    "NaiveReplicateSource",
    "NaiveReplicateTarget",
    "MulticastReplicateSource",
    "MulticastReplicateTarget",
    "CombinerSource",
    "CombinerTarget",
    "SharpCombinerSource",
    "SharpCombinerTarget",
    "SwitchAggregator",
    "SeqTracker",
    "ReorderBuffer",
    "RingHandle",
    "SequencerHandle",
    "SegmentRing",
    "FOOTER_SIZE",
    "FLAG_CONSUMABLE",
    "FLAG_CLOSED",
    "key_hash_router",
    "radix_router",
    "range_router",
    "round_robin_router",
]
