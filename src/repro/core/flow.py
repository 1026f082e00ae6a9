"""The DFI runtime facade: the public API of the library.

Mirrors the paper's programming model (Figure 1)::

    dfi = DfiRuntime(cluster)
    schema = Schema(("key", "uint64"), ("value", "uint64"))
    dfi.init_shuffle_flow("shuffle", sources=["node0|0"],
                          targets=["node1|0", "node2|0"],
                          schema=schema, shuffle_key="key")

    # inside a source thread (a simulated process):
    source = yield from dfi.open_source("shuffle", 0)
    yield from source.push((7, 40))
    yield from source.close()

    # inside a target thread:
    target = yield from dfi.open_target("shuffle", 0)
    while (item := (yield from target.consume())) is not FLOW_END:
        ...
"""

from __future__ import annotations

from types import GeneratorType
from typing import Callable

from repro.core.combiner import CombinerSource, CombinerTarget
from repro.core.flowdef import (
    AggregationSpec,
    FlowDescriptor,
    FlowOptions,
    FlowType,
    Optimization,
    Ordering,
)
from repro.core.nodes import parse_endpoints
from repro.core.registry import FlowRegistry
from repro.core.replicate import (
    MulticastReplicateSource,
    MulticastReplicateTarget,
    NaiveReplicateSource,
    NaiveReplicateTarget,
)
from repro.core.schema import Schema
from repro.core.sharp import SharpCombinerSource, SharpCombinerTarget
from repro.core.shuffle import ShuffleSource, ShuffleTarget
from repro.simnet.cluster import Cluster

#: The endpoint classes of each transport (``FlowDescriptor.transport``),
#: keyed by the first transport each class serves.
_SOURCES = {cls.transports[0]: cls for cls in (
    ShuffleSource, NaiveReplicateSource, MulticastReplicateSource,
    CombinerSource, SharpCombinerSource)}
_TARGETS = {cls.transports[0]: cls for cls in (
    ShuffleTarget, NaiveReplicateTarget, MulticastReplicateTarget,
    CombinerTarget, SharpCombinerTarget)}


class DfiRuntime:
    """Per-cluster entry point for initializing and opening flows."""

    def __init__(self, cluster: Cluster, registry: FlowRegistry | None = None,
                 master_node_id: int = 0) -> None:
        self.cluster = cluster
        self.registry = registry or FlowRegistry(cluster, master_node_id)

    # -- flow initialization ------------------------------------------------
    def init_flow(self, descriptor: FlowDescriptor) -> FlowDescriptor:
        """Publish a fully specified flow descriptor."""
        return self.registry.initialize_flow(descriptor)

    def init_shuffle_flow(self, name: str, sources, targets, schema: Schema,
                          shuffle_key: "str | int | None" = None,
                          routing: "Callable | None" = None,
                          optimization: Optimization = Optimization.BANDWIDTH,
                          options: FlowOptions = FlowOptions(),
                          ) -> FlowDescriptor:
        """Initialize a shuffle flow (1:1, N:1, 1:N or N:M).

        Routing uses ``shuffle_key`` (hash partitioning) or ``routing`` (an
        application partition function); with neither, pushes must name
        their target explicitly.
        """
        return self.init_flow(FlowDescriptor(
            name=name, flow_type=FlowType.SHUFFLE,
            sources=parse_endpoints(sources),
            targets=parse_endpoints(targets),
            schema=schema, shuffle_key=shuffle_key, routing=routing,
            optimization=optimization, options=options))

    def init_replicate_flow(self, name: str, sources, targets,
                            schema: Schema,
                            optimization: Optimization = Optimization.BANDWIDTH,
                            ordering: Ordering = Ordering.NONE,
                            options: FlowOptions = FlowOptions(),
                            ) -> FlowDescriptor:
        """Initialize a replicate flow (1:N or N:M), optionally with global
        ordering and/or switch multicast (``options.multicast``)."""
        return self.init_flow(FlowDescriptor(
            name=name, flow_type=FlowType.REPLICATE,
            sources=parse_endpoints(sources),
            targets=parse_endpoints(targets),
            schema=schema, optimization=optimization, ordering=ordering,
            options=options))

    def init_combiner_flow(self, name: str, sources, target, schema: Schema,
                           aggregation: AggregationSpec,
                           optimization: Optimization = Optimization.BANDWIDTH,
                           options: FlowOptions = FlowOptions(),
                           ) -> FlowDescriptor:
        """Initialize an N:1 combiner flow with the given aggregation."""
        return self.init_flow(FlowDescriptor(
            name=name, flow_type=FlowType.COMBINER,
            sources=parse_endpoints(sources),
            targets=parse_endpoints([target]),
            schema=schema, aggregation=aggregation,
            optimization=optimization, options=options))

    # -- endpoint opening ----------------------------------------------------
    def open_source(self, name: str, source_index: int):
        """Generator: open source endpoint ``source_index`` of ``name``.

        Blocks (in simulated time) until the matching targets have
        published their receive buffers.
        """
        cls = _SOURCES[self.registry.descriptor(name).transport]
        endpoint = yield from cls.open(self.registry, name, source_index)
        return endpoint

    def open_target(self, name: str, target_index: int = 0):
        """Generator: open target endpoint ``target_index`` of ``name``."""
        cls = _TARGETS[self.registry.descriptor(name).transport]
        endpoint = cls.open(self.registry, name, target_index)
        if endpoint.__class__ is GeneratorType:
            # A multicast target waits for its sources' back-channels.
            endpoint = yield from endpoint
        return endpoint

    # -- introspection -----------------------------------------------------
    def registered_memory_by_node(self) -> dict[int, int]:
        """Bytes of NIC-registered memory per node — the measurement behind
        the paper's Section 6.1.4 memory-consumption discussion."""
        from repro.rdma.nic import get_nic

        return {node.node_id: get_nic(node).registered_bytes()
                for node in self.cluster.nodes}
