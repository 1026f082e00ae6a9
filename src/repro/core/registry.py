"""The central flow registry (paper Section 3.2).

Flow metadata is published here at initialization — the role the paper
assigns to a master node. The registry keeps one record per flow, which
:meth:`FlowRegistry.release_flow` drops as a whole:

* the *board*: endpoints publish their setup values under a key — a
  target its receive ring per channel, a multicast source its control
  region, a SHARP target its switch aggregator, a multicast target that
  it joined the group — and peers wait until the key appears;
* the regions peers write into, held by the endpoint that registered
  them and deregistered at release;
* the *tuple sequencer*: for globally-ordered replicate flows the registry
  hosts a u64 counter in registered memory on the master node, which
  sources bump with RDMA fetch-and-add to stamp segments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.common.errors import FlowError, RegistryError
from repro.core.flowdef import FlowDescriptor, FlowType, Ordering
from repro.rdma.nic import get_nic
from repro.rdma.qp import MulticastGroup
from repro.simnet.cluster import Cluster
from repro.simnet.kernel import PARK, Event


@dataclass(frozen=True)
class RingHandle:
    """Remote handle of a target-side ring published for one channel."""

    node_id: int
    rkey: int
    segment_count: int
    segment_size: int
    #: rkey of the auxiliary region (credit counters), if the flow uses one.
    credit_rkey: int | None = None
    #: byte offset of this channel's credit counter inside the credit region.
    credit_offset: int = 0


@dataclass(frozen=True)
class SequencerHandle:
    """Remote handle of a flow's global sequence counter."""

    node_id: int
    rkey: int
    offset: int


@dataclass(eq=False)
class _Flow:
    """Everything the registry keeps for one flow."""

    descriptor: FlowDescriptor
    #: Published setup values by key (:meth:`FlowRegistry.publish`).
    board: dict = field(default_factory=dict)
    #: Per key not published yet, the event its waiters block on.
    waiting: dict = field(default_factory=dict)
    #: ``(node_id, rkey)`` of every region :meth:`FlowRegistry.release_flow`
    #: deregisters (:meth:`FlowRegistry.hold_region`).
    regions: list = field(default_factory=list)
    sequencer: SequencerHandle | None = None
    group: MulticastGroup | None = None
    aborted: bool = False


class FlowRegistry:
    """Central metadata store for all flows of one cluster."""

    def __init__(self, cluster: Cluster, master_node_id: int = 0) -> None:
        self.cluster = cluster
        self.master_node = cluster.node(master_node_id)
        self._flows: dict[str, _Flow] = {}

    def _flow(self, name: str) -> _Flow:
        try:
            return self._flows[name]
        except KeyError:
            raise RegistryError(f"unknown flow {name!r}") from None

    # -- flow lifecycle -----------------------------------------------------
    def initialize_flow(self, descriptor: FlowDescriptor) -> FlowDescriptor:
        """Publish a new flow. Names are unique."""
        if descriptor.name in self._flows:
            raise RegistryError(f"flow {descriptor.name!r} already exists")
        for endpoint in (*descriptor.sources, *descriptor.targets):
            if endpoint.node_id >= self.cluster.node_count:
                raise RegistryError(
                    f"endpoint {endpoint} references node "
                    f"{endpoint.node_id}, but the cluster has only "
                    f"{self.cluster.node_count} nodes")
        flow = self._flows[descriptor.name] = _Flow(descriptor)
        if descriptor.options.congestion is not None:
            # Congestion policy is a fabric property: the first flow that
            # carries one installs it cluster-wide (idempotent for equal
            # configs, conflicting configs raise in install_congestion).
            self.cluster.install_congestion(descriptor.options.congestion)
        if descriptor.ordering is Ordering.GLOBAL:
            counter_region = get_nic(self.master_node).register_memory(8)
            flow.sequencer = SequencerHandle(
                node_id=self.master_node.node_id,
                rkey=counter_region.rkey, offset=0)
            flow.regions.append((self.master_node.node_id,
                                 counter_region.rkey))
        if descriptor.options.multicast:
            flow.group = MulticastGroup(f"mcast:{descriptor.name}")
        return descriptor

    def descriptor(self, name: str) -> FlowDescriptor:
        """Look up a flow by name."""
        return self._flow(name).descriptor

    def open_endpoint(self, name: str, cls, index: int,
                      side: str = "source"):
        """The check every endpoint ``open`` makes first, before it
        registers memory, publishes or waits: flow ``name`` exists, its
        transport is one ``cls`` serves (``cls.transports``), and
        ``index`` names one of its ``side`` endpoints. Returns
        ``(descriptor, node)``, the node hosting that endpoint."""
        descriptor = self._flow(name).descriptor
        transport = descriptor.transport
        if transport not in cls.transports:
            article = "an" if transport[0] in "aeiou" else "a"
            raise FlowError(
                f"flow {name!r} is {article} {transport} flow, not "
                f"{cls.transports[0]} ({cls.__name__})")
        endpoints = (descriptor.sources if side == "source"
                     else descriptor.targets)
        if not 0 <= index < len(endpoints):
            raise FlowError(f"{side} index {index} out of range "
                            f"[0, {len(endpoints)})")
        return descriptor, self.cluster.node(endpoints[index].node_id)

    def extend_targets(self, name: str, endpoint) -> int:
        """Elasticity (paper Section 7 future work): append a new target
        endpoint to a running shuffle flow. Returns the new target index.

        The new target opens with :meth:`ShuffleTarget.open` as usual;
        existing sources start routing to it after calling
        ``adopt_new_targets()``. Key-hash routing re-partitions the key
        space over the grown target set, so applications that need a
        stable partitioning must quiesce the flow first.
        """
        from dataclasses import replace
        from repro.core.nodes import Endpoint

        flow = self._flow(name)
        descriptor = flow.descriptor
        if descriptor.flow_type is not FlowType.SHUFFLE:
            raise RegistryError(
                "runtime target extension is supported for shuffle flows")
        new_endpoint = Endpoint.parse(endpoint)
        if new_endpoint in descriptor.targets:
            raise RegistryError(
                f"{new_endpoint} is already a target of {name!r}")
        if new_endpoint.node_id >= self.cluster.node_count:
            raise RegistryError(
                f"endpoint {new_endpoint} outside the cluster")
        flow.descriptor = replace(
            descriptor, targets=(*descriptor.targets, new_endpoint))
        return len(descriptor.targets)

    def mark_flow_aborted(self, name: str) -> None:
        """Record that ``name`` was aborted. Targets opening *after* the
        abort (e.g. one adopted by ``extend_targets`` racing an abort)
        check this flag so they do not wait for ring traffic that will
        never come."""
        self._flow(name).aborted = True

    def flow_aborted(self, name: str) -> bool:
        """True once any endpoint aborted flow ``name``."""
        flow = self._flows.get(name)
        return flow is not None and flow.aborted

    def flow_names(self) -> list[str]:
        return sorted(self._flows)

    def release_flow(self, name: str) -> None:
        """Drop the flow's record — descriptor, board, abort flag,
        multicast group, sequencer — and deregister every region held for
        it (:meth:`hold_region`).

        The registry is the one per-cluster store that outlives flows, so
        a long-running cluster cycling many flows (the 256-1024-node
        serving scenarios) must release them or the records and their
        regions grow without bound — ``tests/test_scale_memory.py`` pins
        this. Call after all endpoints have closed; an unknown flow
        raises (a double release is a lifecycle bug worth surfacing). The
        name becomes reusable."""
        flow = self._flow(name)
        del self._flows[name]
        for node_id, rkey in flow.regions:
            get_nic(self.cluster.node(node_id)).deregister_memory(rkey)

    def hold_region(self, name: str, node_id: int, rkey: int) -> None:
        """Have :meth:`release_flow` deregister a region an endpoint of
        ``name`` registered for peers to write into — a target's rings
        and credit region, the SHARP switch's ring, a multicast flow's
        source control regions and target receive rings: peers write until
        the last of them is done, which the owning endpoint cannot see."""
        self._flow(name).regions.append((node_id, rkey))

    # -- the board: publish once, wait until published ---------------------
    def publish(self, name: str, key, value: Any) -> None:
        """Publish ``value`` under ``key`` of flow ``name`` and wake its
        waiters. The keys are ``("ring", source, target)``,
        ``("control", source, target)``, ``"aggregator"`` and
        ``("joined", target)``; each is published once."""
        flow = self._flow(name)
        if key in flow.board:
            raise RegistryError(
                f"{key!r} of flow {name!r} already published")
        flow.board[key] = value
        event = flow.waiting.pop(key, None)
        if event is not None:
            event.succeed(value)

    def wait(self, name: str, key):
        """Generator: the value published under ``key`` of flow ``name``
        — at once, yielding nothing, if it is already there (a process
        running ahead of the clock parks first)."""
        if self.cluster.env._ahead is not None:
            yield PARK
        flow = self._flow(name)
        if key in flow.board:
            return flow.board[key]
        event = flow.waiting.get(key)
        if event is None:
            event = flow.waiting[key] = Event(self.cluster.env)
        return (yield event)

    def published(self, name: str, key) -> Any:
        """The value under ``key`` if already published, else ``None``
        (never blocks — used by abort paths that must not wait on targets
        that may never open)."""
        return self._flow(name).board.get(key)

    # -- sequencer ---------------------------------------------------------
    def sequencer(self, name: str) -> SequencerHandle:
        """Handle of the flow's global sequence counter."""
        handle = self._flow(name).sequencer
        if handle is None:
            raise RegistryError(
                f"flow {name!r} has no sequencer (not globally ordered)")
        return handle

    # -- multicast groups ----------------------------------------------------
    def multicast_group(self, name: str) -> MulticastGroup:
        """The flow's hardware multicast group."""
        group = self._flow(name).group
        if group is None:
            raise RegistryError(
                f"flow {name!r} has no multicast group (replicate flows "
                f"with multicast=True only)")
        return group
