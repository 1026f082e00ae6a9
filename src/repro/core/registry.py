"""The central flow registry (paper Section 3.2).

Flow metadata is published here at initialization — the role the paper
assigns to a master node. Besides descriptor lookup the registry provides
the two rendezvous services flow setup needs:

* *ring publication*: each target allocates its receive rings and publishes
  their remote handles; sources block until the handle for their channel
  appears;
* the *tuple sequencer*: for globally-ordered replicate flows the registry
  hosts a u64 counter in registered memory on the master node, which
  sources bump with RDMA fetch-and-add to stamp segments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.common.errors import FlowError, RegistryError
from repro.core.flowdef import FlowDescriptor, FlowType, Ordering
from repro.rdma.nic import get_nic
from repro.rdma.qp import MulticastGroup
from repro.simnet.cluster import Cluster
from repro.simnet.sync import Signal


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


class FlowRegistry:
    """Central metadata store for all flows of one cluster."""

    def __init__(self, cluster: Cluster, master_node_id: int = 0) -> None:
        self.cluster = cluster
        self.master_node = cluster.node(master_node_id)
        self._flows: dict[str, FlowDescriptor] = {}
        self._rings: dict[tuple[str, int, int], RingHandle] = {}
        self._ring_signals: dict[tuple[str, int, int], Signal] = {}
        self._sequencers: dict[str, SequencerHandle] = {}
        self._mcast_groups: dict[str, MulticastGroup] = {}
        self._backchannel: dict[tuple[str, int, int], Any] = {}
        self._backchannel_signals: dict[tuple[str, int, int], Signal] = {}
        self._ready_targets: dict[str, set[int]] = {}
        self._ready_signals: dict[str, Signal] = {}
        self._aborted: set[str] = set()
        #: Per flow, the ``(node_id, rkey)`` of regions its endpoints
        #: registered outside the published handles.
        self._held: dict[str, list[tuple[int, int]]] = {}

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
        self._flows[descriptor.name] = descriptor
        if descriptor.options.congestion is not None:
            # Congestion policy is a fabric property: the first flow that
            # carries one installs it cluster-wide (idempotent for equal
            # configs, conflicting configs raise in install_congestion).
            self.cluster.install_congestion(descriptor.options.congestion)
        if descriptor.ordering is Ordering.GLOBAL:
            counter_region = get_nic(self.master_node).register_memory(8)
            self._sequencers[descriptor.name] = SequencerHandle(
                node_id=self.master_node.node_id,
                rkey=counter_region.rkey, offset=0)
        if descriptor.options.multicast:
            self._mcast_groups[descriptor.name] = MulticastGroup(
                f"mcast:{descriptor.name}")
        return descriptor

    def descriptor(self, name: str) -> FlowDescriptor:
        """Look up a flow by name."""
        try:
            return self._flows[name]
        except KeyError:
            raise RegistryError(f"unknown flow {name!r}") from None

    def open_endpoint(self, name: str, cls, index: int,
                      side: str = "source"):
        """The check every endpoint ``open`` makes first, before it
        registers memory, publishes or waits: flow ``name`` exists, its
        transport is one ``cls`` serves (``cls.transports``), and
        ``index`` names one of its ``side`` endpoints. Returns
        ``(descriptor, node)``, the node hosting that endpoint."""
        try:
            descriptor = self._flows[name]
        except KeyError:
            raise RegistryError(f"unknown flow {name!r}") from None
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

        descriptor = self.descriptor(name)
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
        self._flows[name] = replace(
            descriptor, targets=(*descriptor.targets, new_endpoint))
        return len(descriptor.targets)

    def mark_flow_aborted(self, name: str) -> None:
        """Record that ``name`` was aborted. Targets opening *after* the
        abort (e.g. one adopted by ``extend_targets`` racing an abort)
        check this flag so they do not wait for ring traffic that will
        never come."""
        self.descriptor(name)  # validates the flow exists
        self._aborted.add(name)

    def flow_aborted(self, name: str) -> bool:
        """True once any endpoint aborted flow ``name``."""
        return name in self._aborted

    def flow_names(self) -> list[str]:
        return sorted(self._flows)

    def release_flow(self, name: str) -> None:
        """Drop every piece of registry state for a closed flow: the
        descriptor, ring/backchannel handles and rendezvous signals,
        readiness tracking, the abort flag, the multicast group, the
        sequencer counter's registered memory on the master NIC, and every
        region behind a handle or :meth:`hold_region`.

        The registry is the one per-cluster store that outlives flows, so
        a long-running cluster cycling many flows (the 256-1024-node
        serving scenarios) must release them or these dicts grow without
        bound — ``tests/test_scale_memory.py`` pins this. Call after all
        endpoints have closed; releasing is idempotent-by-name only in
        the sense that an unknown flow raises (a double release is a
        lifecycle bug worth surfacing). The name becomes reusable."""
        self.descriptor(name)  # validates the flow exists
        del self._flows[name]
        self._aborted.discard(name)
        self._ready_targets.pop(name, None)
        self._ready_signals.pop(name, None)
        self._mcast_groups.pop(name, None)
        sequencer = self._sequencers.pop(name, None)
        if sequencer is not None:
            get_nic(self.cluster.node(sequencer.node_id)).deregister_memory(
                sequencer.rkey)
        # Deregister the target-side ring (and credit) regions behind the
        # published handles — the registry is the only place that still
        # knows them once the endpoints closed. Credit regions are shared
        # by every channel of one target, so dedupe by (node, rkey).
        regions = set(self._held.pop(name, ()))
        for key in [key for key in self._rings if key[0] == name]:
            handle = self._rings.pop(key)
            regions.add((handle.node_id, handle.rkey))
            if handle.credit_rkey is not None:
                regions.add((handle.node_id, handle.credit_rkey))
        for node_id, rkey in sorted(regions):
            get_nic(self.cluster.node(node_id)).deregister_memory(rkey)
        for table in (self._ring_signals, self._backchannel,
                      self._backchannel_signals):
            for key in [key for key in table if key[0] == name]:
                del table[key]

    def hold_region(self, name: str, node_id: int, rkey: int) -> None:
        """Have :meth:`release_flow` deregister a region an endpoint of
        ``name`` registered (a multicast source's control region, a
        multicast target's receive ring): peers write into it until the
        last of them is done, which the owning endpoint cannot see."""
        self._held.setdefault(name, []).append((node_id, rkey))

    # -- ring rendezvous ---------------------------------------------------
    def _ring_signal(self, key: tuple[str, int, int]) -> Signal:
        signal = self._ring_signals.get(key)
        if signal is None:
            signal = Signal(self.cluster.env)
            self._ring_signals[key] = signal
        return signal

    def publish_ring(self, name: str, source_index: int, target_index: int,
                     handle: RingHandle) -> None:
        """Called by a target to announce the ring for one channel."""
        self.descriptor(name)  # validates the flow exists
        key = (name, source_index, target_index)
        if key in self._rings:
            raise RegistryError(f"ring for channel {key} already published")
        self._rings[key] = handle
        self._ring_signal(key).fire(handle)

    def wait_ring(self, name: str, source_index: int, target_index: int):
        """Generator: wait until the channel's ring handle is available."""
        key = (name, source_index, target_index)
        handle = self._rings.get(key)
        if handle is None:
            handle = yield self._ring_signal(key).wait()
        return handle

    def published_ring(self, name: str, source_index: int,
                       target_index: int) -> "RingHandle | None":
        """The channel's ring handle if already published, else ``None``
        (never blocks — used by abort paths that must not wait on targets
        that may never open)."""
        return self._rings.get((name, source_index, target_index))

    # -- generic back-channel rendezvous (replicate credit/NACK paths) ------
    def publish_backchannel(self, name: str, source_index: int,
                            target_index: int, info: Any) -> None:
        """Publish auxiliary per-channel setup info (e.g. the source-side
        credit/NACK region used by multicast replicate flows)."""
        key = (name, source_index, target_index)
        if key in self._backchannel:
            raise RegistryError(f"backchannel for {key} already published")
        self._backchannel[key] = info
        signal = self._backchannel_signals.get(key)
        if signal is None:
            signal = Signal(self.cluster.env)
            self._backchannel_signals[key] = signal
        signal.fire(info)

    def wait_backchannel(self, name: str, source_index: int,
                         target_index: int):
        """Generator: wait for the channel's auxiliary setup info."""
        key = (name, source_index, target_index)
        info = self._backchannel.get(key)
        if info is None:
            signal = self._backchannel_signals.get(key)
            if signal is None:
                signal = Signal(self.cluster.env)
                self._backchannel_signals[key] = signal
            info = yield signal.wait()
        return info

    # -- target readiness (multicast replicate rendezvous) ------------------
    def mark_target_ready(self, name: str, target_index: int) -> None:
        """Called by a target once it joined the multicast group and posted
        its receive requests; sources wait for all targets before sending."""
        descriptor = self.descriptor(name)
        ready = self._ready_targets.setdefault(name, set())
        if target_index in ready:
            raise RegistryError(
                f"target {target_index} of flow {name!r} already ready")
        ready.add(target_index)
        if len(ready) == descriptor.target_count:
            signal = self._ready_signals.get(name)
            if signal is None:
                signal = Signal(self.cluster.env)
                self._ready_signals[name] = signal
            signal.fire()

    def wait_all_targets(self, name: str):
        """Generator: wait until every target of ``name`` reported ready."""
        descriptor = self.descriptor(name)
        ready = self._ready_targets.get(name, set())
        if len(ready) < descriptor.target_count:
            signal = self._ready_signals.get(name)
            if signal is None:
                signal = Signal(self.cluster.env)
                self._ready_signals[name] = signal
            yield signal.wait()
        return None

    # -- sequencer ---------------------------------------------------------
    def sequencer(self, name: str) -> SequencerHandle:
        """Handle of the flow's global sequence counter."""
        try:
            return self._sequencers[name]
        except KeyError:
            raise RegistryError(
                f"flow {name!r} has no sequencer (not globally "
                f"ordered)") from None

    # -- multicast groups ----------------------------------------------------
    def multicast_group(self, name: str) -> MulticastGroup:
        """The flow's hardware multicast group."""
        try:
            return self._mcast_groups[name]
        except KeyError:
            raise RegistryError(
                f"flow {name!r} has no multicast group (replicate flows "
                f"with multicast=True only)") from None
