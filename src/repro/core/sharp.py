"""In-network aggregation for combiner flows (SHARP-style).

The paper names this as future work twice (Sections 4.2.3 and 6.1.3):
InfiniBand's SHARP protocol can aggregate inside the switch, so a
combiner flow's aggregate bandwidth is no longer capped by the target's
in-going link. This module implements that extension on the simulator's
switch:

* sources send their segments *to the switch* (uplink serialization plus
  half a wire latency — the packet never traverses the target's
  downlink);
* the switch folds every incoming segment into a running group-by table
  in hardware (no CPU is charged — SHARP is an ASIC feature) and
  periodically emits compact *partial-aggregate* segments to the target;
* the target folds the partials exactly like an end-host combiner folds
  raw tuples: SUM/COUNT partials add, MIN/MAX partials re-minimize.

The ``bench_ablation_sharp`` bench shows the headline effect: aggregated
sender bandwidth beyond the single-link limit of the paper's Fig. 9.
"""

from __future__ import annotations

from collections import deque

from repro.common.errors import FlowClosedError, FlowError
from repro.core.combiner import _aggregator, _initial
from repro.core.flowdef import (
    FLOW_END,
    NO_FLUSH,
    FlowDescriptor,
    FlowType,
)
from repro.core.registry import FlowRegistry
from repro.core.schema import Schema
from repro.core.segment import (
    FLAG_CLOSED,
    FLAG_CONSUMABLE,
    FOOTER_SIZE,
    SegmentRing,
    pack_footer,
)
from repro.core.shuffle import _Doorbell, segment_payload_size
from repro.rdma.nic import get_nic

#: The switch emits a partial-aggregate segment after folding this many
#: incoming segments (and always on flow close).
EMIT_INTERVAL_SEGMENTS = 8


class SwitchAggregator:
    """The switch-resident reduction engine of one combiner flow."""

    def __init__(self, registry: FlowRegistry,
                 descriptor: FlowDescriptor, ring: SegmentRing) -> None:
        spec = descriptor.aggregation
        schema = descriptor.schema
        self.registry = registry
        self.descriptor = descriptor
        self.env = registry.cluster.env
        self.fabric = registry.cluster.fabric
        self.target_node = registry.cluster.node(
            descriptor.targets[0].node_id)
        self._ring = ring
        self._write_index = 0
        self._schema = schema
        #: Partials travel as (group, value) pairs.
        self._partial_schema = Schema(
            ("group", schema.fields[schema.field_index(spec.group_by)].dtype),
            ("value", schema.fields[schema.field_index(spec.value)].dtype))
        self._group_index = schema.field_index(spec.group_by)
        self._value_index = schema.field_index(spec.value)
        self._fold = _aggregator(spec.op)
        self._op = spec.op
        self._table: dict = {}
        self._segments_folded = 0
        self._since_emit = 0
        self._closed_sources = 0
        self._finished = False
        #: Statistics: bytes entering the switch vs. leaving it.
        self.bytes_in = 0
        self.bytes_out = 0
        #: Segments dropped because the target ring overflowed (the
        #: hardware-queue-full condition; 0 in any sane configuration).
        self.overflow_drops = 0

    # -- source-facing side -------------------------------------------------
    def on_segment(self, tuples: list[tuple], closed: bool,
                   wire_bytes: int) -> None:
        """Fold one arrived segment (called at its switch-arrival time)."""
        if self._finished:
            raise FlowError("segment arrived after the flow finished")
        self.bytes_in += wire_bytes
        for values in tuples:
            group = values[self._group_index]
            value = values[self._value_index]
            if group in self._table:
                self._table[group] = self._fold(self._table[group], value)
            else:
                self._table[group] = _initial(self._op, value)
        self._segments_folded += 1
        self._since_emit += 1
        if closed:
            self._closed_sources += 1
        all_closed = self._closed_sources == self.descriptor.source_count
        if all_closed:
            self._finished = True
            self._emit(FLAG_CLOSED)
        elif self._since_emit >= EMIT_INTERVAL_SEGMENTS:
            self._emit(0)

    # -- target-facing side ----------------------------------------------
    def _emit(self, extra_flags: int) -> None:
        """Forward the accumulated partials to the target ring."""
        partials = sorted(self._table.items())
        self._table.clear()
        self._since_emit = 0
        pair_size = self._partial_schema.tuple_size
        per_segment = max(1, self._ring.segment_size // pair_size)
        chunks = ([partials[i:i + per_segment]
                   for i in range(0, len(partials), per_segment)]
                  or [[]])
        for position, chunk in enumerate(chunks):
            last = position == len(chunks) - 1
            flags = FLAG_CONSUMABLE | (extra_flags if last else 0)
            payload = b"".join(self._partial_schema.pack(pair)
                               for pair in chunk)
            self._forward(payload, flags)

    def _forward(self, payload: bytes, flags: int) -> None:
        index = self._write_index
        self._write_index = self._ring.next_index(index)
        wire_bytes = len(payload) + FOOTER_SIZE
        self.bytes_out += wire_bytes
        arrival = self.fabric.from_switch(self.target_node, wire_bytes)

        def commit(_event, index=index, payload=payload, flags=flags):
            if self._ring.read_footer(index).consumable:
                # Hardware queue overflow: the slot was never consumed.
                self.overflow_drops += 1
                raise FlowError(
                    "SHARP target ring overflow — enlarge target_segments "
                    "or consume faster")
            if payload:
                self._ring.region.write(self._ring.payload_offset(index),
                                        payload)
            self._ring.region.write(
                self._ring.footer_offset(index),
                pack_footer(len(payload), flags, 0))

        arrival.callbacks.append(commit)

    @property
    def partial_schema(self) -> Schema:
        return self._partial_schema


class SharpCombinerSource:
    """Source endpoint of an in-network combiner flow: segments are sent
    into the switch instead of to the target's rings."""

    def __init__(self, registry: FlowRegistry, descriptor: FlowDescriptor,
                 source_index: int, aggregator: SwitchAggregator) -> None:
        self.registry = registry
        self.descriptor = descriptor
        self.source_index = source_index
        self.node = registry.cluster.node(
            descriptor.sources[source_index].node_id)
        self.profile = self.node.cluster.profile
        self._nic = get_nic(self.node)
        self._aggregator = aggregator
        self._schema = descriptor.schema
        self._payload_size = segment_payload_size(descriptor)
        self._staging: list[tuple] = []
        self._staged_bytes = 0
        self._cpu_debt = 0.0
        # Per-tuple push constants, fixed for the source's lifetime.
        self._tuple_size = self._schema.tuple_size
        self._tuple_debt = self.profile.cpu_push_cost(self._tuple_size)
        #: A push that leaves ``_staged_bytes`` above this has filled
        #: the segment.
        self._flush_above = self._payload_size - self._tuple_size
        self.closed = False
        self.tuples_sent = 0
        self.segments_sent = 0

    @classmethod
    def open(cls, registry: FlowRegistry, name: str, source_index: int):
        """Generator: open a SHARP combiner source (waits for the target
        to install the switch aggregator)."""
        descriptor = registry.descriptor(name)
        if not 0 <= source_index < descriptor.source_count:
            raise FlowError(
                f"source index {source_index} out of range "
                f"[0, {descriptor.source_count})")
        aggregator = yield from registry.wait_backchannel(name, 0, 0)
        return cls(registry, descriptor, source_index, aggregator)

    def push(self, values: tuple):
        """Push one tuple toward the in-network reduction; returns what
        the caller must ``yield from`` — :data:`NO_FLUSH` while the
        staged segment has room, the flush generator once it is full."""
        if self.closed:
            raise FlowClosedError("push on a closed flow source")
        self._schema.pack(values)  # validates against the schema
        self._staging.append(values)
        self._staged_bytes = staged = self._staged_bytes + self._tuple_size
        self._cpu_debt += self._tuple_debt
        self.tuples_sent += 1
        if staged > self._flush_above:
            return self._flush(False)
        return NO_FLUSH

    def close(self):
        """Generator: flush remaining tuples with the close marker."""
        if self.closed:
            return
        yield from self._flush(True)
        self.closed = True

    def _flush(self, closed: bool):
        debt = self._cpu_debt + self.profile.cpu_post_cost
        self._cpu_debt = 0.0
        yield self.node.compute(debt)
        tuples = self._staging
        wire_bytes = self._staged_bytes + FOOTER_SIZE
        self._staging = []
        self._staged_bytes = 0
        delay = self._nic.engine_delay(inline=False)
        arrival = self.registry.cluster.fabric.to_switch(
            self.node, wire_bytes, delay=delay)
        aggregator = self._aggregator

        def on_arrival(_event, tuples=tuples, closed=closed,
                       wire_bytes=wire_bytes):
            aggregator.on_segment(tuples, closed, wire_bytes)

        arrival.callbacks.append(on_arrival)
        self.segments_sent += 1


class SharpCombinerTarget:
    """Target endpoint: consumes partial aggregates emitted by the
    switch and folds them into the final table."""

    def __init__(self, registry: FlowRegistry, descriptor: FlowDescriptor,
                 ring: SegmentRing, aggregator: SwitchAggregator) -> None:
        self.registry = registry
        self.descriptor = descriptor
        self.node = registry.cluster.node(
            descriptor.targets[0].node_id)
        self._ring = ring
        self._aggregator = aggregator
        self._partial_schema = aggregator.partial_schema
        # Folding *partials* differs from folding tuples: COUNT partials
        # are summed (each already carries a count), SUM partials are
        # summed, MIN/MAX partials are re-minimized/maximized.
        op = descriptor.aggregation.op
        self._fold = ((lambda a, b: a + b) if op in ("sum", "count")
                      else _aggregator(op))
        self._op = op
        self._index = 0
        self._done = False
        self._aggregates: dict = {}
        self._doorbell = _Doorbell(self.node, ring.region)
        self.partial_segments = 0

    @classmethod
    def open(cls, registry: FlowRegistry, name: str):
        """Open the target: allocates the ring, installs the switch
        aggregator, and publishes it for the sources."""
        descriptor = registry.descriptor(name)
        if descriptor.flow_type is not FlowType.COMBINER:
            raise FlowError(f"flow {name!r} is not a combiner flow")
        if not descriptor.options.in_network_aggregation:
            raise FlowError(
                f"flow {name!r} does not enable in-network aggregation")
        node = registry.cluster.node(descriptor.targets[0].node_id)
        ring = SegmentRing.allocate(get_nic(node),
                                    descriptor.options.target_segments,
                                    segment_payload_size(descriptor))
        aggregator = SwitchAggregator(registry, descriptor, ring)
        registry.publish_backchannel(name, 0, 0, aggregator)
        return cls(registry, descriptor, ring, aggregator)

    @property
    def aggregates(self) -> dict:
        return self._aggregates

    def consume_all(self):
        """Generator: drain the flow and return the final aggregates."""
        while not self._done:
            if not self._drain():
                # Resumes one poll cost after the next write into the ring.
                yield self._doorbell.arm(poll=True)
        return self._aggregates

    def _drain(self) -> bool:
        progressed = False
        while True:
            footer = self._ring.read_footer(self._index)
            if not footer.consumable:
                return progressed
            progressed = True
            count = footer.used // self._partial_schema.tuple_size
            if count:
                payload = self._ring.payload_view(self._index, footer.used)
                for group, value in self._partial_schema.unpack_many(
                        payload, count):
                    if group in self._aggregates:
                        self._aggregates[group] = self._fold(
                            self._aggregates[group], value)
                    else:
                        self._aggregates[group] = value
            self.partial_segments += 1
            if footer.closed:
                self._done = True
            offset = self._ring.footer_offset(self._index)
            self._ring.region.mem[offset:offset + FOOTER_SIZE] = (
                pack_footer(0, 0, 0))
            self._index = self._ring.next_index(self._index)

    @property
    def switch_stats(self) -> dict:
        """In/out byte counts of the switch-side reduction."""
        return {"bytes_in": self._aggregator.bytes_in,
                "bytes_out": self._aggregator.bytes_out,
                "reduction": (self._aggregator.bytes_in
                              / max(1, self._aggregator.bytes_out))}
