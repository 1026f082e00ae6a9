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
* the target is an end-host combiner target reading the switch's one
  ring instead of a ring per source, folding partials instead of raw
  tuples: SUM/COUNT partials add, MIN/MAX partials re-minimize.

``benchmarks/test_ablation_sharp.py`` shows the headline effect:
aggregated sender bandwidth beyond the single-link limit of the paper's
Fig. 9.
"""

from __future__ import annotations

from repro.common.errors import FlowError
from repro.core.combiner import CombinerTarget, _row_fold
from repro.core.flowdef import FlowDescriptor
from repro.core.registry import FlowRegistry
from repro.core.replicate import _StagedSource
from repro.core.schema import Schema
from repro.core.segment import (
    FLAG_CLOSED,
    FLAG_CONSUMABLE,
    FOOTER_SIZE,
    SegmentRing,
    pack_footer,
)
from repro.core.shuffle import (
    ShuffleTarget,
    TargetChannel,
    segment_payload_size,
)
from repro.rdma.nic import get_nic

#: The switch emits a partial-aggregate segment after folding this many
#: incoming segments (and always on flow close).
EMIT_INTERVAL_SEGMENTS = 8


class SwitchAggregator:
    """The switch-resident reduction engine of one combiner flow."""

    def __init__(self, registry: FlowRegistry, descriptor: FlowDescriptor,
                 ring: SegmentRing, partial_schema: Schema) -> None:
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
        self._partial_schema = partial_schema
        group = schema.field_index(spec.group_by)
        #: A segment's rows, decoded to the columns the fold reads — the
        #: end-host combiner's fold (``CombinerTarget``) on the switch.
        self.decode = schema.column_decoder(
            *((group,) if spec.op == "count"
              else (group, schema.field_index(spec.value))))
        self._table: dict = {}
        self._fold_rows = _row_fold(spec.op, self._table)
        self._segments_folded = 0
        self._since_emit = 0
        #: Sources whose close marker has not been folded yet — the
        #: sources a silent target ring still waits on.
        self.open_sources = set(range(descriptor.source_count))
        self._finished = False
        #: Statistics: bytes entering the switch vs. leaving it.
        self.bytes_in = 0
        self.bytes_out = 0
        #: Segments dropped because the target ring overflowed (the
        #: hardware-queue-full condition; 0 in any sane configuration).
        self.overflow_drops = 0

    # -- source-facing side -------------------------------------------------
    def on_segment(self, segment) -> None:
        """Train action at a segment's switch arrival: fold the ``(rows,
        source_index, closed, wire_bytes)`` record's rows, as
        :attr:`decode` returns them."""
        rows, source_index, closed, wire_bytes = segment
        if self._finished:
            raise FlowError("segment arrived after the flow finished")
        self.bytes_in += wire_bytes
        self._fold_rows(rows)
        self._segments_folded += 1
        self._since_emit += 1
        if closed:
            self.open_sources.discard(source_index)
        if not self.open_sources:
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
        self.fabric.from_switch(self.target_node, wire_bytes, self._commit,
                                (index, payload, flags))

    def _commit(self, segment) -> None:
        """Train action: an ``(index, payload, flags)`` partial segment
        reached the target's ring slot ``index``."""
        index, payload, flags = segment
        if self._ring.read_footer(index).consumable:
            # Hardware queue overflow: the slot was never consumed.
            self.overflow_drops += 1
            raise FlowError(
                "SHARP target ring overflow — enlarge target_segments "
                "or consume faster")
        ring = self._ring
        used = len(payload)
        if used:
            ring.region.commit((ring.payload_offset(index), payload, used))
        ring.region.commit((ring.footer_offset(index),
                            pack_footer(used, flags, 0), FOOTER_SIZE))


class SharpCombinerSource(_StagedSource):
    """Source endpoint of an in-network combiner flow: segments are sent
    into the switch instead of to the target's rings."""

    transports = ("in-network combiner",)
    _obs = None  # not observed

    def __init__(self, registry: FlowRegistry, descriptor: FlowDescriptor,
                 source_index: int, aggregator: SwitchAggregator) -> None:
        super().__init__(registry, descriptor, source_index, None,
                         segment_payload_size(descriptor))
        self._nic = get_nic(self.node)
        self._aggregator = aggregator

    @classmethod
    def open(cls, registry: FlowRegistry, name: str, source_index: int):
        """Generator: open a SHARP combiner source (waits for the target
        to install the switch aggregator)."""
        descriptor, _node = registry.open_endpoint(name, cls, source_index)
        aggregator = yield from registry.wait(name, "aggregator")
        return cls(registry, descriptor, source_index, aggregator)

    def close(self):
        """Generator: flush remaining tuples with the close marker."""
        if self.closed:
            return
        yield from self._flush(FLAG_CLOSED)
        self.closed = True

    def _flush(self, extra_flags: int):
        """Generator: send the staged segment to the switch. Its rows are
        decoded here, for the fold at switch arrival: the one staging
        slot is packed again before then."""
        debt = self._cpu_debt + self.profile.cpu_post_cost
        self._cpu_debt = 0.0
        yield self.node.compute(debt)
        stager = self._stager
        used = stager.used
        aggregator = self._aggregator
        rows = list(aggregator.decode(
            stager.seal(extra_flags, self.segments_sent)[:used]))
        closed = bool(extra_flags & FLAG_CLOSED)
        wire_bytes = used + FOOTER_SIZE
        delay = self._nic.engine_delay(inline=False)
        self.registry.cluster.fabric.to_switch(
            self.node, wire_bytes, aggregator.on_segment,
            (rows, self.source_index, closed, wire_bytes), delay=delay)
        self.segments_sent += 1


class SharpCombinerTarget(CombinerTarget):
    """Target endpoint: a combiner target whose inner endpoint is a
    one-channel shuffle target over the ring the switch writes partial
    aggregates into. Folding partials differs from folding tuples only in
    the op: COUNT partials carry counts and add like SUM partials,
    MIN/MAX partials re-minimize/maximize."""

    transports = ("in-network combiner",)

    @classmethod
    def open(cls, registry: FlowRegistry, name: str, target_index: int = 0):
        """Open the target: allocates the ring, installs the switch
        aggregator, and publishes it for the sources."""
        descriptor, node = registry.open_endpoint(name, cls, target_index,
                                                  "target")
        spec = descriptor.aggregation
        schema = descriptor.schema
        # Partials travel as (group, value) pairs.
        partial = Schema(
            ("group", schema.fields[schema.field_index(spec.group_by)].dtype),
            ("value", schema.fields[schema.field_index(spec.value)].dtype))
        # A segment holds at least one pair, which a latency flow's
        # one-tuple segment may not.
        ring = SegmentRing.allocate(
            get_nic(node), descriptor.options.target_segments,
            max(segment_payload_size(descriptor), partial.tuple_size))
        registry.hold_region(name, node.node_id, ring.region.rkey)
        aggregator = SwitchAggregator(registry, descriptor, ring, partial)
        channel = TargetChannel(node, descriptor, ring, None, 0, partial,
                                aggregator.open_sources)
        registry.publish(name, "aggregator", aggregator)
        target = cls(descriptor,
                     ShuffleTarget(registry, descriptor, 0, [channel]),
                     partial, 0, 1, "sum" if spec.op == "count" else spec.op)
        target._aggregator = aggregator
        return target

    @property
    def partial_segments(self) -> int:
        """Partial-aggregate segments consumed from the switch's ring."""
        return self._inner._channels[0]._consumed

    @property
    def switch_stats(self) -> dict:
        """In/out byte counts of the switch-side reduction."""
        return {"bytes_in": self._aggregator.bytes_in,
                "bytes_out": self._aggregator.bytes_out,
                "reduction": (self._aggregator.bytes_in
                              / max(1, self._aggregator.bytes_out))}
