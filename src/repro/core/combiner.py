"""Combiner flows (paper Sections 4.2.3 and 5.4).

A combiner flow is an N:1 shuffle whose target aggregates incoming tuples
with a declared aggregate function (SUM, COUNT, MIN, MAX) and group-by
column. The network transport is exactly the shuffle flow's; the
aggregation happens in the target buffer as segments drain.

The paper points to SHARP-style in-network aggregation as future work;
the end-host variant it evaluates (Fig. 9), where the target's in-going
link is the natural bottleneck, is :meth:`CombinerTarget.open`, and
``repro.core.sharp`` opens the same target over the switch's ring.
"""

from __future__ import annotations

from typing import Callable

from repro.common.errors import FlowError
from repro.core.flowdef import FLOW_END, FlowDescriptor
from repro.core.registry import FlowRegistry
from repro.core.schema import Schema
from repro.core.shuffle import ShuffleSource, ShuffleTarget


def _aggregator(op: str) -> Callable:
    if op == "sum":
        return lambda current, value: current + value
    if op == "count":
        return lambda current, _value: current + 1
    if op == "min":
        return min
    if op == "max":
        return max
    raise FlowError(f"unknown aggregation op {op!r}")


def _initial(op: str, value):
    if op == "sum":
        return value
    if op == "count":
        return 1
    return value  # min / max start at the first observed value


def _row_fold(op: str, aggregates: dict) -> Callable:
    """The batch fold of ``op`` into ``aggregates``: ``fold(rows)`` over
    ``(group, value)`` rows (``(group,)`` rows for ``count``), with
    everything the loop touches pre-bound — no attribute lookup, no
    method call and no lambda dispatch per row. Aggregate values come
    from ``struct`` unpacking and are never ``None``, which lets
    ``get``'s default double as the first-observation test. Same table
    as :meth:`CombinerTarget._fold_in` row by row."""
    get = aggregates.get
    put = aggregates.__setitem__
    if op == "sum":
        def fold(rows):
            for group, value in rows:
                current = get(group)
                put(group, value if current is None else current + value)
    elif op == "count":
        def fold(rows):
            for (group,) in rows:
                current = get(group)
                put(group, 1 if current is None else current + 1)
    elif op == "min":
        def fold(rows):
            for group, value in rows:
                current = get(group)
                if current is None or value < current:
                    put(group, value)
    elif op == "max":
        def fold(rows):
            for group, value in rows:
                current = get(group)
                if current is None or value > current:
                    put(group, value)
    else:
        raise FlowError(f"unknown aggregation op {op!r}")
    return fold


class CombinerSource(ShuffleSource):
    """Source endpoint of a combiner flow (an N:1 shuffle source)."""

    transports = ("combiner",)


class CombinerTarget:
    """Target endpoint of a combiner flow: consumes segments through its
    inner endpoint and folds their rows into a group-by aggregate table.

    The opener says what the rows are: the inner endpoint, the row
    ``schema``, its group and value columns, and the fold ``op``. The
    end-host combiner reads the source tuples of a one-target shuffle;
    the SHARP target (:class:`~repro.core.sharp.SharpCombinerTarget`)
    reads the switch's ``(group, value)`` partials."""

    transports = ("combiner",)

    def __init__(self, descriptor: FlowDescriptor, inner: ShuffleTarget,
                 schema: Schema, group_index: int, value_index: int,
                 op: str) -> None:
        self.descriptor = descriptor
        self._inner = inner
        self.node = inner.node
        self._group_index = group_index
        self._value_index = value_index
        self._fold = _aggregator(op)
        self._op = op
        self._aggregates: dict = {}
        self._tuple_size = schema.tuple_size
        #: The fold is columnar: segments drain as packed byte chunks
        #: and only the group/value columns are decoded, through a
        #: selective pad-byte struct — the other fields are never
        #: materialized.
        self._decode = schema.column_decoder(
            *((group_index,) if op == "count"
              else (group_index, value_index)))
        self._fold_rows = _row_fold(op, self._aggregates)
        self.tuples_aggregated = 0
        #: Observability registry of the target node (``None`` when off).
        self._metrics = self.node.metrics

    @classmethod
    def open(cls, registry: FlowRegistry, name: str,
             target_index: int = 0) -> "CombinerTarget":
        """Open the (single) target endpoint of combiner flow ``name``."""
        descriptor, _node = registry.open_endpoint(name, cls, target_index,
                                                   "target")
        spec = descriptor.aggregation
        schema = descriptor.schema
        return cls(descriptor, ShuffleTarget.open(registry, name, 0), schema,
                   schema.field_index(spec.group_by),
                   schema.field_index(spec.value), spec.op)

    @property
    def aggregates(self) -> dict:
        """Current group -> aggregate value table (grows as data arrives)."""
        return self._aggregates

    def _fold_in(self, values: tuple) -> None:
        """Fold one tuple (reference semantics; segments go through
        :meth:`_fold_chunks`)."""
        group = values[self._group_index]
        value = values[self._value_index]
        if group in self._aggregates:
            self._aggregates[group] = self._fold(self._aggregates[group],
                                                 value)
        else:
            self._aggregates[group] = _initial(self._op, value)
        self.tuples_aggregated += 1

    def _fold_chunks(self, chunks) -> int:
        """Fold drained segment payloads (each a whole number of packed
        tuples) in arrival order; returns the number of tuples folded."""
        size = 0
        for chunk in chunks:
            size += len(chunk)
            self._fold_rows(self._decode(chunk))
        folded = size // self._tuple_size
        self.tuples_aggregated += folded
        if self._metrics is not None:
            self._metrics.inc("core.tuples_aggregated", folded)
        return folded

    def consume_all(self):
        """Generator: drain the flow to completion and return the final
        group -> aggregate dictionary.

        Segments arrive as packed byte chunks: ``consume_bytes`` yields
        the event sequence of ``consume_batch`` (same polls, same CPU
        charges, same drain metrics) without unpacking a tuple.
        """
        while True:
            chunks = yield from self._inner.consume_bytes()
            if chunks is FLOW_END:
                return self._aggregates
            self._fold_chunks(chunks)

    def consume_step(self):
        """Generator: fold in the next available batch of tuples.

        Returns the number of tuples aggregated, or :data:`FLOW_END` once
        the flow has drained — useful for interleaving aggregation with
        other work.
        """
        chunks = yield from self._inner.consume_bytes()
        if chunks is FLOW_END:
            return FLOW_END
        return self._fold_chunks(chunks)

    @property
    def memory_bytes(self) -> int:
        return self._inner.memory_bytes
