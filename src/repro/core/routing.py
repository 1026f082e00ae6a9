"""Tuple routing for shuffle flows (paper Section 4.2.1).

Three ways to route a tuple to a target:

1. a *shuffle key*: DFI hashes the key field (default);
2. a *routing function* supplied by the application — e.g. the radix hash
   partitioning used by the distributed radix join, or range partitioning;
3. *direct* routing: the application names the target index on each push.

All of them resolve to a target index in ``[0, target_count)``.

The key hash is one decision and lives here: ``route`` of
:func:`key_hash_router` is the reference, ``ShuffleSource.push`` and the
routing pass of ``ShuffleSource.push_batch`` each inline its plain-``int``
case (so that a push stays one frame), and ``route.partition`` is the one
batch split — the numpy bucket pass over a packed batch, a wall-clock
accelerator only, never consulted for a simulated-time decision.
"""

from __future__ import annotations

from operator import index as _as_index
from typing import Callable

from repro.common.errors import FlowError, SchemaError
from repro.core.schema import Schema

#: A routing function maps (tuple, target_count) -> target index.
RoutingFunction = Callable[[tuple, int], int]

#: Fibonacci-hash constants of :func:`key_hash_router`.
_HASH_MULT = 0x9E3779B97F4A7C15
_HASH_MASK = (1 << 64) - 1

#: The fewest rows ``route.partition`` splits: the numpy pass has
#: per-call conversion overhead that only a batch this long amortizes,
#: and shorter ones take ``push_batch``'s routing pass (a pure wall-clock
#: knob: both put every row where ``route`` does).
_ROUTE_NP_MIN = 256

#: Key dtypes ``route.partition`` splits: the unsigned ``struct`` codes,
#: whose every value fits a C uint64.
_UNSIGNED_CODES = frozenset("BHIQ")

#: The numpy module, for the bucket pass — ``None`` until a batch first
#: asks, ``()`` when numpy cannot be imported. The pass is an optional
#: accelerator only: ``route`` stays the reference and ``push_batch``'s
#: routing pass the fallback, and nothing else in the simulator touches
#: numpy.
_NUMPY = None


def _numpy():
    """Bind numpy for the bucket pass. ``partition`` calls this on its
    first batch of ``_ROUTE_NP_MIN`` rows, so a process that never routes
    one never pays the import (~0.11 s and ~12 MiB, the largest single
    cold-start cost of a flow). Returns ``()`` when numpy is unavailable —
    ``partition`` then declines that batch and every later one."""
    global _NUMPY
    if _NUMPY is None:
        try:
            import numpy as _NUMPY
        except ImportError:
            _NUMPY = ()
    return _NUMPY


def key_hash_router(schema: Schema, key: "str | int") -> RoutingFunction:
    """The default router: hash the key field, modulo the target count.

    Integer-like keys — ``int``, ``bool``, numpy integers, anything with
    ``__index__`` — are Fibonacci-hashed by value; every other key goes
    through ``hash()``. The Fibonacci hash is a cheap 64-bit mixer of
    which the product's *high* half is used: the low bits of
    ``key * odd`` depend only on the key's low bits, which would make
    power-of-two modulo partitioning degenerate for structured keys.
    The plain-``int`` common case makes no call at all, and
    ``ShuffleSource`` hashes it in its own frame from ``route.key_index``,
    the key field's position.

    ``route.partition(tuples, target_count)``, ``None`` unless the key's
    dtype is unsigned, splits a long batch packed: it packs the batch
    once, buckets the key column read out of the packed rows (a strided
    view, aligned or not) and gathers the rows in stable bucket order,
    returning ``(groups, order)`` — one byte run per target, and the
    batch index of every row they hold. Every key an unsigned column
    holds lands where ``route`` puts it (:func:`_buckets`). It returns
    ``None`` — the caller routes the batch row by row instead — for fewer
    than ``_ROUTE_NP_MIN`` rows, without numpy, and for a batch that does
    not pack (a negative or ``>= 2**64`` key among them), so a rejected
    row raises where its own group is packed.
    """
    index = schema.field_index(key)
    mask = _HASH_MASK
    mult = _HASH_MULT

    def route(values: tuple, target_count: int) -> int:
        key_value = values[index]
        if key_value.__class__ is not int:
            try:
                key_value = _as_index(key_value)
            except TypeError:
                return hash(key_value) % target_count
        return (((key_value & mask) * mult & mask) >> 32) % target_count

    route.key_index = index
    dtype = schema.fields[index].dtype
    if dtype.code not in _UNSIGNED_CODES:
        route.partition = None
        return route
    key_dtype = f"<u{dtype.size}"
    offset = schema.offset_of(key)
    size, pack_rows = schema.tuple_size, schema.pack_rows

    def partition(tuples, target_count: int):
        count = len(tuples)
        if count < _ROUTE_NP_MIN or not (_NUMPY or _numpy()):
            return None
        try:
            packed = pack_rows(tuples)
        except SchemaError:
            return None
        numpy = _NUMPY
        buckets = _buckets(numpy.ndarray(count, key_dtype, packed, offset,
                                         (size,)).astype(numpy.uint64),
                           target_count)
        order = buckets.argsort(kind="stable")
        ends = (numpy.bincount(buckets.view(numpy.int64),
                               minlength=target_count).cumsum()
                * size).tolist()
        rows = memoryview(numpy.ndarray((count, size), numpy.uint8,
                                        packed)[order]).cast("B")
        return [rows[start:end]
                for start, end in zip([0, *ends], ends)], order

    route.partition = partition
    return route


def _buckets(keys, target_count: int):
    """The target slot of every key of ``keys`` (a uint64 array), as
    ``route`` computes it: bits 32..63 of ``key * _HASH_MULT`` wrapped mod
    2**64 — ``route``'s mask — masked for a power-of-two ``target_count``
    (the low bits of the modulo), else modulo. Operators only, no method
    call: the slots stay uint64."""
    buckets = (keys * _HASH_MULT) >> 32
    if target_count & (target_count - 1) == 0:
        buckets &= target_count - 1
    else:
        buckets %= target_count
    return buckets


def radix_router(schema: Schema, key: "str | int", bits: int,
                 shift: int = 0) -> RoutingFunction:
    """Radix partitioning: route on ``bits`` bits of the key after
    ``shift`` — the partition function of the distributed radix join."""
    if bits <= 0:
        raise FlowError("radix router needs a positive number of bits")
    index = schema.field_index(key)
    mask = (1 << bits) - 1

    def route(values: tuple, target_count: int) -> int:
        return ((values[index] >> shift) & mask) % target_count

    def route_many(tuples, target_count: int) -> list[list]:
        groups: list[list] = [[] for _ in range(target_count)]
        appends = [group.append for group in groups]
        for values in tuples:
            appends[((values[index] >> shift) & mask) % target_count](values)
        return groups

    route.route_many = route_many
    return route


def range_router(schema: Schema, key: "str | int",
                 boundaries: list[int]) -> RoutingFunction:
    """Range partitioning: target *i* receives keys < ``boundaries[i]``;
    the last target receives the rest. Boundaries must be sorted."""
    if sorted(boundaries) != list(boundaries):
        raise FlowError("range boundaries must be sorted ascending")
    index = schema.field_index(key)

    def route(values: tuple, target_count: int) -> int:
        if target_count != len(boundaries) + 1:
            raise FlowError(
                f"range router built for {len(boundaries) + 1} targets, "
                f"flow has {target_count}")
        key_value = values[index]
        for i, bound in enumerate(boundaries):
            if key_value < bound:
                return i
        return len(boundaries)

    return route


def round_robin_router() -> RoutingFunction:
    """Stateful round-robin distribution (ignores tuple contents).

    The cursor belongs to one source thread. A flow's descriptor holds
    its routing function once, so every source endpoint takes a router
    of its own from ``route.for_source()`` — sources that shared one
    cursor and pushed in lockstep would each hit a single target."""
    cursor = 0

    def route(_values: tuple, target_count: int) -> int:
        nonlocal cursor
        target = cursor % target_count
        cursor = target + 1
        return target

    route.for_source = round_robin_router
    return route
