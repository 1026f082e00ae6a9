"""Tuple routing for shuffle flows (paper Section 4.2.1).

Three ways to route a tuple to a target:

1. a *shuffle key*: DFI hashes the key field (default);
2. a *routing function* supplied by the application — e.g. the radix hash
   partitioning used by the distributed radix join, or range partitioning;
3. *direct* routing: the application names the target index on each push.

All of them resolve to a target index in ``[0, target_count)``.
"""

from __future__ import annotations

from operator import index as _as_index
from typing import Callable

from repro.common.errors import FlowError
from repro.core.schema import _HASH_MASK, _HASH_MULT, Schema

#: A routing function maps (tuple, target_count) -> target index.
RoutingFunction = Callable[[tuple, int], int]


def key_hash_router(schema: Schema, key: "str | int") -> RoutingFunction:
    """The default router: hash the key field, modulo the target count.

    Integer-like keys — ``int``, ``bool``, numpy integers, anything with
    ``__index__`` — are Fibonacci-hashed by value; every other key goes
    through ``hash()``. The Fibonacci hash is a cheap 64-bit mixer of
    which the product's *high* half is used: the low bits of
    ``key * odd`` depend only on the key's low bits, which would make
    power-of-two modulo partitioning degenerate for structured keys.
    ``route`` runs once per tuple on the per-tuple push path, so the hash
    is inlined and the plain-``int`` common case makes no call at all.
    ``route.route_many`` partitions a whole batch as ``route`` would
    (:meth:`Schema.route_kernel`: ``route`` is the reference every batch
    loop is held to).
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

    route.route_many = schema.route_kernel(index, route)
    return route


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
