"""The calibration kernel: a fixed amount of interpreter work that looks
like the simulator's (generator resumes, a binary heap, dict/list/tuple
churn, ``struct.pack_into``, ``memoryview`` copies).

Host time on a shared box drifts by tens of percent between minutes; the
work below does not. Timing it right before and right after a slice and
dividing the slice by the mean of the two turns wall seconds into
"calibrated seconds": seconds on a machine on which one kernel pass
takes exactly ``CAL_REF_S``.

FROZEN once merged. Editing the kernel or ``CAL_REF_S`` re-bases every
calibrated number this benchmark has ever reported. Stdlib only; never
imports ``repro``.
"""

from __future__ import annotations

import heapq
import struct
import time

#: Nominal wall seconds of one kernel pass on the reference machine.
CAL_REF_S = 0.100

_ROUNDS = 24
_PAD = bytes(56)
_PACK = struct.Struct("<Q56s").pack_into


def _resumer(n: int):
    total = 0
    for i in range(n):
        total += yield i
    return total


def _one_round(sink: list) -> None:
    # Generator resumes: the simulator's processes are generators.
    gen = _resumer(6000)
    value = next(gen)
    try:
        while True:
            value = gen.send(value & 7)
    except StopIteration:
        pass
    # Event-queue churn.
    heap: list = []
    push, pop = heapq.heappush, heapq.heappop
    for i in range(2500):
        push(heap, ((i * 7919) % 1013, i))
    while heap:
        sink.append(pop(heap)[1])
    del sink[:]
    # Dict / list / tuple churn: per-tuple routing and bookkeeping.
    table: dict = {}
    groups = [[] for _ in range(8)]
    for i in range(6000):
        row = (i * 0x9E3779B97F4A7C15 & 0xFFFFFFFFFFFFFFFF, _PAD)
        groups[row[0] >> 61].append(row)
        table[i & 511] = row
    # Row packing and segment copies.
    segment = bytearray(8192)
    ring = bytearray(8 * 8192)
    view = memoryview(segment)
    for group in groups:
        offset = 0
        for key, pad in group[:128]:
            _PACK(segment, offset, key, pad)
            offset += 64
    for slot in range(64):
        base = (slot & 7) * 8192
        ring[base:base + 8192] = view


def calibrate() -> float:
    """Run the kernel once; return its wall seconds."""
    sink: list = []
    start = time.perf_counter()
    for _ in range(_ROUNDS):
        _one_round(sink)
    return time.perf_counter() - start
