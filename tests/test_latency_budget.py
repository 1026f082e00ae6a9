"""The latency path's per-message constant as exact counts.

A latency-mode message is four kernel events — the sender's CPU charge,
the write's prefix commit, its tail commit, the target's merged wake and
poll — and whatever the interpreter spends around them. Wall-clock is
noise on a shared box; the number of kernel events, of Python frames
entered under ``src/repro`` and of C functions those frames call is
not. When every per-segment price was paid per tuple (a property and a
range check per memory access, a scan of all channels per consume, a
generator per credit check, a calendar queue under the heap) a round
trip entered 152 frames; it enters 88. Both waits of a message — the
CPU charge and the merged wake — resume the waiting process through
its own wake entry, so neither builds an event.
"""

import os
import random
import sys

import repro
from repro.core import (
    FLOW_END,
    DfiRuntime,
    Endpoint,
    FlowOptions,
    Optimization,
    Schema,
)
from repro.simnet import Cluster

SCHEMA = Schema(("key", "uint64"), ("pad", 56))
PACKAGE = os.path.dirname(repro.__file__) + os.sep
TRIPS = 200


#: Rings short enough that credits run low within 200 trips, and rings a
#: 200-trip run never reads a credit for.
SHORT = FlowOptions(target_segments=8, credit_threshold=4)
DEEP = FlowOptions(target_segments=64, credit_threshold=16)


def _pingpong(trips: int, options: FlowOptions) -> Cluster:
    """One client, eight servers, ``trips`` closed-loop round trips over a
    latency-mode ``ping`` (1:8) and ``pong`` (8:1) flow."""
    rng = random.Random(7)
    rows = [(rng.getrandbits(64), bytes(56)) for _ in range(trips)]
    cluster = Cluster(node_count=9)
    dfi = DfiRuntime(cluster)
    client = [Endpoint(0, 0)]
    servers = [Endpoint(1 + n, 0) for n in range(8)]
    for name, sources, targets in (("ping", client, servers),
                                   ("pong", servers, client)):
        dfi.init_shuffle_flow(name, sources, targets, SCHEMA,
                              shuffle_key="key",
                              optimization=Optimization.LATENCY,
                              options=options)

    def client_proc():
        ping = yield from dfi.open_source("ping", 0)
        pong = yield from dfi.open_target("pong", 0)
        for row in rows:
            yield from ping.push(row)
            assert (yield from pong.consume()) == row
        yield from ping.close()
        assert (yield from pong.consume()) is FLOW_END

    def server_proc(index):
        ping = yield from dfi.open_target("ping", index)
        pong = yield from dfi.open_source("pong", index)
        while True:
            request = yield from ping.consume()
            if request is FLOW_END:
                yield from pong.close()
                return
            yield from pong.push(request)

    cluster.env.process(client_proc())
    for index in range(8):
        cluster.env.process(server_proc(index))
    return cluster


def _calls(run) -> tuple:
    """``(frames, c_calls)`` while ``run()`` runs: Python frames entered
    under ``src/repro``, and C functions called from such frames."""
    counts = {"call": 0, "c_call": 0}

    def profiler(frame, event, _arg):
        if (event in counts
                and frame.f_code.co_filename.startswith(PACKAGE)):
            counts[event] += 1

    sys.setprofile(profiler)
    try:
        run()
    finally:
        sys.setprofile(None)
    return counts["call"], counts["c_call"]


def _wqes(cluster) -> int:
    nics = cluster.metrics_snapshot()["nics"].values()
    return sum(nic["wqes_processed"] for nic in nics)


def test_round_trip_is_eight_events_plus_three_per_credit_read():
    idle, busy = _pingpong(0, SHORT), _pingpong(TRIPS, SHORT)
    idle.run()
    busy.run()
    # Open, close markers and their acks are the same with no trip made;
    # a trip posts two writes, and every other WQE is a credit read
    # (request arrival, response, completion).
    credit_reads = _wqes(busy) - _wqes(idle) - 2 * TRIPS
    assert credit_reads >= 40, credit_reads
    assert (busy.env.events_executed - idle.env.events_executed
            == 8 * TRIPS + 3 * credit_reads)


def test_round_trip_enters_at_most_95_frames():
    idle, busy = _pingpong(0, DEEP), _pingpong(TRIPS, DEEP)
    per_trip = (_calls(busy.run)[0] - _calls(idle.run)[0]) / TRIPS
    assert _wqes(busy) - _wqes(idle) == 2 * TRIPS     # no credit read
    assert per_trip <= 95, per_trip


def test_round_trip_is_eight_events_and_at_most_165_calls():
    """154 calls per trip (88 frames, 66 C calls); 172 (92 + 80) while a
    CPU charge was a pooled ``Timeout`` and a polled wait a fresh
    ``Event``, each queued through a bound method appended to a list."""
    idle, busy = _pingpong(0, DEEP), _pingpong(TRIPS, DEEP)
    idle_calls, busy_calls = _calls(idle.run), _calls(busy.run)
    assert _wqes(busy) - _wqes(idle) == 2 * TRIPS     # no credit read
    assert (busy.env.events_executed - idle.env.events_executed
            == 8 * TRIPS)
    per_trip = (sum(busy_calls) - sum(idle_calls)) / TRIPS
    assert per_trip <= 165, per_trip
