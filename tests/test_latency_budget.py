"""The latency path's per-message constant as exact counts.

A latency-mode message is four kernel events — the sender's CPU charge,
the write's prefix commit, its tail commit, the target's merged wake and
poll — and whatever the interpreter spends around them. Wall-clock is
noise on a shared box; the number of kernel events, of Python frames
entered under ``src/repro`` and of C functions those frames call is
not. When every per-segment price was paid per tuple (a property and a
range check per memory access, a scan of all channels per consume, a
generator per credit check, a calendar queue under the heap) a round
trip entered 152 frames; it enters 38. The sender's CPU charge is the
queue entry of its write: the pushing thread runs ahead of the clock by
the charge and goes on to its next wait, and the write posts when the
clock gets there, so the charge resumes nobody. The merged wake resumes
the waiting process through its own wake entry, so no wait builds an
event. A commit is one frame: the NIC queues the region's own
``commit`` as the train action, and the commit rings the region's
doorbell inline. Each bound is one module constant, at most 3 % above
the count it measures, and a failure prints the bound beside the
measured value:

- ``TRIP_FRAMES`` 39 over 38.045 frames. A trip is two 80-byte writes,
  each a 16-byte prefix commit and a 64-byte tail commit: four commits,
  which cost three frames each (the train action, ``MemoryRegion.write``
  and the doorbell's per-region closure) at 46.045, and cost one now.
- ``TRIP_CALLS`` 69 over 68.055 calls: the same eight frames off
  76.055; the 30.01 C calls per trip do not move.
- ``STREAM_CALLS`` 47 over 46.311 calls per tuple, from 48.436. A
  32-byte tuple write is one commit, two frames fewer; the credit read
  answering every eighth tuple lands with its length known, one ``len``
  fewer (0.125 a tuple).
"""

import random

from repro.core import (
    FLOW_END,
    DfiRuntime,
    Endpoint,
    FlowOptions,
    Optimization,
    Schema,
)
from repro.simnet import Cluster
from tests.callcount import count_calls, grown

#: Python frames entered under ``src/repro`` per DEEP-ring round trip.
TRIP_FRAMES = 39
#: Library calls (frames + C calls) per DEEP-ring round trip.
TRIP_CALLS = 69
#: Library calls per tuple of the Fig. 10a-shaped latency stream.
STREAM_CALLS = 47


def _over(measured: float, bound: float, what: str, busy, idle) -> str:
    """The failure message of a budget: the measured value, the bound,
    and the functions that grew."""
    return f"{measured} {what}, bound {bound}\n{grown(busy, idle)}"

SCHEMA = Schema(("key", "uint64"), ("pad", 56))
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


def test_round_trip_enters_at_most_the_frame_budget():
    """38.0 frames per trip (``TRIP_FRAMES``; first bound 95); 46.0
    while a commit was three frames; 50.0
    while a push slept through its CPU charge in the channel's
    ``_write_slot``; 58.0 while a train's commits were walked by a
    pooled macro-event."""
    idle, busy = _pingpong(0, DEEP), _pingpong(TRIPS, DEEP)
    idle_calls = count_calls(idle.run, tally=True)
    busy_calls = count_calls(busy.run, tally=True)
    per_trip = (busy_calls.frames - idle_calls.frames) / TRIPS
    assert _wqes(busy) - _wqes(idle) == 2 * TRIPS     # no credit read
    assert per_trip <= TRIP_FRAMES, _over(
        per_trip, TRIP_FRAMES, "frames per trip", busy_calls, idle_calls)


def test_round_trip_is_eight_events_and_within_the_call_budget():
    """68.1 calls per trip (``TRIP_CALLS``; first bound 165, when a trip
    made 154: 88 frames, 66 C calls); 76.1 while a commit was three
    frames; 82.0 while each push slept through
    its CPU charge (two resumes of ``_write_slot``, the wake's
    ``_schedule``, ``_resume`` and generator ``send``, where a push that
    runs ahead calls ``run_ahead`` and its link's ``_post``); 172
    (92 + 80) while a CPU charge was a pooled ``Timeout`` and a polled
    wait a fresh ``Event``, each queued through a bound method appended
    to a list."""
    idle, busy = _pingpong(0, DEEP), _pingpong(TRIPS, DEEP)
    idle_calls = count_calls(idle.run, tally=True)
    busy_calls = count_calls(busy.run, tally=True)
    assert _wqes(busy) - _wqes(idle) == 2 * TRIPS     # no credit read
    assert (busy.env.events_executed - idle.env.events_executed
            == 8 * TRIPS)
    per_trip = (busy_calls.library - idle_calls.library) / TRIPS
    assert per_trip <= TRIP_CALLS, _over(
        per_trip, TRIP_CALLS, "calls per trip", busy_calls, idle_calls)


def test_round_trip_stays_within_the_frame_and_call_budgets():
    """38.0 frames + 30.0 C calls = 68.1 per trip (``TRIP_FRAMES`` and
    ``TRIP_CALLS``; first bounds 75 and 130);
    46.0 + 30.0 = 76.1 while a commit was three frames (the train
    action, ``MemoryRegion.write`` and the doorbell's ring closure);
    50.0 + 32.0 = 82.0 while a push slept through its CPU charge;
    58.0 + 40.0 = 98.0 while a train's commits were walked by a pooled
    macro-event (a record taken from its pool and given back, a hop
    re-queued between them and a frame per hop); 68.0 + 52.1 = 120.1 while a latency push entered the channel's
    ``push`` and a guarding generator, a lone write split its one piece
    in a frame of its own and each commit measured its piece with
    ``len``, and a consume took the first dirty channel with
    ``next(iter(...))``, decoded rows through ``Schema.unpack_rows`` and
    popped each buffered row off a deque; 70.0 + 54.1 = 124.1
    while a push called the key-hash router and ``len`` of the live
    targets; 82.0 + 62.1 = 144.1 while a commit range-checked through
    ``check_range`` and counted its hooks with ``len``, a train's walk
    took ``len`` per hop, a latency push staged through ``_send`` and
    ``Schema.pack_into`` and scaled its CPU cost per push, a drain took
    ``len`` of its footer offsets, and a consume scanned a clean doorbell
    set."""
    idle, busy = _pingpong(0, DEEP), _pingpong(TRIPS, DEEP)
    idle_calls = count_calls(idle.run, tally=True)
    busy_calls = count_calls(busy.run, tally=True)
    assert _wqes(busy) - _wqes(idle) == 2 * TRIPS     # no credit read
    assert (busy.env.events_executed - idle.env.events_executed
            == 8 * TRIPS)
    frames = (busy_calls.frames - idle_calls.frames) / TRIPS
    per_trip = (busy_calls.library - idle_calls.library) / TRIPS
    assert frames <= TRIP_FRAMES, _over(
        frames, TRIP_FRAMES, "frames per trip", busy_calls, idle_calls)
    assert per_trip <= TRIP_CALLS, _over(
        per_trip, TRIP_CALLS, "calls per trip", busy_calls, idle_calls)


#: Fig. 10a's DFI latency-optimized configuration at 16-byte tuples.
STREAM_SCHEMA = Schema(("key", "uint64"), ("pad", 8))
STREAM = FlowOptions(segment_size=8192, source_segments=8,
                     target_segments=16, credit_threshold=8)
STREAM_TUPLES = 1000


def _stream(tuples: int) -> Cluster:
    """Fig. 10a's latency column: one source streams ``tuples`` 16-byte
    rows to one target that drains them with ``consume_batch``."""
    cluster = Cluster(node_count=2)
    dfi = DfiRuntime(cluster)
    dfi.init_shuffle_flow("p2p", [Endpoint(0, 0)], [Endpoint(1, 0)],
                          STREAM_SCHEMA, shuffle_key="key",
                          optimization=Optimization.LATENCY,
                          options=STREAM)
    pad = bytes(8)
    received = []

    def source_proc():
        source = yield from dfi.open_source("p2p", 0)
        for key in range(tuples):
            yield from source.push((key, pad))
        yield from source.close()

    def target_proc():
        target = yield from dfi.open_target("p2p", 0)
        while True:
            batch = yield from target.consume_batch()
            if batch is FLOW_END:
                assert received == [(key, pad) for key in range(tuples)]
                return
            received.extend(batch)

    cluster.env.process(source_proc())
    cluster.env.process(target_proc())
    return cluster


def test_streaming_latency_push_stays_within_its_call_budget():
    """46.3 calls per tuple (31.1 frames; ``STREAM_CALLS``, first bound
    66) — a push waits for
    the refresh its window runs low on, so it sleeps through its charge
    as it did before a push could run ahead of the clock (8 of the 1000
    run ahead), and its ``_write_slot`` enters ``CreditWindow.acquire``
    only to harvest a refresh that landed or to wait on a shut window,
    and ends in the channel's ``_post``; 48.4 (33.1) while a commit
    was three frames and a credit read's landing measured its bytes;
    48.3 (33.0) while it entered
    ``acquire`` for a refresh still in flight and posted inline; 55.8
    (35.5) while a
    train's hops were walked by a pooled macro-event; 60.9 (37.5) before
    a push with its credit window open skipped the channel's ``push``
    and the guarding generator and the commit and consume glue was cut,
    62.9 (38.5) while a push called the key-hash router and ``len``,
    69.9 (44.2) before the latency message path's glue was cut. The ring
    is short enough that the source waits on credits: one credit read
    per eight tuples."""
    idle, busy = _stream(0), _stream(STREAM_TUPLES)
    idle_calls = count_calls(idle.run, tally=True)
    busy_calls = count_calls(busy.run, tally=True)
    credit_reads = _wqes(busy) - _wqes(idle) - STREAM_TUPLES
    assert credit_reads >= STREAM_TUPLES // 10, credit_reads
    per_tuple = ((busy_calls.library - idle_calls.library)
                 / STREAM_TUPLES)
    assert per_tuple <= STREAM_CALLS, _over(
        per_tuple, STREAM_CALLS, "calls per tuple", busy_calls, idle_calls)
