"""The latency-mode send and drain keep every check they had.

``LatencySourceChannel`` writes through one routine, ``_write_slot``,
whatever the front door (``push``, which stages its tuple in place;
``push_batch`` and ``push_bytes``, whose walk stages each row through
``_send``; the close/abort marker), and ``TargetChannel`` slices
payloads and publishes credits without a range check per segment
because the ranges were proven when it was built. Each test here pins
one check that must have survived that: the three front doors are the
same send, a mistyped tuple, a closed channel and a closed source fail
at the offending push, a footer that overstates its segment and a
credit slot outside its region are refused, and a shut credit window
stalls, backs off and gives up after ``max_backoff_retries``.
"""

import pytest

from repro.common.errors import (
    FlowClosedError,
    FlowError,
    FlowTimeoutError,
    MemoryRegionError,
    SchemaError,
)
from repro.core import (
    FLOW_END,
    DfiRuntime,
    FlowOptions,
    Optimization,
    Schema,
)
from repro.core.segment import FLAG_CONSUMABLE, SegmentRing, pack_footer
from repro.core.shuffle import TargetChannel
from repro.rdma.nic import get_nic
from repro.simnet import Cluster

SCHEMA = Schema(("key", "uint64"), ("value", "uint64"))
ROWS = [(i, i * i) for i in range(40)]


def _flow(options=FlowOptions(target_segments=8, credit_threshold=2)):
    cluster = Cluster(node_count=2)
    dfi = DfiRuntime(cluster)
    dfi.init_shuffle_flow("f", ["node0|0"], ["node1|0"], SCHEMA,
                          shuffle_key="key",
                          optimization=Optimization.LATENCY, options=options)
    return cluster, dfi


def _run(body):
    """Run ``body(source)`` against one draining target; returns the
    cluster, the target endpoint and everything it consumed."""
    cluster, dfi = _flow()
    seen = {"target": None, "got": []}

    def source_thread():
        source = yield from dfi.open_source("f", 0)
        yield from body(source)
        yield from source.close()

    def target_thread():
        target = seen["target"] = yield from dfi.open_target("f", 0)
        while True:
            got = yield from target.consume()
            if got is FLOW_END:
                return
            seen["got"].append(got)

    cluster.env.process(source_thread())
    cluster.env.process(target_thread())
    cluster.run()
    return cluster, seen["target"], seen["got"]


# -- one send behind three front doors ---------------------------------------

def _per_tuple(source):
    for row in ROWS:
        yield from source.push(row)


def _batched(source):
    yield from source.push_batch(ROWS)


def _packed(source):
    yield from source.push_bytes(b"".join(map(SCHEMA.pack, ROWS)))


@pytest.mark.parametrize("body", [_batched, _packed])
def test_every_front_door_is_the_per_tuple_send(body):
    """Equal finish time, equal events, equal bytes in the remote ring
    (more rows than ring slots, so credits were read on the way)."""
    reference, ref_target, ref_got = _run(_per_tuple)
    cluster, target, got = _run(body)
    assert ref_got == ROWS and got == ROWS
    assert cluster.now == reference.now
    assert cluster.env.events_executed == reference.env.events_executed
    ring, ref_ring = (t._channels[0].ring.region for t in (target,
                                                           ref_target))
    assert bytes(ring.mem) == bytes(ref_ring.mem)


# -- errors at the offending push --------------------------------------------

def test_mistyped_tuple_fails_its_own_push_and_sends_nothing():
    seen = {}

    def body(source):
        yield from source.push((1, 1))
        channel = source._channels[0]
        with pytest.raises(SchemaError) as caught:
            yield from source.push(("not an int", 1))
        seen["message"] = str(caught.value)
        seen["sent"] = (channel.tuples_sent, channel.segments_sent)
        yield from source.push((2, 4))

    _cluster, _target, got = _run(body)
    assert seen["message"].startswith(
        "tuple ('not an int', 1) does not match schema: ")
    assert seen["sent"] == (1, 1)
    assert got == [(1, 1), (2, 4)]


@pytest.mark.parametrize("door", ["push", "push_batch", "push_bytes"])
def test_closed_source_refuses_every_front_door(door):
    cluster, dfi = _flow()
    raised = []

    argument = {"push": (1, 1), "push_batch": [(1, 1)],
                "push_bytes": memoryview(SCHEMA.pack((1, 1)))}[door]

    def attempt(source):
        try:
            yield from getattr(source, door)(argument)
        except FlowClosedError as exc:
            raised.append(exc)

    def source_thread():
        source = yield from dfi.open_source("f", 0)
        yield from source._channels[0].close()
        # The open source refuses its closed channel, then the closed
        # source refuses.
        yield from attempt(source)
        yield from source.close()
        yield from attempt(source)

    def target_thread():
        target = yield from dfi.open_target("f", 0)
        assert (yield from target.consume()) is FLOW_END

    cluster.env.process(source_thread())
    cluster.env.process(target_thread())
    cluster.run()
    assert len(raised) == 2


# -- ranges proven at construction, sizes checked per segment ----------------

@pytest.mark.parametrize("consume", ["consume", "consume_batch",
                                     "consume_bytes"])
def test_footer_that_overstates_its_segment_is_refused(consume):
    cluster, dfi = _flow()
    caught = []

    def target_thread():
        target = yield from dfi.open_target("f", 0)
        ring = target._channels[0].ring
        # What no source of ours writes: 32 bytes used in a 16-byte slot.
        ring.region.write(ring.footer_offset(0),
                          pack_footer(2 * SCHEMA.tuple_size,
                                      FLAG_CONSUMABLE, 0))
        try:
            yield from getattr(target, consume)()
        except FlowError as exc:
            caught.append(str(exc))

    cluster.env.process(target_thread())
    cluster.run()
    assert len(caught) == 1 and "32" in caught[0] and "16" in caught[0]


def test_credit_slot_outside_its_region_is_refused_at_construction():
    cluster, dfi = _flow()
    node = cluster.node(1)
    nic = get_nic(node)
    ring = SegmentRing.allocate(nic, 8, SCHEMA.tuple_size)
    credits = nic.register_memory(8)
    descriptor = dfi.registry.descriptor("f")
    TargetChannel(node, descriptor, ring, credits, 0)
    with pytest.raises(MemoryRegionError):
        TargetChannel(node, descriptor, ring, credits, 8)


# -- a shut window stalls, backs off, gives up -------------------------------

def test_shut_credit_window_times_out_after_its_backoff_budget():
    """The target opens its ring and never consumes: the source spends the
    ring's worth of credits, then re-reads the counter ``budget`` times
    with growing backoff and raises."""
    segments, budget = 4, 3
    cluster, dfi = _flow(FlowOptions(target_segments=segments,
                                     credit_threshold=1,
                                     max_backoff_retries=budget))
    outcome = {}

    def source_thread():
        source = yield from dfi.open_source("f", 0)
        channel = source._channels[0]
        try:
            for row in ROWS:
                yield from source.push(row)
        except FlowTimeoutError as exc:
            outcome["error"] = str(exc)
        outcome["sent"] = channel.segments_sent
        outcome["at"] = cluster.now

    def idle_target():
        yield from dfi.open_target("f", 0)

    cluster.env.process(source_thread())
    cluster.env.process(idle_target())
    cluster.run()
    assert f"after {budget} backoff rounds" in outcome["error"]
    assert outcome["sent"] == segments
    # The stall cost simulated time: at least the floor of every round.
    assert outcome["at"] > 400.0 * (1 + 2 + 4)
