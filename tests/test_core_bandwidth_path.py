"""The bandwidth-mode batched append keeps every check it had.

``ShuffleSource.push_batch`` is the one batched append: tuples by
default, packed rows when ``push_bytes`` hands it its byte view. Each
test here pins something that must have survived writing it once: the
two front doors are the same append (equal remote ring bytes, finish
time, segment count and RDMA tallies — tuple-aligned and unaligned
segments, with a partial segment already staged, across a full-ring
stall); a closed channel, a closed source, a torn byte slab and a
mistyped tuple fail at the offending push; a full ring nobody drains
times the source out after exactly its backoff budget; a handle that
overstates its ring is refused before the first train writes.

Every group of a batch is driven by the channel's two-step contract —
``charge_batch`` (the closed check and the one CPU charge), then
``stage_batch`` (``NO_FLUSH`` for rows that only land in the open slot,
the flush loop otherwise). The second half pins that the pair, driven
by hand, is the source's append, on both sides of the slot boundary,
and that the stage-only shape kept the checks: no event for an empty
batch, the closed and the mistyped-row errors at the offending push.
"""

import pytest

from repro.common.errors import (
    FlowClosedError,
    FlowError,
    FlowTimeoutError,
    MemoryRegionError,
    SchemaError,
)
from repro.core import FLOW_END, NO_FLUSH, DfiRuntime, FlowOptions, Schema
from repro.core.registry import RingHandle
from repro.core.routing import key_hash_router
from repro.core.segment import FOOTER_SIZE
from repro.core.shuffle import BandwidthSourceChannel
from repro.rdma.nic import get_nic
from repro.simnet import Cluster

SCHEMA = Schema(("key", "uint64"), ("value", "uint64"))
ROWS = [(i, i * i) for i in range(203)]
ALIGNED, UNALIGNED = 128, 120  # 8 tuples per segment; 7 and a torn half


def _flow(segment_size=ALIGNED, **options):
    cluster = Cluster(node_count=2, seed=3)
    cluster.enable_observability()
    dfi = DfiRuntime(cluster)
    dfi.init_shuffle_flow(
        "f", ["node0|0"], ["node1|0"], SCHEMA, shuffle_key="key",
        options=FlowOptions(segment_size=segment_size, source_segments=2,
                            target_segments=4, credit_threshold=2,
                            **options))
    return cluster, dfi


def _run(body, segment_size, consumer_starts_at=0.0):
    """Run ``body(source)`` against one target that starts draining at
    ``consumer_starts_at``; returns what the two sides ended with."""
    cluster, dfi = _flow(segment_size)
    seen = {"got": []}

    def source_thread():
        source = yield from dfi.open_source("f", 0)
        yield from body(source)
        yield from source.close()
        seen["channel"] = source._channels[0]

    def target_thread():
        target = seen["target"] = yield from dfi.open_target("f", 0)
        yield cluster.env.timeout(consumer_starts_at)
        while True:
            got = yield from target.consume_batch()
            if got is FLOW_END:
                return
            seen["got"].extend(got)

    cluster.env.process(source_thread())
    cluster.env.process(target_thread())
    cluster.run()
    nic = get_nic(cluster.node(0))
    counters = cluster.metrics_snapshot()["nodes"][0]["counters"]
    return {
        "got": seen["got"],
        "now": cluster.now,
        "ring": bytes(seen["target"]._channels[0].ring.region.mem),
        "segments": seen["channel"].segments_sent,
        "tuples": seen["channel"].tuples_sent,
        "rdma": {name: value for name, value in counters.items()
                 if name.startswith("rdma.")},
        "nic": (nic.wqes_processed, nic.bytes_posted, nic.doorbell_trains),
        "backoff_rounds": counters.get("core.backoff_rounds", 0),
        "events": cluster.env.events_executed,
    }


# -- one append behind two front doors ---------------------------------------

def _staged_then(door):
    """Three tuples staged one by one (``_used > 0``), then the rest
    through ``door`` in two batches: the first tops the staged segment
    up, both leave a tail for the next append."""
    def body(source):
        for row in ROWS[:3]:
            yield from source.push(row)
        assert source._channels[0]._stager.used == 3 * SCHEMA.tuple_size
        for rows in (ROWS[3:150], ROWS[150:]):
            yield from door(source, rows)
    return body


def _batched(source, rows):
    yield from source.push_batch(rows)


def _packed(source, rows):
    yield from source.push_bytes(b"".join(map(SCHEMA.pack, rows)))


@pytest.mark.parametrize("stalled", [False, True], ids=["drained", "stalled"])
@pytest.mark.parametrize("segment_size", [ALIGNED, UNALIGNED],
                         ids=["aligned", "unaligned"])
def test_tuples_and_packed_bytes_are_one_append(segment_size, stalled):
    # A consumer that sleeps through the first 60 us lets the source
    # fill the four-slot ring and back off on it.
    starts_at = 60_000.0 if stalled else 0.0
    batched = _run(_staged_then(_batched), segment_size, starts_at)
    packed = _run(_staged_then(_packed), segment_size, starts_at)
    assert batched["got"] == ROWS
    assert (batched["backoff_rounds"] > 0) is stalled
    assert packed == batched


# -- errors at the offending push --------------------------------------------

@pytest.mark.parametrize("door", ["push", "push_batch", "push_bytes"])
def test_closed_source_refuses_every_front_door(door):
    cluster, dfi = _flow()
    raised = []
    argument = {"push": (1, 1), "push_batch": [(1, 1)],
                "push_bytes": memoryview(SCHEMA.pack((1, 1)))}[door]

    def attempt(endpoint):
        try:
            yield from getattr(endpoint, door)(argument)
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
    if door == "push_batch":
        _closed_channel_mid_row_loop()


def _closed_channel_mid_row_loop():
    """A routed 8-row batch over three targets, the middle channel closed
    and the last one row short of a full segment: the row loop packs
    every row (sealing the last channel's slot), the walk charges and
    keeps slot 0, then meets the closed channel — it takes that slot's
    rows and every later slot's back out (``used``, ``sealed`` and
    ``base`` as they were) and raises FlowClosedError."""
    cluster = Cluster(node_count=4, seed=3)
    dfi = DfiRuntime(cluster)
    dfi.init_shuffle_flow(
        "f", ["node0|0"], ["node1|0", "node2|0", "node3|0"], SCHEMA,
        shuffle_key="key",
        options=FlowOptions(segment_size=ALIGNED, source_segments=2,
                            target_segments=4, credit_threshold=2))
    route = key_hash_router(SCHEMA, "key")
    keys = [[key for key in range(100) if route((key, 0), 3) == slot]
            for slot in range(3)]
    top_up = [(key, 0) for key in keys[2][:7]]
    batch = [(key, 1) for key in keys[0][:3] + keys[1][:2] + keys[2][:3]]
    seen = {}
    got = {0: [], 1: [], 2: []}

    def stagers(source):
        return [(channel._stager.base, channel._stager.used,
                 channel._stager.sealed, channel.tuples_sent)
                for channel in source._channels]

    def source_thread():
        source = yield from dfi.open_source("f", 0)
        for row in top_up:
            yield from source.push(row)
        yield from source._channels[1].close()
        seen["before"] = stagers(source)
        with pytest.raises(FlowClosedError):
            yield from source.push_batch(batch)
        seen["after"] = stagers(source)
        yield from source.close()

    def target_thread(index):
        target = yield from dfi.open_target("f", index)
        while (item := (yield from target.consume())) is not FLOW_END:
            got[index].append(item)

    cluster.env.process(source_thread())
    for index in range(3):
        cluster.env.process(target_thread(index))
    cluster.run()
    size = SCHEMA.tuple_size
    (base, used, sealed, sent), *rest = seen["before"]
    assert seen["after"] == [(base, used + 3 * size, sealed, sent + 3),
                             *rest]
    assert rest[1][1] == 7 * size       # one row short of a full segment
    assert got == {0: batch[:3], 1: [], 2: top_up}


def test_torn_slab_and_mistyped_tuple_send_nothing():
    seen = {}

    def body(source):
        channel = source._channels[0]
        slab = b"".join(map(SCHEMA.pack, ROWS[:5]))
        with pytest.raises(FlowError, match="79 bytes, not a multiple"):
            yield from source.push_bytes(memoryview(slab)[:-1])
        with pytest.raises(SchemaError, match="does not match schema"):
            yield from source.push(("not an int", 1))
        with pytest.raises(SchemaError, match="does not match schema"):
            yield from source.push_batch([(1, 1), ("not an int", 1)])
        seen["sent"] = (channel.tuples_sent, channel.segments_sent,
                        channel._stager.used)
        yield from source.push_batch(ROWS[:5])

    run = _run(body, ALIGNED)
    assert seen["sent"] == (0, 0, 0)
    assert run["got"] == ROWS[:5]


# -- a full ring stalls, backs off, gives up ---------------------------------

@pytest.mark.parametrize("door", [_batched, _packed],
                         ids=["push_batch", "push_bytes"])
def test_full_ring_times_out_after_its_backoff_budget(door):
    """The target opens its ring and never drains it: the source writes
    the four slots, then re-polls ``budget`` times and raises."""
    budget = 3
    cluster, dfi = _flow(max_backoff_retries=budget)
    outcome = {}

    def source_thread():
        source = yield from dfi.open_source("f", 0)
        channel = source._channels[0]
        try:
            yield from door(source, ROWS)
        except FlowTimeoutError as exc:
            outcome["error"] = str(exc)
        outcome["sent"] = channel.segments_sent

    def idle_target():
        yield from dfi.open_target("f", 0)

    cluster.env.process(source_thread())
    cluster.env.process(idle_target())
    cluster.run()
    assert outcome["sent"] == 4
    assert outcome["error"] == (
        f"remote ring on node 1 still full after {budget} backoff rounds")
    counters = cluster.metrics_snapshot()["nodes"][0]["counters"]
    assert counters["core.backoff_rounds"] == budget


# -- the ring's range is proven before the first train -----------------------

def test_handle_that_overstates_its_ring_is_refused():
    cluster, dfi = _flow()
    descriptor = dfi.registry.descriptor("f")
    slot = ALIGNED + FOOTER_SIZE
    region = get_nic(cluster.node(1)).register_memory(4 * slot)
    caught = []

    def source_thread(segment_count):
        handle = RingHandle(node_id=1, rkey=region.rkey,
                            segment_count=segment_count,
                            segment_size=ALIGNED)
        channel = BandwidthSourceChannel(cluster.node(0), descriptor,
                                         handle, ("f", 0, 0))
        try:
            yield channel.charge_batch(8)
            yield from channel.stage_batch(ROWS[:8], SCHEMA.pack_many_into)
        except MemoryRegionError as exc:
            caught.append((segment_count, exc))

    for segment_count in (4, 5):
        cluster.env.process(source_thread(segment_count))
    cluster.run()
    assert [count for count, _exc in caught] == [5]


# -- the pair ShuffleSource drives is the same append ------------------------

def _named(source, rows):
    yield from source.push_batch(rows, target=0)


def _charge_then_stage(source, rows):
    channel = source._channels[0]
    yield channel.charge_batch(len(rows))
    yield from channel.stage_batch(rows, SCHEMA.pack_many_into)


@pytest.mark.parametrize("segment_size", [ALIGNED, UNALIGNED],
                         ids=["aligned", "unaligned"])
@pytest.mark.parametrize("over", [-1, 0, 1], ids=["r-1", "r", "r+1"])
def test_charge_then_stage_is_push_batch_across_the_slot_boundary(
        over, segment_size):
    """Three rows staged leave the open slot ``room`` rows short of its
    flush: a batch one row smaller only stages, a batch of exactly
    ``room`` fills the slot and flushes it, one row more leaves a tail."""
    size = SCHEMA.tuple_size
    room = segment_size // size - 3
    rows = ROWS[3:3 + room + over]
    seen = {}

    def pushed_through(door):
        def body(source):
            channel = source._channels[0]
            for row in ROWS[:3]:
                yield from source.push(row)
            yield from door(source, rows)
            seen[door] = (channel.segments_sent, channel._stager.used)
        return body

    runs = [_run(pushed_through(door), segment_size)
            for door in (_named, _charge_then_stage)]
    assert runs[0]["got"] == ROWS[:3 + len(rows)]
    assert runs[0] == runs[1]
    expected = (0, (room + 2) * size) if over < 0 else (1, over * size)
    assert seen[_named] == seen[_charge_then_stage] == expected


def test_stage_batch_returns_no_flush_until_the_slot_fills():
    def body(source):
        channel = source._channels[0]
        fill = SCHEMA.pack_many_into
        yield channel.charge_batch(7)
        assert channel.stage_batch(ROWS[:7], fill) is NO_FLUSH
        assert (channel._stager.used, channel.tuples_sent) == (7 * 16, 7)
        yield channel.charge_batch(1)
        flush = channel.stage_batch(ROWS[7:8], fill)
        assert flush is not NO_FLUSH
        yield from flush
        assert (channel._stager.used, channel.segments_sent) == (0, 1)

    assert _run(body, ALIGNED)["got"] == ROWS[:8]


def _two_targets():
    cluster = Cluster(node_count=3, seed=3)
    dfi = DfiRuntime(cluster)
    dfi.init_shuffle_flow(
        "f", ["node0|0"], ["node1|0", "node2|0"], SCHEMA, shuffle_key="key",
        options=FlowOptions(segment_size=ALIGNED, source_segments=2,
                            target_segments=4, credit_threshold=2))
    return cluster, dfi


@pytest.mark.parametrize("site", ["explicit", "single", "routed"])
def test_an_empty_batch_costs_no_kernel_event(site):
    """The three shapes of ``ShuffleSource.push_batch`` — a named target,
    the one live target, routed groups: a run that also pushes empty
    batches executes the events of the run that does not."""
    def run(empties):
        cluster, dfi = _flow() if site == "single" else _two_targets()
        target = 1 if site == "explicit" else None
        got = []

        def source_thread():
            source = yield from dfi.open_source("f", 0)
            for _ in range(empties):
                yield from source.push_batch([], target=target)
                yield from source.push_batch(iter(()), target=target)
            yield from source.push_batch(ROWS[:5], target=target)
            for _ in range(empties):
                yield from source.push_batch((), target=target)
            yield from source.close()

        def target_thread(index):
            endpoint = yield from dfi.open_target("f", index)
            while True:
                batch = yield from endpoint.consume_batch()
                if batch is FLOW_END:
                    return
                got.extend(batch)

        cluster.env.process(source_thread())
        for index in range(len(dfi.registry.descriptor("f").targets)):
            cluster.env.process(target_thread(index))
        cluster.run()
        assert sorted(got) == ROWS[:5]
        return cluster.env.events_executed, cluster.now

    assert run(empties=3) == run(empties=0)


def test_closed_channel_refuses_the_charge():
    def body(source):
        channel = source._channels[0]
        channel.closed = True
        with pytest.raises(FlowClosedError):
            channel.charge_batch(0)
        with pytest.raises(FlowClosedError):
            channel.charge_batch(1)
        channel.closed = False
        yield from source.push_batch(ROWS[:2])

    assert _run(body, ALIGNED)["got"] == ROWS[:2]


def test_mistyped_row_in_a_staged_batch_leaves_the_slot_as_it_was():
    seen = []

    def body(source):
        channel = source._channels[0]
        yield from source.push_batch(ROWS[:3])
        for door in (_batched, _charge_then_stage):
            with pytest.raises(SchemaError, match="does not match schema"):
                yield from door(source, [ROWS[3], ("not an int", 1)])
            seen.append((channel._stager.used, channel.tuples_sent,
                         channel.segments_sent))
        yield from source.push_batch(ROWS[3:6])

    run = _run(body, ALIGNED)
    assert seen == [(3 * SCHEMA.tuple_size, 3, 0)] * 2
    assert run["got"] == ROWS[:6]
