"""The bandwidth-mode batched append keeps every check it had.

``BandwidthSourceChannel.push_batch`` is the one batched append: tuples
by default, packed bytes when ``push_bytes`` hands it a slice copy and a
stride. Each test here pins something that must have survived writing it
once: the two front doors are the same append (equal remote ring bytes,
finish time, segment count and RDMA tallies — tuple-aligned and
unaligned segments, with a partial segment already staged, across a
full-ring stall); a closed source, a torn byte slab and a mistyped tuple
fail at the offending push; a full ring nobody drains times the source
out after exactly its backoff budget; a handle that overstates its ring
is refused before the first train writes.

A routed batch is driven by the channel's two-step contract instead of
by that generator — ``charge_batch`` (the closed check and the one CPU
charge), then ``stage_batch`` (``NO_FLUSH`` for rows that only land in
the open slot, the flush loop otherwise). The second half pins that the
two are one append too, on both sides of the slot boundary, and that the
stage-only shape kept the checks: no event for an empty batch, the
closed and the mistyped-row errors at the offending push.
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
        assert source._channels[0]._used == 3 * SCHEMA.tuple_size
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

    def source_thread():
        source = yield from dfi.open_source("f", 0)
        yield from source.close()
        channel = source._channels[0]
        for endpoint in (source, channel):
            argument = {"push": (1, 1), "push_batch": [(1, 1)],
                        "push_bytes": memoryview(SCHEMA.pack((1, 1)))}[door]
            try:
                yield from getattr(endpoint, door)(argument)
            except FlowClosedError as exc:
                raised.append(exc)

    def target_thread():
        target = yield from dfi.open_target("f", 0)
        assert (yield from target.consume()) is FLOW_END

    cluster.env.process(source_thread())
    cluster.env.process(target_thread())
    cluster.run()
    assert len(raised) == 2


def test_torn_slab_and_mistyped_tuple_send_nothing():
    seen = {}

    def body(source):
        channel = source._channels[0]
        slab = b"".join(map(SCHEMA.pack, ROWS[:5]))
        for endpoint in (source, channel):
            with pytest.raises(FlowError, match="79 bytes, not a multiple"):
                yield from endpoint.push_bytes(memoryview(slab)[:-1])
        with pytest.raises(SchemaError, match="does not match schema"):
            yield from source.push(("not an int", 1))
        with pytest.raises(SchemaError, match="does not match schema"):
            yield from source.push_batch([(1, 1), ("not an int", 1)])
        seen["sent"] = (channel.tuples_sent, channel.segments_sent,
                        channel._used)
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
            yield from channel.push_batch(ROWS[:8])
        except MemoryRegionError as exc:
            caught.append((segment_count, exc))

    for segment_count in (4, 5):
        cluster.env.process(source_thread(segment_count))
    cluster.run()
    assert [count for count, _exc in caught] == [5]


# -- the pair ShuffleSource drives is the same append ------------------------

def _through_channel(source, rows):
    yield from source._channels[0].push_batch(rows)


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
            seen[door] = (channel.segments_sent, channel._used)
        return body

    runs = [_run(pushed_through(door), segment_size)
            for door in (_batched, _through_channel)]
    assert runs[0]["got"] == ROWS[:3 + len(rows)]
    assert runs[0] == runs[1]
    expected = (0, (room + 2) * size) if over < 0 else (1, over * size)
    assert seen[_batched] == seen[_through_channel] == expected


def test_stage_batch_returns_no_flush_until_the_slot_fills():
    def body(source):
        channel = source._channels[0]
        fill = SCHEMA.pack_many_into
        yield channel.charge_batch(7)
        assert channel.stage_batch(ROWS[:7], fill) is NO_FLUSH
        assert (channel._used, channel.tuples_sent) == (7 * 16, 7)
        yield channel.charge_batch(1)
        flush = channel.stage_batch(ROWS[7:8], fill)
        assert flush is not NO_FLUSH
        yield from flush
        assert (channel._used, channel.segments_sent) == (0, 1)

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
        assert channel.charge_batch(0) is None
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
        for door in (_batched, _through_channel):
            with pytest.raises(SchemaError, match="does not match schema"):
                yield from door(source, [ROWS[3], ("not an int", 1)])
            seen.append((channel._used, channel.tuples_sent,
                         channel.segments_sent))
        yield from source.push_batch(ROWS[3:6])

    run = _run(body, ALIGNED)
    assert seen == [(3 * SCHEMA.tuple_size, 3, 0)] * 2
    assert run["got"] == ROWS[:6]
