"""Tests for the segment-granular consume path.

A target drains its rings through one loop per channel (rows, or
zero-copy payload views for ``consume_bytes``), walks only the channels
its doorbell marked, and in latency mode publishes the consumed counter
once per drain pass. Whatever the consumer's granularity — per-tuple
``consume``, ``consume_batch``, ``consume_bytes`` — it must deliver the
same tuples, keep per-channel FIFO order, hold every segment to one
torn-row rule, and leave every simulated metric — event order,
timestamps, credit counter values — bit-identical.
"""

import pytest

from repro.common.errors import FlowAbortedError, FlowError
from repro.core import (
    FLOW_END,
    AggregationSpec,
    DfiRuntime,
    FlowOptions,
    Optimization,
    Ordering,
    Schema,
)
from repro.core.segment import FLAG_CONSUMABLE, pack_footer
from repro.simnet import Cluster

SCHEMA = Schema(("key", "uint64"), ("value", "uint64"))
PER_SOURCE = 400


def _build(sources, optimization, seed=7):
    cluster = Cluster(node_count=sources + 1, seed=seed)
    dfi = DfiRuntime(cluster)
    dfi.init_shuffle_flow(
        "f", [f"node{1 + s}|0" for s in range(sources)], ["node0|0"],
        SCHEMA, shuffle_key="key", optimization=optimization,
        options=FlowOptions())
    return cluster, dfi


def _sources(cluster, dfi, sources):
    def source_thread(index):
        source = yield from dfi.open_source("f", index)
        batch = [(index * PER_SOURCE + i, i) for i in range(PER_SOURCE)]
        yield from source.push_batch(batch, target=0)
        yield from source.close()

    for s in range(sources):
        cluster.env.process(source_thread(s))


def _run_consume(sources, optimization, mode):
    cluster, dfi = _build(sources, optimization)
    _sources(cluster, dfi, sources)
    out = {"tuples": [], "target": None}

    def target_thread():
        target = yield from dfi.open_target("f", 0)
        out["target"] = target
        if mode == "batched":
            while True:
                batch = yield from target.consume_batch()
                if batch is FLOW_END:
                    return
                out["tuples"].extend(batch)
        else:
            while True:
                item = yield from target.consume()
                if item is FLOW_END:
                    return
                out["tuples"].append(item)

    cluster.env.process(target_thread())
    cluster.run()
    out["now"] = cluster.env.now
    out["sequence"] = cluster.env._sequence
    return out


# -- drain-all equivalence -----------------------------------------------

@pytest.mark.parametrize("optimization",
                         [Optimization.BANDWIDTH, Optimization.LATENCY])
def test_consume_batch_matches_per_tuple_delivery(optimization):
    """consume_batch delivers the exact tuples of per-tuple consume with
    per-source FIFO order intact."""
    per_tuple = _run_consume(4, optimization, "per-tuple")
    batched = _run_consume(4, optimization, "batched")
    assert sorted(batched["tuples"]) == sorted(per_tuple["tuples"])
    for s in range(4):
        stream = [t for t in batched["tuples"]
                  if s * PER_SOURCE <= t[0] < (s + 1) * PER_SOURCE]
        assert stream == [(s * PER_SOURCE + i, i) for i in range(PER_SOURCE)]


def test_consume_batch_drains_every_ready_channel():
    """A batch spans channels: once segments from all sources sit in
    their rings, a single consume_batch drains every ready channel — it
    never stops at the first ready segment."""
    cluster, dfi = _build(8, Optimization.BANDWIDTH)
    _sources(cluster, dfi, 8)
    batches = []

    def target_thread():
        target = yield from dfi.open_target("f", 0)
        # Let every source land its data before the first drain
        # (sources only wait on ring publication, which open_target did).
        yield cluster.env.timeout(50_000_000.0)
        while True:
            batch = yield from target.consume_batch()
            if batch is FLOW_END:
                return
            batches.append(batch)

    cluster.env.process(target_thread())
    cluster.run()
    assert sum(len(b) for b in batches) == 8 * PER_SOURCE
    assert {t[0] // PER_SOURCE for t in batches[0]} == set(range(8)), (
        "first batch should span every source's channel")


# -- zero-copy consume_bytes ---------------------------------------------

def test_consume_bytes_roundtrips_packed_tuples():
    """Chunks reassemble (via unpack_rows) into exactly the pushed
    tuples, per-source FIFO order intact."""
    cluster, dfi = _build(4, Optimization.BANDWIDTH)
    _sources(cluster, dfi, 4)
    rows = []

    def target_thread():
        target = yield from dfi.open_target("f", 0)
        while True:
            chunks = yield from target.consume_bytes()
            if chunks is FLOW_END:
                return
            # Decode before the next yield: the views alias ring memory
            # already released for reuse.
            for chunk in chunks:
                rows.extend(SCHEMA.unpack_rows(chunk))

    cluster.env.process(target_thread())
    cluster.run()
    assert len(rows) == 4 * PER_SOURCE
    for s in range(4):
        stream = [t for t in rows
                  if s * PER_SOURCE <= t[0] < (s + 1) * PER_SOURCE]
        assert stream == [(s * PER_SOURCE + i, i) for i in range(PER_SOURCE)]


@pytest.mark.parametrize("optimization",
                         [Optimization.BANDWIDTH, Optimization.LATENCY])
def test_consume_bytes_lands_on_the_consume_batch_timeline(optimization):
    """``consume_bytes`` is ``consume_batch`` minus the unpack: every
    drain hands over the same rows at the same simulated instant and the
    flow ends at the same one (the combiner target drains bytes only, so
    its timeline is the tuple consumer's)."""
    def drains(consume, decode):
        cluster, dfi = _build(4, optimization)
        _sources(cluster, dfi, 4)
        seen = []

        def target_thread():
            target = yield from dfi.open_target("f", 0)
            while True:
                drained = yield from consume(target)
                if drained is FLOW_END:
                    return
                seen.append((cluster.env.now, decode(drained)))

        cluster.env.process(target_thread())
        cluster.run()
        return seen, cluster.env.now

    as_bytes = drains(
        lambda target: target.consume_bytes(),
        lambda chunks: [row for chunk in chunks
                        for row in SCHEMA.unpack_rows(chunk)])
    as_tuples = drains(lambda target: target.consume_batch(), list)
    assert as_bytes == as_tuples
    assert sum(len(rows) for _, rows in as_bytes[0]) == 4 * PER_SOURCE


def test_consume_bytes_chunks_are_whole_tuples():
    cluster, dfi = _build(2, Optimization.BANDWIDTH)
    _sources(cluster, dfi, 2)
    sizes = []

    def target_thread():
        target = yield from dfi.open_target("f", 0)
        while True:
            chunks = yield from target.consume_bytes()
            if chunks is FLOW_END:
                return
            sizes.extend(len(c) for c in chunks)

    cluster.env.process(target_thread())
    cluster.run()
    assert sizes and all(size % SCHEMA.tuple_size == 0 for size in sizes)
    assert sum(sizes) == 2 * PER_SOURCE * SCHEMA.tuple_size


def test_consume_bytes_rejects_buffered_tuples():
    """Mixing consume_bytes under leftover unpacked tuples is an error —
    it would reorder the stream."""
    cluster, dfi = _build(1, Optimization.BANDWIDTH)
    _sources(cluster, dfi, 1)
    caught = {}

    def target_thread():
        target = yield from dfi.open_target("f", 0)
        first = yield from target.consume()  # leaves the rest buffered
        assert first == (0, 0)
        try:
            yield from target.consume_bytes()
        except FlowError as exc:
            caught["error"] = str(exc)
        # Drain normally so the flow finishes.
        while True:
            item = yield from target.consume()
            if item is FLOW_END:
                return

    cluster.env.process(target_thread())
    cluster.run()
    assert "buffered" in caught["error"]


def test_consume_bytes_unavailable_on_ordered_replicate():
    cluster = Cluster(node_count=3, seed=3)
    dfi = DfiRuntime(cluster)
    dfi.init_replicate_flow(
        "r", ["node0|0", "node1|0"], ["node2|0"], SCHEMA,
        ordering=Ordering.GLOBAL)
    caught = {}

    def source_thread(index):
        source = yield from dfi.open_source("r", index)
        yield from source.push((index, index))
        yield from source.close()

    def target_thread():
        target = yield from dfi.open_target("r", 0)
        try:
            yield from target.consume_bytes()
        except FlowError as exc:
            caught["error"] = str(exc)
        while True:
            item = yield from target.consume()
            if item is FLOW_END:
                return

    cluster.env.process(source_thread(0))
    cluster.env.process(source_thread(1))
    cluster.env.process(target_thread())
    cluster.run()
    assert "ordered" in caught["error"]


# -- one credit publication per drain pass ---------------------------------

def _credit_state(target):
    """(local consumed counters, raw credit counter memory) per channel."""
    counters = []
    for channel in target._channels:
        raw = channel._credit_region.mem[
            channel._credit_offset:channel._credit_offset + 8]
        counters.append((channel._consumed, int.from_bytes(raw, "little")))
    return counters


def _run_latency_credit(mode):
    out = _run_consume(4, Optimization.LATENCY, mode)
    out["credits"] = _credit_state(out["target"])
    return out


def test_credit_coalescing_is_observationally_identical():
    """A latency drain publishes the consumed counter once per pass. A
    per-tuple consumer pops one pass's tuples over many ``consume``
    calls, a batch consumer takes them in one: same tuples, same final
    credit values, same simulated end time and event count — a pass runs
    inside one event continuation, so no remote read can sample between
    its segments."""
    batched = _run_latency_credit("batched")
    per_tuple = _run_latency_credit("per-tuple")
    assert batched["tuples"] == per_tuple["tuples"]
    assert batched["credits"] == per_tuple["credits"]
    assert batched["now"] == per_tuple["now"]
    assert batched["sequence"] == per_tuple["sequence"]
    # Published counter matches segments actually consumed, per channel.
    for consumed, published in batched["credits"]:
        assert published == consumed
        assert consumed >= 1  # data + close marker flowed through


def test_credit_trace_identical_across_placements():
    """Full event-trace fingerprint: seeded latency runs that consume
    per tuple, or alternate ``consume`` with ``consume_batch`` (the batch
    then hands over what the tuple left buffered), schedule the exact
    events of a batch consumer, and every channel's published counter
    is its consumed count."""
    traces = []
    for placement in ("batched", "per-tuple", "mixed"):
        cluster, dfi = _build(2, Optimization.LATENCY)
        _sources(cluster, dfi, 2)
        received = []
        credits = []

        def target_thread():
            target = yield from dfi.open_target("f", 0)
            while True:
                if placement == "batched":
                    got = yield from target.consume_batch()
                else:
                    got = yield from target.consume()
                    if got is not FLOW_END:
                        received.append(got)
                        if placement == "mixed":
                            got = yield from target.consume_batch()
                        else:
                            continue
                if got is FLOW_END:
                    credits.extend(_credit_state(target))
                    return
                received.extend(got)

        cluster.env.process(target_thread())
        cluster.run()
        assert credits and all(published == consumed
                               for consumed, published in credits)
        traces.append((cluster.env.now, cluster.env._sequence,
                       tuple(received)))
    assert traces[0] == traces[1] == traces[2]
    assert len(traces[0][2]) == 2 * PER_SOURCE


# -- one torn-row rule ------------------------------------------------------

_TORN_CASES = [("shuffle", "consume"), ("shuffle", "consume_batch"),
               ("shuffle", "consume_bytes"), ("replicate-ordered", "consume"),
               ("sharp", "consume_all"), ("replicate-multicast", "consume"),
               ("replicate-multicast", "consume_batch"),
               ("multicast-oversize", "consume")]

#: A SHARP source tuple (24 B) is wider than the switch's partial
#: ``(group, value)`` pair (16 B): the switch ring checks pairs.
_WIDE = Schema(("key", "uint64"), ("value", "uint64"), ("pad", "uint64"))


@pytest.mark.parametrize("kind, mode", _TORN_CASES)
def test_torn_row_raises_one_flow_error(kind, mode):
    """A consumable footer whose ``used`` is not a whole number of rows
    is a protocol bug every consume flavour reports the same way — none
    unpacks a partial row or silently drops it. A multicast datagram is
    held to what it carried: ``multicast-oversize`` claims a row more
    than a full segment, which would run on into the next receive slot
    of the ring."""
    cluster = Cluster(node_count=2, seed=5)
    dfi = DfiRuntime(cluster)
    multicast = kind in ("replicate-multicast", "multicast-oversize")
    if multicast:
        dfi.init_replicate_flow("f", ["node1|0"], ["node0|0"], SCHEMA,
                                options=FlowOptions(multicast=True))
        # A multicast target opens only once its source has.
        cluster.env.process(dfi.open_source("f", 0))
    elif kind == "shuffle":
        dfi.init_shuffle_flow("f", ["node1|0"], ["node0|0"], SCHEMA,
                              shuffle_key="key")
    elif kind == "sharp":
        dfi.init_combiner_flow(
            "f", ["node1|0"], "node0|0", _WIDE,
            aggregation=AggregationSpec("sum", "key", "value"),
            options=FlowOptions(in_network_aggregation=True))
    else:
        dfi.init_replicate_flow("f", ["node1|0"], ["node0|0"], SCHEMA,
                                ordering=Ordering.GLOBAL)
    row = SCHEMA.tuple_size  # 16 B: a shuffle row, or a SHARP pair
    torn = 2 * row + 3
    caught = {}

    def target_thread():
        nonlocal torn
        target = yield from dfi.open_target("f", 0)
        if multicast:
            # A full segment's payload, its footer claiming ``torn`` bytes.
            room = target._payload_size
            if kind == "multicast-oversize":
                torn = room + row
            target._ud_qp._deliver_datagram(
                bytes(room) + pack_footer(torn, FLAG_CONSUMABLE))
            caught["segment_size"] = room
        else:
            inner = target._inner if kind == "sharp" else target
            ring = inner._channels[0].ring
            ring.region.write(ring.payload_offset(0), bytes(torn))
            ring.write_footer(0, torn, FLAG_CONSUMABLE)
            caught["segment_size"] = ring.segment_size
        try:
            yield from getattr(target, mode)()
        except FlowError as exc:
            caught["error"] = exc

    cluster.env.process(target_thread())
    cluster.run()
    error = caught["error"]
    assert type(error) is FlowError
    assert str(error) == (
        f"segment 0 holds {torn} bytes: not a whole number of "
        f"{row}-byte rows within {caught['segment_size']}")


# -- abort interaction ----------------------------------------------------

def test_consume_batch_delivers_buffered_tuples_before_abort():
    """A drain pass that picks up data and an abort marker still hands
    the data over first; the abort surfaces on the next call."""
    cluster = Cluster(node_count=2, seed=11)
    dfi = DfiRuntime(cluster)
    dfi.init_shuffle_flow("f", ["node1|0"], ["node0|0"], SCHEMA,
                          shuffle_key="key",
                          optimization=Optimization.LATENCY)
    outcome = {"received": [], "aborted": False}

    def source_thread():
        source = yield from dfi.open_source("f", 0)
        for i in range(50):
            yield from source.push((i, i))
        yield from source.abort()

    def target_thread():
        target = yield from dfi.open_target("f", 0)
        try:
            while True:
                batch = yield from target.consume_batch()
                if batch is FLOW_END:
                    return
                outcome["received"].extend(batch)
        except FlowAbortedError:
            outcome["aborted"] = True

    cluster.env.process(source_thread())
    cluster.env.process(target_thread())
    cluster.run()
    assert outcome["aborted"]
    assert outcome["received"] == [(i, i) for i in range(50)]


# -- FLOW_END: one owner for "channel finished" ----------------------------

_END_CASES = [
    (kind, mode)
    for kind in ("shuffle", "replicate", "replicate-ordered")
    for mode in ("consume", "consume_batch", "consume_bytes")
    if (kind, mode) != ("replicate-ordered", "consume_bytes")
] + [("combiner", "consume_step")]

#: Tuples in what one call of each consume flavour returns.
_TUPLES_IN = {
    "consume": lambda row: 1,
    "consume_batch": len,
    "consume_step": int,
    "consume_bytes": lambda chunks: (sum(map(len, chunks))
                                     // SCHEMA.tuple_size),
}


@pytest.mark.parametrize("late", [False, True],
                         ids=["consuming-as-it-arrives", "all-landed-first"])
@pytest.mark.parametrize("sources", [1, 8])
@pytest.mark.parametrize("kind, mode", _END_CASES)
def test_flow_end_on_the_consume_after_the_last_close_marker(
        kind, mode, sources, late):
    """Every channel's close marker is counted once, wherever it is
    consumed (``poll`` on the ordered path, ``drain`` of rows or bytes),
    so the consume that follows the last one returns FLOW_END — also when
    the marker sat in the same drain pass as the data before it."""
    per_source = 5
    cluster = Cluster(node_count=sources + 1, seed=11)
    dfi = DfiRuntime(cluster)
    senders = [f"node{1 + s}|0" for s in range(sources)]
    if kind == "shuffle":
        dfi.init_shuffle_flow("f", senders, ["node0|0"], SCHEMA,
                              shuffle_key="key")
    elif kind == "combiner":
        dfi.init_combiner_flow("f", senders, "node0|0", SCHEMA,
                               AggregationSpec("count", "key", "value"))
    else:
        dfi.init_replicate_flow(
            "f", senders, ["node0|0"], SCHEMA,
            ordering=(Ordering.GLOBAL if kind == "replicate-ordered"
                      else Ordering.NONE))
    env = cluster.env
    seen = {"tuples": 0, "calls_after_end": 0}

    def source_thread(index):
        source = yield from dfi.open_source("f", index)
        for i in range(per_source):
            yield from source.push((index * per_source + i, i))
        yield from source.close()

    def target_thread():
        target = yield from dfi.open_target("f", 0)
        if late:
            yield env.timeout(1e7)      # data and markers have all landed
        started = env.now
        consume = getattr(target, mode)
        while True:
            got = yield from consume()
            if got is FLOW_END:
                break
            seen["tuples"] += _TUPLES_IN[mode](got)
        if late:
            # One pass drained data and markers alike; nothing was left
            # to wait for.
            assert env.now == started
        assert (yield from consume()) is FLOW_END
        seen["calls_after_end"] += 1

    for index in range(sources):
        env.process(source_thread(index))
    target_proc = env.process(target_thread())
    cluster.run()
    assert target_proc.processed and target_proc.ok
    assert seen == {"tuples": sources * per_source, "calls_after_end": 1}
