"""Tests for the segment-granular consume path.

The drain-all rebuild (doorbell-driven scans, multi-segment drains,
coalesced credit writes, zero-copy ``consume_bytes``) is a wall-clock
optimization: it must deliver exactly the same tuples as the per-tuple
path, keep per-channel FIFO order, and leave every simulated metric —
event order, timestamps, credit counter values — bit-identical.
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


def _run_consume(sources, optimization, mode, prepare=None):
    cluster, dfi = _build(sources, optimization)
    _sources(cluster, dfi, sources)
    out = {"tuples": [], "target": None}

    def target_thread():
        target = yield from dfi.open_target("f", 0)
        out["target"] = target
        if prepare is not None:
            prepare(target)
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


# -- coalesced credit writes ---------------------------------------------

def _credit_state(target):
    """(local consumed counters, raw credit counter memory) per channel."""
    counters = []
    for channel in target._channels:
        raw = channel._credit_region.mem[
            channel._credit_offset:channel._credit_offset + 8]
        counters.append((channel._consumed, int.from_bytes(raw, "little")))
    return counters


def _run_latency_credit(coalescing):
    def prepare(target):
        for channel in target._channels:
            channel.credit_coalescing = coalescing

    out = _run_consume(4, Optimization.LATENCY, "batched", prepare=prepare)
    out["credits"] = _credit_state(out["target"])
    out["sequence"] = None
    return out


def test_credit_coalescing_is_observationally_identical():
    """One consumed-counter write per drain vs one per segment: same
    tuples, same final credit values, same simulated end time and event
    count — a drain runs inside one event continuation, so no remote
    read can sample between the per-segment writes."""
    coalesced = _run_latency_credit(True)
    per_segment = _run_latency_credit(False)
    assert coalesced["tuples"] == per_segment["tuples"]
    assert coalesced["credits"] == per_segment["credits"]
    assert coalesced["now"] == per_segment["now"]
    # Published counter matches segments actually consumed, per channel.
    for consumed, published in coalesced["credits"]:
        assert published == consumed
        assert consumed >= 1  # data + close marker flowed through


def test_credit_trace_identical_across_placements():
    """Full event-trace fingerprint: seeded latency runs with per-drain
    vs per-segment credit publication schedule the exact same events."""
    traces = []
    for coalescing in (True, False):
        cluster, dfi = _build(2, Optimization.LATENCY)
        _sources(cluster, dfi, 2)
        received = []

        def target_thread():
            target = yield from dfi.open_target("f", 0)
            for channel in target._channels:
                channel.credit_coalescing = coalescing
            while True:
                batch = yield from target.consume_batch()
                if batch is FLOW_END:
                    return
                received.extend(batch)

        cluster.env.process(target_thread())
        cluster.run()
        traces.append((cluster.env.now, cluster.env._sequence,
                       tuple(received)))
    assert traces[0] == traces[1]


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
    consumed (``poll`` on the ordered path, ``drain``, ``drain_bytes``),
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
