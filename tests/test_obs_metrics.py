"""Tests for the observability plane's counters and histograms.

Three contracts from docs/observability.md are pinned here:

* **exactness** — counters agree with hand-computed ground truth on a
  flow whose segment arithmetic is done by hand;
* **determinism** — two same-seed runs produce bit-identical snapshots
  (histograms included: bucketing is a pure function of simulated time);
* **zero cost when off** — a run without ``enable_observability`` keeps
  ``cluster.obs`` / ``node.metrics`` at ``None`` and allocates no
  registries, so hot paths pay exactly one attribute check.
"""

import pytest

from repro.core import (
    FLOW_END,
    AggregationSpec,
    DfiRuntime,
    Endpoint,
    FlowOptions,
    Optimization,
    Ordering,
    Schema,
)
from repro.obs import Histogram, render_report
from repro.simnet import Cluster

SCHEMA = Schema(("key", "uint64"), ("value", "uint64"))


def _run_two_segment_shuffle(enable_obs: bool = True):
    """16 x 16 B tuples through a 1:1 bandwidth shuffle with 128 B
    segments: exactly 8 tuples per segment, so the data is exactly two
    full segments plus the close-marker flush."""
    cluster = Cluster(node_count=2)
    if enable_obs:
        cluster.enable_observability()
    dfi = DfiRuntime(cluster)
    dfi.init_shuffle_flow("obs", [Endpoint(0, 0)], [Endpoint(1, 0)],
                          SCHEMA, shuffle_key="key",
                          options=FlowOptions(segment_size=128))
    consumed = []

    def src():
        source = yield from dfi.open_source("obs", 0)
        for i in range(16):
            yield from source.push((i, i * 10))
        yield from source.close()

    def tgt():
        target = yield from dfi.open_target("obs", 0)
        while True:
            item = yield from target.consume()
            if item is FLOW_END:
                break
            consumed.append(item)

    cluster.env.process(src())
    cluster.env.process(tgt())
    cluster.run()
    assert len(consumed) == 16
    return cluster


class TestCounterExactness:
    def test_two_segment_shuffle_counters(self):
        cluster = _run_two_segment_shuffle()
        src = cluster.node(0).metrics
        tgt = cluster.node(1).metrics
        # 16 tuples at 8 per segment: two full data segments, plus the
        # close() flush carrying the close marker = 3 flushes.
        assert src.get("core.tuples_pushed") == 16
        assert src.get("core.segments_flushed") == 3
        assert tgt.get("core.tuples_consumed") == 16
        assert tgt.get("core.segments_consumed") == 3
        # The first flush pays a cold footer read; the pipelined pre-read
        # covers the remaining two (paper Section 5.2).
        assert src.get("core.preread_misses") == 1
        assert src.get("core.preread_hits") == 2
        # Every flush is one posted WQE on the source NIC.
        assert src.get("rdma.wqes_posted") == 3

    def test_segment_latency_histogram_samples(self):
        cluster = _run_two_segment_shuffle()
        hist = cluster.node(1).metrics.histograms["core.seg_latency"]
        # One write->consume latency sample per drained segment, always
        # positive (consumption strictly follows the flush).
        assert hist.count == 3
        assert hist.min > 0
        assert hist.total >= 3 * hist.min

    def test_combiner_aggregation_counter(self):
        cluster = Cluster(node_count=3)
        cluster.enable_observability()
        dfi = DfiRuntime(cluster)
        dfi.init_combiner_flow(
            "agg", [Endpoint(1, 0), Endpoint(2, 0)], Endpoint(0, 0),
            SCHEMA, aggregation=AggregationSpec("sum", "key", "value"),
            options=FlowOptions(segment_size=256))
        out = {}

        def src(index):
            source = yield from dfi.open_source("agg", index)
            for i in range(50):
                yield from source.push((i % 4, 1))
            yield from source.close()

        def tgt():
            target = yield from dfi.open_target("agg")
            out["aggregates"] = yield from target.consume_all()

        for index in range(2):
            cluster.env.process(src(index))
        cluster.env.process(tgt())
        cluster.run()
        assert sum(out["aggregates"].values()) == 100
        assert cluster.node(0).metrics.get("core.tuples_aggregated") == 100
        assert cluster.node(0).metrics.get("core.tuples_consumed") == 100


class TestDeterminism:
    def test_same_seed_runs_snapshot_bit_identical(self):
        first = _run_two_segment_shuffle().metrics_snapshot()
        second = _run_two_segment_shuffle().metrics_snapshot()
        assert first == second

    def test_observability_does_not_move_simulated_time(self):
        bare = _run_two_segment_shuffle(enable_obs=False)
        with_obs = _run_two_segment_shuffle(enable_obs=True)
        assert bare.now == with_obs.now


class TestDisabledMode:
    def test_disabled_leaves_no_registries(self):
        cluster = _run_two_segment_shuffle(enable_obs=False)
        assert cluster.obs is None
        for node in cluster.nodes:
            assert node.metrics is None
        snapshot = cluster.metrics_snapshot()
        assert snapshot["nodes"] == {}
        # The always-on infrastructure tallies still render.
        assert "nics" in render_report(snapshot) or snapshot["nics"]

    def test_enable_is_idempotent(self):
        cluster = Cluster(node_count=2)
        plane = cluster.enable_observability()
        assert cluster.enable_observability() is plane
        assert cluster.node(0).metrics is plane.registry(0)

    def test_trace_option_auto_enables_plane(self):
        cluster = Cluster(node_count=2)
        assert cluster.obs is None
        dfi = DfiRuntime(cluster)
        dfi.init_shuffle_flow("auto", [Endpoint(0, 0)], [Endpoint(1, 0)],
                              SCHEMA, shuffle_key="key",
                              options=FlowOptions(trace=True))

        def src():
            source = yield from dfi.open_source("auto", 0)
            yield from source.push((1, 2))
            yield from source.close()

        def tgt():
            target = yield from dfi.open_target("auto", 0)
            while (yield from target.consume()) is not FLOW_END:
                pass

        cluster.env.process(src())
        cluster.env.process(tgt())
        cluster.run()
        assert cluster.obs is not None
        assert "auto" in cluster.obs.tracers
        assert cluster.obs.tracers["auto"].emitted > 0


class TestPrimitives:
    def test_histogram_pow2_buckets(self):
        hist = Histogram()
        for value in (0, 1, 2, 3, 4, 7, 8, 1023, -5):
            hist.record(value)
        # bit_length buckets: 0 -> 0, 1 -> 1, {2,3} -> 2, {4..7} -> 3,
        # 8 -> 4, 1023 -> 10; negatives clamp to bucket 0.
        assert hist.buckets == {0: 2, 1: 1, 2: 2, 3: 2, 4: 1, 10: 1}
        assert hist.count == 9
        assert hist.min == 0 and hist.max == 1023
        snap = hist.snapshot()
        assert snap["count"] == 9 and snap["buckets"][10] == 1

    def test_registry_counters_and_report(self):
        plane = Cluster(node_count=1).enable_observability()
        registry = plane.registry(7)
        registry.inc("core.tuples_pushed")
        registry.inc("core.tuples_pushed", 41)
        registry.observe("core.seg_latency", 960.0)
        assert registry.get("core.tuples_pushed") == 42
        assert registry.get("core.never_touched") == 0
        report = registry.report()
        assert "node 7" in report
        assert "core.tuples_pushed" in report and "42" in report

    def test_histogram_mean_empty(self):
        assert Histogram().mean == 0.0


@pytest.mark.parametrize("multicast", [False, True])
def test_replicate_counters(multicast):
    cluster = Cluster(node_count=3)
    cluster.enable_observability()
    dfi = DfiRuntime(cluster)
    dfi.init_replicate_flow(
        "rep", [Endpoint(0, 0)], [Endpoint(1, 0), Endpoint(2, 0)],
        SCHEMA, options=FlowOptions(segment_size=128, multicast=multicast))
    received = [0]

    def src():
        source = yield from dfi.open_source("rep", 0)
        for i in range(16):
            yield from source.push((i, i))
        yield from source.close()

    def tgt(index):
        target = yield from dfi.open_target("rep", index)
        while True:
            item = yield from target.consume()
            if item is FLOW_END:
                break
            received[0] += 1

    cluster.env.process(src())
    for index in range(2):
        cluster.env.process(tgt(index))
    cluster.run()
    assert received[0] == 32
    assert cluster.node(0).metrics.get("core.tuples_pushed") == 16
    delivered = sum(cluster.node(1 + n).metrics.get("core.tuples_consumed")
                    for n in range(2))
    assert delivered == 32


@pytest.mark.parametrize("mode", list(Optimization), ids=lambda m: m.name)
@pytest.mark.parametrize("batched", [False, True], ids=["push", "batch"])
def test_naive_replicate_counts_each_tuple_once(mode, batched):
    """A naive replicate source writes each of its two target rings
    through a channel of its own: whatever carries a tuple there — a
    per-segment flush, a doorbell train, a latency send — the tuple counts
    once, and a segment once per ring (two full ones plus the close marker
    in bandwidth mode, one per tuple plus the marker in latency mode)."""
    cluster = Cluster(node_count=3)
    cluster.enable_observability()
    dfi = DfiRuntime(cluster)
    dfi.init_replicate_flow(
        "rep", [Endpoint(0, 0)], [Endpoint(1, 0), Endpoint(2, 0)],
        SCHEMA, optimization=mode, options=FlowOptions(segment_size=128))
    rows = [(i, i) for i in range(16)]

    def src():
        source = yield from dfi.open_source("rep", 0)
        if batched:
            yield from source.push_batch(rows)
        else:
            for row in rows:
                yield from source.push(row)
        yield from source.close()

    def tgt(index):
        target = yield from dfi.open_target("rep", index)
        while (yield from target.consume()) is not FLOW_END:
            pass

    cluster.env.process(src())
    for index in range(2):
        cluster.env.process(tgt(index))
    cluster.run()
    metrics = cluster.node(0).metrics
    per_ring = 3 if mode is Optimization.BANDWIDTH else 17
    assert metrics.get("core.tuples_pushed") == 16
    assert metrics.get("core.segments_flushed") == 2 * per_ring


@pytest.mark.parametrize("ordering", [Ordering.GLOBAL, Ordering.NONE],
                         ids=["ordered", "unordered"])
def test_every_consumed_segment_has_one_latency_sample(ordering):
    """Four sources into one target over 4-slot rings, the target
    starting 20 us late: several segments are in flight on a ring at
    once. The latency join pairs each consumed segment with the write
    that filled its ring slot, so there is one sample per segment — also
    on an ordered flow, whose footers carry the sequencer's global
    numbers instead of ring positions."""
    sources = 4
    cluster = Cluster(node_count=sources + 1)
    cluster.enable_observability()
    dfi = DfiRuntime(cluster)
    dfi.init_replicate_flow(
        "rep", [Endpoint(1 + n, 0) for n in range(sources)],
        [Endpoint(0, 0)], SCHEMA, ordering=ordering,
        options=FlowOptions(segment_size=64, target_segments=4,
                            credit_threshold=2))
    received = []

    def src(index):
        source = yield from dfi.open_source("rep", index)
        for i in range(400):
            yield from source.push((index, i))
        yield from source.close()

    def tgt():
        target = yield from dfi.open_target("rep", 0)
        yield cluster.env.timeout(20_000.0)
        while (item := (yield from target.consume())) is not FLOW_END:
            received.append(item)

    for index in range(sources):
        cluster.env.process(src(index))
    cluster.env.process(tgt())
    cluster.run()
    assert len(received) == sources * 400
    metrics = cluster.node(0).metrics
    consumed = metrics.get("core.segments_consumed")
    assert consumed == sources * (400 * SCHEMA.tuple_size // 64 + 1)
    assert metrics.histograms["core.seg_latency"].count == consumed


# -- the kernel section of the snapshot ----------------------------------------

def _snapshot_after_traffic(cluster):
    def worker(node):
        for _ in range(5):
            yield node.env.timeout(10.0)
        if node.node_id == 0:
            cluster.fabric.unicast(node, cluster.node(3), 256)

    for node in cluster.nodes:
        node.spawn(worker(node))
    # Three hops of one train: three entries, three sequence numbers.
    cluster.env.schedule_train([(when, list, ()) for when in (1.0, 2.0, 3.0)])
    cluster.run()
    return cluster.metrics_snapshot()


def test_the_kernel_section_is_the_event_count_with_the_plane_on():
    """With the plane on, the ``kernel`` section is still one dict with
    the event count, and no ``kernel.*`` counter exists on any node."""
    cluster = Cluster.racked(2, 2)
    cluster.enable_observability()
    snapshot = _snapshot_after_traffic(cluster)
    assert snapshot["kernel"] == {
        "events_executed": cluster.env.events_executed}
    assert cluster.env.events_executed == cluster.env._sequence
    for node in snapshot["nodes"].values():
        assert not [name for name in node.get("counters", {})
                    if name.startswith("kernel.")]
    # Reading is passive: harvesting scheduled nothing.
    events_before = cluster.env._sequence
    assert cluster.metrics_snapshot()["kernel"] == snapshot["kernel"]
    assert cluster.env._sequence == events_before


def test_the_kernel_section_is_the_event_count_with_the_plane_off():
    """With the plane off, the same ``kernel`` dict — what the perf
    ledger's harness indexes."""
    cluster = Cluster(node_count=4)
    assert cluster.metrics_snapshot()["kernel"] == {"events_executed": 0}
    snapshot = _snapshot_after_traffic(cluster)
    assert snapshot["nodes"] == {}
    assert snapshot["kernel"] == {
        "events_executed": cluster.env.events_executed}
    assert snapshot["kernel"].get("mailbox_crossings", 0) == 0
    assert snapshot["kernel"]["events_executed"] == (
        _snapshot_after_traffic(Cluster.racked(2, 2))["kernel"][
            "events_executed"]) > 0
