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
