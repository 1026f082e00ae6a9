"""The observability plane's cost budget as an exact count.

Wall-clock ratios are noise on a shared box; the number of Python and C
calls a run makes is not. Each test runs the same flow with the plane
off and with ``trace=True, causal=True`` and bounds the *extra* calls
per segment, twice: what the data path pays to log one record per
doorbell train and per drain pass (the in-run chunk folds patched out),
and what the whole plane pays with the log folded in chunks as the run
goes (``repro.obs.log``). When every layer recorded live, call by call,
the whole was 46.6 (bandwidth shuffle), 38.9 (latency) and 27.0
(multicast replicate, per delivered segment).
"""

import pytest

from repro.common.planelog import EDGE, WQE
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

SCHEMA = Schema(("key", "uint64"), ("pad", 56))
ROWS = [((i * 0x9E3779B97F4A7C15) & (2 ** 64 - 1), bytes(56))
        for i in range(32768)]


def _cluster(obs) -> Cluster:
    """``obs``: ``False`` off, ``True`` trace + causal, ``"counters"``."""
    cluster = Cluster(node_count=9)
    if obs:
        full = obs is True
        cluster.enable_observability(trace=full, causal=full)
    return cluster


def _drain(cluster, dfi, flow, consume):
    def target(index):
        endpoint = yield from dfi.open_target(flow, index)
        while (yield from getattr(endpoint, consume)()) is not FLOW_END:
            pass

    for index in range(8):
        cluster.env.process(target(index))


def _shuffle(obs: bool, optimization, rows, batch: int) -> Cluster:
    cluster = _cluster(obs)
    dfi = DfiRuntime(cluster)
    dfi.init_shuffle_flow(
        "flow", [Endpoint(0, 0)], [Endpoint(1 + n, 0) for n in range(8)],
        SCHEMA, shuffle_key="key", optimization=optimization)

    def source():
        src = yield from dfi.open_source("flow", 0)
        for start in range(0, len(rows), batch):
            yield from src.push_batch(rows[start:start + batch])
        yield from src.close()

    cluster.env.process(source())
    _drain(cluster, dfi, "flow", "consume_batch")
    return cluster


def _bandwidth_shuffle(obs: bool) -> Cluster:
    return _shuffle(obs, Optimization.BANDWIDTH, ROWS, 1024)


def _latency_shuffle(obs: bool) -> Cluster:
    return _shuffle(obs, Optimization.LATENCY, ROWS[:600], 1)


def _multicast_replicate(obs: bool) -> Cluster:
    cluster = _cluster(obs)
    dfi = DfiRuntime(cluster)
    dfi.init_replicate_flow(
        "flow", [Endpoint(0, 0)], [Endpoint(1 + n, 0) for n in range(8)],
        SCHEMA, options=FlowOptions(source_segments=4, target_segments=16,
                                    credit_threshold=8, multicast=True))

    def source():
        src = yield from dfi.open_source("flow", 0)
        for start in range(0, 8192, 256):
            yield from src.push_batch(ROWS[start:start + 256])
        yield from src.close()

    cluster.env.process(source())
    _drain(cluster, dfi, "flow", "consume")
    return cluster


def _extra_calls_per_segment(build, counter: str) -> "tuple[float, str]":
    """Extra calls of the plane-on run over the plane-off run, per
    segment counted by ``counter`` (summed over the nodes), and the
    functions whose calls the plane added most (:func:`grown`)."""
    build(False).run()          # lazy code generation, import-time caches
    build(True).run()
    bare, observed = build(False), build(True)
    bare_calls = count_calls(bare.run, tally=True)
    observed_calls = count_calls(observed.run, tally=True)
    extra = observed_calls.total - bare_calls.total
    assert observed.now == bare.now  # the plane never moves the timeline
    nodes = observed.metrics_snapshot()["nodes"].values()
    segments = sum(node["counters"].get(counter, 0) for node in nodes)
    assert segments >= 250, segments
    return extra / segments, grown(observed_calls, bare_calls)


@pytest.fixture
def unfolded(monkeypatch):
    """No in-run chunk folds: the log grows until somebody reads."""
    monkeypatch.setattr("repro.obs.metrics.FOLD_RECORDS", 10 ** 9)


def test_bandwidth_shuffle_logs_at_most_six_calls_per_segment(unfolded):
    # One WRITE and one TRAIN record per doorbell train, one CONSUME
    # record plus one tuple count per drained segment.
    extra, why = _extra_calls_per_segment(_bandwidth_shuffle,
                                          "core.segments_flushed")
    assert extra <= 6, f"{extra}\n{why}"


def test_latency_shuffle_logs_at_most_eight_calls_per_segment(unfolded):
    extra, why = _extra_calls_per_segment(_latency_shuffle,
                                          "core.segments_flushed")
    assert extra <= 8, f"{extra}\n{why}"


def test_multicast_replicate_logs_at_most_eight_calls_per_delivery(unfolded):
    # A multicast segment is one write and eight deliveries; every
    # delivery logs its own consume and its credit write, so the unit
    # is the delivered segment.
    extra, why = _extra_calls_per_segment(_multicast_replicate,
                                          "core.segments_consumed")
    assert extra <= 8, f"{extra}\n{why}"


@pytest.mark.parametrize("build, counter, budget", [
    (_bandwidth_shuffle, "core.segments_flushed", 27),
    (_latency_shuffle, "core.segments_flushed", 21),
    (_multicast_replicate, "core.segments_consumed", 14),
], ids=["bandwidth", "latency", "multicast"])
def test_whole_plane_budget_with_in_run_folds(build, counter, budget):
    # Logging plus deriving two trace events, four causal edges and
    # three histogram samples per segment, chunk by chunk.
    extra, why = _extra_calls_per_segment(build, counter)
    assert 8 < extra <= budget, f"{extra}\n{why}"


def test_reading_nothing_derives_nothing(unfolded):
    cluster = _bandwidth_shuffle(True)
    cluster.run()
    plane = cluster.obs
    assert len(plane.records) > 500
    assert plane.tracers and not any(tracer.items
                                     for tracer in plane.tracers.values())
    assert not plane.causal._logs and not plane.causal._closes
    assert not any(registry._histograms
                   for registry in plane.registries.values())
    # The first read folds the whole log, exactly once.
    assert cluster.metrics_snapshot()["trace_rings"]["flow"]["kept"] > 500
    assert not plane.records and plane.causal._logs


def test_counters_only_logs_no_span_records(unfolded):
    """With causal off nothing logs a record that only carries a span."""
    cluster = _latency_shuffle("counters")
    cluster.run()
    kinds = {record[0] for record in cluster.obs.records}
    assert kinds and not kinds & {WQE, EDGE}
    snapshot = cluster.metrics_snapshot()
    assert "causal" not in snapshot and "trace_rings" not in snapshot
    assert any("core.seg_latency" in node["histograms"]
               for node in snapshot["nodes"].values())
