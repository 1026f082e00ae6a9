"""Tests for the SHARP-style in-network aggregation extension."""

from dataclasses import replace

import pytest

from repro.common.config import DEFAULT_HARDWARE
from repro.common.errors import FlowError, FlowPeerFailedError
from repro.common.units import gbps_to_bytes_per_ns
from repro.core import (
    AggregationSpec,
    DfiRuntime,
    FlowOptions,
    Optimization,
    Schema,
)
from repro.obs import export_chrome_trace
from repro.simnet import Cluster, FaultPlan, node_crash

SCHEMA = Schema(("group", "uint64"), ("value", "int64"))
LINK = gbps_to_bytes_per_ns(100.0)


def run_sharp(op, rows_per_source, sources=3, node_count=4,
              options_extra=None, optimization=Optimization.BANDWIDTH,
              batched=False, profile=DEFAULT_HARDWARE, observe=False):
    cluster = Cluster(node_count=node_count, profile=profile)
    if observe:
        cluster.enable_observability(trace=True, causal=True)
    dfi = DfiRuntime(cluster)
    dfi.init_combiner_flow(
        "sharp", sources=[f"node{i + 1}|0" for i in range(sources)],
        target="node0|0", schema=SCHEMA,
        aggregation=AggregationSpec(op=op, group_by="group",
                                    value="value"),
        optimization=optimization,
        options=FlowOptions(in_network_aggregation=True,
                            **(options_extra or {})))
    result = {}
    holder = {}

    def source_thread(index):
        source = yield from dfi.open_source("sharp", index)
        if batched:
            yield from source.push_batch(rows_per_source(index))
        else:
            for row in rows_per_source(index):
                yield from source.push(row)
        yield from source.close()

    def target_thread(env):
        target = yield from dfi.open_target("sharp")
        holder["target"] = target
        aggregates = yield from target.consume_all()
        result.update(aggregates)

    for s in range(sources):
        cluster.env.process(source_thread(s))
    cluster.env.process(target_thread(cluster.env))
    cluster.run()
    return result, holder["target"], cluster


def test_sharp_sum_matches_end_host_semantics():
    result, _target, _cluster = run_sharp(
        "sum", lambda i: [(g, 10) for g in range(5)])
    assert result == {g: 30 for g in range(5)}


def test_sharp_count():
    result, _target, _cluster = run_sharp(
        "count", lambda i: [(g, g) for g in range(4)] * 3)
    assert result == {g: 9 for g in range(4)}


def test_sharp_min_max():
    result_min, _t, _c = run_sharp("min", lambda i: [(0, i * 10 - 5)])
    assert result_min == {0: -5}
    result_max, _t, _c = run_sharp("max", lambda i: [(0, i * 10 - 5)])
    assert result_max == {0: 15}


def test_sharp_large_flow_correctness():
    """Many segments, periodic partial emission, multiple groups."""
    result, target, _cluster = run_sharp(
        "sum", lambda i: [(g % 16, 1) for g in range(2000)])
    assert result == {g: 3 * 125 for g in range(16)}
    assert target.partial_segments > 1  # periodic emission happened


@pytest.mark.parametrize("optimization", list(Optimization),
                         ids=lambda mode: mode.name.lower())
def test_sharp_push_batch_matches_per_tuple_push(optimization):
    """``push_batch`` stages through the same stager as ``push``: equal
    aggregates, finish time and switch traffic. The per-tuple CPU cost
    is a dyadic 13 ns here, so the batch's one ``take * cost`` and the
    pushes' running sum round alike (at the default 13.04 ns they part
    in the last bits of the clock)."""
    def rows(index):
        return [(row % 16, row * (index + 1)) for row in range(2000)]

    profile = replace(DEFAULT_HARDWARE, cpu_copy_per_byte=0.0625)
    runs = []
    for batched in (False, True):
        result, target, cluster = run_sharp(
            "sum", rows, optimization=optimization, batched=batched,
            profile=profile)
        runs.append((result, cluster.now, target.switch_stats))
    assert runs[0] == runs[1]
    assert runs[0][0] == {group: 6 * sum(range(group, 2000, 16))
                          for group in range(16)}


def test_sharp_reduces_target_inbound_traffic():
    """The headline: the switch forwards far fewer bytes than it takes
    in — the target's in-going link stops being the bottleneck."""
    result, target, cluster = run_sharp(
        "sum", lambda i: [(g % 8, 1) for g in range(4000)])
    stats = target.switch_stats
    assert stats["bytes_in"] > 10 * stats["bytes_out"]
    # The target's downlink carried only the partials.
    assert cluster.node(0).downlink.bytes_carried == stats["bytes_out"]


def test_sharp_aggregate_bandwidth_beyond_target_link():
    """Aggregated sender bandwidth exceeds the single-link cap of the
    end-host combiner (paper Fig. 9's stated limitation)."""
    from repro.common.units import GIB, SECONDS
    cluster = Cluster(node_count=9)
    dfi = DfiRuntime(cluster)
    dfi.init_combiner_flow(
        "agg", sources=[f"node{i + 1}|{t}" for i in range(8)
                        for t in range(2)],
        target="node0|0", schema=SCHEMA,
        aggregation=AggregationSpec("sum", "group", "value"),
        options=FlowOptions(in_network_aggregation=True))
    per_source = 30_000
    window = {"start": None, "end": None}

    def source_thread(index):
        source = yield from dfi.open_source("agg", index)
        if window["start"] is None:
            window["start"] = cluster.now
        for i in range(per_source):
            yield from source.push((i % 64, 1))
        yield from source.close()

    def target_thread(env):
        target = yield from dfi.open_target("agg")
        yield from target.consume_all()
        window["end"] = cluster.now

    for index in range(16):
        cluster.env.process(source_thread(index))
    cluster.env.process(target_thread(cluster.env))
    cluster.run()
    payload = 16 * per_source * SCHEMA.tuple_size
    bandwidth = payload / (window["end"] - window["start"])
    assert bandwidth > 1.5 * LINK  # beyond the end-host combiner's cap


def test_sharp_requires_flag_on_target_open():
    cluster = Cluster(node_count=2)
    dfi = DfiRuntime(cluster)
    dfi.init_combiner_flow(
        "plain", sources=["node1|0"], target="node0|0", schema=SCHEMA,
        aggregation=AggregationSpec("sum", "group", "value"))
    from repro.core.sharp import SharpCombinerTarget
    with pytest.raises(FlowError, match="in-network"):
        SharpCombinerTarget.open(dfi.registry, "plain")


def test_sharp_deterministic():
    first = run_sharp("sum", lambda i: [(g % 8, g) for g in range(500)])
    second = run_sharp("sum", lambda i: [(g % 8, g) for g in range(500)])
    assert first[0] == second[0]
    assert first[2].now == second[2].now


def test_sharp_latency_ring_holds_a_partial_wider_than_a_tuple():
    """A latency segment holds one source tuple (8 B here), a partial
    ``(group, count)`` pair is 16 B: the switch ring's segments are sized
    for the pair, and the table equals the end-host combiner's."""
    schema = Schema(("k", "uint64"))
    tables = []
    for in_network in (False, True):
        cluster = Cluster(node_count=3)
        dfi = DfiRuntime(cluster)
        dfi.init_combiner_flow(
            "narrow", sources=["node1|0", "node2|0"], target="node0|0",
            schema=schema, aggregation=AggregationSpec("count", "k", "k"),
            optimization=Optimization.LATENCY,
            options=FlowOptions(in_network_aggregation=in_network))
        table = {}

        def source_thread(index):
            source = yield from dfi.open_source("narrow", index)
            for row in range(40):
                yield from source.push(((row + index) % 3,))
            yield from source.close()

        def target_thread():
            target = yield from dfi.open_target("narrow")
            table.update((yield from target.consume_all()))

        for index in range(2):
            cluster.env.process(source_thread(index))
        cluster.env.process(target_thread())
        cluster.run()
        tables.append(table)
    assert tables[0] == tables[1] == {0: 27, 1: 27, 2: 26}


def test_sharp_target_names_the_crashed_source():
    """The switch ring stands for every source whose close marker the
    switch has not folded: with ``peer_timeout`` set, a SHARP target
    whose source 2 died raises ``FlowPeerFailedError`` naming source 2
    (not ring 0) instead of waiting forever."""
    cluster = Cluster(node_count=4)
    cluster.install_faults(FaultPlan([node_crash(3, at=20_000.0)]))
    dfi = DfiRuntime(cluster)
    dfi.init_combiner_flow(
        "crashy", sources=[f"node{i + 1}|0" for i in range(3)],
        target="node0|0", schema=SCHEMA,
        aggregation=AggregationSpec("sum", "group", "value"),
        options=FlowOptions(in_network_aggregation=True,
                            peer_timeout=50_000.0))
    outcome = {"closed": []}

    def source_thread(index):
        source = yield from dfi.open_source("crashy", index)
        for row in range(20_000):
            yield from source.push((row % 8, 1))
        yield from source.close()
        outcome["closed"].append(cluster.now)

    def target_thread():
        target = yield from dfi.open_target("crashy")
        try:
            yield from target.consume_all()
        except FlowPeerFailedError as exc:
            outcome["error"] = exc
            outcome["at"] = cluster.now

    for index in range(3):
        cluster.node(index + 1).spawn(source_thread(index))
    cluster.env.process(target_thread())
    cluster.run()
    assert str(outcome["error"]) == (
        "flow 'crashy': source(s) [2] failed before closing")
    # The survivors closed; the ring then stays silent one peer_timeout.
    assert len(outcome["closed"]) == 2
    assert max(outcome["closed"]) < outcome["at"]
    assert outcome["at"] <= max(outcome["closed"]) + 2 * 50_000.0


def test_sharp_observability_is_neutral(tmp_path):
    """The switch ring is read like every RC ring, so the plane sees it:
    tracing and causal recording change no aggregate, no finish time and
    no segment count, ``core.segments_consumed`` counts the partials and
    the trace exports."""
    def rows(index):
        return [(row % 16, row + index) for row in range(2000)]

    plain = run_sharp("sum", rows)
    observed = run_sharp("sum", rows, observe=True)
    assert observed[0] == plain[0]
    assert observed[2].now == plain[2].now
    target = observed[1]
    assert target.partial_segments == plain[1].partial_segments > 1
    counters = observed[2].metrics_snapshot()["nodes"][0]["counters"]
    assert counters["core.segments_consumed"] == target.partial_segments
    document = export_chrome_trace(observed[2], str(tmp_path / "t.json"))
    assert any(event.get("name") == "SEG_CONSUME"
               for event in document["traceEvents"])
