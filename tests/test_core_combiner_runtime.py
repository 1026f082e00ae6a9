"""Tests for combiner flows and the DfiRuntime facade / registry."""

import pytest

from repro.common.errors import ConfigurationError, RegistryError
from repro.core import (
    FLOW_END,
    AggregationSpec,
    DfiRuntime,
    Endpoint,
    FlowDescriptor,
    FlowOptions,
    FlowType,
    Optimization,
    Schema,
)
from repro.simnet import Cluster

SCHEMA = Schema(("group", "uint64"), ("value", "int64"))


def run_combiner(op, rows_per_source, sources=3, node_count=4):
    cluster = Cluster(node_count=node_count)
    dfi = DfiRuntime(cluster)
    dfi.init_combiner_flow(
        "agg", sources=[f"node{i + 1}|0" for i in range(sources)],
        target="node0|0", schema=SCHEMA,
        aggregation=AggregationSpec(op=op, group_by="group", value="value"))
    result = {}

    def source_thread(index):
        source = yield from dfi.open_source("agg", index)
        for row in rows_per_source(index):
            yield from source.push(row)
        yield from source.close()

    def target_thread(env):
        target = yield from dfi.open_target("agg")
        aggregates = yield from target.consume_all()
        result.update(aggregates)

    for s in range(sources):
        cluster.env.process(source_thread(s))
    cluster.env.process(target_thread(cluster.env))
    cluster.run()
    return result


def test_combiner_sum():
    result = run_combiner("sum", lambda i: [(g, 10) for g in range(5)])
    assert result == {g: 30 for g in range(5)}  # 3 sources x 10


def test_combiner_count():
    result = run_combiner("count", lambda i: [(g, g) for g in range(4)] * 2)
    assert result == {g: 6 for g in range(4)}  # 2 rows x 3 sources


def test_combiner_min_max():
    result_min = run_combiner("min", lambda i: [(0, i * 10 - 5)])
    assert result_min == {0: -5}
    result_max = run_combiner("max", lambda i: [(0, i * 10 - 5)])
    assert result_max == {0: 15}


def test_combiner_negative_values_sum():
    result = run_combiner("sum", lambda i: [(7, -4)])
    assert result == {7: -12}


def test_combiner_incremental_consume_step():
    cluster = Cluster(node_count=2)
    dfi = DfiRuntime(cluster)
    dfi.init_combiner_flow(
        "agg", sources=["node1|0"], target="node0|0", schema=SCHEMA,
        aggregation=AggregationSpec(op="sum", group_by="group",
                                    value="value"))
    steps = []

    def source_thread(env):
        source = yield from dfi.open_source("agg", 0)
        for i in range(100):
            yield from source.push((i % 4, 1))
        yield from source.close()

    def target_thread(env):
        target = yield from dfi.open_target("agg")
        while True:
            step = yield from target.consume_step()
            if step is FLOW_END:
                steps.append(dict(target.aggregates))
                return
            steps.append(step)

    cluster.env.process(source_thread(cluster.env))
    cluster.env.process(target_thread(cluster.env))
    cluster.run()
    assert steps[-1] == {g: 25 for g in range(4)}
    assert sum(s for s in steps[:-1]) == 100


def test_combiner_requires_aggregation_spec():
    with pytest.raises(ConfigurationError, match="AggregationSpec"):
        FlowDescriptor(name="bad", flow_type=FlowType.COMBINER,
                       sources=(Endpoint(0, 0),), targets=(Endpoint(1, 0),),
                       schema=SCHEMA)


@pytest.mark.parametrize("flow_type, options, rule", [
    (FlowType.SHUFFLE, FlowOptions(multicast=True), "multicast"),
    (FlowType.COMBINER, FlowOptions(multicast=True), "multicast"),
    (FlowType.REPLICATE, FlowOptions(in_network_aggregation=True),
     "in_network_aggregation"),
    (FlowType.SHUFFLE, FlowOptions(in_network_aggregation=True),
     "in_network_aggregation"),
], ids=["multicast-shuffle", "multicast-combiner",
        "in-network-replicate", "in-network-shuffle"])
def test_transport_option_outside_its_flow_type_rejected(flow_type, options,
                                                         rule):
    """``multicast`` picks a replicate transport and
    ``in_network_aggregation`` a combiner one: on any other flow type
    they are refused at init rather than silently ignored."""
    aggregation = (AggregationSpec("sum", "group", "value")
                   if flow_type is FlowType.COMBINER else None)
    with pytest.raises(ConfigurationError, match=rule):
        FlowDescriptor(name="bad", flow_type=flow_type,
                       sources=(Endpoint(0, 0),), targets=(Endpoint(1, 0),),
                       schema=SCHEMA, aggregation=aggregation,
                       options=options)


def test_combiner_single_target_enforced():
    with pytest.raises(ConfigurationError, match="N:1"):
        FlowDescriptor(
            name="bad", flow_type=FlowType.COMBINER,
            sources=(Endpoint(0, 0),),
            targets=(Endpoint(1, 0), Endpoint(2, 0)),
            schema=SCHEMA,
            aggregation=AggregationSpec("sum", "group", "value"))


def test_aggregation_spec_validates_op():
    with pytest.raises(ConfigurationError, match="unknown aggregation"):
        AggregationSpec(op="median", group_by="g", value="v")


# -- registry / runtime ----------------------------------------------------

def test_registry_duplicate_flow_name_rejected():
    cluster = Cluster(node_count=2)
    dfi = DfiRuntime(cluster)
    dfi.init_shuffle_flow("f", ["node0|0"], ["node1|0"], SCHEMA,
                          shuffle_key="group")
    with pytest.raises(RegistryError, match="already exists"):
        dfi.init_shuffle_flow("f", ["node0|0"], ["node1|0"], SCHEMA,
                              shuffle_key="group")


def test_registry_unknown_flow():
    cluster = Cluster(node_count=1)
    dfi = DfiRuntime(cluster)
    with pytest.raises(RegistryError, match="unknown flow"):
        dfi.registry.descriptor("nope")


def test_registry_rejects_out_of_cluster_endpoints():
    cluster = Cluster(node_count=2)
    dfi = DfiRuntime(cluster)
    with pytest.raises(RegistryError, match="only 2 nodes"):
        dfi.init_shuffle_flow("f", ["node0|0"], ["node7|0"], SCHEMA,
                              shuffle_key="group")


def test_registry_flow_names_listing():
    cluster = Cluster(node_count=2)
    dfi = DfiRuntime(cluster)
    dfi.init_shuffle_flow("b", ["node0|0"], ["node1|0"], SCHEMA,
                          shuffle_key="group")
    dfi.init_shuffle_flow("a", ["node0|0"], ["node1|0"], SCHEMA,
                          shuffle_key="group")
    assert dfi.registry.flow_names() == ["a", "b"]


def test_descriptor_topology_tags():
    def make(sources, targets):
        return FlowDescriptor(
            name="t", flow_type=FlowType.SHUFFLE,
            sources=tuple(Endpoint(0, i) for i in range(sources)),
            targets=tuple(Endpoint(1, i) for i in range(targets)),
            schema=SCHEMA)

    assert make(1, 1).topology == "1:1"
    assert make(3, 1).topology == "N:1"
    assert make(1, 3).topology == "1:N"
    assert make(2, 3).topology == "N:M"


def test_flow_options_validation():
    with pytest.raises(ConfigurationError):
        FlowOptions(segment_size=0)
    with pytest.raises(ConfigurationError):
        FlowOptions(target_segments=1)
    with pytest.raises(ConfigurationError):
        FlowOptions(credit_threshold=0)
    with pytest.raises(ConfigurationError):
        FlowOptions(retransmit_timeout=0)


def test_runtime_registered_memory_by_node():
    cluster = Cluster(node_count=2)
    dfi = DfiRuntime(cluster)
    dfi.init_shuffle_flow("f", ["node0|0"], ["node1|0"], SCHEMA,
                          shuffle_key="group")

    live = {}

    def source_thread(env):
        source = yield from dfi.open_source("f", 0)
        live.update(dfi.registered_memory_by_node())
        yield from source.close()

    def target_thread(env):
        target = yield from dfi.open_target("f", 0)
        while (yield from target.consume()) is not FLOW_END:
            pass

    cluster.env.process(source_thread(cluster.env))
    cluster.env.process(target_thread(cluster.env))
    cluster.run()
    memory = dfi.registered_memory_by_node()
    ring = 32 * (8192 + 16)
    assert memory[1] >= ring  # the target ring lives on node 1
    # The simulator snapshots payloads at post time, so the source side
    # registers only scratch buffers while the flow is live; the
    # protocol's send-ring requirement is reported via
    # FlowSource.memory_bytes instead. Closing releases the scratch.
    assert live[0] > 0
    assert memory[0] == 0


def test_global_ordering_only_on_replicate():
    from repro.core import Ordering
    with pytest.raises(ConfigurationError, match="only available"):
        FlowDescriptor(name="bad", flow_type=FlowType.SHUFFLE,
                       sources=(Endpoint(0, 0),), targets=(Endpoint(1, 0),),
                       schema=SCHEMA, ordering=Ordering.GLOBAL)


def test_latency_flow_ignores_segment_size():
    """Latency-optimized flows size segments to one tuple (Section 5.3)."""
    cluster = Cluster(node_count=2)
    dfi = DfiRuntime(cluster)
    dfi.init_shuffle_flow("f", ["node0|0"], ["node1|0"], SCHEMA,
                          optimization=Optimization.LATENCY)
    target = None

    def target_thread(env):
        nonlocal target
        target = yield from dfi.open_target("f", 0)

    def source_thread(env):
        source = yield from dfi.open_source("f", 0)
        yield from source.close()

    cluster.env.process(target_thread(cluster.env))
    cluster.env.process(source_thread(cluster.env))
    cluster.run()
    # 32 segments x (16-byte tuple + 16-byte footer)
    assert target.memory_bytes == 32 * (16 + 16)

# -- batch-fold specialization -------------------------------------------

def _run_combiner_via(op, rows_per_source, consume, sources=3):
    """Like run_combiner but with a pluggable target consume loop."""
    cluster = Cluster(node_count=sources + 1)
    dfi = DfiRuntime(cluster)
    dfi.init_combiner_flow(
        "agg", sources=[f"node{i + 1}|0" for i in range(sources)],
        target="node0|0", schema=SCHEMA,
        aggregation=AggregationSpec(op=op, group_by="group", value="value"))
    result = {}

    def source_thread(index):
        source = yield from dfi.open_source("agg", index)
        for row in rows_per_source(index):
            yield from source.push(row)
        yield from source.close()

    def target_thread():
        target = yield from dfi.open_target("agg")
        yield from consume(target)
        result["aggregates"] = dict(target.aggregates)
        result["count"] = target.tuples_aggregated

    for s in range(sources):
        cluster.env.process(source_thread(s))
    cluster.env.process(target_thread())
    cluster.run()
    return result


def _via_all(target):
    yield from target.consume_all()


def _via_step(target):
    while True:
        step = yield from target.consume_step()
        if step is FLOW_END:
            return
        assert step >= 1  # a step always folds at least one tuple


ROWS = [(3, 14), (1, -5), (3, 2), (2, 0), (1, 7), (2, -9), (3, 14)]


@pytest.mark.parametrize("op", ["sum", "count", "min", "max"])
def test_consume_all_matches_consume_step(op):
    """The two consume loops share the batch fold: identical tables and
    identical tuple counts for every aggregate op."""
    rows = lambda i: [(g, v + i) for g, v in ROWS]  # noqa: E731
    via_all = _run_combiner_via(op, rows, _via_all)
    via_step = _run_combiner_via(op, rows, _via_step)
    assert via_all == via_step
    assert via_all["count"] == 3 * len(ROWS)


@pytest.mark.parametrize("op", ["sum", "count", "min", "max"])
def test_batch_fold_matches_per_tuple_fold(op):
    """The columnar fold is a pure wall-clock rewrite of ``_fold_in``:
    same rows, same aggregate table, same tuple count."""
    cluster = Cluster(node_count=2)
    dfi = DfiRuntime(cluster)
    dfi.init_combiner_flow(
        "agg", sources=["node1|0"], target="node0|0", schema=SCHEMA,
        aggregation=AggregationSpec(op=op, group_by="group", value="value"))
    captured = {}

    def open_only():
        captured["target"] = yield from dfi.open_target("agg")

    cluster.env.process(open_only())
    cluster.run()
    target = captured["target"]
    batch = [(g, v) for g, v in ROWS * 3] + [(9, -100), (9, 100)]
    packed = b"".join(SCHEMA.pack(values) for values in batch)
    cut = SCHEMA.tuple_size * 5

    assert target._fold_chunks([packed[:cut], packed[cut:]]) == len(batch)
    columnar = dict(target.aggregates)
    assert target.tuples_aggregated == len(batch)

    target.aggregates.clear()
    for values in batch:
        target._fold_in(values)
    assert target.aggregates == columnar
    assert target.tuples_aggregated == 2 * len(batch)


def test_combiner_empty_flow():
    """Sources that close without pushing yield an empty table."""
    for consume in (_via_all, _via_step):
        result = _run_combiner_via("sum", lambda i: [], consume)
        assert result == {"aggregates": {}, "count": 0}


def test_combiner_abort_surfaces_from_consume_all():
    from repro.common.errors import FlowAbortedError

    cluster = Cluster(node_count=2)
    dfi = DfiRuntime(cluster)
    dfi.init_combiner_flow(
        "agg", sources=["node1|0"], target="node0|0", schema=SCHEMA,
        aggregation=AggregationSpec(op="sum", group_by="group",
                                    value="value"))
    outcome = {}

    def source_thread():
        source = yield from dfi.open_source("agg", 0)
        for i in range(10):
            yield from source.push((0, 1))
        yield from source.abort()

    def target_thread():
        target = yield from dfi.open_target("agg")
        try:
            yield from target.consume_all()
        except FlowAbortedError:
            outcome["aborted"] = True
            outcome["partial"] = target.tuples_aggregated

    cluster.env.process(source_thread())
    cluster.env.process(target_thread())
    cluster.run()
    assert outcome["aborted"]
    # Tuples folded before the abort marker stay folded (latency-mode
    # buffered-before-abort contract holds transitively).
    assert 0 <= outcome["partial"] <= 10
