"""Integration tests for shuffle flows (bandwidth and latency modes)."""

import pytest

from repro.common.errors import FlowClosedError, FlowError
from repro.core import (
    FLOW_END,
    DfiRuntime,
    Endpoint,
    FlowDescriptor,
    FlowOptions,
    FlowType,
    Optimization,
    Schema,
)
from repro.core.shuffle import ShuffleSource, ShuffleTarget
from repro.simnet import Cluster

SCHEMA = Schema(("key", "uint64"), ("value", "uint64"))


def build(node_count=3, **descriptor_kwargs):
    cluster = Cluster(node_count=node_count)
    dfi = DfiRuntime(cluster)
    return cluster, dfi


def run_shuffle(cluster, dfi, name, n_tuples_per_source, push_kwargs=None):
    descriptor = dfi.registry.descriptor(name)
    received = {i: [] for i in range(descriptor.target_count)}

    def source_thread(index):
        source = yield from dfi.open_source(name, index)
        for i in range(n_tuples_per_source):
            yield from source.push((index * 10 ** 6 + i, i),
                                   **(push_kwargs or {}))
        yield from source.close()

    def target_thread(index):
        target = yield from dfi.open_target(name, index)
        while True:
            item = yield from target.consume()
            if item is FLOW_END:
                return
            received[index].append(item)

    for s in range(descriptor.source_count):
        cluster.env.process(source_thread(s))
    for t in range(descriptor.target_count):
        cluster.env.process(target_thread(t))
    cluster.run()
    return received


def test_one_to_one_delivers_everything_in_order():
    cluster, dfi = build(node_count=2)
    dfi.init_shuffle_flow("f", ["node0|0"], ["node1|0"], SCHEMA,
                          shuffle_key="key")
    received = run_shuffle(cluster, dfi, "f", 500)
    assert received[0] == [(i, i) for i in range(500)]


def test_n_to_m_partitions_by_key():
    cluster, dfi = build(node_count=4)
    dfi.init_shuffle_flow(
        "f", ["node0|0", "node1|0"], ["node2|0", "node3|0"], SCHEMA,
        shuffle_key="key")
    received = run_shuffle(cluster, dfi, "f", 400)
    all_tuples = received[0] + received[1]
    assert len(all_tuples) == 800
    assert len(received[0]) > 0 and len(received[1]) > 0
    # Key-partitioning: the same key never lands on two targets.
    keys0 = {k for k, _v in received[0]}
    keys1 = {k for k, _v in received[1]}
    assert keys0.isdisjoint(keys1)


def test_per_channel_fifo_order():
    """Tuples from one source to one target keep their push order."""
    cluster, dfi = build(node_count=3)
    dfi.init_shuffle_flow("f", ["node0|0"], ["node1|0", "node2|0"], SCHEMA,
                          shuffle_key="key")
    received = run_shuffle(cluster, dfi, "f", 1000)
    for rows in received.values():
        values = [v for _k, v in rows]
        assert values == sorted(values)


def test_latency_mode_roundtrip():
    cluster, dfi = build(node_count=2)
    dfi.init_shuffle_flow("f", ["node0|0"], ["node1|0"], SCHEMA,
                          optimization=Optimization.LATENCY)
    received = run_shuffle(cluster, dfi, "f", 300)
    assert received[0] == [(i, i) for i in range(300)]


def test_latency_shuffle_closed_form():
    """ROADMAP item 2(b), the latency shape (EXPERIMENTS.md, Fig. 7b row):
    one 64 B tuple on an idle fabric, source push to target ``consume``
    return. Push and post on the source CPU, one inline WQE, the wire,
    one poll on the target — and of the 80 B segment only the 16 B ahead
    of its ordered tail are serialized before the target wakes: a write
    commits prefix-first and its last ``_ORDERED_TAIL`` bytes (the footer
    among them) on arrival, the target's doorbell rings on the prefix
    commit, and the poll charged from there finds the footer because the
    tail lands one tail-serialization (5.12 ns) later, inside the poll
    cost. 1037.44 ns at the default profile."""
    from repro.rdma.qp import _ORDERED_TAIL

    cluster, dfi = build(node_count=2)
    profile = cluster.profile
    schema = Schema(("key", "uint64"), ("pad", 56))
    dfi.init_shuffle_flow("lat", [Endpoint(0, 0)], [Endpoint(1, 0)], schema,
                          shuffle_key="key",
                          optimization=Optimization.LATENCY)
    instants = {}

    def source_thread():
        source = yield from dfi.open_source("lat", 0)
        yield cluster.env.timeout(10_000)  # the target waits by now
        instants["pushed"] = cluster.now
        yield from source.push((7, bytes(56)))
        yield from source.close()

    def target_thread():
        target = yield from dfi.open_target("lat", 0)
        assert (yield from target.consume()) == (7, bytes(56))
        instants["consumed"] = cluster.now
        assert (yield from target.consume()) is FLOW_END

    cluster.env.process(source_thread())
    cluster.env.process(target_thread())
    cluster.run()
    expected = (profile.cpu_push_cost(64) + profile.cpu_post_cost
                + profile.nic_processing_inline
                + (64 + 16 - _ORDERED_TAIL) / profile.link_bandwidth
                + profile.wire_latency + profile.cpu_poll_cost)
    assert expected == pytest.approx(1037.44, abs=1e-6)
    assert instants["consumed"] - instants["pushed"] == pytest.approx(
        expected, abs=1e-6)


def test_latency_mode_backpressure_small_ring():
    """A tiny ring with a slow consumer exercises the credit stall path."""
    cluster, dfi = build(node_count=2)
    dfi.init_shuffle_flow(
        "f", ["node0|0"], ["node1|0"], SCHEMA,
        optimization=Optimization.LATENCY,
        options=FlowOptions(target_segments=4, credit_threshold=2))
    out = []

    def source_thread(env):
        source = yield from dfi.open_source("f", 0)
        for i in range(100):
            yield from source.push((i, i))
        yield from source.close()

    def slow_target(env):
        target = yield from dfi.open_target("f", 0)
        while True:
            item = yield from target.consume()
            if item is FLOW_END:
                return
            out.append(item)
            yield env.timeout(2_000)  # slow consumer

    cluster.env.process(source_thread(cluster.env))
    cluster.env.process(slow_target(cluster.env))
    cluster.run()
    assert out == [(i, i) for i in range(100)]


def test_bandwidth_mode_backpressure_small_ring():
    cluster, dfi = build(node_count=2)
    dfi.init_shuffle_flow(
        "f", ["node0|0"], ["node1|0"], SCHEMA,
        options=FlowOptions(segment_size=64, target_segments=2,
                            source_segments=2, credit_threshold=1))
    out = []

    def source_thread(env):
        source = yield from dfi.open_source("f", 0)
        for i in range(200):
            yield from source.push((i, i))
        yield from source.close()

    def slow_target(env):
        target = yield from dfi.open_target("f", 0)
        while True:
            item = yield from target.consume()
            if item is FLOW_END:
                return
            out.append(item)
            yield env.timeout(1_000)

    cluster.env.process(source_thread(cluster.env))
    cluster.env.process(slow_target(cluster.env))
    cluster.run()
    assert out == [(i, i) for i in range(200)]


def test_direct_target_routing():
    cluster, dfi = build(node_count=3)
    dfi.init_shuffle_flow("f", ["node0|0"], ["node1|0", "node2|0"], SCHEMA)
    received = run_shuffle(cluster, dfi, "f", 100, push_kwargs={"target": 1})
    assert received[0] == []
    assert len(received[1]) == 100


def test_push_without_router_or_target_rejected():
    cluster, dfi = build(node_count=3)
    dfi.init_shuffle_flow("f", ["node0|0"], ["node1|0", "node2|0"], SCHEMA)
    failures = []

    def source_thread(env):
        source = yield from dfi.open_source("f", 0)
        try:
            yield from source.push((1, 1))
        except FlowError as exc:
            failures.append(str(exc))
        yield from source.close()

    def target_thread(env, idx):
        target = yield from dfi.open_target("f", idx)
        while (yield from target.consume()) is not FLOW_END:
            pass

    cluster.env.process(source_thread(cluster.env))
    cluster.env.process(target_thread(cluster.env, 0))
    cluster.env.process(target_thread(cluster.env, 1))
    cluster.run()
    assert failures and "shuffle key" in failures[0]


def test_custom_routing_function():
    cluster, dfi = build(node_count=3)
    dfi.init_shuffle_flow("f", ["node0|0"], ["node1|0", "node2|0"], SCHEMA,
                          routing=lambda values, count: values[0] % count)
    received = run_shuffle(cluster, dfi, "f", 200)
    assert all(k % 2 == 0 for k, _v in received[0])
    assert all(k % 2 == 1 for k, _v in received[1])


def _routed_1_to_2(routing, door):
    """Four tuples into a 1:2 flow routed by ``routing``, through
    ``push`` or ``push_batch``; returns the FlowError the push raised
    (or None) and what each target received."""
    cluster, dfi = build(node_count=3)
    dfi.init_shuffle_flow("f", ["node0|0"], ["node1|0", "node2|0"], SCHEMA,
                          routing=routing)
    rows = [(i, i) for i in range(4)]
    raised = []
    received = {0: [], 1: []}

    def source_thread():
        source = yield from dfi.open_source("f", 0)
        try:
            if door == "push":
                for row in rows:
                    yield from source.push(row)
            else:
                yield from source.push_batch(rows)
        except FlowError as exc:
            raised.append(exc)
        yield from source.close()

    def target_thread(index):
        target = yield from dfi.open_target("f", index)
        while True:
            item = yield from target.consume()
            if item is FLOW_END:
                return
            received[index].append(item)

    cluster.env.process(source_thread())
    cluster.env.process(target_thread(0))
    cluster.env.process(target_thread(1))
    cluster.run()
    return (raised[0] if raised else None), received


@pytest.mark.parametrize("door", ["push", "push_batch"])
@pytest.mark.parametrize("answer", [-1, 2, 1.0],
                         ids=["negative", "count", "float"])
def test_routing_answer_outside_the_targets_is_a_flow_error(answer, door):
    """``-1`` used to index the live targets from the end (everything
    silently on the last one), ``2`` and ``1.0`` escaped ``cluster.run()``
    as IndexError / TypeError."""
    error, received = _routed_1_to_2(lambda _values, _count: answer, door)
    assert type(error) is FlowError
    assert repr(answer) in str(error) and "[0, 2)" in str(error)
    assert received == {0: [], 1: []}


@pytest.mark.parametrize("door", ["push", "push_batch"])
def test_routing_answer_of_another_integer_type_is_its_index(door):
    import numpy
    for answer in (True, numpy.int64(1)):
        error, received = _routed_1_to_2(lambda _values, _count: answer,
                                         door)
        assert error is None
        assert received == {0: [], 1: [(i, i) for i in range(4)]}


def test_route_many_filling_a_group_past_the_targets_is_a_flow_error():
    def route(_values, _count):
        return 0

    route.route_many = lambda tuples, count: [[], [], list(tuples)]
    error, received = _routed_1_to_2(route, "push_batch")
    assert type(error) is FlowError
    assert "group 2" in str(error) and "[0, 2)" in str(error)
    assert received == {0: [], 1: []}
    # Surplus groups that stay empty route nothing anywhere: harmless.
    route.route_many = lambda tuples, count: [list(tuples), [], []]
    error, received = _routed_1_to_2(route, "push_batch")
    assert error is None and len(received[0]) == 4


def test_push_after_close_rejected():
    cluster, dfi = build(node_count=2)
    dfi.init_shuffle_flow("f", ["node0|0"], ["node1|0"], SCHEMA,
                          shuffle_key="key")
    errors = []

    def source_thread(env):
        source = yield from dfi.open_source("f", 0)
        yield from source.close()
        try:
            yield from source.push((1, 1))
        except FlowClosedError:
            errors.append("rejected")

    def target_thread(env):
        target = yield from dfi.open_target("f", 0)
        while (yield from target.consume()) is not FLOW_END:
            pass

    cluster.env.process(source_thread(cluster.env))
    cluster.env.process(target_thread(cluster.env))
    cluster.run()
    assert errors == ["rejected"]


def test_flow_end_requires_all_sources_closed():
    cluster, dfi = build(node_count=3)
    dfi.init_shuffle_flow("f", ["node0|0", "node1|0"], ["node2|0"], SCHEMA,
                          shuffle_key="key")
    events = []

    def fast_source(env):
        source = yield from dfi.open_source("f", 0)
        yield from source.push((1, 1))
        yield from source.close()
        events.append(("fast_closed", env.now))

    def slow_source(env):
        source = yield from dfi.open_source("f", 1)
        yield env.timeout(200_000)
        yield from source.push((2, 2))
        yield from source.close()
        events.append(("slow_closed", env.now))

    def target_thread(env):
        target = yield from dfi.open_target("f", 0)
        count = 0
        while True:
            item = yield from target.consume()
            if item is FLOW_END:
                events.append(("flow_end", env.now, count))
                return
            count += 1

    cluster.env.process(fast_source(cluster.env))
    cluster.env.process(slow_source(cluster.env))
    cluster.env.process(target_thread(cluster.env))
    cluster.run()
    end = next(e for e in events if e[0] == "flow_end")
    slow = next(e for e in events if e[0] == "slow_closed")
    assert end[2] == 2  # both tuples arrived
    assert end[1] >= 200_000  # FLOW_END only after the slow source closed
    assert slow[1] >= 200_000


def test_multiple_tuples_per_call_push_many():
    cluster, dfi = build(node_count=2)
    dfi.init_shuffle_flow("f", ["node0|0"], ["node1|0"], SCHEMA,
                          shuffle_key="key")
    out = []

    def source_thread(env):
        source = yield from dfi.open_source("f", 0)
        yield from source.push_many([(i, i) for i in range(50)])
        yield from source.close()

    def target_thread(env):
        target = yield from dfi.open_target("f", 0)
        while True:
            item = yield from target.consume()
            if item is FLOW_END:
                return
            out.append(item)

    cluster.env.process(source_thread(cluster.env))
    cluster.env.process(target_thread(cluster.env))
    cluster.run()
    assert out == [(i, i) for i in range(50)]


def test_consume_batch_returns_lists():
    cluster, dfi = build(node_count=2)
    dfi.init_shuffle_flow("f", ["node0|0"], ["node1|0"], SCHEMA,
                          shuffle_key="key")
    batches = []

    def source_thread(env):
        source = yield from dfi.open_source("f", 0)
        for i in range(600):
            yield from source.push((i, i))
        yield from source.close()

    def target_thread(env):
        target = yield from dfi.open_target("f", 0)
        while True:
            batch = yield from target.consume_batch()
            if batch is FLOW_END:
                return
            batches.append(batch)

    cluster.env.process(source_thread(cluster.env))
    cluster.env.process(target_thread(cluster.env))
    cluster.run()
    flat = [item for batch in batches for item in batch]
    assert flat == [(i, i) for i in range(600)]
    assert max(len(batch) for batch in batches) > 1


def test_tuple_content_integrity_many_segments():
    """Push enough data to wrap both rings multiple times and check every
    byte survives (exercises the footer/DMA-ordering protocol)."""
    cluster, dfi = build(node_count=2)
    schema = Schema(("key", "uint64"), ("payload", 56))
    dfi.init_shuffle_flow("f", ["node0|0"], ["node1|0"], schema,
                          shuffle_key="key",
                          options=FlowOptions(segment_size=256,
                                              target_segments=4,
                                              source_segments=2,
                                              credit_threshold=2))
    n = 2000
    out = []

    def source_thread(env):
        source = yield from dfi.open_source("f", 0)
        for i in range(n):
            payload = bytes([i % 251]) * 56
            yield from source.push((i, payload))
        yield from source.close()

    def target_thread(env):
        target = yield from dfi.open_target("f", 0)
        while True:
            item = yield from target.consume()
            if item is FLOW_END:
                return
            out.append(item)

    cluster.env.process(source_thread(cluster.env))
    cluster.env.process(target_thread(cluster.env))
    cluster.run()
    assert len(out) == n
    for i, (key, payload) in enumerate(out):
        assert key == i
        assert payload == bytes([i % 251]) * 56


def test_open_validations():
    cluster, dfi = build(node_count=2)
    dfi.init_shuffle_flow("f", ["node0|0"], ["node1|0"], SCHEMA,
                          shuffle_key="key")

    def bad_source(env):
        yield from ShuffleSource.open(dfi.registry, "f", 5)

    proc = cluster.env.process(bad_source(cluster.env))
    with pytest.raises(FlowError, match="out of range"):
        cluster.run()
    with pytest.raises(FlowError, match="out of range"):
        ShuffleTarget.open(dfi.registry, "f", 9)


def test_segment_smaller_than_tuple_rejected():
    cluster, dfi = build(node_count=2)
    schema = Schema(("blob", 512),)
    dfi.init_shuffle_flow("f", ["node0|0"], ["node1|0"], schema,
                          shuffle_key=0,
                          options=FlowOptions(segment_size=128))
    with pytest.raises(FlowError, match="smaller than one tuple"):
        ShuffleTarget.open(dfi.registry, "f", 0)


def test_memory_accounting_matches_paper_defaults():
    """Default config: 32 segments x (8 KiB + 16 B footer) per ring."""
    cluster, dfi = build(node_count=2)
    dfi.init_shuffle_flow("f", ["node0|0"], ["node1|0"], SCHEMA,
                          shuffle_key="key")
    sizes = {}

    def source_thread(env):
        source = yield from dfi.open_source("f", 0)
        sizes["source"] = source.memory_bytes
        yield from source.close()

    def target_thread(env):
        target = yield from dfi.open_target("f", 0)
        sizes["target"] = target.memory_bytes
        while (yield from target.consume()) is not FLOW_END:
            pass

    cluster.env.process(source_thread(cluster.env))
    cluster.env.process(target_thread(cluster.env))
    cluster.run()
    expected_ring = 32 * (8192 + 16)
    assert sizes["source"] == expected_ring
    assert sizes["target"] == expected_ring


def test_stats_counters():
    cluster, dfi = build(node_count=2)
    dfi.init_shuffle_flow("f", ["node0|0"], ["node1|0"], SCHEMA,
                          shuffle_key="key")
    stats = {}

    def source_thread(env):
        source = yield from dfi.open_source("f", 0)
        for i in range(123):
            yield from source.push((i, i))
        yield from source.close()
        stats["sent"] = source.tuples_sent

    def target_thread(env):
        target = yield from dfi.open_target("f", 0)
        while (yield from target.consume()) is not FLOW_END:
            pass
        stats["received"] = target.tuples_received

    cluster.env.process(source_thread(cluster.env))
    cluster.env.process(target_thread(cluster.env))
    cluster.run()
    assert stats == {"sent": 123, "received": 123}
