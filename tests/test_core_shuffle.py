"""Integration tests for shuffle flows (bandwidth and latency modes)."""

import pytest

from repro.common.errors import (
    FlowClosedError,
    FlowError,
    FlowPeerFailedError,
    FlowTimeoutError,
)
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
from tests.commits import watch_commits

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


@pytest.mark.parametrize("tuple_size,batch,bound", [
    (64, None, "cpu"),
    (4096, 8, "wire"),
    (4096, None, "preread"),
], ids=["cpu-bound", "wire-bound", "preread-bound"])
def test_bandwidth_shuffle_closed_form(tuple_size, batch, bound,
                                       monkeypatch):
    """The 1:1 bandwidth shuffle's steady-state segment period from the
    profile's fields (EXPERIMENTS.md, Fig. 7a row), checked against the
    gaps between consecutive footer commits on the target's ring, to
    1e-6 ns.

    A source fills a segment on its CPU — ``payload // tuple_size``
    pushes of ``cpu_push_cost(tuple_size)`` plus one ``cpu_post_cost``,
    charged per tuple or per ``push_batch`` alike — while the uplink
    serializes the previous one, 8 KiB payload + 16 B footer at
    ``link_bandwidth``. The period is the larger of the two: 2128.48 ns
    at 64 B tuples (CPU-bound), 656.64 ns for 4 KiB tuples pushed in
    batches of 4 segments (wire-bound: 11.62 GiB/s of payload, the link's
    11.64 GiB/s less the footer).

    Two protocol stalls sit on top. Once per ``source_segments`` footers
    the source reaps its signaled wrap WQE before reusing the slot: the
    write's full round trip, ``nic_processing`` + the 8208 B wire +
    2 ``wire_latency`` = 2506.64 ns (it costs the wire-bound shape ~8 %
    of the plateau). And a *per-tuple* flush proves its next remote slot
    with the footer read it pipelined behind the previous write (paper
    Section 5.2), one read round trip per segment: the read queues one
    ``nic_wqe_service`` behind the write, then ``nic_processing_inline``,
    a 16 B request and a 16 B response each a ``wire_latency`` away —
    1797.56 ns. That, not max(CPU, wire) = 656.64 ns, is the period of a
    per-tuple flow once a segment fills faster than the read returns
    (tuples above ~82 B); batches prove a whole train's window with one
    read and run at the wire."""
    from repro.core.segment import FOOTER_SIZE
    from repro.rdma.qp import _REQUEST_PACKET_SIZE

    cluster, dfi = build(node_count=2)
    profile = cluster.profile
    options = FlowOptions()
    payload = options.segment_size
    schema = Schema(("key", "uint64"), ("pad", tuple_size - 8))
    dfi.init_shuffle_flow("bw", [Endpoint(0, 0)], [Endpoint(1, 0)], schema,
                          shuffle_key="key", options=options)
    segments = 8 * options.source_segments
    per_segment = payload // tuple_size
    pad = bytes(tuple_size - 8)
    footers = []

    def source_thread():
        source = yield from dfi.open_source("bw", 0)
        rows = [(i, pad) for i in range(segments * per_segment)]
        if batch is None:
            for row in rows:
                yield from source.push(row)
        else:
            for start in range(0, len(rows), batch):
                yield from source.push_batch(rows[start:start + batch])
        yield from source.close()

    def target_thread():
        target = yield from dfi.open_target("bw", 0)
        slot = payload + FOOTER_SIZE

        def on_commit(offset, length):
            if (offset + length) % slot == 0:
                footers.append(cluster.now)

        watch_commits(monkeypatch, target._channels[0].ring.region,
                      on_commit)
        while (yield from target.consume_batch()) is not FLOW_END:
            pass

    cluster.env.process(source_thread())
    cluster.env.process(target_thread())
    cluster.run()
    fill = per_segment * profile.cpu_push_cost(tuple_size) + (
        profile.cpu_post_cost)
    wire = (payload + FOOTER_SIZE) / profile.link_bandwidth
    period = max(fill, wire)
    if bound == "cpu":
        assert fill > wire
        assert period == pytest.approx(2128.48, abs=1e-6)
    elif bound == "wire":
        assert fill < wire
        assert period == pytest.approx(656.64, abs=1e-6)
    else:
        period = (profile.nic_wqe_service + profile.nic_processing_inline
                  + (_REQUEST_PACKET_SIZE + FOOTER_SIZE)
                  / profile.link_bandwidth + 2 * profile.wire_latency)
        assert period > max(fill, wire)
        assert period == pytest.approx(1797.56, abs=1e-6)
    wrap = (profile.nic_processing + wire + 2 * profile.wire_latency)
    assert wrap == pytest.approx(2506.64, abs=1e-6)
    # Skip the first ring lap (the target ring fills from empty), then
    # read four whole laps of the source ring.
    assert len(footers) == segments + 1  # the close marker is a footer
    lap = options.source_segments
    steady = [later - earlier for earlier, later
              in zip(footers[lap:5 * lap], footers[lap + 1:5 * lap + 1])]
    assert sum(gap == pytest.approx(wrap, abs=1e-6)
               for gap in steady) == 4
    assert all(gap == pytest.approx(period, abs=1e-6)
               or gap == pytest.approx(wrap, abs=1e-6) for gap in steady)


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


def _through(source, door, values, target=None):
    """Generator: the error ``values`` raised through one front door of
    ``source`` (``push``, ``push_batch`` or ``push_bytes``), or None."""
    try:
        if door == "push":
            yield from source.push(values, target)
        elif door == "push_batch":
            yield from source.push_batch([values], target)
        else:
            yield from source.push_bytes(SCHEMA.pack(values), target)
    except FlowError as exc:
        return exc
    return None


def _stall(source, index):
    """Generator: write channel ``index`` off as a stall does — its target
    counts as failed and the timeout surfaces, but the source stays
    open."""
    with pytest.raises(FlowTimeoutError):
        yield from source._handle_channel_failure(
            index, FlowTimeoutError("stalled"))


def _refusals(targets, body):
    """Run ``body(source)``, a generator returning what it saw, as the
    source of a keyed 1:``targets`` flow whose targets open and never
    consume; returns what it saw and what each channel took in."""
    cluster, dfi = build(node_count=targets + 1)
    dfi.init_shuffle_flow(
        "f", ["node0|0"], [f"node{n}|0" for n in range(1, targets + 1)],
        SCHEMA, shuffle_key="key")
    seen = []

    def source_thread():
        source = yield from dfi.open_source("f", 0)
        seen.extend((yield from body(source)))
        seen.append([channel.tuples_sent for channel in source._channels])

    def target_thread(index):
        yield from dfi.open_target("f", index)

    cluster.env.process(source_thread())
    for index in range(targets):
        cluster.env.process(target_thread(index))
    cluster.run()
    return seen


@pytest.mark.parametrize("door", ["push", "push_batch", "push_bytes"])
def test_a_named_target_out_of_range_or_failed_is_refused(door):
    """``target=`` outside the flow's targets is a FlowError naming the
    valid range; a target that failed is a FlowPeerFailedError naming
    it. Every door refuses before anything is staged."""
    def body(source):
        seen = []
        for target in (2, -1):
            seen.append((yield from _through(source, door, (1, 1), target)))
        yield from _stall(source, 1)
        seen.append((yield from _through(source, door, (1, 1), 1)))
        return seen

    out_of_range, negative, failed, sent = _refusals(2, body)
    for error in (out_of_range, negative):
        assert type(error) is FlowError
        assert "valid range [0, 2)" in str(error)
    assert type(failed) is FlowPeerFailedError
    assert "target 1 of flow 'f' has failed" in str(failed)
    assert sent == [0, 0]


@pytest.mark.parametrize("door", ["push", "push_batch", "push_bytes"])
def test_a_routed_push_after_every_target_failed_is_refused(door):
    """Every target of the flow failed (stalls, which leave the source
    open): a push without ``target=`` is a FlowPeerFailedError.
    ``push_bytes`` cannot route, so it runs on a one-target flow, whose
    only target it takes."""
    targets = 1 if door == "push_bytes" else 2

    def body(source):
        for index in range(targets):
            yield from _stall(source, index)
        return [(yield from _through(source, door, (1, 1)))]

    error, sent = _refusals(targets, body)
    assert type(error) is FlowPeerFailedError
    assert ("every target of flow 'f' has failed" if targets == 2
            else "target 0 of flow 'f' has failed") in str(error)
    assert sent == [0] * targets


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
        for i in range(50):
            yield from source.push((i, i))
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
