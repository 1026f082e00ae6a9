"""Tests for the flow fault-tolerance extension: source-side abort."""

import pytest

from repro.common.errors import FlowAbortedError
from repro.core import (
    FLOW_END,
    DfiRuntime,
    FlowOptions,
    Optimization,
    Ordering,
    Schema,
)
from repro.simnet import Cluster

SCHEMA = Schema(("key", "uint64"), ("value", "uint64"))


def run_abort_scenario(init_flow, open_source, open_target, targets,
                       tuples_before_abort=50):
    cluster = Cluster(node_count=targets + 1)
    dfi = DfiRuntime(cluster)
    init_flow(dfi, cluster)
    outcome = {"received": {i: 0 for i in range(targets)},
               "aborted": {i: False for i in range(targets)}}

    def source_thread(env):
        source = yield from open_source(dfi)
        for i in range(tuples_before_abort):
            yield from source.push((i, i))
        yield from source.abort()

    def target_thread(index):
        target = yield from open_target(dfi, index)
        try:
            while True:
                item = yield from target.consume()
                if item is FLOW_END:
                    return
                outcome["received"][index] += 1
        except FlowAbortedError:
            outcome["aborted"][index] = True

    cluster.env.process(source_thread(cluster.env))
    for t in range(targets):
        cluster.env.process(target_thread(t))
    cluster.run()
    return outcome


def test_shuffle_abort_raises_at_all_targets():
    outcome = run_abort_scenario(
        lambda dfi, cluster: dfi.init_shuffle_flow(
            "f", ["node0|0"], ["node1|0", "node2|0"], SCHEMA,
            shuffle_key="key"),
        lambda dfi: dfi.open_source("f", 0),
        lambda dfi, i: dfi.open_target("f", i),
        targets=2)
    assert all(outcome["aborted"].values())


def test_latency_shuffle_abort():
    outcome = run_abort_scenario(
        lambda dfi, cluster: dfi.init_shuffle_flow(
            "f", ["node0|0"], ["node1|0"], SCHEMA,
            optimization=Optimization.LATENCY),
        lambda dfi: dfi.open_source("f", 0),
        lambda dfi, i: dfi.open_target("f", i),
        targets=1)
    assert outcome["aborted"][0]
    # Latency mode transfers tuple-by-tuple: everything pushed before the
    # abort marker arrives in order first.
    assert outcome["received"][0] == 50


def test_naive_replicate_abort():
    outcome = run_abort_scenario(
        lambda dfi, cluster: dfi.init_replicate_flow(
            "f", ["node0|0"], ["node1|0", "node2|0"], SCHEMA),
        lambda dfi: dfi.open_source("f", 0),
        lambda dfi, i: dfi.open_target("f", i),
        targets=2)
    assert all(outcome["aborted"].values())


def test_multicast_replicate_abort():
    outcome = run_abort_scenario(
        lambda dfi, cluster: dfi.init_replicate_flow(
            "f", ["node0|0"], ["node1|0", "node2|0"], SCHEMA,
            optimization=Optimization.LATENCY,
            options=FlowOptions(multicast=True,
                                retransmit_timeout=10_000)),
        lambda dfi: dfi.open_source("f", 0),
        lambda dfi, i: dfi.open_target("f", i),
        targets=2)
    assert all(outcome["aborted"].values())


def test_ordered_multicast_replicate_abort():
    outcome = run_abort_scenario(
        lambda dfi, cluster: dfi.init_replicate_flow(
            "f", ["node0|0"], ["node1|0", "node2|0"], SCHEMA,
            optimization=Optimization.LATENCY, ordering=Ordering.GLOBAL,
            options=FlowOptions(multicast=True,
                                retransmit_timeout=10_000)),
        lambda dfi: dfi.open_source("f", 0),
        lambda dfi, i: dfi.open_target("f", i),
        targets=2)
    assert all(outcome["aborted"].values())


def test_ordered_multicast_abort_with_a_shared_sequencer():
    """Two sources draw from one sequencer, so the aborting source's
    marker is not segment ``segments_sent - 1``: ``abort()`` used to look
    it up under that key and escape ``cluster.run()`` as ``KeyError``."""
    cluster = Cluster(node_count=3)
    dfi = DfiRuntime(cluster)
    dfi.init_replicate_flow(
        "f", ["node0|0", "node0|1"], ["node1|0", "node2|0"], SCHEMA,
        optimization=Optimization.LATENCY, ordering=Ordering.GLOBAL,
        options=FlowOptions(multicast=True, retransmit_timeout=10_000))
    aborted = set()

    def source_thread(index):
        source = yield from dfi.open_source("f", index)
        for i in range(5):
            yield from source.push((i, i))
        if index:
            yield from source.abort()
            assert source.retransmissions == 3  # the marker, re-sent

    def target_thread(index):
        target = yield from dfi.open_target("f", index)
        try:
            while (yield from target.consume()) is not FLOW_END:
                pass
        except FlowAbortedError:
            aborted.add(index)

    for index in range(2):
        cluster.env.process(source_thread(index))
        cluster.env.process(target_thread(index))
    cluster.run()
    assert aborted == {0, 1}


def test_abort_drops_staged_tuples():
    """Bandwidth mode: tuples still staged (never flushed) are dropped."""
    cluster = Cluster(node_count=2)
    dfi = DfiRuntime(cluster)
    dfi.init_shuffle_flow("f", ["node0|0"], ["node1|0"], SCHEMA,
                          shuffle_key="key")
    received = []
    aborted = [False]

    def source_thread(env):
        source = yield from dfi.open_source("f", 0)
        for i in range(3):  # far less than a segment's worth
            yield from source.push((i, i))
        yield from source.abort()

    def target_thread(env):
        target = yield from dfi.open_target("f", 0)
        try:
            while True:
                item = yield from target.consume()
                if item is FLOW_END:
                    return
                received.append(item)
        except FlowAbortedError:
            aborted[0] = True

    cluster.env.process(source_thread(cluster.env))
    cluster.env.process(target_thread(cluster.env))
    cluster.run()
    assert aborted[0]
    assert received == []  # staged tuples were voided by the abort


def test_push_after_abort_rejected():
    from repro.common.errors import FlowClosedError
    cluster = Cluster(node_count=2)
    dfi = DfiRuntime(cluster)
    dfi.init_shuffle_flow("f", ["node0|0"], ["node1|0"], SCHEMA,
                          shuffle_key="key")
    errors = []

    def source_thread(env):
        source = yield from dfi.open_source("f", 0)
        yield from source.abort()
        try:
            yield from source.push((1, 1))
        except FlowClosedError:
            errors.append("rejected")

    def target_thread(env):
        target = yield from dfi.open_target("f", 0)
        try:
            while (yield from target.consume()) is not FLOW_END:
                pass
        except FlowAbortedError:
            pass

    cluster.env.process(source_thread(cluster.env))
    cluster.env.process(target_thread(cluster.env))
    cluster.run()
    assert errors == ["rejected"]
