"""Tests for the flow elasticity extension: adding/removing targets of a
running shuffle flow (paper Section 7 future work)."""

import pytest

from repro.common.errors import FlowError, QpFlushedError, RegistryError
from repro.core import (
    FLOW_END,
    DfiRuntime,
    FlowOptions,
    Schema,
)
from repro.simnet import Cluster

SCHEMA = Schema(("key", "uint64"), ("value", "uint64"))
OPTIONS = FlowOptions(segment_size=128, source_segments=4,
                      target_segments=4, credit_threshold=2)


def test_scale_out_adds_target_at_runtime():
    cluster = Cluster(node_count=4)
    dfi = DfiRuntime(cluster)
    dfi.init_shuffle_flow("elastic", ["node0|0"],
                          ["node1|0", "node2|0"], SCHEMA,
                          shuffle_key="key", options=OPTIONS)
    received = {0: [], 1: [], 2: []}
    phase_two_start = {}

    def source_thread(env):
        source = yield from dfi.open_source("elastic", 0)
        for i in range(200):
            yield from source.push((i, 1))
        # Scale out: a third target joins the running flow.
        new_index = dfi.registry.extend_targets("elastic", "node3|0")
        assert new_index == 2
        cluster.env.process(target_thread(new_index))
        yield from source.adopt_new_targets()
        phase_two_start["t"] = env.now
        for i in range(200, 400):
            yield from source.push((i, 2))
        yield from source.close()

    def target_thread(index):
        target = yield from dfi.open_target("elastic", index)
        while True:
            item = yield from target.consume()
            if item is FLOW_END:
                return
            received[index].append(item)

    cluster.env.process(source_thread(cluster.env))
    cluster.env.process(target_thread(0))
    cluster.env.process(target_thread(1))
    cluster.run()
    total = received[0] + received[1] + received[2]
    assert sorted(k for k, _v in total) == list(range(400))
    # The late target received a share of the post-scale-out tuples...
    assert len(received[2]) > 0
    # ...and nothing from before it joined.
    assert all(phase == 2 for _k, phase in received[2])


def test_scale_in_retires_last_target():
    cluster = Cluster(node_count=4)
    dfi = DfiRuntime(cluster)
    dfi.init_shuffle_flow("shrink", ["node0|0"],
                          ["node1|0", "node2|0", "node3|0"], SCHEMA,
                          shuffle_key="key", options=OPTIONS)
    received = {0: [], 1: [], 2: []}
    end_times = {}

    def source_thread(env):
        source = yield from dfi.open_source("shrink", 0)
        for i in range(150):
            yield from source.push((i, 1))
        yield from source.retire_target(2)
        for i in range(150, 300):
            yield from source.push((i, 2))
        yield from source.close()

    def target_thread(index):
        target = yield from dfi.open_target("shrink", index)
        while True:
            item = yield from target.consume()
            if item is FLOW_END:
                end_times[index] = cluster.now
                return
            received[index].append(item)

    cluster.env.process(source_thread(cluster.env))
    for index in range(3):
        cluster.env.process(target_thread(index))
    cluster.run()
    total = received[0] + received[1] + received[2]
    assert sorted(k for k, _v in total) == list(range(300))
    # The retired target saw FLOW_END and received no phase-2 tuples.
    assert all(phase == 1 for _k, phase in received[2])
    assert end_times[2] < end_times[0]
    assert end_times[2] < end_times[1]


def test_tuples_sent_keeps_a_retired_targets_tally():
    """A source's ``tuples_sent`` counts what it pushed into a target it
    has since retired (it read 203 after 300 pushes when it summed only
    the channels still open)."""
    cluster = Cluster(node_count=4)
    dfi = DfiRuntime(cluster)
    dfi.init_shuffle_flow("tally", ["node0|0"],
                          ["node1|0", "node2|0", "node3|0"], SCHEMA,
                          shuffle_key="key", options=OPTIONS)
    received = {0: 0, 1: 0, 2: 0}
    seen = {}

    def source_thread():
        source = yield from dfi.open_source("tally", 0)
        for i in range(300):
            yield from source.push((i, 1))
        seen["retired"] = source._channels[2].tuples_sent
        seen["before"] = source.tuples_sent
        yield from source.retire_target(2)
        seen["after"] = source.tuples_sent
        yield from source.push((300, 2))
        seen["more"] = source.tuples_sent
        yield from source.close()

    def target_thread(index):
        target = yield from dfi.open_target("tally", index)
        while (yield from target.consume()) is not FLOW_END:
            received[index] += 1

    cluster.env.process(source_thread())
    for index in range(3):
        cluster.env.process(target_thread(index))
    cluster.run()
    assert seen["before"] == seen["after"] == 300
    assert seen["more"] == 301
    assert received[2] == seen["retired"] > 0
    assert sum(received.values()) == 301


def test_retire_validations():
    cluster = Cluster(node_count=3)
    dfi = DfiRuntime(cluster)
    dfi.init_shuffle_flow("r", ["node0|0"], ["node1|0", "node2|0"],
                          SCHEMA, shuffle_key="key", options=OPTIONS)
    failures = []

    def source_thread(env):
        source = yield from dfi.open_source("r", 0)
        try:
            yield from source.retire_target(0)  # not the last index
        except FlowError as exc:
            failures.append(str(exc))
        yield from source.retire_target(1)
        try:
            yield from source.retire_target(0)  # only one target left
        except FlowError as exc:
            failures.append(str(exc))
        yield from source.close()

    def target_thread(index):
        target = yield from dfi.open_target("r", index)
        while (yield from target.consume()) is not FLOW_END:
            pass

    cluster.env.process(source_thread(cluster.env))
    cluster.env.process(target_thread(0))
    cluster.env.process(target_thread(1))
    cluster.run()
    assert len(failures) == 2
    assert "last target" in failures[0]
    assert "only target" in failures[1]


def test_the_only_live_target_cannot_be_retired():
    """Target 0 of a 1:2 flow failed, so target 1 is the only live one:
    retiring it would leave a routed push nowhere to go (every one then
    raised "every target of flow 'r' has failed", though target 1 never
    failed). It is refused, and routed pushes keep landing on target 1."""
    cluster = Cluster(node_count=3)
    dfi = DfiRuntime(cluster)
    dfi.init_shuffle_flow(
        "r", ["node0|0"], ["node1|0", "node2|0"], SCHEMA, shuffle_key="key",
        options=FlowOptions(segment_size=128, source_segments=4,
                            target_segments=4, credit_threshold=2,
                            on_target_failure="reroute"))
    failures = []
    received = []

    def source_thread():
        source = yield from dfi.open_source("r", 0)
        yield from source._handle_channel_failure(
            0, QpFlushedError("flushed"))
        try:
            yield from source.retire_target(1)
        except FlowError as exc:
            failures.append(str(exc))
        for i in range(20):
            yield from source.push((i, 0))
        yield from source.push_batch([(i, 1) for i in range(20)])
        yield from source.close()
        failures.append(source.failed_targets)

    def target_thread(index):
        target = yield from dfi.open_target("r", index)
        if index:   # target 0 only opens: the source counts it failed
            while (item := (yield from target.consume())) is not FLOW_END:
                received.append(item)

    cluster.env.process(source_thread())
    cluster.env.process(target_thread(0))
    cluster.env.process(target_thread(1))
    cluster.run()
    assert failures == [
        "cannot retire the only target; close the flow instead", (0,)]
    assert sorted(received) == sorted(
        [(i, 0) for i in range(20)] + [(i, 1) for i in range(20)])


def test_direct_routing_flow_scaled_in_to_one_target_still_needs_target():
    """A flow without a shuffle key or routing function routes only by
    ``target=``: scaled in to one live target, ``push`` and
    ``push_batch`` refuse an unnamed tuple alike."""
    cluster = Cluster(node_count=3)
    dfi = DfiRuntime(cluster)
    dfi.init_shuffle_flow("direct", ["node0|0"], ["node1|0", "node2|0"],
                          SCHEMA, options=OPTIONS)
    failures = []
    received = {0: [], 1: []}

    def source_thread():
        source = yield from dfi.open_source("direct", 0)
        yield from source.retire_target(1)
        try:
            yield from source.push((1, 0))
        except FlowError as exc:
            failures.append(str(exc))
        try:
            yield from source.push_batch([(2, 0), (3, 0)])
        except FlowError as exc:
            failures.append(str(exc))
        yield from source.push_batch([(4, 0)], target=0)
        yield from source.close()

    def target_thread(index):
        target = yield from dfi.open_target("direct", index)
        while (item := (yield from target.consume())) is not FLOW_END:
            received[index].append(item)

    cluster.env.process(source_thread())
    cluster.env.process(target_thread(0))
    cluster.env.process(target_thread(1))
    cluster.run()
    assert len(failures) == 2
    assert all("pass target= explicitly" in text for text in failures)
    assert received == {0: [(4, 0)], 1: []}


def test_extend_targets_validations():
    cluster = Cluster(node_count=3)
    dfi = DfiRuntime(cluster)
    dfi.init_shuffle_flow("v", ["node0|0"], ["node1|0"], SCHEMA,
                          shuffle_key="key", options=OPTIONS)
    with pytest.raises(RegistryError, match="already a target"):
        dfi.registry.extend_targets("v", "node1|0")
    with pytest.raises(RegistryError, match="outside the cluster"):
        dfi.registry.extend_targets("v", "node9|0")
    dfi.init_replicate_flow("rep", ["node0|0"], ["node2|0"], SCHEMA)
    with pytest.raises(RegistryError, match="shuffle flows"):
        dfi.registry.extend_targets("rep", "node1|0")


def test_multiple_sources_adopt_independently():
    """Sources adopting at different times route consistently: the grown
    fan-out applies per source from its adoption point on."""
    cluster = Cluster(node_count=4)
    dfi = DfiRuntime(cluster)
    dfi.init_shuffle_flow("multi", ["node0|0", "node0|1"],
                          ["node1|0", "node2|0"], SCHEMA,
                          shuffle_key="key", options=OPTIONS)
    received = {0: [], 1: [], 2: []}
    extended = {"done": False}

    def source_thread(index, adopt_after):
        source = yield from dfi.open_source("multi", index)
        for i in range(300):
            if i == adopt_after:
                if not extended["done"]:
                    extended["done"] = True
                    new_index = dfi.registry.extend_targets("multi",
                                                            "node3|0")
                    cluster.env.process(target_thread(new_index))
                yield from source.adopt_new_targets()
            yield from source.push((index * 1000 + i, index))
        yield from source.close()

    def target_thread(index):
        target = yield from dfi.open_target("multi", index)
        while True:
            item = yield from target.consume()
            if item is FLOW_END:
                return
            received[index].append(item)

    cluster.env.process(source_thread(0, 100))
    cluster.env.process(source_thread(1, 200))
    cluster.env.process(target_thread(0))
    cluster.env.process(target_thread(1))
    cluster.run()
    total = received[0] + received[1] + received[2]
    assert len(total) == 600
    assert len(received[2]) > 0


# -- abort racing elasticity (fault-tolerance extension) ---------------------

def test_abort_racing_extend_targets_does_not_strand_the_new_target():
    """A target adopted while the flow is being aborted must terminate
    with FlowAbortedError — whether its ring was published before the
    abort (it gets a marker) or after (it sees the registry flag)."""
    from repro.common.errors import FlowAbortedError

    cluster = Cluster(node_count=4)
    dfi = DfiRuntime(cluster)
    dfi.init_shuffle_flow("race", ["node0|0"], ["node1|0", "node2|0"],
                          SCHEMA, shuffle_key="key", options=OPTIONS)
    aborted = []

    def source_thread(env):
        source = yield from dfi.open_source("race", 0)
        for i in range(100):
            yield from source.push((i, 1))
        # The flow grows... and is aborted before the source ever adopts
        # the new target.
        new_index = dfi.registry.extend_targets("race", "node3|0")
        cluster.env.process(target_thread(new_index))
        yield env.timeout(5_000.0)  # the new target opens + publishes
        yield from source.abort()

    def target_thread(index):
        target = yield from dfi.open_target("race", index)
        try:
            while (yield from target.consume()) is not FLOW_END:
                pass
        except FlowAbortedError:
            aborted.append(index)

    cluster.env.process(source_thread(cluster.env))
    cluster.env.process(target_thread(0))
    cluster.env.process(target_thread(1))
    cluster.run()
    # All three targets terminated via the abort — including the adopted
    # one, whose ring the source never pushed a single tuple into.
    assert sorted(aborted) == [0, 1, 2]


def test_target_opening_after_abort_sees_the_flag():
    """The other side of the race: the abort lands *before* the new
    target even publishes its ring. The registry flag (set synchronously
    at abort time) catches it."""
    from repro.common.errors import FlowAbortedError

    cluster = Cluster(node_count=4)
    dfi = DfiRuntime(cluster)
    dfi.init_shuffle_flow("flag", ["node0|0"], ["node1|0", "node2|0"],
                          SCHEMA, shuffle_key="key", options=OPTIONS)
    outcome = {}

    def source_thread(env):
        source = yield from dfi.open_source("flag", 0)
        yield from source.push((1, 1))
        new_index = dfi.registry.extend_targets("flag", "node3|0")
        yield from source.abort()
        # Only now does the adopted target open.
        cluster.env.process(late_target_thread(new_index))

    def target_thread(index):
        target = yield from dfi.open_target("flag", index)
        try:
            while (yield from target.consume()) is not FLOW_END:
                pass
        except FlowAbortedError:
            outcome[index] = "aborted"

    def late_target_thread(index):
        target = yield from dfi.open_target("flag", index)
        try:
            yield from target.consume()
        except FlowAbortedError:
            outcome[index] = "aborted"

    cluster.env.process(source_thread(cluster.env))
    cluster.env.process(target_thread(0))
    cluster.env.process(target_thread(1))
    cluster.run()
    assert outcome == {0: "aborted", 1: "aborted", 2: "aborted"}


def test_adopt_after_abort_raises_instead_of_deadlocking():
    """A sibling source adopting new targets on an already-aborted flow
    fails fast (the ring it would wait for will never be written)."""
    from repro.common.errors import FlowAbortedError

    cluster = Cluster(node_count=4)
    dfi = DfiRuntime(cluster)
    dfi.init_shuffle_flow("sib", ["node0|0", "node0|1"],
                          ["node1|0", "node2|0"], SCHEMA,
                          shuffle_key="key", options=OPTIONS)
    outcome = {}

    def aborter_thread(env):
        source = yield from dfi.open_source("sib", 0)
        yield from source.push((1, 1))
        dfi.registry.extend_targets("sib", "node3|0")
        yield from source.abort()

    def sibling_thread(env):
        source = yield from dfi.open_source("sib", 1)
        yield env.timeout(50_000.0)  # after the abort
        try:
            yield from source.adopt_new_targets()
        except FlowAbortedError:
            outcome["sibling"] = "aborted"

    def target_thread(index):
        from repro.common.errors import FlowAbortedError as Aborted
        target = yield from dfi.open_target("sib", index)
        try:
            while (yield from target.consume()) is not FLOW_END:
                pass
        except Aborted:
            pass

    cluster.env.process(aborter_thread(cluster.env))
    cluster.env.process(sibling_thread(cluster.env))
    cluster.env.process(target_thread(0))
    cluster.env.process(target_thread(1))
    cluster.run()
    assert outcome == {"sibling": "aborted"}


def test_abort_racing_retire_leaves_no_dangling_channel():
    """retire_target followed by an abort of the shrunken flow: the
    retired target drains to FLOW_END, the rest see the abort, and the
    run terminates (nothing leaks, nothing deadlocks)."""
    from repro.common.errors import FlowAbortedError

    cluster = Cluster(node_count=4)
    dfi = DfiRuntime(cluster)
    dfi.init_shuffle_flow("ra", ["node0|0"],
                          ["node1|0", "node2|0", "node3|0"], SCHEMA,
                          shuffle_key="key", options=OPTIONS)
    results = {}

    def source_thread(env):
        source = yield from dfi.open_source("ra", 0)
        for i in range(60):
            yield from source.push((i, 1))
        yield from source.retire_target(2)
        for i in range(60, 120):
            yield from source.push((i, 1))
        yield from source.abort()

    def target_thread(index):
        target = yield from dfi.open_target("ra", index)
        try:
            while (yield from target.consume()) is not FLOW_END:
                pass
            results[index] = "flow_end"
        except FlowAbortedError:
            results[index] = "aborted"

    cluster.env.process(source_thread(cluster.env))
    for index in range(3):
        cluster.env.process(target_thread(index))
    cluster.run()
    assert results[2] == "flow_end"  # retired cleanly before the abort
    assert results[0] == "aborted"
    assert results[1] == "aborted"
