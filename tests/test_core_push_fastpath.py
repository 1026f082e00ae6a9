"""The per-tuple push contract: a flat call until a segment flushes.

``push`` on every source is a plain method. While the staged segment has
room it returns the shared empty iterable :data:`NO_FLUSH` — no generator
frame, no kernel event; only a push that fills the segment returns a
generator. Errors surface at the ``yield from`` site either way, a tuple
that fails to pack leaves the source untouched, and the shuffle failure
policy still wraps the flush. The last test pins ``route`` and
``route_many`` of the key-hash router to one partition function.
"""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import (
    FlowAbortedError,
    FlowClosedError,
    FlowPeerFailedError,
    FlowTimeoutError,
    SchemaError,
)
from repro.core import (
    FLOW_END,
    NO_FLUSH,
    AggregationSpec,
    DfiRuntime,
    FlowOptions,
    Schema,
    key_hash_router,
)
from repro.simnet import Cluster, FaultPlan, node_crash

try:
    import numpy as np
except ImportError:  # pragma: no cover - depends on environment
    np = None

SCHEMA = Schema(("key", "uint64"), ("value", "uint64"))
#: 128-byte segments of 16-byte tuples: the eighth push flushes.
SEGMENT_TUPLES = 8
KINDS = ("shuffle", "naive", "multicast", "sharp")
#: Tuples the crash scenarios push; the crash lands in the first half.
PUSHES = 4000


def _options(**extra):
    return FlowOptions(segment_size=SEGMENT_TUPLES * SCHEMA.tuple_size,
                       source_segments=4, target_segments=4,
                       credit_threshold=2, **extra)


def _run(kind, body):
    """Run ``body(source)`` as the single source process of a 1:2 flow
    of ``kind`` (1:1 for the in-network combiner) against draining
    targets; returns the cluster."""
    cluster = Cluster(node_count=3)
    dfi = DfiRuntime(cluster)
    targets = ["node1|0", "node2|0"]
    if kind == "shuffle":
        dfi.init_shuffle_flow("f", ["node0|0"], targets, SCHEMA,
                              shuffle_key="key", options=_options())
    elif kind == "sharp":
        targets = targets[:1]
        dfi.init_combiner_flow(
            "f", ["node0|0"], targets[0], SCHEMA,
            AggregationSpec(op="sum", group_by="key", value="value"),
            options=_options(in_network_aggregation=True))
    else:
        dfi.init_replicate_flow(
            "f", ["node0|0"], targets, SCHEMA,
            options=_options(multicast=kind == "multicast"))

    def source_thread():
        source = yield from dfi.open_source("f", 0)
        yield from body(source)
        yield from source.close()

    def target_thread(index):
        target = yield from dfi.open_target("f", index)
        if kind == "sharp":
            yield from target.consume_all()
            return
        while (yield from target.consume()) is not FLOW_END:
            pass

    cluster.env.process(source_thread())
    for index in range(len(targets)):
        cluster.env.process(target_thread(index))
    cluster.run()
    return cluster


def _staged(source):
    """(staged bytes, tuples sent, CPU debt) of whatever ``source``
    stages per-tuple pushes in."""
    if hasattr(source, "_channels"):            # shuffle: one per target
        return [(c._used, c.tuples_sent, c._cpu_debt)
                for c in source._channels]
    if hasattr(source, "_staged_bytes"):        # sharp
        return (source._staged_bytes, source.tuples_sent, source._cpu_debt)
    return (source._staging.used, source.tuples_sent, source._cpu_debt)


@pytest.mark.parametrize("kind", KINDS)
def test_push_with_room_is_a_flat_call(kind):
    """Every push short of a full segment hands back the one shared
    empty iterable and schedules nothing; the filling push hands back a
    generator, and driving it does reach the kernel."""
    returned = []
    scheduled = []      # kernel events ever scheduled, after each push

    def body(source):
        env = source.node.env
        scheduled.append(env._sequence)
        # One key, so the shuffle stages every tuple in one channel.
        for i in range(SEGMENT_TUPLES):
            result = source.push((7, i))
            returned.append(result)
            yield from result
            scheduled.append(env._sequence)

    _run(kind, body)
    assert all(result is NO_FLUSH for result in returned[:-1])
    assert scheduled[:-1] == [scheduled[0]] * SEGMENT_TUPLES
    assert returned[-1] is not NO_FLUSH
    assert hasattr(returned[-1], "send")
    assert scheduled[-1] > scheduled[0]


@pytest.mark.parametrize("kind", KINDS)
def test_push_on_a_closed_source_raises_at_the_yield_from(kind):
    raised = []

    def body(source):
        yield from source.push((1, 1))
        yield from source.close()
        try:
            yield from source.push((2, 2))
        except FlowClosedError as exc:
            raised.append(exc)

    _run(kind, body)
    assert len(raised) == 1


@pytest.mark.parametrize("kind", KINDS)
def test_mistyped_tuple_leaves_the_source_untouched(kind):
    seen = {}

    def body(source):
        yield from source.push((1, 1))
        seen["before"] = _staged(source)
        try:
            yield from source.push(("not an int", 1))
        except SchemaError as exc:
            seen["message"] = str(exc)
        seen["after"] = _staged(source)
        seen["sent"] = source.tuples_sent

    _run(kind, body)
    expected = "tuple ('not an int', 1) does not match schema"
    if kind == "sharp":     # validates through Schema.pack, which names
        expected += " ['key', 'value']"                    # the fields
    assert seen["message"].startswith(expected + ": ")
    assert seen["after"] == seen["before"]
    assert seen["sent"] == 1


# -- failure policy around the flush ------------------------------------------

def _crash_run(policy, explicit_target=None):
    """A 1:2 shuffle whose second target's node crashes mid-run."""
    cluster = Cluster(node_count=3)
    cluster.install_faults(FaultPlan([node_crash(2, at=100_000.0)]),
                           detection_timeout=10_000.0)
    dfi = DfiRuntime(cluster)
    dfi.init_shuffle_flow(
        "f", ["node0|0"], ["node1|0", "node2|0"], SCHEMA,
        shuffle_key="key",
        options=_options(peer_timeout=100_000.0, on_target_failure=policy))
    outcome = {"survivor": [], "error": None, "tripped": []}

    def source_thread():
        source = yield from dfi.open_source("f", 0)
        try:
            for i in range(PUSHES):
                failed_before = source.failed_targets
                yield from source.push((i, i), explicit_target)
                if source.failed_targets != failed_before:
                    outcome["tripped"].append(i)
            yield from source.close()
        except FlowPeerFailedError as exc:
            outcome["error"] = exc
        outcome["failed"] = source.failed_targets

    def survivor_thread():
        target = yield from dfi.open_target("f", 0)
        try:
            while True:
                item = yield from target.consume()
                if item is FLOW_END:
                    return
                outcome["survivor"].append(item[0])
        except (FlowAbortedError, FlowTimeoutError):
            # The abort policy voids the flow for the survivor too; a
            # source that gives up on an explicit target never closes.
            pass

    def victim_thread():
        target = yield from dfi.open_target("f", 1)
        while (yield from target.consume()) is not FLOW_END:
            pass

    cluster.env.process(source_thread())
    cluster.env.process(survivor_thread())
    cluster.node(2).spawn(victim_thread())
    cluster.run()
    return outcome


def test_failed_flush_reroutes_its_tuple_exactly_once():
    outcome = _crash_run("reroute")
    assert outcome["error"] is None
    assert outcome["failed"] == (1,)
    # Exactly one push saw the flush fail; its tuple went down with the
    # dead channel's segment and once more, through the survivor.
    (tripped,) = outcome["tripped"]
    assert outcome["survivor"].count(tripped) == 1
    # Everything pushed afterwards lands on the survivor, once each.
    later = [key for key in outcome["survivor"] if key > tripped]
    assert later == list(range(tripped + 1, PUSHES))


def test_failed_flush_raises_under_the_abort_policy():
    outcome = _crash_run("abort")
    assert isinstance(outcome["error"], FlowPeerFailedError)
    assert outcome["failed"] == (1,)


def test_failed_flush_raises_for_an_explicit_target():
    """Naming the target opts out of rerouting, whatever the policy."""
    outcome = _crash_run("reroute", explicit_target=1)
    assert isinstance(outcome["error"], FlowPeerFailedError)
    assert "target 1" in str(outcome["error"])
    assert outcome["tripped"] == []


# -- route == route_many -------------------------------------------------------

def _numpy_integers():
    if np is None:
        return st.nothing()
    return st.one_of(
        st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
        st.integers(0, 2 ** 64 - 1).map(np.uint64),
        st.integers(-2 ** 31, 2 ** 31 - 1).map(np.int32),
        st.integers(0, 255).map(np.uint8),
    )


_KEYS = st.one_of(
    st.integers(0, 2 ** 64 - 1),
    st.integers(-2 ** 70, 2 ** 70),       # negative and beyond 64 bits
    st.booleans(),
    _numpy_integers(),
    st.text(max_size=8),
    st.binary(max_size=8),
    st.floats(allow_nan=False),
)


#: numpy's *unsigned* scalars survive the generated kernel's multiply
#: (signed ones overflow into its generic replay): they wrap it exactly
#: like the kernel's 64-bit mask does, and warn about it.
_numpy_wraps = pytest.mark.filterwarnings(
    "ignore:overflow encountered in scalar multiply:RuntimeWarning")


@_numpy_wraps
@pytest.mark.parametrize("key_type", ["uint64", "int64", "double"])
@given(keys=st.lists(_KEYS, min_size=1, max_size=12),
       target_count=st.integers(1, 9))
def test_route_and_route_many_agree(key_type, keys, target_count):
    """``route(v, n)`` names the group ``route_many`` puts ``v`` in, for
    the generated kernels (integer key columns) and the generic loop
    (``double``), on lone tuples and on mixed batches."""
    route = key_hash_router(Schema(("key", key_type), ("v", "uint64")),
                            "key")
    rows = [(key, position) for position, key in enumerate(keys)]
    expected = [[] for _ in range(target_count)]
    for row in rows:
        expected[route(row, target_count)].append(row)
    assert route.route_many(rows, target_count) == expected
    for row in rows:
        groups = route.route_many([row], target_count)
        assert groups[route(row, target_count)] == [row]
        assert sum(map(len, groups)) == 1


@_numpy_wraps
def test_integer_like_keys_route_by_value():
    """The regression: a numpy integer key used to go through ``hash()``
    on the per-tuple path and through the Fibonacci hash on the batched
    one."""
    np_ = pytest.importorskip("numpy")
    route = key_hash_router(SCHEMA, "key")
    for count in (3, 8):
        want = route((12345, 0), count)
        for key in (np_.int64(12345), np_.uint64(12345), np_.int32(12345)):
            assert route((key, 0), count) == want
            assert route.route_many([(key, 0)], count)[want] == [(key, 0)]
