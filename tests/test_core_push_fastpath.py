"""The per-tuple push contract: a flat call until a segment flushes.

``push`` on every source is a plain method. While the staged segment has
room it returns the shared empty iterable :data:`NO_FLUSH` — no generator
frame, no kernel event; only a push that fills the segment returns a
generator. Errors surface at the ``yield from`` site either way, a tuple
that fails to pack leaves the source untouched, and the shuffle failure
policy still wraps the flush. A shuffle push that only stages is one
frame: it hashes a plain ``int`` key and packs into the channel's open
slot itself, and every tuple lands where the key-hash router says, over
whatever targets are live. The last tests pin ``route`` and the packed
split ``route.partition`` to one partition function, and land short and
long batches, on both flow modes, where ``route`` says.
"""

import contextlib
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import (
    FlowAbortedError,
    FlowClosedError,
    FlowError,
    FlowPeerFailedError,
    FlowTimeoutError,
    QpFlushedError,
    SchemaError,
)
from repro.core import (
    FLOW_END,
    NO_FLUSH,
    AggregationSpec,
    DfiRuntime,
    FlowOptions,
    Optimization,
    Schema,
    ShuffleSource,
    key_hash_router,
    radix_router,
)
from repro.core import routing
from repro.core.routing import _ROUTE_NP_MIN
from repro.simnet import PARK, Cluster, FaultPlan, node_crash
from tests.callcount import count_calls, grown

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


def _run(kind, body, routing=None):
    """Run ``body(source)`` as the single source process of a 1:2 flow
    of ``kind`` (1:1 for the in-network combiner) against draining
    targets; returns the cluster. A shuffle is key-hashed unless
    ``routing`` names a routing function."""
    cluster = Cluster(node_count=3)
    dfi = DfiRuntime(cluster)
    targets = ["node1|0", "node2|0"]
    if kind == "shuffle":
        dfi.init_shuffle_flow("f", ["node0|0"], targets, SCHEMA,
                              shuffle_key=None if routing else "key",
                              routing=routing, options=_options())
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
    if isinstance(source, ShuffleSource):       # one per target
        return [(c._stager.used, c.tuples_sent, c._cpu_debt)
                for c in source._channels]
    return (source._stager.used, source.tuples_sent, source._cpu_debt)


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
    assert seen["message"].startswith(expected + ": ")
    assert seen["after"] == seen["before"]
    assert seen["sent"] == 1


@pytest.mark.parametrize("routing, frames", [
    (None, 1), (radix_router(SCHEMA, "key", bits=4), 2),
], ids=["key_hash", "routing_function"])
def test_a_staging_shuffle_push_makes_exactly_these_calls(routing, frames):
    """A key-hashed push that only stages is its own frame and one
    ``pack_into``; an application's routing function adds its own frame.
    Both read 3 frames and 2 C calls while the push called the router,
    ``len`` of the live targets and the channel's ``push``."""
    seen = {}

    def body(source):
        yield from source.push((1, 1))      # the channel's first tuple
        pushed = []
        seen["calls"] = count_calls(
            lambda: pushed.append(source.push((2, 2))), tally=True)
        seen["pushed"] = pushed
        yield from pushed[0]

    _run("shuffle", body, routing)
    assert seen["pushed"] == [NO_FLUSH]
    calls = seen["calls"]
    assert (calls.frames, calls.c_calls) == (frames, 1), grown(calls)


# -- failure policy around the flush ------------------------------------------

def _crash_run(policy, explicit_target=None, batch=0):
    """A 1:2 shuffle whose second target's node crashes mid-run; the
    source pushes one tuple at a time, or ``push_batch``es ``batch``."""
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
            for i in range(0, PUSHES, batch or 1):
                failed_before = source.failed_targets
                if batch:
                    yield from source.push_batch(
                        [(j, j) for j in range(i, i + batch)],
                        explicit_target)
                else:
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
    """Naming the target opts out of rerouting, whatever the policy —
    through ``push`` and through ``push_batch``, whose failed post also
    ends in the named target's error under ``"reroute"``."""
    for batch in (0, 8):
        outcome = _crash_run("reroute", explicit_target=1, batch=batch)
        assert isinstance(outcome["error"], FlowPeerFailedError)
        assert "target 1" in str(outcome["error"])
        assert outcome["tripped"] == []
        assert outcome["failed"] == (1,)


# -- route == partition -------------------------------------------------------

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


def _packs(schema, values) -> bool:
    try:
        schema.pack(values)
    except SchemaError:
        return False
    return True


@pytest.mark.parametrize("key_type", ["uint64", "int64", "double"])
@given(keys=st.lists(_KEYS, min_size=1, max_size=12),
       target_count=st.integers(1, 9))
def test_route_and_route_many_agree(key_type, keys, target_count):
    """``route(v, n)`` names the group the packed split puts ``v`` in
    (the name predates ``route.partition``; ``route_many`` is gone): a
    ``uint64`` column's batch of ``_ROUTE_NP_MIN`` rows, the keys over
    and over, is split into the rows ``route`` sends each target, packed
    in batch order — or declined, if a key does not pack or numpy is
    missing, and always one row shorter. Other key columns have no
    packed split, and ``route`` answers an index in range for every key
    class."""
    schema = Schema(("key", key_type), ("v", "uint64"))
    route = key_hash_router(schema, "key")
    rows = [(keys[i % len(keys)], i) for i in range(_ROUTE_NP_MIN)]
    slots = [route(row, target_count) for row in rows]
    assert all(0 <= slot < target_count for slot in slots)
    if key_type != "uint64":
        assert route.partition is None
        return
    assert route.partition(rows[1:], target_count) is None
    split = route.partition(rows, target_count)
    if np is None or not all(_packs(schema, row) for row in rows):
        assert split is None
        return
    groups, order = split
    expected = [[index for index, slot in enumerate(slots) if slot == target]
                for target in range(target_count)]
    assert order.tolist() == [index for group in expected for index in group]
    assert [bytes(group) for group in groups] == [
        b"".join(schema.pack(rows[index]) for index in group)
        for group in expected]


def test_integer_like_keys_route_by_value():
    """The regression: a numpy integer key used to go through ``hash()``
    on the per-tuple path and through the Fibonacci hash on the batched
    one. Both doors route it by value, the packed split included."""
    np_ = pytest.importorskip("numpy")
    route = key_hash_router(SCHEMA, "key")
    for count in (3, 8):
        want = route((12345, 0), count)
        for key in (np_.int64(12345), np_.uint64(12345), np_.int32(12345)):
            assert route((key, 0), count) == want
            rows = [(key, i) for i in range(_ROUTE_NP_MIN)]
            groups, _order = route.partition(rows, count)
            assert bytes(groups[want]) == b"".join(map(SCHEMA.pack, rows))


# -- push lands where route says ----------------------------------------------

#: Segments of 128 rows, under the reroute policy: the short batch of a
#: landing phase takes the row loop from two live targets on, its long
#: batches of 200 and 300 rows are longer than ``_row_loop_max`` on both
#: sides of ``_ROUTE_NP_MIN`` and fill segments (every target drains).
_LANDING = FlowOptions(segment_size=2048, source_segments=2,
                       target_segments=2, credit_threshold=1,
                       on_target_failure="reroute")

#: Rows of the long batches of a landing phase.
_LONG = (200, 300)


def _app_route(values, count):
    """An application's routing function: any key, by ``hash``. It
    answers slots 0 and 1 as ``bool``s, which the source vets into the
    indices they stand for."""
    slot = hash(values[0]) % count
    return bool(slot) if slot < 2 else slot


def _sent(source):
    return [channel.tuples_sent for channel in source._channels]


def _wire(schema, values):
    """``values`` as a target reads them back."""
    return schema.unpack(schema.pack(values))


def _land(source, route, rows, expected):
    """Generator: ``push`` each of ``rows``. A row the schema packs must
    be staged in ``channels[live[route(values, len(live))]]`` and nowhere
    else, one it cannot nowhere at all; ``expected[t]`` collects, in
    order, what target ``t`` must receive."""
    live = source._live
    assert source._fanout == len(live)
    schema = source.descriptor.schema
    for values in rows:
        before = _sent(source)
        try:
            yield from source.push(values)
        except SchemaError:
            assert not _packs(schema, values)
            assert _sent(source) == before
            continue
        home = live[route(values, len(live))]
        before[home] += 1
        # A latency write counts itself when it posts, at the thread's
        # local instant (the push ran ahead of the clock): bring the
        # thread there. At the clock this continues at once.
        yield PARK
        assert _sent(source) == before
        expected[home].append(_wire(schema, values))


def _land_batch(source, route, rows, expected):
    """Generator: ``push_batch`` the ``rows``. Every row must be staged
    in ``channels[live[route(values, len(live))]]``, in batch order, and
    nowhere else. A row the schema cannot pack fails the batch at the
    first live slot, in slot order, whose rows hold one: the slots before
    it stage their rows, that slot at most the rows ahead of its first
    bad one, the rest nothing."""
    live = list(source._live)
    schema = source.descriptor.schema
    groups = [[] for _ in live]
    for values in rows:
        groups[route(values, len(live))].append(values)
    bad = [slot for slot, group in enumerate(groups)
           if not all(_packs(schema, values) for values in group)]
    cut = min(bad, default=len(live))
    before = _sent(source)
    try:
        yield from source.push_batch(rows)
    except SchemaError:
        assert bad
    else:
        assert not bad
    staged = [now - then for now, then in zip(_sent(source), before)]
    for slot, group in enumerate(groups):
        index = live[slot]
        if slot < cut:
            assert staged[index] == len(group)
        elif slot == cut:
            assert staged[index] <= next(
                row for row, values in enumerate(group)
                if not _packs(schema, values))
        else:
            assert staged[index] == 0
        expected[index] += [_wire(schema, values)
                            for values in group[:staged[index]]]
        staged[index] = 0
    assert not any(staged)


def _long_rows(schema, keys, count, tag, scalars):
    """``count`` rows tagged ``tag``: the keys of ``keys`` the schema
    packs, behind keys spread over the key column's range — numpy
    scalars of the column's type if ``scalars`` (not for bytes keys)."""
    kind = schema.fields[0].dtype.name
    mix = [(i * 0x9E3779B97F4A7C15 + tag) % 2 ** 64 for i in range(count)]
    if kind == "uint64":
        spread, scalar = mix, "uint64"
    elif kind == "int64":
        spread, scalar = [key - 2 ** 63 for key in mix], "int64"
    elif kind == "double":
        spread, scalar = [(key % 2 ** 32) / 7 for key in mix], "float64"
    else:
        spread, scalar = [key.to_bytes(8, "little") for key in mix], None
    if scalars and scalar and np is not None:
        spread = list(map(getattr(np, scalar), spread))
    good = [key for key in keys if _packs(schema, (key, tag))]
    return [(key, tag) for key in spread[len(good):] + good]


@settings(deadline=None)
@given(key_type=st.sampled_from(["uint64", "int64", "double", 8]),
       keys=st.lists(_KEYS, min_size=1, max_size=8),
       target_count=st.integers(1, 9),
       drop=st.one_of(st.none(), st.integers(0, 8)),
       adopt=st.booleans(), retire=st.booleans(), app=st.booleans(),
       latency=st.booleans(), scalars=st.booleans(),
       numpy_absent=st.booleans())
def test_push_lands_where_route_says(key_type, keys, target_count, drop,
                                     adopt, retire, app, latency, scalars,
                                     numpy_absent):
    """The inlined hash and the live count ``push`` routes over agree
    with ``route`` for every key class — plain, negative (``int64``) and
    wider than 64 bits (``double``), ``bool``, numpy, ``str``, ``bytes``,
    ``float`` — on any target count, and after a reroute dropped a
    target, a target was adopted and the last one retired; retiring the
    only live target is refused. A key the schema cannot pack stages
    nothing. ``push_batch`` of the same keys — its row loop from two live
    targets on — lands every row where ``route`` says too, and so do
    batches longer than ``_row_loop_max`` — the routing pass, and
    ``route.partition`` on a ``uint64`` key from ``_ROUTE_NP_MIN`` rows
    unless numpy is planted absent — of keys spread over the column's
    range, as numpy scalars or not, on bandwidth and latency flows, and
    either door under an application's routing function (``app``).
    Every target receives exactly the rows routed to it, in order (a
    dropped one a prefix of them: its channel stops where it failed)."""
    schema = Schema(("key", key_type), ("tag", "uint64"))
    route = _app_route if app else key_hash_router(schema, "key")
    cluster = Cluster(node_count=target_count + 2)
    dfi = DfiRuntime(cluster)
    dfi.init_shuffle_flow(
        "f", ["node0|0"], [f"node{n}|0" for n in range(1, target_count + 1)],
        schema, shuffle_key=None if app else "key",
        routing=_app_route if app else None, options=_LANDING,
        optimization=(Optimization.LATENCY if latency
                      else Optimization.BANDWIDTH))
    expected = [[] for _ in range(target_count + 1)]
    received = [[] for _ in range(target_count + 1)]
    dropped = []
    phases = []

    def target_thread(index):
        target = yield from dfi.open_target("f", index)
        while (batch := (yield from target.consume_batch())) is not FLOW_END:
            received[index] += batch

    def land(source, tag):
        rows = [(key, tag) for key in keys]
        yield from _land(source, route, rows, expected)
        yield from _land_batch(source, route, rows, expected)
        for count in _LONG:
            yield from _land_batch(
                source, route,
                _long_rows(schema, keys, count, tag, scalars), expected)

    def source_thread():
        source = yield from dfi.open_source("f", 0)
        yield from land(source, 0)
        if drop is not None and drop < target_count and target_count > 1:
            # What a failed flush does to the live set under reroute.
            yield from source._handle_channel_failure(
                drop, QpFlushedError("flushed"))
            assert drop not in source._live
            dropped.append(drop)
            yield from land(source, 1)
        if adopt:
            index = dfi.registry.extend_targets(
                "f", f"node{target_count + 1}|0")
            cluster.env.process(target_thread(index))
            yield from source.adopt_new_targets()
            assert source._live[-1] == index
            yield from land(source, 2)
        if retire:
            last = len(source._channels) - 1
            if source._live == [last]:
                with pytest.raises(FlowError, match="close the flow"):
                    yield from source.retire_target(last)
            else:
                yield from source.retire_target(last)
                assert last not in source._live
            yield from land(source, 3)
        yield from source.close()
        phases.append("done")

    cluster.env.process(source_thread())
    for index in range(target_count):
        cluster.env.process(target_thread(index))
    with contextlib.ExitStack() as planted:
        if numpy_absent:
            planted.enter_context(mock.patch.object(routing, "_NUMPY", None))
            planted.enter_context(
                mock.patch.dict("sys.modules", {"numpy": None}))
        cluster.run()
    assert phases == ["done"]
    for index, rows in enumerate(received):
        want = expected[index]
        if index in dropped:
            want = want[:len(rows)]
        assert rows == want, index
