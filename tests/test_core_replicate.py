"""Integration tests for replicate flows: naive, multicast, ordered, lossy."""

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.common import HardwareProfile
from repro.common.errors import (
    ConfigurationError,
    FlowAbortedError,
    FlowError,
    FlowPeerFailedError,
    FlowTimeoutError,
)
from repro.core import (
    FLOW_END,
    DfiRuntime,
    Endpoint,
    FlowOptions,
    GapNotification,
    Optimization,
    Ordering,
    Schema,
)
from repro.rdma.memory import MemoryRegion
from repro.rdma.nic import get_nic
from repro.rdma.qp import UdQueuePair
from repro.simnet import Cluster

SCHEMA = Schema(("key", "uint64"), ("value", "uint64"))


def _consume_all(target, batched, out):
    """Generator: drain ``target`` into ``out`` per tuple or per batch;
    gaps are skipped as the NOPaxos application would."""
    while True:
        item = yield from (target.consume_batch() if batched
                           else target.consume())
        if item is FLOW_END:
            return
        if isinstance(item, GapNotification):
            target.skip_gap(item.missing_seq, item.source_index)
        elif batched:
            assert item, "a batch is never empty"
            out.extend(item)
        else:
            out.append(item)


def run_replicate(node_count=4, sources=1, targets=3, n=200,
                  optimization=Optimization.BANDWIDTH,
                  ordering=Ordering.NONE, multicast=False, loss=0.0,
                  seed=1, options_extra=None, batched=False):
    profile = HardwareProfile(multicast_loss_probability=loss)
    cluster = Cluster(node_count=node_count, profile=profile, seed=seed)
    dfi = DfiRuntime(cluster)
    options = FlowOptions(multicast=multicast, retransmit_timeout=20_000,
                          **(options_extra or {}))
    dfi.init_replicate_flow(
        "rep",
        sources=[f"node0|{t}" for t in range(sources)],
        targets=[f"node{i + 1}|0" for i in range(targets)],
        schema=SCHEMA, optimization=optimization, ordering=ordering,
        options=options)
    received = {i: [] for i in range(targets)}
    source_stats = {}

    def source_thread(index):
        source = yield from dfi.open_source("rep", index)
        for i in range(n):
            yield from source.push((index * 10 ** 6 + i, i))
        yield from source.close()
        source_stats[index] = source

    def target_thread(index):
        target = yield from dfi.open_target("rep", index)
        yield from _consume_all(target, batched, received[index])

    for s in range(sources):
        cluster.env.process(source_thread(s))
    for t in range(targets):
        cluster.env.process(target_thread(t))
    cluster.run()
    return cluster, received, source_stats


def test_naive_every_target_gets_every_tuple():
    _c, received, _s = run_replicate()
    expected = [(i, i) for i in range(200)]
    for rows in received.values():
        assert rows == expected


def test_naive_latency_mode():
    _c, received, _s = run_replicate(optimization=Optimization.LATENCY, n=80)
    for rows in received.values():
        assert rows == [(i, i) for i in range(80)]


def test_naive_uplink_carries_n_copies():
    """The bottleneck the paper shows in Fig. 8a: N writes on the uplink."""
    cluster, received, _s = run_replicate(targets=3, n=600)
    source_node = cluster.node(0)
    payload_total = sum(len(rows) for rows in received.values()) * 16
    assert source_node.uplink.bytes_carried >= payload_total


def test_multicast_single_uplink_copy():
    """With multicast, the uplink carries each segment exactly once."""
    cluster, received, _s = run_replicate(multicast=True, targets=3, n=600)
    for rows in received.values():
        assert sorted(rows) == [(i, i) for i in range(600)]
    uplink = cluster.node(0).uplink.bytes_carried
    received_total = sum(
        node.downlink.bytes_carried for node in cluster.nodes[1:])
    assert received_total >= 2.5 * uplink  # replicated in the switch


def test_naive_global_ordering_multiple_sources():
    _c, received, _s = run_replicate(sources=3, ordering=Ordering.GLOBAL,
                                     n=100)
    assert received[0] == received[1] == received[2]
    assert len(received[0]) == 300


def test_multicast_global_ordering_multiple_sources():
    _c, received, _s = run_replicate(sources=2, multicast=True,
                                     ordering=Ordering.GLOBAL, n=150)
    assert received[0] == received[1] == received[2]
    assert len(received[0]) == 300


def test_multicast_with_loss_recovers_all_tuples():
    """Loss injection forces NACK-driven retransmissions."""
    cluster, received, stats = run_replicate(
        multicast=True, loss=0.05, n=400,
        optimization=Optimization.LATENCY, seed=9)
    for rows in received.values():
        assert sorted(rows) == [(i, i) for i in range(400)]
    assert cluster.fabric.multicast_drops > 0
    assert stats[0].retransmissions > 0


def test_multicast_ordered_with_loss_keeps_global_order():
    cluster, received, _s = run_replicate(
        multicast=True, loss=0.03, ordering=Ordering.GLOBAL,
        optimization=Optimization.LATENCY, n=300, seed=5)
    assert received[0] == received[1] == received[2]
    assert len(received[0]) == 300
    assert cluster.fabric.multicast_drops > 0


def test_multicast_deterministic_given_seed():
    def run_once():
        cluster, received, _s = run_replicate(
            multicast=True, loss=0.05, n=150,
            optimization=Optimization.LATENCY, seed=21)
        return cluster.now, received

    t1, r1 = run_once()
    t2, r2 = run_once()
    assert t1 == t2
    assert r1 == r2


def test_gap_notify_surfaces_gap_to_application():
    """gap_notify mode: the application sees a GapNotification instead of
    a transparent retransmission (the NOPaxos hook)."""
    profile = HardwareProfile(multicast_loss_probability=0.2)
    cluster = Cluster(node_count=3, profile=profile, seed=13)
    dfi = DfiRuntime(cluster)
    dfi.init_replicate_flow(
        "rep", sources=["node0|0"], targets=["node1|0", "node2|0"],
        schema=SCHEMA, optimization=Optimization.LATENCY,
        ordering=Ordering.GLOBAL,
        options=FlowOptions(multicast=True, gap_notify=True,
                            retransmit_timeout=10_000))
    outcomes = {0: [], 1: []}
    gaps = {0: 0, 1: 0}

    def source_thread(env):
        source = yield from dfi.open_source("rep", 0)
        for i in range(200):
            yield from source.push((i, i))
        yield from source.close()

    def target_thread(index):
        target = yield from dfi.open_target("rep", index)
        while True:
            item = yield from target.consume()
            if item is FLOW_END:
                return
            if isinstance(item, GapNotification):
                gaps[index] += 1
                target.skip_gap(item.missing_seq)
                continue
            outcomes[index].append(item)

    cluster.env.process(source_thread(cluster.env))
    cluster.env.process(target_thread(0))
    cluster.env.process(target_thread(1))
    cluster.run()
    assert gaps[0] + gaps[1] > 0  # losses surfaced as gaps
    # Delivered tuples stay a subsequence of the pushed order.
    for rows in outcomes.values():
        keys = [k for k, _v in rows]
        assert keys == sorted(keys)
        assert len(rows) < 200  # skipped gaps mean missing tuples


def test_skip_gap_on_unordered_flow_requires_source():
    cluster = Cluster(node_count=2)
    dfi = DfiRuntime(cluster)
    dfi.init_replicate_flow(
        "rep", sources=["node0|0"], targets=["node1|0"], schema=SCHEMA,
        options=FlowOptions(multicast=True))
    holder = {}

    def target_thread(env):
        target = yield from dfi.open_target("rep", 0)
        holder["target"] = target
        while (yield from target.consume()) is not FLOW_END:
            pass

    def source_thread(env):
        source = yield from dfi.open_source("rep", 0)
        yield from source.close()

    cluster.env.process(target_thread(cluster.env))
    cluster.env.process(source_thread(cluster.env))
    cluster.run()
    with pytest.raises(FlowError, match="source_index"):
        holder["target"].skip_gap(0)


def test_replicate_descriptor_validations():
    cluster = Cluster(node_count=2)
    dfi = DfiRuntime(cluster)
    with pytest.raises(Exception, match="routing"):
        from repro.core import FlowDescriptor, FlowType, Endpoint
        FlowDescriptor(name="bad", flow_type=FlowType.REPLICATE,
                       sources=(Endpoint(0, 0),), targets=(Endpoint(1, 0),),
                       schema=SCHEMA, shuffle_key="key")


def test_multicast_retransmit_buffer_must_cover_the_credit_window():
    """A NACK may name any un-credited segment: a buffer shorter than
    the window dropped it silently (and ``abort()`` escaped
    ``cluster.run()`` as a bare ``KeyError``)."""
    for buffer in (0, 7):
        with pytest.raises(ConfigurationError, match="retransmit_buffer"):
            FlowOptions(multicast=True, target_segments=8,
                        retransmit_buffer=buffer)
    FlowOptions(multicast=True, target_segments=8, retransmit_buffer=8)
    # Naive replicate flows keep nothing for retransmission.
    FlowOptions(retransmit_buffer=0)


_OVERSIZED = Schema(("key", "uint64"), ("blob", 5000))  # 5 008 B


def test_multicast_tuple_over_ud_mtu_rejected_at_flow_creation():
    dfi = DfiRuntime(Cluster(node_count=2))
    with pytest.raises(ConfigurationError, match="UD multicast payload"):
        dfi.init_replicate_flow("big", ["node0|0"], ["node1|0"], _OVERSIZED,
                                options=FlowOptions(multicast=True))
    # The same tuple is fine over one-sided writes.
    dfi.init_replicate_flow("big", ["node0|0"], ["node1|0"], _OVERSIZED)


def test_multicast_tuple_over_ud_mtu_rejected_at_open():
    """A descriptor assembled past ``__post_init__`` still cannot open."""
    cluster = Cluster(node_count=2)
    dfi = DfiRuntime(cluster)
    descriptor = dfi.init_replicate_flow(
        "big", ["node0|0"], ["node1|0"], SCHEMA,
        options=FlowOptions(multicast=True))
    object.__setattr__(descriptor, "schema", _OVERSIZED)

    def opener():
        yield from dfi.open_target("big", 0)

    cluster.env.process(opener())
    with pytest.raises(FlowError, match="UD multicast payload limit"):
        cluster.run()


def test_open_replicate_on_shuffle_flow_rejected():
    cluster = Cluster(node_count=2)
    dfi = DfiRuntime(cluster)
    dfi.init_shuffle_flow("shuf", ["node0|0"], ["node1|0"], SCHEMA,
                          shuffle_key="key")
    from repro.core.replicate import NaiveReplicateSource

    def bad(env):
        yield from NaiveReplicateSource.open(dfi.registry, "shuf", 0)

    cluster.env.process(bad(cluster.env))
    with pytest.raises(FlowError, match="not replicate"):
        cluster.run()


# -- consume_batch on the multicast target ----------------------------------

def _run_consume(batched, ordering, gap_notify, loss):
    cluster, received, _stats = run_replicate(
        sources=2, n=150, ordering=ordering, multicast=True, loss=loss,
        seed=3, batched=batched, options_extra=dict(
            segment_size=64, target_segments=8, gap_notify=gap_notify))
    return cluster.now, cluster.env.events_executed, received


@pytest.mark.parametrize("ordering", [Ordering.NONE, Ordering.GLOBAL])
@pytest.mark.parametrize("gap_notify, loss", [(False, 0.0), (False, 0.05),
                                              (True, 0.05)])
def test_multicast_consume_batch_matches_per_tuple_loop(ordering, gap_notify,
                                                        loss):
    """``docs/API.md`` promises ``consume_batch`` on every target: same
    deliveries, gaps and simulated timeline as the ``consume`` loop."""
    per_tuple = _run_consume(False, ordering, gap_notify, loss)
    batched = _run_consume(True, ordering, gap_notify, loss)
    assert batched == per_tuple
    delivered = sum(len(rows) for rows in per_tuple[2].values())
    # gap_notify: skipped gaps were surfaced through the batch call too.
    assert 0 < delivered < 900 if gap_notify else delivered == 900


def test_multicast_consume_batch_hands_over_buffered_tuples_first():
    cluster = Cluster(node_count=2)
    dfi = DfiRuntime(cluster)
    dfi.init_replicate_flow("rep", ["node0|0"], ["node1|0"], SCHEMA,
                            options=FlowOptions(multicast=True))
    seen = []

    def source_thread():
        source = yield from dfi.open_source("rep", 0)
        yield from source.push_batch([(i, i) for i in range(10)])
        yield from source.close()

    def target_thread():
        target = yield from dfi.open_target("rep", 0)
        seen.append((yield from target.consume()))
        seen.append((yield from target.consume_batch()))
        seen.append((yield from target.consume_batch()))

    cluster.env.process(source_thread())
    cluster.env.process(target_thread())
    cluster.run()
    assert seen == [(0, 0), [(i, i) for i in range(1, 10)], FLOW_END]


# -- executable invariants (ROADMAP item 1c) --------------------------------

#: Bounded waits for the lossy cases, as in the chaos matrix: without them
#: a lossy multicast flow need not terminate. A shut window whose every
#: datagram was lost on one target leaves no gap to NACK and
#: ``_wait_credit`` has no tail retransmit, so the source waits forever;
#: and a target that missed the abort marker of a source that gave up
#: re-NACKs its gap forever. 64 rounds, because a round is any wake-up that
#: did not raise the *minimum* credit — other targets' credit writes count.
_LOSSY_GUARDS = {"max_retransmits": 64, "peer_timeout": 2_000_000.0}
_HORIZON = 1e9
_FLOW_ERRORS = (FlowPeerFailedError, FlowTimeoutError, FlowAbortedError)


def _run_invariants(sources, targets, optimization, ordering, segments,
                    threshold, loss, seed):
    """One multicast replicate run with the credit window watched at every
    posted datagram. Returns what a rerun must reproduce (event count,
    outcome and end time per thread), what was pushed and received, the
    widest window seen and the datagrams dropped for want of a receive."""
    cluster = Cluster(node_count=targets + 1, seed=seed,
                      profile=HardwareProfile(multicast_loss_probability=loss))
    dfi = DfiRuntime(cluster)
    dfi.init_replicate_flow(
        "rep", [Endpoint(0, s) for s in range(sources)],
        [Endpoint(1 + t, 0) for t in range(targets)], SCHEMA,
        optimization=optimization, ordering=ordering,
        options=FlowOptions(multicast=True, segment_size=64,
                            target_segments=segments,
                            credit_threshold=threshold,
                            retransmit_timeout=20_000,
                            **(_LOSSY_GUARDS if loss else {})))
    count = 24 if optimization is Optimization.LATENCY else 64
    pushed = [[(s * 10 ** 6 + i, i) for i in range(count)]
              for s in range(sources)]
    received = [[] for _ in range(targets)]
    outcomes = [None] * (sources + targets)
    by_qp = {}
    outstanding = []
    post = UdQueuePair.post_send_multicast

    def watched_post(qp, group, payload, wr_id=None):
        source = by_qp[qp]
        outstanding.append(source.segments_sent - source._min_credit())
        return post(qp, group, payload, wr_id)

    def thread(slot, body):
        try:
            yield from body
            outcomes[slot] = ("completed", cluster.now)
        except _FLOW_ERRORS as exc:
            outcomes[slot] = (type(exc).__name__, cluster.now)

    def source_body(index):
        source = yield from dfi.open_source("rep", index)
        by_qp[source._ud_qp] = source
        for values in pushed[index]:
            yield from source.push(values)
        yield from source.close()

    def target_body(index):
        target = yield from dfi.open_target("rep", index)
        yield from _consume_all(target, False, received[index])

    for index in range(sources):
        cluster.env.process(thread(index, source_body(index)))
    for index in range(targets):
        cluster.env.process(thread(sources + index, target_body(index)))
    with mock.patch.object(UdQueuePair, "post_send_multicast", watched_post):
        cluster.run(until=_HORIZON)
    assert cluster.env.peek() == float("inf"), "the run never drained"
    assert None not in outcomes, "a thread is still blocked"
    dropped = sum(get_nic(node).rx_dropped_no_recv for node in cluster.nodes)
    return ((cluster.env.events_executed, outcomes), pushed, received,
            max(outstanding), dropped)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sources=st.integers(1, 2), targets=st.integers(1, 8),
       optimization=st.sampled_from(list(Optimization)),
       ordering=st.sampled_from(list(Ordering)),
       window=st.sampled_from([(2, 1), (4, 2), (4, 4), (16, 8)]),
       loss=st.sampled_from([0.0, 0.05, 0.3]), seed=st.integers(0, 2 ** 16))
def test_multicast_invariants(sources, targets, optimization, ordering,
                              window, loss, seed):
    """Exactly-once delivery in the promised order, the credit window, no
    receive-queue overrun, termination and determinism — over topology,
    options, loss and seed."""
    case = (sources, targets, optimization, ordering, *window, loss, seed)
    fate, pushed, received, outstanding, dropped = _run_invariants(*case)
    outcomes = [outcome for outcome, _when in fate[1]]
    if not loss:
        # Only loss may end a thread with a flow error (see _LOSSY_GUARDS).
        assert outcomes == ["completed"] * (sources + targets)
    total = sum(map(len, pushed))
    longest = max(received, key=len)
    for rows, outcome in zip(received, outcomes[sources:]):
        assert len(set(rows)) == len(rows)  # never twice
        if outcome == "completed":
            assert len(rows) == total  # FLOW_END means everything
        if ordering is Ordering.GLOBAL:
            # One order on every target (a prefix of it where cut short).
            assert rows == longest[:len(rows)]
        for index, sent in enumerate(pushed):
            mine = [row for row in rows if row[0] // 10 ** 6 == index]
            if ordering is Ordering.GLOBAL or not loss:
                assert mine == sent[:len(mine)]  # in the order pushed
            else:
                # An unordered flow hands a retransmitted segment over
                # when it arrives: exactly once, in no promised order.
                assert set(mine) <= set(sent)
    assert outstanding <= window[0]
    if sources == 1 and not loss:
        # The window is the receive queue: nothing may overrun it.
        assert dropped == 0
    assert _run_invariants(*case)[0] == fate


def _timeline_one_to_eight(cluster):
    """Delivery instants per target of one bandwidth 1->8 multicast flow
    with short rings, and its endpoints (the source first)."""
    dfi = DfiRuntime(cluster)
    schema = Schema(("key", "uint64"), ("pad", 56))
    dfi.init_replicate_flow(
        "rep", [Endpoint(0, 0)], [Endpoint(1 + t, 0) for t in range(8)],
        schema, options=FlowOptions(multicast=True, source_segments=4,
                                    target_segments=16, credit_threshold=8))
    rows = [(i, bytes(56)) for i in range(256)]
    instants = [[] for _ in range(8)]
    endpoints = [None] * 9

    def source_thread():
        source = yield from dfi.open_source("rep", 0)
        endpoints[0] = source
        for _ in range(32):
            yield from source.push_batch(rows)
        yield from source.close()

    def target_thread(index):
        target = yield from dfi.open_target("rep", index)
        endpoints[1 + index] = target
        while (yield from target.consume()) is not FLOW_END:
            instants[index].append(cluster.now)

    cluster.env.process(source_thread())
    for index in range(8):
        cluster.env.process(target_thread(index))
    cluster.run()
    return instants, endpoints


def test_multicast_fan_out_train_equals_per_member_timers():
    """The untagged kernel walks a fan-out as one macro-event, the tagged
    one arms a timer per member: same timeline, fewer events."""
    flat = Cluster(node_count=9)
    racked = Cluster.racked(3, 3)
    assert flat.shard_count == 1 and racked.shard_count == 3
    assert (_timeline_one_to_eight(flat)[0]
            == _timeline_one_to_eight(racked)[0])
    assert flat.now == racked.now
    assert flat.env.events_executed < racked.env.events_executed


# -- a closed form and an exact budget (ROADMAP item 1b) --------------------

@pytest.mark.parametrize("members", [1, 3, 8])
def test_multicast_latency_closed_form(members):
    """One 64 B tuple on an idle fabric: push and post on the source CPU,
    one inline WQE, 80 B on the wire (cut-through: one serialization), the
    wire, one poll on the target — whatever the group size."""
    cluster = Cluster(node_count=members + 1)
    profile = cluster.profile
    dfi = DfiRuntime(cluster)
    schema = Schema(("key", "uint64"), ("pad", 56))
    dfi.init_replicate_flow(
        "rep", [Endpoint(0, 0)],
        [Endpoint(1 + t, 0) for t in range(members)], schema,
        optimization=Optimization.LATENCY,
        options=FlowOptions(multicast=True))
    pushed_at = []
    consumed_at = []

    def source_thread():
        source = yield from dfi.open_source("rep", 0)
        yield cluster.env.timeout(10_000)  # every target waits by now
        pushed_at.append(cluster.now)
        yield from source.push((7, bytes(56)))
        yield from source.close()

    def target_thread(index):
        target = yield from dfi.open_target("rep", index)
        assert (yield from target.consume()) == (7, bytes(56))
        consumed_at.append(cluster.now)
        assert (yield from target.consume()) is FLOW_END

    cluster.env.process(source_thread())
    for index in range(members):
        cluster.env.process(target_thread(index))
    cluster.run()
    expected = (profile.cpu_push_cost(64) + profile.cpu_post_cost
                + profile.nic_processing_inline
                + (64 + 16) / profile.link_bandwidth
                + profile.wire_latency + profile.cpu_poll_cost)
    assert len(consumed_at) == members
    for instant in consumed_at:
        assert instant - pushed_at[0] == pytest.approx(expected, abs=1e-6)


def test_multicast_event_budget_and_persistent_hooks(monkeypatch):
    """A delivered datagram costs its share of one fan-out macro-event,
    one merged wake+poll and one credit write; and the waiters keep one
    write hook per region for the whole run."""
    hook_calls = []
    for name in ("add_write_hook", "remove_write_hook"):
        def counted(region, hook, name=name,
                    original=getattr(MemoryRegion, name)):
            hook_calls.append(name)
            original(region, hook)
        monkeypatch.setattr(MemoryRegion, name, counted)
    cluster = Cluster(node_count=9)
    _instants, endpoints = _timeline_one_to_eight(cluster)
    source, *targets = endpoints
    delivered = sum(target.segments_received for target in targets)
    assert delivered == 8 * source.segments_sent >= 8 * 128
    assert cluster.env.events_executed / delivered <= 2.5
    # Eight receive rings and the source's control region, hooked once.
    assert hook_calls == ["add_write_hook"] * 9
    waited_on = [source._control] + [target._ring for target in targets]
    assert [len(region._write_hooks) for region in waited_on] == [1] * 9
