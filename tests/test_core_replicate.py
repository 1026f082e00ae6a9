"""Integration tests for replicate flows: naive, multicast, ordered, lossy.

One naive-replicate test also runs under the discrete per-WQE oracle
(``tests/discrete_reference.py``) with a fault plane active.
"""

from contextlib import nullcontext
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
from repro.core.flowdef import MULTICAST_PAYLOAD_LIMIT
from repro.core.segment import FOOTER_SIZE, unpack_footer
from repro.rdma.memory import MemoryRegion
from repro.rdma.nic import get_nic
from repro.rdma.qp import QueuePair, UdQueuePair
from repro.simnet import Cluster
from repro.simnet.congestion import CongestionConfig
from repro.simnet.faults import FaultPlan, link_degrade
from tests import discrete_reference

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


def _naive_ring_writes(batched, options, n=80):
    """A 1:2 naive replicate flow of ``n`` tuples (16 B, so 8 per 128-byte
    segment) pushed per tuple or in one batch, observability on. Returns
    the cluster and, per source queue pair, the signaled bit of every
    write it posted, in posting order."""
    cluster = Cluster(node_count=3)
    cluster.enable_observability()
    dfi = DfiRuntime(cluster)
    dfi.init_replicate_flow(
        "rep", [Endpoint(0, 0)], [Endpoint(1, 0), Endpoint(2, 0)], SCHEMA,
        options=FlowOptions(segment_size=128, **options))
    rows = [(i, i) for i in range(n)]
    signaled = {}
    post_lone, post_train = QueuePair.post_lone, QueuePair.post_train

    def record(qp, wrs):
        if qp.node.node_id == 0:
            signaled.setdefault(qp, []).extend(
                wr is not None and wr.signaled for wr in wrs)

    def lone(qp, wr, *args):
        record(qp, [wr])
        post_lone(qp, wr, *args)

    def train(qp, entries):
        record(qp, [entry[0] for entry in entries])
        post_train(qp, entries)

    def source():
        endpoint = yield from dfi.open_source("rep", 0)
        if batched:
            yield from endpoint.push_batch(rows)
        else:
            for row in rows:
                yield from endpoint.push(row)
        yield from endpoint.close()

    def target(index):
        endpoint = yield from dfi.open_target("rep", index)
        got = []
        yield from _consume_all(endpoint, False, got)
        assert got == rows

    cluster.env.process(source())
    for index in range(2):
        cluster.env.process(target(index))
    with mock.patch.object(QueuePair, "post_lone", lone), \
            mock.patch.object(QueuePair, "post_train", train):
        cluster.run()
    return cluster, list(signaled.values())


@pytest.mark.parametrize("batched", [False, True], ids=["push", "batch"])
def test_naive_signals_at_source_ring_wraps(batched):
    """Selective signaling on a naive replicate flow is the shuffle
    channel's: ten segments into a 4-slot source ring signal the writes
    that wrap it (the 4th and 8th) plus the close marker — per target, and
    whether the segments went out one by one or as doorbell trains."""
    _cluster, per_qp = _naive_ring_writes(
        batched, {"source_segments": 4, "target_segments": 8})
    wraps = [False] * 11
    wraps[3] = wraps[7] = wraps[10] = True
    assert per_qp == [wraps, wraps]


@pytest.mark.parametrize("pipelined", [True, False])
def test_naive_honours_pipelined_footer_read(pipelined):
    """The footer pre-read pipelined with each write is the flow's
    ``pipelined_footer_read`` option: off, no proof is ever found in
    flight."""
    cluster, _per_qp = _naive_ring_writes(
        False, {"pipelined_footer_read": pipelined})
    hits = cluster.node(0).metrics.get("core.preread_hits")
    assert (hits > 0) is pipelined


def test_naive_memory_bytes_is_the_one_source_ring():
    """A 1:8 bandwidth naive flow at default options holds one ring, in
    the source: ``memory_bytes`` reports its ``source_segments`` slots
    (the buffer has one spare, see ``SegmentStager``), and the eight
    channels stage nothing (4 202 496 bytes when each kept its own)."""
    options = FlowOptions()
    cluster = Cluster(node_count=9)
    dfi = DfiRuntime(cluster)
    dfi.init_replicate_flow(
        "rep", [Endpoint(0, 0)], [Endpoint(i, 0) for i in range(1, 9)],
        SCHEMA)
    seen = {}

    def source():
        endpoint = yield from dfi.open_source("rep", 0)
        yield from endpoint.push_batch([(i, i) for i in range(1200)])
        seen["memory"] = endpoint.memory_bytes
        seen["ring"] = len(endpoint._stager.buffer)
        seen["channels"] = sum(len(channel._stager.buffer)
                               for channel in endpoint._channels)
        yield from endpoint.close()

    def target(index):
        endpoint = yield from dfi.open_target("rep", index)
        got = []
        yield from _consume_all(endpoint, True, got)
        assert len(got) == 1200

    cluster.env.process(source())
    for index in range(8):
        cluster.env.process(target(index))
    cluster.run()
    slot = options.segment_size + FOOTER_SIZE
    assert seen["memory"] == options.source_segments * slot == 262_656
    assert seen["ring"] == seen["memory"] + slot
    assert seen["channels"] == 0


#: Per-tuple pushes, batches that top up a slot, fill whole ones and
#: leave a tail, in ``(count, batched)`` runs.
_MIXED_PUSHES = ((7, False), (30, True), (13, False), (1, True), (45, True),
                 (9, False), (55, True))


def _shared_slot_run(optimization, ordering, congestion=False,
                     idle_fault=False, target_segments=2,
                     parts=_MIXED_PUSHES):
    """Naive replicate 1:4 on a two-slot source ring, 64-byte segments,
    with targets that compute 3 µs after every tuple so the rings stay
    full: ``parts`` of per-tuple pushes and batches, then close. Returns
    the pushed rows and what each target received. ``idle_fault``
    degrades a sixth node no flow uses: the fault plane is active, and
    under ``discrete_reference.installed()`` every write takes the
    discrete per-WQE path."""
    cluster = Cluster(node_count=6 if idle_fault else 5)
    if congestion:
        cluster.install_congestion(CongestionConfig.datacenter())
    if idle_fault:
        cluster.install_faults(FaultPlan([link_degrade(
            5, at=1.0, duration=10.0, factor=2.0)]))
    dfi = DfiRuntime(cluster)
    dfi.init_replicate_flow(
        "rep", [Endpoint(0, 0)], [Endpoint(i, 0) for i in range(1, 5)],
        SCHEMA, optimization=optimization, ordering=ordering,
        options=FlowOptions(segment_size=64, source_segments=2,
                            target_segments=target_segments,
                            credit_threshold=1))
    rows = [(i, (i * 0x9E3779B97F4A7C15) % 2 ** 64)
            for i in range(sum(size for size, _ in parts))]
    received = [[] for _ in range(4)]

    def source():
        endpoint = yield from dfi.open_source("rep", 0)
        start = 0
        for size, batched in parts:
            part = rows[start:start + size]
            start += size
            if batched:
                yield from endpoint.push_batch(part)
            else:
                for row in part:
                    yield from endpoint.push(row)
        yield from endpoint.close()

    def target(index):
        endpoint = yield from dfi.open_target("rep", index)
        node = cluster.node(index + 1)
        while True:
            item = yield from endpoint.consume()
            if item is FLOW_END:
                return
            received[index].append(item)
            yield node.compute(3_000.0)

    cluster.env.process(source())
    for index in range(4):
        cluster.env.process(target(index))
    cluster.run()
    return rows, received


@pytest.mark.parametrize("optimization", [Optimization.BANDWIDTH,
                                          Optimization.LATENCY],
                         ids=["bandwidth", "latency"])
@pytest.mark.parametrize("ordering", [Ordering.NONE, Ordering.GLOBAL],
                         ids=["local", "global"])
def test_naive_slots_stay_stable_until_every_write_commits(optimization,
                                                           ordering):
    """Every channel writes its segments out of the source's one ring
    (and a batch's whole segments out of slots the batch owns); a slot
    repacked before some channel's write of it committed would hand that
    target another segment's bytes."""
    rows, received = _shared_slot_run(optimization, ordering)
    assert received == [rows] * 4


def test_naive_slots_stay_stable_under_congestion():
    """With the congestion plane live, writes commit from the live buffer
    later than an idle fabric would: paced on the macro walk, alone or
    with an idle fault plane stacked on it, and through the discrete
    per-WQE oracle with that stack."""
    for idle_fault, oracle in ((False, False), (True, False), (True, True)):
        with (discrete_reference.installed() if oracle
              else nullcontext({"wqes": 0})) as posts:
            rows, received = _shared_slot_run(
                Optimization.BANDWIDTH, Ordering.NONE, congestion=True,
                idle_fault=idle_fault)
        assert received == [rows] * 4
        assert (posts["wqes"] > 0) == oracle


@pytest.mark.parametrize("parts", [
    ((10, True), (4, True), (3, True), (4, True)),
    ((1, True), (1, False), (3, True), (5, False), (7, True), (1, True),
     (3, False)),
], ids=["batches", "mixed"])
def test_naive_batch_tail_waits_for_its_top_up(parts):
    """A batch that seals the open slot and leaves a tail packs the tail
    into the next ring slot only once the sealed segment went out: that
    slot's last segment may still be in flight until then. A four-slot
    target ring lets two writes share one footer proof, so it can be."""
    rows, received = _shared_slot_run(Optimization.BANDWIDTH, Ordering.NONE,
                                      target_segments=4, parts=parts)
    assert received == [rows] * 4


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
    """A descriptor assembled past ``__post_init__`` still cannot open:
    its segment, capped to one UD datagram, holds no tuple."""
    cluster = Cluster(node_count=2)
    dfi = DfiRuntime(cluster)
    descriptor = dfi.init_replicate_flow(
        "big", ["node0|0"], ["node1|0"], SCHEMA,
        options=FlowOptions(multicast=True))
    object.__setattr__(descriptor, "schema", _OVERSIZED)

    def opener():
        yield from dfi.open_target("big", 0)

    cluster.env.process(opener())
    with pytest.raises(FlowError, match=(
            rf"segment size {MULTICAST_PAYLOAD_LIMIT} smaller than one "
            rf"tuple \({_OVERSIZED.tuple_size} B\)")):
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

_HORIZON = 1e9
_FLOW_ERRORS = (FlowPeerFailedError, FlowTimeoutError, FlowAbortedError)


def _run_invariants(sources, targets, optimization, ordering, segments,
                    threshold, loss, seed, **options):
    """One multicast replicate run with the credit window watched at every
    posted datagram. Returns what a rerun must reproduce (event count,
    outcome and end time per thread), what was pushed and received, the
    widest window seen, the datagrams dropped for want of a receive and
    the segments each source left un-credited."""
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
                            retransmit_timeout=20_000, **options))
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
        outstanding.append(source.segments_sent
                           - source._window.min_credit())
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
    uncredited = [source.segments_sent - source._window.min_credit()
                  for source in by_qp.values()]
    return ((cluster.env.events_executed, outcomes), pushed, received,
            max(outstanding), dropped, uncredited)


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
    options, loss and seed, with no retransmit budget and no
    ``peer_timeout``: the sources' resend on timeout alone ends every
    lossy run."""
    case = (sources, targets, optimization, ordering, *window, loss, seed)
    fate, pushed, received, outstanding, dropped, uncredited = (
        _run_invariants(*case))
    assert [outcome for outcome, _when in fate[1]] == (
        ["completed"] * (sources + targets))
    # The sender's ledger closes: sent = credited + outstanding, with
    # nothing outstanding once close() returned.
    assert uncredited == [0] * sources
    total = sum(map(len, pushed))
    for rows in received:
        assert len(rows) == total and len(set(rows)) == total
        if ordering is Ordering.GLOBAL:
            assert rows == received[0]  # one order on every target
        for index, sent in enumerate(pushed):
            mine = [row for row in rows if row[0] // 10 ** 6 == index]
            if ordering is Ordering.GLOBAL or not loss:
                assert mine == sent  # in the order pushed
            else:
                # An unordered flow hands a retransmitted segment over
                # when it arrives: exactly once, in no promised order.
                assert sorted(mine) == sent
    assert outstanding <= window[0]
    if sources == 1 and not loss:
        # The window is the receive queue: nothing may overrun it.
        assert dropped == 0
    assert _run_invariants(*case)[0] == fate


def test_lost_window_tail_is_resent_on_timeout():
    """Every datagram of a shut two-slot window lost on the one target
    leaves it no gap to NACK: the source's resend of its newest segment
    after a ``retransmit_timeout`` without credit is the only way out."""
    fate, pushed, received, _widest, _dropped, uncredited = _run_invariants(
        1, 1, Optimization.BANDWIDTH, Ordering.NONE, 2, 1, 0.3, 0)
    assert [outcome for outcome, _when in fate[1]] == ["completed"] * 2
    assert sorted(received[0]) == pushed[0]  # all 64, exactly once
    assert uncredited == [0]


@pytest.mark.parametrize("seed", range(3))
def test_retransmit_budget_counts_timeouts_not_wakeups(seed):
    """``max_retransmits`` counts rounds of one ``retransmit_timeout``
    without a rise in the minimum credit: the credit writes of the other
    four targets do not spend it, so nothing is written off before eight
    rounds of 20 µs have passed."""
    fate, *_rest = _run_invariants(1, 5, Optimization.BANDWIDTH,
                                   Ordering.NONE, 4, 2, 0.3, seed,
                                   max_retransmits=8)
    for outcome, when in fate[1]:
        assert outcome == "completed" or when >= 8 * 20_000


def test_target_that_missed_the_abort_marker_raises_at_its_gap_timeout():
    """A 1:2 flow aborted with the marker (and its resends) lost at one
    target, which also misses segment 2: instead of NACKing a gap the
    aborted source will never fill, it reads the registry's abort flag
    at its first gap timeout and raises — no ``peer_timeout`` needed."""
    cluster = Cluster(node_count=3)
    dfi = DfiRuntime(cluster)
    timeout = 20_000.0
    dfi.init_replicate_flow(
        "rep", [Endpoint(0, 0)], [Endpoint(1, 0), Endpoint(2, 0)], SCHEMA,
        optimization=Optimization.LATENCY,
        options=FlowOptions(multicast=True, retransmit_timeout=timeout))
    deliver = UdQueuePair._deliver_datagram
    at = {}

    def lossy(qp, data):
        footer = unpack_footer(data[-FOOTER_SIZE:])
        if qp.node.node_id == 2:
            if footer.aborted or footer.seq == 2:
                return
            if footer.seq == 3:
                at["gap"] = cluster.now
        deliver(qp, data)

    def source_thread():
        source = yield from dfi.open_source("rep", 0)
        for i in range(4):
            yield from source.push((i, i))
        at["abort"] = cluster.now
        yield from source.abort()

    def target_thread(index):
        target = yield from dfi.open_target("rep", index)
        with pytest.raises(FlowAbortedError):
            while (yield from target.consume()) is not FLOW_END:
                pass
        at[index] = cluster.now

    cluster.env.process(source_thread())
    for index in range(2):
        cluster.env.process(target_thread(index))
    with mock.patch.object(UdQueuePair, "_deliver_datagram", lossy):
        cluster.run(until=10 * timeout)
    assert at[0] < at["abort"] + timeout  # the marker reached target 0
    # Target 1 saw the gap when segment 3 arrived and raised at the first
    # gap timeout after it: one poll, the wait, one more poll.
    assert (at[1] - at["gap"]
            <= timeout + 2 * cluster.profile.cpu_poll_cost)
    assert cluster.env.peek() == float("inf")  # and nobody NACKs on


def _timeline_one_to_eight(cluster, batches=32):
    """Delivery instants per target of one bandwidth 1->8 multicast flow
    with short rings, its endpoints (the source first) and the instant
    the source's ``close()`` returned."""
    dfi = DfiRuntime(cluster)
    schema = Schema(("key", "uint64"), ("pad", 56))
    dfi.init_replicate_flow(
        "rep", [Endpoint(0, 0)], [Endpoint(1 + t, 0) for t in range(8)],
        schema, options=FlowOptions(multicast=True, source_segments=4,
                                    target_segments=16, credit_threshold=8))
    rows = [(i, bytes(56)) for i in range(256)]
    instants = [[] for _ in range(8)]
    endpoints = [None] * 9
    closed_at = []

    def source_thread():
        source = yield from dfi.open_source("rep", 0)
        endpoints[0] = source
        for _ in range(batches):
            yield from source.push_batch(rows)
        yield from source.close()
        closed_at.append(cluster.now)

    def target_thread(index):
        target = yield from dfi.open_target("rep", index)
        endpoints[1 + index] = target
        while (yield from target.consume()) is not FLOW_END:
            instants[index].append(cluster.now)

    cluster.env.process(source_thread())
    for index in range(8):
        cluster.env.process(target_thread(index))
    cluster.run()
    return instants, endpoints, closed_at[0]


def test_multicast_fan_out_train_equals_per_member_timers():
    """The product walks a fan-out as one macro-event, the oracle arms a
    timer per member: same timeline, fewer events — lossless, and with
    lost copies that get neither an action nor a timer."""
    for loss in (0.0, 0.05):
        profile = HardwareProfile().with_multicast_loss(loss)
        train = Cluster(node_count=9, profile=profile)
        timeline = _timeline_one_to_eight(train)[0]
        with discrete_reference.per_member_multicast() as posts:
            timers = Cluster(node_count=9, profile=profile)
            assert _timeline_one_to_eight(timers)[0] == timeline
        assert posts["datagrams"] > 0
        assert train.now == timers.now
        assert (train.fabric.multicast_count
                == timers.fabric.multicast_count == posts["datagrams"])
        drops = train.fabric.multicast_drops
        assert drops == timers.fabric.multicast_drops
        assert (drops > 0) == (loss > 0)
        assert train.env.events_executed < timers.env.events_executed


def test_multicast_clock_stops_when_close_returns():
    """A credit write that beats the source's retransmit guard takes the
    guard off the kernel queue, so the run of the ledger's
    ``replicate_mcast`` shape (128 batches) ends when ``close()`` returns
    instead of one ``retransmit_timeout`` later (612 932.16 ns)."""
    cluster = Cluster(node_count=9)
    _instants, _endpoints, closed_at = _timeline_one_to_eight(cluster, 128)
    assert cluster.now == closed_at == pytest.approx(562_932.80)


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
    _instants, endpoints, _closed = _timeline_one_to_eight(cluster)
    source, *targets = endpoints
    delivered = sum(target.segments_received for target in targets)
    assert delivered == 8 * source.segments_sent >= 8 * 128
    assert cluster.env.events_executed / delivered <= 2.5
    # Eight receive rings and the source's control region, hooked once.
    assert hook_calls == ["add_write_hook"] * 9
    waited_on = [source._window.region] + [target._ring
                                           for target in targets]
    assert [len(region._write_hooks) for region in waited_on] == [1] * 9


def test_ordered_multicast_counts_the_duplicates_its_reorder_buffer_drops():
    """A late retransmission a globally ordered target already holds is
    dropped by the reorder buffer's insert, and ``core.duplicates_dropped``
    counts it as the unordered tracker's drops are counted: a 1:3 flow at
    20 % multicast loss resends segments some targets already have."""
    cluster = Cluster(node_count=4, seed=3,
                      profile=HardwareProfile(multicast_loss_probability=0.2))
    cluster.enable_observability()
    dfi = DfiRuntime(cluster)
    dfi.init_replicate_flow(
        "rep", [Endpoint(0, 0)], [Endpoint(1 + n, 0) for n in range(3)],
        SCHEMA, ordering=Ordering.GLOBAL,
        options=FlowOptions(multicast=True, segment_size=256,
                            retransmit_timeout=20_000))
    rows = [(i, i) for i in range(400)]
    targets = []

    def source_thread():
        source = yield from dfi.open_source("rep", 0)
        for row in rows:
            yield from source.push(row)
        yield from source.close()

    def target_thread(index):
        target = yield from dfi.open_target("rep", index)
        targets.append(target)
        got = []
        yield from _consume_all(target, False, got)
        assert got == rows

    cluster.env.process(source_thread())
    for index in range(3):
        cluster.env.process(target_thread(index))
    cluster.run()
    dropped = sum(target._reorder.duplicates_dropped for target in targets)
    counted = sum(node["counters"].get("core.duplicates_dropped", 0)
                  for node in cluster.metrics_snapshot()["nodes"].values())
    assert dropped > 0
    assert counted == dropped
