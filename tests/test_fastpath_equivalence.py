"""Bit-exact equivalence of the macro-event train and the per-WQE path.

``QueuePair.post_train`` walks a doorbell train with one macro-event
unless a fault or congestion plane is active, in which case every WQE
arms its own discrete events; ``ShuffleTarget`` merges wake and
poll into one event unless ``peer_timeout`` bounds the wait. Both
selections read observable state only, and neither may move simulated
time: every externally observable timestamp — when each ``push_batch``
returns (credit/CQ backpressure), when each consumed batch arrives, when
the flow ends — must be bit-identical either way, across seeds, ring
geometries, and trains that don't divide evenly into segments.

The reference run is therefore the same workload with an *inert but
active* plane installed from the start (an unbounded congestion config,
or a link degrade on an idle node) and a peer timeout far beyond the run.
Full timelines are compared with ``==``, and the plain run must execute
strictly fewer kernel events — the equivalence is never vacuous.

A plane installed *mid-run* (between flushes) governs the very next
train: its timeline must equal that of the plane installed from the
start. Channels that cross shard lanes take the same path as any other.

The eager ``post_write`` is the same selection for a train of one (it
keeps the ordered-tail rule a train coalesces away): the lone-write
section at the bottom holds it to the discrete per-WQE reference commit
by commit.
"""

from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import (
    FLOW_END,
    DfiRuntime,
    Endpoint,
    FlowOptions,
    Optimization,
    Schema,
)
from repro.core.segment import FOOTER_SIZE
from repro.rdma import get_nic
from repro.rdma.qp import _ORDERED_TAIL
from repro.simnet import Cluster
from repro.simnet.congestion import CongestionConfig
from repro.simnet.faults import FaultPlan, link_degrade

_SCHEMA = Schema(("key", "uint64"), ("pad", 24))
_PAD = b"p" * 24
_TARGETS = 2
#: One node beyond the flow's endpoints: the idle node a fault degrades.
_NODES = 2 + _TARGETS


def _install_congestion(cluster):
    cluster.install_congestion(CongestionConfig.unbounded())


def _install_idle_fault(cluster):
    # Degrade the idle node, far from the flow: the plane is *active*
    # (every subsequent train goes per-WQE) while the flow's own links
    # and timing are untouched.
    cluster.install_faults(FaultPlan(
        [link_degrade(1 + _TARGETS, at=cluster.now + 1.0,
                      duration=10.0, factor=2.0)]))


_PLANES = {"congestion": _install_congestion, "fault": _install_idle_fault}


def _traced_shuffle(*, seed=0, options=FlowOptions(), count=4096,
                    batch=1024, at_start=None, mid_run=None,
                    **cluster_kwargs):
    """Run one 1:N shuffle and return ``(timeline, events_executed)``.

    The timeline captures every externally observable instant: the
    simulated time each source batch push returned, the close time, and
    each target's per-batch ``(arrival time, batch length)`` sequence.
    ``at_start(cluster)`` runs before the flow is initialized;
    ``mid_run(cluster)`` runs from the source thread after half the
    batches, between flushes.
    """
    cluster = Cluster(node_count=_NODES, seed=seed, **cluster_kwargs)
    if at_start is not None:
        at_start(cluster)
    dfi = DfiRuntime(cluster)
    dfi.init_shuffle_flow(
        "eq", [Endpoint(0, 0)],
        [Endpoint(1 + n, 0) for n in range(_TARGETS)],
        _SCHEMA, shuffle_key="key", options=options)
    batches = [[(i * 2654435761 % (1 << 64), _PAD)
                for i in range(start, min(start + batch, count))]
               for start in range(0, count, batch)]
    timeline = {"push": [], "close": None,
                "deliver": [[] for _ in range(_TARGETS)],
                "end": [None] * _TARGETS}

    def source_thread():
        source = yield from dfi.open_source("eq", 0)
        half = len(batches) // 2
        for index, chunk in enumerate(batches):
            if mid_run is not None and index == half:
                mid_run(cluster)
            yield from source.push_batch(chunk)
            timeline["push"].append(cluster.now)
        yield from source.close()
        timeline["close"] = cluster.now

    def target_thread(index):
        target = yield from dfi.open_target("eq", index)
        while True:
            got = yield from target.consume_batch()
            if got is FLOW_END:
                break
            timeline["deliver"][index].append((cluster.now, len(got)))
        timeline["end"][index] = cluster.now

    events_before = cluster.env.events_executed
    cluster.node(0).spawn(source_thread())
    for n in range(_TARGETS):
        cluster.node(1 + n).spawn(target_thread(n))
    cluster.run()
    events = cluster.env.events_executed - events_before
    delivered = sum(length for deliveries in timeline["deliver"]
                    for _, length in deliveries)
    assert delivered == count
    return timeline, events


def _assert_equivalent(plane="congestion", options=FlowOptions(), **kwargs):
    plain, plain_events = _traced_shuffle(options=options, **kwargs)
    reference, reference_events = _traced_shuffle(
        options=replace(options, peer_timeout=1e12),
        at_start=_PLANES[plane], **kwargs)
    assert plain == reference
    assert plain_events < reference_events, \
        "macro path never engaged: equivalence would be vacuous"


@pytest.mark.parametrize("plane", sorted(_PLANES))
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_bit_identical_across_seeds(seed, plane):
    _assert_equivalent(plane=plane, seed=seed)


@pytest.mark.parametrize("options", [
    FlowOptions(source_segments=2, target_segments=4, credit_threshold=2),
    FlowOptions(target_segments=16, credit_threshold=4),
    FlowOptions(source_segments=8, target_segments=8, credit_threshold=3),
], ids=["small-rings", "deep-target", "mid-rings"])
def test_bit_identical_across_ring_sizes(options):
    _assert_equivalent(options=options)


@pytest.mark.parametrize("count,batch", [
    (4096, 700),    # trains end in a partial batch
    (3333, 1000),   # neither count nor batch aligns with segments
    (4099, 1024),   # full-segment trains plus a 3-tuple tail
])
def test_bit_identical_non_divisible_trains(count, batch):
    _assert_equivalent(count=count, batch=batch)


@pytest.mark.parametrize("plane", sorted(_PLANES))
def test_mid_run_install_governs_the_next_train(plane):
    """A plane installed between two flushes sends the very next train
    per-WQE: same timeline as the plane installed from the start, and
    more kernel events than the run that never installs it."""
    install = _PLANES[plane]
    _, plain_events = _traced_shuffle()
    at_half, half_events = _traced_shuffle(mid_run=install)
    from_start, start_events = _traced_shuffle(at_start=install)
    assert at_half == from_start
    assert plain_events < half_events < start_events


def test_shard_crossing_channel_matches_unsharded_run():
    """Which lane an event sits on is attribution only: a channel whose
    source and target live on different shards walks its trains with the
    same macro-event and lands on the unsharded timeline."""
    unsharded, events = _traced_shuffle()
    sharded, sharded_events = _traced_shuffle(
        shards=2, shard_map=[0, 0, 1, 1])
    assert sharded == unsharded
    assert sharded_events == events


# -- lone writes: eager post_write == the discrete per-WQE reference ---------

#: One eager write: (size, gather cut or None, signaled, assume_stable).
#: Sizes straddle the ordered-tail boundary (no prefix / a few prefix
#: bytes / a long prefix) or are a full 8 KiB segment plus its footer; a
#: cut anywhere inside the write includes pieces straddling the split.
_WRITE = st.tuples(
    st.one_of(st.integers(1, 3 * _ORDERED_TAIL),
              st.just(8192 + FOOTER_SIZE)),
    st.one_of(st.none(), st.floats(0.01, 0.99)),
    st.booleans(), st.booleans())


def _traced_lone_writes(writes, *, loopback, read_done_late, at_start=None):
    """Post ``writes`` back to back with eager ``post_write`` and return
    everything observable: every commit into the remote region as the
    write hook saw it (time, offset, length — hook order included), the
    instant each ``done`` was seen (first read either at post time or
    long after every ack), the CQ entries, the final memory image —
    and, separately, the kernel events it took."""
    cluster = Cluster(node_count=_NODES)
    if at_start is not None:
        at_start(cluster)
    env = cluster.env
    target = cluster.node(0 if loopback else 1)
    region = get_nic(target).register_memory(3 * (8192 + FOOTER_SIZE))
    commits = []
    region.add_write_hook(
        lambda offset, length: commits.append((env.now, offset, length)))
    qp = get_nic(cluster.node(0)).create_qp(target)
    done = []

    def poster():
        posted = []
        offset = 0
        for index, (size, cut, signaled, stable) in enumerate(writes):
            data = bytes((index * 37 + i) % 251 for i in range(size))
            buffer = bytearray(data) if stable else data
            at = int(cut * size) if cut is not None else 0
            payload = [buffer[:at], buffer[at:]] if at else buffer
            posted.append(qp.post_write(
                payload, region.rkey, offset, signaled=signaled,
                wr_id=index, assume_stable=stable))
            offset += size
        if read_done_late:
            yield env.timeout(1e6)
        for wr in posted:
            seen_triggered = wr.done.triggered
            yield wr.done
            done.append((seen_triggered, env.now))

    before = env.events_executed
    cluster.node(0).spawn(poster())
    cluster.run()
    completions = [(c.wr_id, c.opcode, c.status, c.byte_len)
                   for c in qp.send_cq.poll(64)]
    observed = {"commits": commits, "done": done, "cq": completions,
                "memory": bytes(region.mem)}
    return observed, env.events_executed - before


@settings(max_examples=60, deadline=None)
@given(writes=st.lists(_WRITE, min_size=1, max_size=3),
       loopback=st.booleans(), read_done_late=st.booleans(),
       plane=st.sampled_from(sorted(_PLANES)))
# A segment, then an inline footer the loopback FIFO clamps onto the
# segment's arrival instant: the footer must still commit after it.
@example(writes=[(8192 + FOOTER_SIZE, None, False, True),
                 (FOOTER_SIZE, None, True, False)],
         loopback=True, read_done_late=False, plane="congestion")
def test_lone_write_matches_discrete_reference(writes, loopback,
                                               read_done_late, plane):
    """Prefix-commit time, tail-commit time, ``done`` time, CQ entries
    and commit *order* (loopback clamps later writes onto one arrival
    instant) all equal the plane-active run's; ``done`` settles at the
    eager ack timestamp whether first read before or after it."""
    plain, plain_events = _traced_lone_writes(
        writes, loopback=loopback, read_done_late=read_done_late)
    reference, reference_events = _traced_lone_writes(
        writes, loopback=loopback, read_done_late=read_done_late,
        at_start=_PLANES[plane])
    assert plain == reference
    # The macro walks one hop per action, so it saves scheduling work,
    # not events — except the unsignaled ack, which stays unexpanded
    # unless somebody reads ``done`` before it is due.
    assert plain_events <= reference_events
    if read_done_late and not all(write[2] for write in writes):
        assert plain_events < reference_events
    # Non-vacuity: every byte committed; a write longer than the ordered
    # tail committed its head strictly before its tail, a shorter one in
    # one piece; every signaled write has its CQ entry.
    commits = plain["commits"]
    assert sum(length for _, _, length in commits) == sum(
        size for size, *_ in writes)
    start = 0
    for size, *_ in writes:
        head_at, = [at for at, offset, _ in commits if offset == start]
        tail_at, = [at for at, offset, length in commits
                    if offset + length == start + size]
        assert (head_at < tail_at) == (size > _ORDERED_TAIL)
        start += size
    assert [entry[0] for entry in plain["cq"]] == [
        index for index, write in enumerate(writes) if write[2]]


def test_lone_write_done_read_late_is_already_settled():
    """A ``done`` first read after the ack instant materialises already
    triggered; read at post time it fires at that same eager instant."""
    early, _ = _traced_lone_writes([(200, None, False, False)],
                                   loopback=False, read_done_late=False)
    late, _ = _traced_lone_writes([(200, None, False, False)],
                                  loopback=False, read_done_late=True)
    (early_triggered, ack_at), = early["done"]
    (late_triggered, seen_at), = late["done"]
    assert not early_triggered and late_triggered
    assert early["commits"][-1][0] < ack_at < 1e6 <= seen_at


def _latency_pingpong(trips, *, target_segments=64, credit_threshold=16):
    """1:1 latency-mode ping-pong (136-byte slots: every write has a
    prefix). Returns ``(cluster, events_executed)``."""
    cluster = Cluster(node_count=2)
    dfi = DfiRuntime(cluster)
    schema = Schema(("key", "uint64"), ("pad", 112))
    options = FlowOptions(target_segments=target_segments,
                          credit_threshold=credit_threshold)
    for name, source, target in (("ping", 0, 1), ("pong", 1, 0)):
        dfi.init_shuffle_flow(name, [Endpoint(source, 0)],
                              [Endpoint(target, 0)], schema,
                              shuffle_key="key",
                              optimization=Optimization.LATENCY,
                              options=options)
    pad = b"p" * 112

    def client():
        ping = yield from dfi.open_source("ping", 0)
        pong = yield from dfi.open_target("pong", 0)
        for i in range(trips):
            yield from ping.push((i, pad))
            assert (yield from pong.consume()) == (i, pad)
        yield from ping.close()
        assert (yield from pong.consume()) is FLOW_END

    def server():
        ping = yield from dfi.open_target("ping", 0)
        pong = yield from dfi.open_source("pong", 0)
        while True:
            request = yield from ping.consume()
            if request is FLOW_END:
                yield from pong.close()
                return
            yield from pong.push(request)

    cluster.node(0).spawn(client())
    cluster.node(1).spawn(server())
    cluster.run()
    return cluster, cluster.env.events_executed


def test_latency_pingpong_costs_four_events_per_hop():
    """compute, prefix commit, tail commit, wake: four kernel events per
    hop, eight per round trip, plus three per credit refresh (request
    arrival, response arrival, ``done``)."""
    # Within the first ring lap no credit is ever refreshed.
    _, few = _latency_pingpong(8)
    _, more = _latency_pingpong(24)
    assert more - few == 8 * (24 - 8)

    def reads(cluster, trips):
        writes = 2 * (trips + 1)  # one per hop plus the two close markers
        return sum(get_nic(node).wqes_processed
                   for node in cluster.nodes) - writes

    short_cluster, short = _latency_pingpong(200)
    long_cluster, long = _latency_pingpong(600)
    refreshes = reads(long_cluster, 600) - reads(short_cluster, 200)
    assert refreshes > 0
    assert long - short == 8 * (600 - 200) + 3 * refreshes
