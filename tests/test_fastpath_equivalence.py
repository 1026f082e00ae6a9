"""Bit-exact equivalence of the macro-event train and the per-WQE path.

``QueuePair.post_train`` walks a doorbell train with one macro-event
unless a fault or congestion plane is active, in which case every WQE
takes the eager per-write machinery; ``ShuffleTarget`` merges wake and
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
"""

from dataclasses import replace

import pytest

from repro.core import (
    FLOW_END,
    DfiRuntime,
    Endpoint,
    FlowOptions,
    Schema,
)
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
