"""The small-batch push path's per-tuple constant as exact counts.

An 8:8 shuffle pushed in 32-row batches hands each source channel about
four rows at a time (the shape of the ledger's ``mesh_8x8``, one rack of
it): a segment fills every 32 batches, so what a tuple costs is what
``ShuffleSource.push_batch`` spends per *channel-batch* — the router
pass once per batch, then per channel the two plain calls of the
channel's contract: ``charge_batch`` (the channel-batch's CPU delay) and
``stage_batch`` (one pack call, ``NO_FLUSH`` back — no generator exists
for a batch that only stages rows). A channel-batch costs no kernel
event: the process sleeps once per flush boundary, its staged groups'
delays added to one absolute deadline, so a batch whose groups only
stage rows costs one event, not one per group (4 366 events while every
group slept on its own). One more Python frame per channel-batch is
+2.5 % of the whole workload's call count. Wall-clock is noise on a
shared box; kernel events and Python frames entered under
``src/repro`` are not. The same budget is held on a racked twin (two
racks of four nodes, built by ``Cluster.racked``), which must cost what
the flat cluster costs.
"""

import random

from repro.core import FLOW_END, DfiRuntime, Endpoint, FlowOptions, Schema
from repro.simnet import Cluster
from tests.callcount import count_calls

SCHEMA = Schema(("key", "uint64"), ("pad", 56))
NODES, BATCH, BATCHES = 8, 32, 64
SHORT_RINGS = FlowOptions(source_segments=4, target_segments=16,
                          credit_threshold=8)


def _flat() -> Cluster:
    return Cluster(node_count=NODES)


def _racked() -> Cluster:
    return Cluster.racked(2, NODES // 2)


def _mesh(batches: int, delivered=None, make=_flat) -> Cluster:
    """Eight nodes, each a source and a target of one bandwidth shuffle;
    every source pushes ``batches`` batches of 32 hash-routed rows (and
    every target appends its batch sizes to ``delivered``)."""
    rng = random.Random(7)
    pad = bytes(56)
    pool = [[(rng.getrandbits(64), pad) for _ in range(BATCH)]
            for _ in range(NODES * batches)]
    cluster = make()
    dfi = DfiRuntime(cluster)
    endpoints = [Endpoint(n, 0) for n in range(NODES)]
    dfi.init_shuffle_flow("mesh", endpoints, endpoints, SCHEMA,
                          shuffle_key="key", options=SHORT_RINGS)
    delivered = [] if delivered is None else delivered

    def source(index):
        src = yield from dfi.open_source("mesh", index)
        for rows in pool[index * batches:(index + 1) * batches]:
            yield from src.push_batch(rows)
        yield from src.close()

    def target(index):
        tgt = yield from dfi.open_target("mesh", index)
        while True:
            batch = yield from tgt.consume_batch()
            if batch is FLOW_END:
                return
            delivered.append(len(batch))

    for index in range(NODES):
        cluster.node(index).spawn(source(index))
        cluster.node(index).spawn(target(index))
    return cluster


def _events(make) -> int:
    """Kernel events the pushes cost: opening, the close markers and
    their acks are the same with nothing pushed; the rest is what 16 384
    tuples in 4 096 channel-batches cost."""
    delivered = []
    idle, busy = _mesh(0, make=make), _mesh(BATCHES, delivered, make)
    idle.run()
    busy.run()
    assert sum(delivered) == NODES * BATCHES * BATCH
    return busy.env.events_executed - idle.env.events_executed


def _frames_per_tuple(make) -> float:
    idle, busy = _mesh(0, make=make), _mesh(BATCHES, make=make)
    return ((count_calls(busy.run).frames - count_calls(idle.run).frames)
            / (NODES * BATCHES * BATCH))


def test_small_batches_cost_exactly_these_kernel_events():
    assert _events(_flat) == 938


def test_small_batches_cost_the_same_events_on_a_racked_twin():
    """Rack-major numbering moves no event."""
    assert _events(_racked) == 938


def test_a_tuple_enters_at_most_3_05_frames():
    """2.75 now (2.96 while the channel's ``push_batch`` generator ran
    every channel-batch); the racked twin below holds the bound that one
    more frame per channel-batch breaks."""
    per_tuple = _frames_per_tuple(_flat)
    assert per_tuple <= 3.05, per_tuple


def test_a_tuple_enters_at_most_2_85_frames_on_a_racked_twin():
    """2.75 as well: the kernel's run loop is written out (calling
    ``step()`` per event reads 3.28). One more frame per channel-batch
    reads 3.00 on either cluster."""
    per_tuple = _frames_per_tuple(_racked)
    assert per_tuple <= 2.85, per_tuple
