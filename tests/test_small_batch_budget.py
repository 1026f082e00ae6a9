"""The small-batch push path's per-tuple constant as exact counts.

An 8:8 shuffle pushed in 32-row batches hands each source channel about
four rows at a time (the shape of the ledger's ``mesh_8x8``, one rack of
it): a segment fills every 32 batches, so what a tuple costs is what
``ShuffleSource.push_batch`` spends per *channel-batch* — the router
pass once per batch, then per channel the two plain calls of the
channel's contract: ``charge_batch`` (one coalesced CPU charge, the one
kernel event) and ``stage_batch`` (one pack call, ``NO_FLUSH`` back — no
generator exists for a batch that only stages rows). One more Python
frame there is +2.5 % of the whole workload's call count. Wall-clock is
noise on a shared box; kernel events and Python frames entered under
``src/repro`` are not. The same budget is held on a racked twin (two
shards of four nodes), where every event goes through
``ShardedEnvironment``'s run loop.
"""

import os
import random
import sys

import repro
from repro.core import FLOW_END, DfiRuntime, Endpoint, FlowOptions, Schema
from repro.simnet import Cluster

SCHEMA = Schema(("key", "uint64"), ("pad", 56))
PACKAGE = os.path.dirname(repro.__file__) + os.sep
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


def _frames(run) -> int:
    """Python frames entered under ``src/repro`` while ``run()`` runs."""
    frames = [0]

    def profiler(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            frames[0] += 1

    sys.setprofile(profiler)
    try:
        run()
    finally:
        sys.setprofile(None)
    return frames[0]


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
    return ((_frames(busy.run) - _frames(idle.run))
            / (NODES * BATCHES * BATCH))


def test_small_batches_cost_exactly_these_kernel_events():
    assert _events(_flat) == 4366


def test_small_batches_cost_the_same_events_on_a_racked_twin():
    """A shard tag moves no event."""
    assert _events(_racked) == 4366


def test_a_tuple_enters_at_most_3_05_frames():
    """2.75 now (2.96 while the channel's ``push_batch`` generator ran
    every channel-batch); the racked twin below holds the bound that one
    more frame per channel-batch breaks."""
    per_tuple = _frames_per_tuple(_flat)
    assert per_tuple <= 3.05, per_tuple


def test_a_tuple_enters_at_most_2_85_frames_on_a_racked_twin():
    """2.75 as well: the sharded run loop is written out (calling
    ``step()`` per event reads 3.28). One more frame per channel-batch
    reads 3.00 on either kernel."""
    per_tuple = _frames_per_tuple(_racked)
    assert per_tuple <= 2.85, per_tuple
