"""The small-batch push path's per-tuple constant as exact counts.

An 8:8 shuffle pushed in 32-row batches hands each source channel about
four rows at a time (the shape of the ledger's ``mesh_8x8``, one rack of
it): a segment fills every 32 batches, so what a tuple costs is what
``ShuffleSource.push_batch`` and ``BandwidthSourceChannel.push_batch``
spend per *channel-batch* — the router pass, one coalesced CPU charge,
one pack call — and one more Python frame there is +2.5 % of the whole
workload's call count. Wall-clock is noise on a shared box; kernel
events and Python frames entered under ``src/repro`` are not.
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


def _mesh(batches: int, delivered=None) -> Cluster:
    """Eight nodes, each a source and a target of one bandwidth shuffle;
    every source pushes ``batches`` batches of 32 hash-routed rows (and
    every target appends its batch sizes to ``delivered``)."""
    rng = random.Random(7)
    pad = bytes(56)
    pool = [[(rng.getrandbits(64), pad) for _ in range(BATCH)]
            for _ in range(NODES * batches)]
    cluster = Cluster(node_count=NODES)
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


def test_small_batches_cost_exactly_these_kernel_events():
    delivered = []
    idle, busy = _mesh(0), _mesh(BATCHES, delivered)
    idle.run()
    busy.run()
    assert sum(delivered) == NODES * BATCHES * BATCH
    # Opening, the close markers and their acks are the same with nothing
    # pushed; the rest is what 16 384 tuples in 4 096 channel-batches cost.
    assert busy.env.events_executed - idle.env.events_executed == 4366


def test_a_tuple_enters_at_most_3_05_frames():
    """2.96 now; one more frame per channel-batch reads 3.21."""
    idle, busy = _mesh(0), _mesh(BATCHES)
    per_tuple = ((_frames(busy.run) - _frames(idle.run))
                 / (NODES * BATCHES * BATCH))
    assert per_tuple <= 3.05, per_tuple
