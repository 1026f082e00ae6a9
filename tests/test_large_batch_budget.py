"""The large-batch push path's per-tuple cost as an exact count.

A 1:8 bandwidth shuffle of 64 B tuples keyed on a ``uint64``, pushed in
1024-row batches (the shape of the ledger's ``shuffle_batched``): a
routed ``push_batch`` of ``_ROUTE_NP_MIN`` rows and more packs the whole
batch with one ``struct`` call and splits the packed rows by target with
numpy (``route.partition``), so no Python call is made per row
on the push side. The targets drain with ``consume_batch``, one
``iter_unpack`` per segment.

Calls per tuple, sources and targets together, over what the same flow
costs with nothing pushed: 1.66 while the bucket pass appended every row
to its group and each group was packed on its own (one ``list.append``
per row); 0.61 with the packed partition when it came, 0.53 later, and
0.48 since a doorbell train's hops are kernel queue entries instead of
a pooled macro-event's walk. Wall-clock is noise on a
shared box; the number of Python and C calls a run makes is not.
"""

import random

from repro.core import FLOW_END, DfiRuntime, Endpoint, Schema
from repro.simnet import Cluster
from tests.callcount import count_calls, grown

SCHEMA = Schema(("key", "uint64"), ("pad", 56))
TARGETS, BATCH, BATCHES = 8, 1024, 16
#: Calls per pushed tuple, sources and targets together.
CALLS_PER_TUPLE = 0.49


def _shuffle(batches: int, delivered: list) -> Cluster:
    """One source pushes ``batches`` batches of 1024 hash-routed rows to
    eight targets, which add up the rows they receive in ``delivered``."""
    rng = random.Random(5)
    pad = bytes(56)
    pool = [[(rng.getrandbits(64), pad) for _ in range(BATCH)]
            for _ in range(batches)]
    cluster = Cluster(node_count=1 + TARGETS)
    dfi = DfiRuntime(cluster)
    dfi.init_shuffle_flow("f", [Endpoint(0, 0)],
                          [Endpoint(1 + n, 0) for n in range(TARGETS)],
                          SCHEMA, shuffle_key="key")

    def source():
        src = yield from dfi.open_source("f", 0)
        for rows in pool:
            yield from src.push_batch(rows)
        yield from src.close()

    def target(index):
        tgt = yield from dfi.open_target("f", index)
        while (batch := (yield from tgt.consume_batch())) is not FLOW_END:
            delivered[0] += len(batch)

    cluster.env.process(source())
    for index in range(TARGETS):
        cluster.env.process(target(index))
    return cluster


def test_a_large_routed_batch_stays_within_its_call_budget():
    """0.48 now (``CALLS_PER_TUPLE``; first bound 0.75); 1.66 with one
    ``list.append`` per routed row."""
    # numpy is bound by the first large batch: bind it before counting.
    _shuffle(1, [0]).run()
    idle_rows, busy_rows = [0], [0]
    idle, busy = _shuffle(0, idle_rows), _shuffle(BATCHES, busy_rows)
    idle_calls = count_calls(idle.run, tally=True)
    busy_calls = count_calls(busy.run, tally=True)
    assert busy_rows[0] == BATCHES * BATCH
    per_tuple = (busy_calls.total - idle_calls.total) / (BATCHES * BATCH)
    assert per_tuple <= CALLS_PER_TUPLE, (
        f"{per_tuple} calls per tuple, bound {CALLS_PER_TUPLE}\n"
        f"{grown(busy_calls, idle_calls)}")
