"""The multicast receive path's per-datagram constant as exact counts.

A 1:2 multicast replicate flow: every segment the source sends is one UD
datagram the switch copies to both targets. What a received datagram
costs the library — the source's flush and send shared by its two
copies, the fan-out, the write into the receive slot, and the target's
receive pass: footer, rows, slot re-post, sequence step, credit — is
counted net of the same flow with nothing pushed, for both orderings.
Wall-clock is noise on a shared box; the calls a run makes are not.
"""

import pytest

from repro.core import (FLOW_END, DfiRuntime, Endpoint, FlowOptions,
                        Ordering, Schema)
from repro.simnet import Cluster
from tests.callcount import count_calls, grown

SCHEMA = Schema(("key", "uint64"), ("pad", 56))
OPTIONS = FlowOptions(multicast=True, segment_size=1024, source_segments=4,
                      target_segments=16, credit_threshold=8)
TARGETS, BATCH, BATCHES = 2, 64, 16


def _replicate(batches: int, ordering: Ordering, received=None) -> Cluster:
    """One source multicasts ``batches`` batches of 64 rows to two
    targets that drain with ``consume_batch``; each target adds the
    datagrams it took to ``received``."""
    pad = bytes(56)
    rows = [(key, pad) for key in range(BATCH)]
    cluster = Cluster(node_count=1 + TARGETS)
    dfi = DfiRuntime(cluster)
    dfi.init_replicate_flow(
        "rep", [Endpoint(0, 0)],
        [Endpoint(1 + n, 0) for n in range(TARGETS)], SCHEMA,
        ordering=ordering, options=OPTIONS)
    received = [] if received is None else received

    def source():
        src = yield from dfi.open_source("rep", 0)
        for _ in range(batches):
            yield from src.push_batch(rows)
        yield from src.close()

    def target(index):
        tgt = yield from dfi.open_target("rep", index)
        count = 0
        while (batch := (yield from tgt.consume_batch())) is not FLOW_END:
            count += len(batch)
        assert count == batches * BATCH
        received.append(tgt.segments_received)

    cluster.env.process(source())
    for index in range(TARGETS):
        cluster.env.process(target(index))
    return cluster


def _calls_per_datagram(ordering: Ordering) -> "tuple[float, str]":
    """Library calls per received datagram, and the functions whose
    calls the datagrams added most."""
    idle_received, busy_received = [], []
    idle = _replicate(0, ordering, idle_received)
    busy = _replicate(BATCHES, ordering, busy_received)
    idle_calls = count_calls(idle.run, tally=True)
    busy_calls = count_calls(busy.run, tally=True)
    datagrams = sum(busy_received) - sum(idle_received)
    assert datagrams == TARGETS * BATCHES * BATCH // (1024 // 64)
    return ((busy_calls.library - idle_calls.library) / datagrams,
            grown(busy_calls, idle_calls))


@pytest.mark.parametrize("ordering, budget", [
    (Ordering.NONE, 76),
    (Ordering.GLOBAL, 104),
], ids=["unordered", "ordered"])
def test_a_received_datagram_costs_at_most_this_many_calls(ordering, budget):
    """73.8 calls per datagram unordered, 101.3 ordered (the sequencer's
    fetch-and-add, and the flow's sequence window holding each segment
    until its turn); 82.9 and 116.4 while a train's hops — the fan-out's
    arrivals, a write's commits — were walked by a pooled macro-event.
    The ordered flow read 132.4 while a receive list
    and a sorted next list held them, scanned on every insert and popped
    from the head of a list. Before that, 113.9 and 155.4 while the
    target polled its receive CQ into lists, decoded each footer through
    ``region.view`` and ``Footer``, re-posted each slot through
    ``post_recv``'s range check and looked for gaps twice per datagram.
    The bounds leave about 3 % of headroom."""
    per_datagram, why = _calls_per_datagram(ordering)
    assert per_datagram <= budget, f"{per_datagram}\n{why}"
