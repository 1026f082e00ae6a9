"""The small-batch push path's per-tuple constant as exact counts.

An 8:8 shuffle pushed in 32-row batches hands each source channel about
four rows at a time (the shape of the ledger's ``mesh_8x8``, one rack of
it). A 32-row batch takes ``ShuffleSource.push_batch``'s row loop: each
row is hashed and packed into its channel's open slot inside
``push_batch``'s own frame, one ``pack_into`` and no frame per row, and
a channel-batch that only stages rows costs no call at all. So what a
tuple costs in frames is its share of ``push_batch`` itself (entered
once per batch, resumed only after a flush boundary's sleep), of that
sleep (``sleep_until`` when several channels were charged), and of the
per-segment path a channel takes every 32 batches: ``seal``, the
doorbell train, the write landing and the target's consume. That reads
0.24 frames per tuple on either cluster (0.36 while every batch slept
at its end; 0.40 while a train's hops were walked by a pooled
macro-event; 1.82 while every channel-batch called ``charge_batch``,
``Node.compute`` and ``stage_batch``; 2.96 while the channel's
``push_batch`` generator ran every channel-batch). One more frame per
channel-batch is +0.25. A channel-batch costs no kernel event: the
process sleeps once per flush boundary, its staged groups' delays added
to one absolute deadline, and a batch that posts nothing leaves that
deadline on the source for its next post, so it costs no event at all.

``EVENTS`` (444) is the run's events net of the same mesh with nothing
pushed, counted on the flat and the racked cluster alike:
- 341 are the posted slots' own path: the 97 doorbell trains of one
  segment each, their landings, the footer reads and the targets'
  consumes;
- 97 are the flush boundaries' wakes, one before each train;
- 6 are the closes of the six sources whose last batch posted nothing,
  each sleeping its carried charge before its close marker goes out.

At the parent of the carry it was 938: the same 341 + 97, plus an
end-of-batch wake for each of the 500 of the 512 batches that charged a
group after their last flush (4 366 events while every group slept on
its own).

Wall-clock is noise on a shared box; kernel events and Python frames
entered under ``src/repro`` are not.
The same budget is held on a racked twin (two racks of four nodes,
built by ``Cluster.racked``), which must cost what the flat cluster
costs.

The row loop is what makes a batch no dearer than its rows pushed one
at a time: a 64-row batch routed over 64 targets hands each channel
about one row, the shape in which the group walk paid a route pass
plus a charge and a stage per channel and made more library calls than
64 per-tuple pushes.
"""

import random

from repro.core import FLOW_END, DfiRuntime, Endpoint, FlowOptions, Schema
from repro.simnet import Cluster
from tests.callcount import Calls, count_calls, grown

SCHEMA = Schema(("key", "uint64"), ("pad", 56))
NODES, BATCH, BATCHES = 8, 32, 64
SHORT_RINGS = FlowOptions(source_segments=4, target_segments=16,
                          credit_threshold=8)
#: Kernel events of the whole mesh run, flat or racked (exact; derived
#: in the module docstring).
EVENTS = 444
#: Python frames entered under ``src/repro`` per pushed tuple.
FRAMES_PER_TUPLE = 0.365


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


def _frames_per_tuple(make) -> "tuple[float, str]":
    """Frames per tuple, and the functions whose calls the tuples
    added most (:func:`grown`)."""
    idle, busy = _mesh(0, make=make), _mesh(BATCHES, make=make)
    idle_calls = count_calls(idle.run, tally=True)
    busy_calls = count_calls(busy.run, tally=True)
    return ((busy_calls.frames - idle_calls.frames)
            / (NODES * BATCHES * BATCH), grown(busy_calls, idle_calls))


def test_small_batches_cost_exactly_these_kernel_events():
    events = _events(_flat)
    assert events == EVENTS, f"{events} events, expected {EVENTS}"


def test_small_batches_cost_the_same_events_on_a_racked_twin():
    """Rack-major numbering moves no event."""
    events = _events(_racked)
    assert events == EVENTS, f"{events} events, expected {EVENTS}"


def test_a_tuple_enters_at_most_the_frame_budget():
    """0.24 now (``FRAMES_PER_TUPLE``; first bound 0.60); 0.36 while
    every batch slept at its end, 0.40 while a train's hops were walked
    by a pooled macro-event."""
    per_tuple, why = _frames_per_tuple(_flat)
    assert per_tuple <= FRAMES_PER_TUPLE, (
        f"{per_tuple} frames per tuple, bound {FRAMES_PER_TUPLE}\n{why}")


def test_a_tuple_enters_at_most_the_frame_budget_on_a_racked_twin():
    """0.24 as well (first bound 0.50): the kernel's run loop is written
    out, so racks add no frame. One more frame per channel-batch would
    read about 0.49 on either cluster."""
    per_tuple, why = _frames_per_tuple(_racked)
    assert per_tuple <= FRAMES_PER_TUPLE, (
        f"{per_tuple} frames per tuple, bound {FRAMES_PER_TUPLE}\n{why}")


#: The fan-out of the batch-against-pushes budget: as many targets as the
#: batch has rows.
WIDE = 64


def _wide_run(push) -> Calls:
    """The calls (tallied) of one source shuffling 64 rows over 64 draining
    targets through ``push(source, rows)`` (nothing pushed when it is
    ``None``), and its close."""
    rng = random.Random(3)
    rows = [(rng.getrandbits(64), bytes(56)) for _ in range(WIDE)]
    cluster = Cluster(node_count=1 + WIDE)
    dfi = DfiRuntime(cluster)
    dfi.init_shuffle_flow(
        "wide", [Endpoint(0, 0)], [Endpoint(1 + n, 0) for n in range(WIDE)],
        SCHEMA, shuffle_key="key")
    delivered = []

    def source():
        src = yield from dfi.open_source("wide", 0)
        if push is not None:
            yield from push(src, rows)
        yield from src.close()

    def target(index):
        tgt = yield from dfi.open_target("wide", index)
        while (batch := (yield from tgt.consume_batch())) is not FLOW_END:
            delivered.extend(batch)

    cluster.node(0).spawn(source())
    for index in range(WIDE):
        cluster.node(1 + index).spawn(target(index))
    calls = count_calls(cluster.run, tally=True)
    assert len(delivered) == (0 if push is None else WIDE)
    return calls


def _wide_calls(push) -> "tuple[int, Calls]":
    """The library calls of ``_wide_run(push)`` net of the same flow
    with nothing pushed, and that run's calls."""
    busy = _wide_run(push)
    return busy.library - _wide_run(None).library, busy


def _one_batch(source, rows):
    yield from source.push_batch(rows)


def _row_by_row(source, rows):
    for values in rows:
        yield from source.push(values)


def test_a_batch_costs_no_more_calls_than_its_rows_pushed_one_by_one():
    """810 calls against 863 (809 while the batch slept at its end, not
    its close; 1 104 against 1 158 while a train's hops
    were walked by a pooled macro-event; 1 720 while every channel-batch
    took the group walk's charge and stage)."""
    (batch, batch_calls), (pushes, push_calls) = (
        _wide_calls(_one_batch), _wide_calls(_row_by_row))
    assert batch <= pushes, (
        f"{batch} > {pushes}\n{grown(batch_calls, push_calls)}")
