"""A batch that posts nothing returns at once; its CPU is slept at the
source's next post.

Staged rows are invisible until their segment's write, so the CPU a
``ShuffleSource.push_batch`` charged after its last flush is left on
the source as an absolute deadline (``ShuffleSource._carry``) and slept
by the source's next post: the next batch's first flush (merged into
its deadline chain), a flushing per-tuple ``push``, ``close``, ``abort``
and ``retire_target``; a reroute after a target failure posts behind
such a flush. ``tests/discrete_reference.py`` keeps the per-group walk
the carry replaced, which sleeps every group's charge and so the last
ones at the end of the batch (``sleeping_batch_push()``); it reads no
carry of the product's. A thread that only pushes posts every
write at the float that walk posts it at; each case below holds one
settle point to it, through the row loop (32-row routed batches) and
the group walk (300-row routed batches), at CPU scale 1 and 0.7.

The declared rule for a thread that waits between a carry and the next
post (docs/API.md): the carried charge is slept from the later instant,
as a staged per-tuple push's debt is.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.common.config import DEFAULT_HARDWARE
from repro.common.errors import FlowError
from repro.common.planelog import WRITE
from repro.core import (
    FLOW_END,
    DfiRuntime,
    FlowOptions,
    Schema,
    key_hash_router,
)
from repro.core.shuffle import ShuffleSource
from repro.simnet import Cluster
from repro.simnet.faults import FaultPlan, link_degrade, node_crash
from tests import discrete_reference

SCHEMA = Schema(("key", "uint64"), ("value", "uint64"))
#: 511 rows a segment: neither walk's first batch fills one.
OPTIONS = FlowOptions(segment_size=8192, source_segments=4,
                      target_segments=8, credit_threshold=2)
TARGETS = 4
#: Rows per batch: the row loop's and the group walk's.
WALKS = {"row_loop": 32, "group_walk": 300}
SCALES = [1.0, 0.7]
#: When the victim of the reroute case crashes, and when its source
#: starts pushing.
CRASH_AT, PUSH_AT = 20_000.0, 30_000.0


def _cluster(targets, scale, nodes=None):
    return Cluster(node_count=nodes or 1 + targets,
                   profile=DEFAULT_HARDWARE.with_straggler(0, scale))


def _flow(cluster, targets, options=OPTIONS):
    dfi = DfiRuntime(cluster)
    dfi.init_shuffle_flow(
        "f", ["node0|0"], [f"node{1 + n}|0" for n in range(targets)],
        SCHEMA, shuffle_key="key", options=options)
    return dfi


def _drain(dfi, index, delivered):
    """A target thread: every row it receives, then how it ended."""
    try:
        tgt = yield from dfi.open_target("f", index)
        while (rows := (yield from tgt.consume_batch())) is not FLOW_END:
            delivered[index].extend(rows)
        delivered[index].append("end")
    except FlowError as exc:
        delivered[index].append(type(exc).__name__)


def _writes(plane):
    return [(record[1], record[2]._tid, record[4], record[5], record[6])
            for record in plane.records if record[0] == WRITE]


def _rows(rng, count):
    return [(rng.getrandbits(64), rng.getrandbits(32)) for _ in range(count)]


def _settle_run(walk, scale, settle):
    """One source pushes a first batch that posts nothing, then reaches
    its next post by ``settle``; returns the ``WRITE`` records, the rows
    each target got, the instant the first batch returned, the close or
    abort instant and the final clock."""
    cluster = _cluster(TARGETS, scale)
    options = OPTIONS
    if settle == "reroute":
        options = FlowOptions(segment_size=8192, source_segments=4,
                              target_segments=8, credit_threshold=2,
                              on_target_failure="reroute")
        cluster.install_faults(FaultPlan([node_crash(2, at=CRASH_AT)]),
                               detection_timeout=10_000.0)
    plane = cluster.enable_observability()
    dfi = _flow(cluster, TARGETS, options)
    rng = random.Random(5)
    rows = WALKS[walk]
    seen = {}
    delivered = {index: [] for index in range(TARGETS)}

    def source():
        src = yield from dfi.open_source("f", 0)
        if settle == "reroute":
            yield PUSH_AT - cluster.now
        called = cluster.now
        yield from src.push_batch(_rows(rng, rows))
        seen["first"] = (called, cluster.now)
        if settle in ("next_batch", "reroute"):
            for _ in range(4096 // rows):
                yield from src.push_batch(_rows(rng, rows))
        elif settle == "push":
            for values in _rows(rng, 600):
                yield from src.push(values, target=0)
        elif settle == "retire":
            yield from src.retire_target(TARGETS - 1)
        if settle == "abort":
            yield from src.abort()
        else:
            yield from src.close()
        seen["end"] = cluster.now
        seen["failed"] = src.failed_targets

    cluster.node(0).spawn(source())
    for index in range(TARGETS):
        cluster.node(1 + index).spawn(_drain(dfi, index, delivered))
    cluster.run()
    return _writes(plane), delivered, seen, cluster.now


SETTLES = ["next_batch", "push", "close", "abort", "retire", "reroute"]


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("walk", sorted(WALKS))
@pytest.mark.parametrize("settle", SETTLES)
def test_the_next_post_lands_where_the_end_of_batch_sleep_put_it(
        settle, walk, scale):
    product = _settle_run(walk, scale, settle)
    with discrete_reference.sleeping_batch_push() as pushed:
        reference = _settle_run(walk, scale, settle)
    assert pushed["batches"] > 0
    writes, delivered, seen, now = product
    # The first batch posted nothing: the product returned at once, the
    # sleeping walk after its charge.
    assert seen["first"][0] == seen["first"][1] < reference[2]["first"][1]
    assert writes, "nothing was written"
    assert (writes, delivered, seen["end"], seen["failed"], now) == (
        reference[0], reference[1], reference[2]["end"],
        reference[2]["failed"], reference[3])
    # The reroute case reroutes: its victim (target 1) failed.
    assert seen["failed"] == ((1,) if settle == "reroute" else ())


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("walk", sorted(WALKS))
def test_a_batch_that_posts_nothing_returns_at_once_and_queues_nothing(
        walk, scale):
    cluster = _cluster(TARGETS, scale)
    dfi = _flow(cluster, TARGETS)
    env = cluster.env
    seen = []

    def source():
        src = yield from dfi.open_source("f", 0)
        for _ in range(3):
            before = (env.now, env._sequence)
            yield from src.push_batch(_rows(random.Random(1), WALKS[walk]))
            seen.append((before, (env.now, env._sequence), src._carry))
        yield from src.close()

    cluster.node(0).spawn(source())
    delivered = {index: [] for index in range(TARGETS)}
    for index in range(TARGETS):
        cluster.node(1 + index).spawn(_drain(dfi, index, delivered))
    cluster.run()
    assert sum(len(rows) - 1 for rows in delivered.values()) == (
        3 * WALKS[walk])
    for before, after, carry in seen:
        assert before == after
        at, when = carry
        assert at == before[0] < when
    # Each batch adds its charge to the carried deadline.
    assert seen[0][2][1] < seen[1][2][1] < seen[2][2][1]


def _waiting_run(walk, scale):
    """Two batches that post nothing with a 5 µs timeout after each,
    then the close; returns the ``WRITE`` records, the rows each target
    got, and per batch its rows, the carry it left and the instant the
    timeout after it ended."""
    cluster = _cluster(TARGETS, scale)
    plane = cluster.enable_observability()
    dfi = _flow(cluster, TARGETS)
    rng = random.Random(2)
    seen = []

    def source():
        src = yield from dfi.open_source("f", 0)
        for _ in range(2):
            rows = _rows(rng, WALKS[walk])
            yield from src.push_batch(rows)
            carry = src._carry
            yield 5_000.0
            seen.append((rows, carry, cluster.now))
        yield from src.close()

    cluster.node(0).spawn(source())
    delivered = {index: [] for index in range(TARGETS)}
    for index in range(TARGETS):
        cluster.node(1 + index).spawn(_drain(dfi, index, delivered))
    cluster.run()
    return _writes(plane), delivered, seen


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("walk", sorted(WALKS))
def test_a_thread_that_waits_is_charged_the_carry_from_the_later_instant(
        walk, scale, monkeypatch):
    """A batch that posted nothing at ``t0`` carried the deadline ``D``;
    after a 5 µs timeout, ending at ``t1``, the second batch's chain
    starts at ``t1 + (D - t0)``, not at ``D``, and adds each of its
    groups' charges; after another timeout the close sleeps the second
    carry the same way. The sleeping walk slept each batch's charge
    first and then the timeout: the same writes, at instants equal up to
    the rounding of the two sums."""
    with discrete_reference.sleeping_batch_push():
        reference = _waiting_run(walk, scale)
    settled = []
    carried = ShuffleSource._carried

    def spy(self):
        settled.append((self.node.env.now, carried(self)))
        return settled[-1][1]

    monkeypatch.setattr(ShuffleSource, "_carried", spy)
    writes, delivered, seen = _waiting_run(walk, scale)
    (_, (t0, first), t1), (rows, (at, second), t2) = seen
    assert (t1, t2) == (t0 + 5_000.0, t1 + 5_000.0) and at == t1
    # The second batch's groups in slot order, each charged its rows'
    # push cost: nothing was staged past a flush and no slot sealed.
    route = key_hash_router(SCHEMA, "key")
    counts = [0] * TARGETS
    for values in rows:
        counts[route(values, TARGETS)] += 1
    debt = DEFAULT_HARDWARE.cpu_push_cost(SCHEMA.tuple_size)
    when = t1 + (first - t0)
    for count in counts:
        if count:
            when += count * debt / scale
    assert second == when
    assert settled == [(t2, t2 + (second - at))]
    assert delivered == reference[1]
    assert all(rows[-1] == "end" for rows in delivered.values())
    assert [record[1:] for record in writes] == [
        record[1:] for record in reference[0]]
    assert [record[0] for record in writes] == pytest.approx(
        [record[0] for record in reference[0]], rel=1e-12, abs=0)


def _property_run(targets, batches, scale, faults, seed):
    """One pure-push source shuffles ``batches`` (row counts) over
    ``targets`` targets, with an inert fault plane on an idle node when
    ``faults``; returns the WRITE records, the rows per target and the
    close instant."""
    cluster = _cluster(targets, scale, nodes=2 + targets)
    if faults:
        cluster.install_faults(FaultPlan([link_degrade(
            1 + targets, at=1.0, duration=10.0, factor=2.0)]))
    plane = cluster.enable_observability()
    dfi = _flow(cluster, targets, FlowOptions(
        segment_size=2048, source_segments=4, target_segments=8,
        credit_threshold=2))
    rng = random.Random(seed)
    delivered = {index: [] for index in range(targets)}
    closed = []

    def source():
        src = yield from dfi.open_source("f", 0)
        for count in batches:
            yield from src.push_batch(_rows(rng, count))
        yield from src.close()
        closed.append(cluster.now)

    cluster.node(0).spawn(source())
    for index in range(targets):
        cluster.node(1 + index).spawn(_drain(dfi, index, delivered))
    cluster.run()
    return _writes(plane), delivered, closed


@settings(max_examples=150, deadline=None)
@given(targets=st.integers(1, 16),
       batches=st.lists(st.integers(1, 300), min_size=1, max_size=6),
       scale=st.sampled_from([0.37, 0.7, 1.3, 2.9]),
       faults=st.booleans(),
       seed=st.integers(0, 2 ** 16))
@example(targets=4, batches=[32, 300, 7, 127], scale=0.7, faults=True,
         seed=0)
def test_carrying_a_batch_charge_moves_no_write(targets, batches, scale,
                                                faults, seed):
    """150 examples plus one pinned, about 1 s: with and without the
    end-of-batch sleep, a source whose thread only pushes writes the
    same records, delivers the same rows and closes at the same float.
    Row counts up to 300 on 2 KiB segments take the row loop (up to 127
    rows over two targets or more), the group walk and the packed split,
    and batches that flush as well as batches that only stage."""
    with pytest.MonkeyPatch.context() as patch:
        # No in-run chunk folds: every record stays in the plane log.
        patch.setattr("repro.obs.metrics.FOLD_RECORDS", 10 ** 9)
        product = _property_run(targets, batches, scale, faults, seed)
        with discrete_reference.sleeping_batch_push():
            reference = _property_run(targets, batches, scale, faults, seed)
    assert product[0], "nothing was written"
    assert product == reference
