"""The latency-mode send and drain keep every check they had.

``LatencySourceChannel`` writes through ``_write_slot`` whatever the
front door (``push``, which stages its tuple in place; ``push_batch``
and ``push_bytes``, whose walk stages each row through ``_send``; the
close/abort marker) — except a ``push`` whose credit window is open,
which runs ahead of the clock and leaves the post to ``_post`` — and
``TargetChannel`` slices payloads and publishes credits without a range
check per segment because the ranges were proven when it was built.
Each test here pins one check that must have survived that: the three
front doors are the same send, a mistyped tuple, a closed channel and a
closed source fail at the offending push, a footer that overstates its
segment and a credit slot outside its region are refused, a shut credit
window stalls, backs off and gives up after ``max_backoff_retries``,
and a push that runs ahead is, entry for entry, the push that slept
through its CPU charge.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.common.config import DEFAULT_HARDWARE
from repro.common.errors import (
    FlowClosedError,
    FlowError,
    FlowTimeoutError,
    MemoryRegionError,
    SchemaError,
)
from repro.core import (
    FLOW_END,
    DfiRuntime,
    FlowOptions,
    Optimization,
    Schema,
)
from repro.core.segment import FLAG_CONSUMABLE, SegmentRing, pack_footer
from repro.common.planelog import WRITE
from repro.core.shuffle import TargetChannel
from repro.rdma.nic import get_nic
from repro.simnet import PARK, Cluster, Environment
from repro.simnet.faults import FaultPlan, node_crash
from tests import discrete_reference

SCHEMA = Schema(("key", "uint64"), ("value", "uint64"))
ROWS = [(i, i * i) for i in range(40)]


def _flow(options=FlowOptions(target_segments=8, credit_threshold=2)):
    cluster = Cluster(node_count=2)
    dfi = DfiRuntime(cluster)
    dfi.init_shuffle_flow("f", ["node0|0"], ["node1|0"], SCHEMA,
                          shuffle_key="key",
                          optimization=Optimization.LATENCY, options=options)
    return cluster, dfi


def _run(body):
    """Run ``body(source)`` against one draining target; returns the
    cluster, the target endpoint and everything it consumed."""
    cluster, dfi = _flow()
    seen = {"target": None, "got": []}

    def source_thread():
        source = yield from dfi.open_source("f", 0)
        yield from body(source)
        yield from source.close()

    def target_thread():
        target = seen["target"] = yield from dfi.open_target("f", 0)
        while True:
            got = yield from target.consume()
            if got is FLOW_END:
                return
            seen["got"].append(got)

    cluster.env.process(source_thread())
    cluster.env.process(target_thread())
    cluster.run()
    return cluster, seen["target"], seen["got"]


# -- one send behind three front doors ---------------------------------------

def _per_tuple(source):
    for row in ROWS:
        yield from source.push(row)


def _batched(source):
    yield from source.push_batch(ROWS)


def _packed(source):
    yield from source.push_bytes(b"".join(map(SCHEMA.pack, ROWS)))


@pytest.mark.parametrize("body", [_batched, _packed])
def test_every_front_door_is_the_per_tuple_send(body):
    """Equal finish time, equal events, equal bytes in the remote ring
    (more rows than ring slots, so credits were read on the way)."""
    reference, ref_target, ref_got = _run(_per_tuple)
    cluster, target, got = _run(body)
    assert ref_got == ROWS and got == ROWS
    assert cluster.now == reference.now
    assert cluster.env.events_executed == reference.env.events_executed
    ring, ref_ring = (t._channels[0].ring.region for t in (target,
                                                           ref_target))
    assert bytes(ring.mem) == bytes(ref_ring.mem)


# -- errors at the offending push --------------------------------------------

def test_mistyped_tuple_fails_its_own_push_and_sends_nothing():
    seen = {}

    def body(source):
        yield from source.push((1, 1))
        channel = source._channels[0]
        with pytest.raises(SchemaError) as caught:
            yield from source.push(("not an int", 1))
        seen["message"] = str(caught.value)
        # The counters count posted writes, and the first push's write
        # posts at the thread's local instant: bring the thread there.
        yield PARK
        seen["sent"] = (channel.tuples_sent, channel.segments_sent)
        yield from source.push((2, 4))

    _cluster, _target, got = _run(body)
    assert seen["message"].startswith(
        "tuple ('not an int', 1) does not match schema: ")
    assert seen["sent"] == (1, 1)
    assert got == [(1, 1), (2, 4)]


@pytest.mark.parametrize("door", ["push", "push_batch", "push_bytes"])
def test_closed_source_refuses_every_front_door(door):
    cluster, dfi = _flow()
    raised = []

    argument = {"push": (1, 1), "push_batch": [(1, 1)],
                "push_bytes": memoryview(SCHEMA.pack((1, 1)))}[door]

    def attempt(source):
        try:
            yield from getattr(source, door)(argument)
        except FlowClosedError as exc:
            raised.append(exc)

    def source_thread():
        source = yield from dfi.open_source("f", 0)
        yield from source._channels[0].close()
        # The open source refuses its closed channel, then the closed
        # source refuses.
        yield from attempt(source)
        yield from source.close()
        yield from attempt(source)

    def target_thread():
        target = yield from dfi.open_target("f", 0)
        assert (yield from target.consume()) is FLOW_END

    cluster.env.process(source_thread())
    cluster.env.process(target_thread())
    cluster.run()
    assert len(raised) == 2


# -- ranges proven at construction, sizes checked per segment ----------------

@pytest.mark.parametrize("consume", ["consume", "consume_batch",
                                     "consume_bytes"])
def test_footer_that_overstates_its_segment_is_refused(consume):
    cluster, dfi = _flow()
    caught = []

    def target_thread():
        target = yield from dfi.open_target("f", 0)
        ring = target._channels[0].ring
        # What no source of ours writes: 32 bytes used in a 16-byte slot.
        ring.region.write(ring.footer_offset(0),
                          pack_footer(2 * SCHEMA.tuple_size,
                                      FLAG_CONSUMABLE, 0))
        try:
            yield from getattr(target, consume)()
        except FlowError as exc:
            caught.append(str(exc))

    cluster.env.process(target_thread())
    cluster.run()
    assert len(caught) == 1 and "32" in caught[0] and "16" in caught[0]


def test_credit_slot_outside_its_region_is_refused_at_construction():
    cluster, dfi = _flow()
    node = cluster.node(1)
    nic = get_nic(node)
    ring = SegmentRing.allocate(nic, 8, SCHEMA.tuple_size)
    credits = nic.register_memory(8)
    descriptor = dfi.registry.descriptor("f")
    TargetChannel(node, descriptor, ring, credits, 0)
    with pytest.raises(MemoryRegionError):
        TargetChannel(node, descriptor, ring, credits, 8)


# -- a shut window stalls, backs off, gives up -------------------------------

def test_shut_credit_window_times_out_after_its_backoff_budget():
    """The target opens its ring and never consumes: the source spends the
    ring's worth of credits, then re-reads the counter ``budget`` times
    with growing backoff and raises."""
    segments, budget = 4, 3
    cluster, dfi = _flow(FlowOptions(target_segments=segments,
                                     credit_threshold=1,
                                     max_backoff_retries=budget))
    outcome = {}

    def source_thread():
        source = yield from dfi.open_source("f", 0)
        channel = source._channels[0]
        try:
            for row in ROWS:
                yield from source.push(row)
        except FlowTimeoutError as exc:
            outcome["error"] = str(exc)
        outcome["sent"] = channel.segments_sent
        outcome["at"] = cluster.now

    def idle_target():
        yield from dfi.open_target("f", 0)

    cluster.env.process(source_thread())
    cluster.env.process(idle_target())
    cluster.run()
    assert f"after {budget} backoff rounds" in outcome["error"]
    assert outcome["sent"] == segments
    # The stall cost simulated time: at least the floor of every round.
    assert outcome["at"] > 400.0 * (1 + 2 + 4)


# -- a push that runs ahead of the clock is the push that slept --------------

_PROGRAM_OP = st.one_of(
    st.tuples(st.just("push"), st.integers(1, 12)),
    st.tuples(st.just("now")),
    st.tuples(st.just("timeout"),
              st.sampled_from([0.0, 1.0, 37.5, 250.0, 2000.0])),
    st.tuples(st.just("compute"), st.sampled_from([0.0, 15.0, 400.0])),
    st.tuples(st.just("consume")),
    st.tuples(st.sampled_from(["close", "abort"])),
    st.tuples(st.just("kernel"),
              st.sampled_from(["succeed", "fail", "train", "sleep_until",
                               "cancel", "condition"]),
              st.sampled_from([0.0, 5.0, 300.0])),
)

#: Each kernel call whose guard defers it while the caller runs ahead of
#: the clock, by the name of the op that makes it.
_DEFERRED = {"succeed": "succeed", "fail": "fail", "train": "schedule_train",
             "sleep_until": "_schedule_abs", "cancel": "cancel",
             "condition": "_watch"}


def _kernel_call(env, log, fired, call, delay):
    """Generator: one kernel call, then a wait on what it queued; log what
    the thread saw. Made right after a push that ran ahead, the call
    takes its guard's deferral. A train's action logs its own firing in
    ``fired``, at the kernel's instant."""
    seen = delay
    if call == "succeed":
        event = env.event()
        event.succeed(delay)
        seen = yield event
    elif call == "fail":
        event = env.event()
        event.fail(ValueError(delay))
        try:
            yield event
        except ValueError as exc:
            seen = ("raised", exc.args[0])
    elif call == "train":
        env.schedule_train([(env.now + delay,
                             lambda tag: fired.append((tag, env.now)),
                             ("train", delay))])
        yield delay
    elif call == "sleep_until":
        yield env.sleep_until(env.now + delay)
    elif call == "cancel":
        timer = env.timeout(delay + 1.0)
        env.cancel(timer)
        yield delay + 2.0
        seen = timer.processed     # withdrawn: never fired
    else:
        got = yield env.all_of([env.timeout(delay), env.timeout(2 * delay)])
        seen = len(got)
    log.append((call, seen, env.now))


def _programme(program, window, threshold, scale, slow, feed, gap,
               peer_timeout, crash_at, cut=None):
    """Run ``program`` on a source thread of node 1 (CPU ``scale`` times
    nominal) pushing latency flow ``f`` to a target on node 2 that
    spends ``slow`` ns per tuple, while it also consumes flow ``g``,
    which a feeder on node 3 pushes ``feed`` tuples into, ``gap`` ns
    apart. Node 1 crashes at ``crash_at`` unless it is ``None``. With a
    ``cut``, ``run(until=cut)`` goes first, and what a harvest at that
    horizon reads is kept: the clock, the count of events, the metrics
    snapshot (the sources' counter collectors included) and each
    thread's log so far. Returns every popped queue entry's ``(time,
    sequence)`` after the cut, the plane log's ``WRITE`` records, each
    thread's log of instants, values and errors, the final clock, the
    count of events, the final metrics snapshot and the reading at the
    cut. A ``kernel`` op makes one of the calls :func:`_kernel_call`
    makes."""
    cluster = Cluster(node_count=4,
                      profile=DEFAULT_HARDWARE.with_straggler(1, scale))
    if crash_at is not None:
        cluster.install_faults(FaultPlan([node_crash(1, crash_at)]),
                               detection_timeout=20_000.0)
    plane = cluster.enable_observability()
    dfi = DfiRuntime(cluster)
    env = cluster.env
    options = FlowOptions(target_segments=window,
                          credit_threshold=threshold,
                          max_backoff_retries=6, peer_timeout=peer_timeout)
    dfi.init_shuffle_flow("f", ["node1|0"], ["node2|0"], SCHEMA,
                          shuffle_key="key",
                          optimization=Optimization.LATENCY, options=options)
    dfi.init_shuffle_flow("g", ["node3|0"], ["node1|0"], SCHEMA,
                          shuffle_key="key",
                          optimization=Optimization.LATENCY, options=options)
    logs = {"source": [], "target": [], "feeder": [], "fired": []}

    def source_thread():
        log = logs["source"]
        source = yield from dfi.open_source("f", 0)
        feed_in = yield from dfi.open_target("g", 0)
        node = cluster.node(1)
        key = 0
        drained = False
        try:
            for op in program:
                kind = op[0]
                if kind == "push":
                    for _ in range(op[1]):
                        yield from source.push((key, key * key))
                        key += 1
                elif kind == "now":
                    log.append(("now", env.now))
                elif kind == "timeout":
                    yield env.timeout(op[1])
                elif kind == "compute":
                    yield node.compute(op[1])
                elif kind == "consume" and not drained:
                    got = yield from feed_in.consume()
                    drained = got is FLOW_END
                    log.append(("got", got, env.now))
                elif kind == "close":
                    yield from source.close()
                elif kind == "abort":
                    yield from source.abort()
                elif kind == "kernel":
                    yield from _kernel_call(env, log, logs["fired"], *op[1:])
            log.append(("done", env.now))
        except FlowError as exc:
            log.append(("error", type(exc).__name__, env.now))

    def target_thread():
        log = logs["target"]
        node = cluster.node(2)
        target = yield from dfi.open_target("f", 0)
        try:
            while (got := (yield from target.consume())) is not FLOW_END:
                log.append((got, env.now))
                if slow:
                    yield node.compute(slow)
        except FlowError as exc:
            log.append(("error", type(exc).__name__, env.now))

    def feeder_thread():
        log = logs["feeder"]
        source = yield from dfi.open_source("g", 0)
        try:
            for key in range(feed):
                yield env.timeout(gap)
                yield from source.push((key, key))
            yield from source.close()
        except FlowError as exc:
            log.append(("error", type(exc).__name__, env.now))

    cluster.node(1).spawn(source_thread())
    cluster.node(2).spawn(target_thread())
    cluster.node(3).spawn(feeder_thread())
    at_cut = None
    if cut is not None:
        cluster.run(until=cut)
        at_cut = (env.now, env.events_executed, cluster.metrics_snapshot(),
                  {name: list(log) for name, log in logs.items()})
    popped = []
    while env._queue or env._immediate:
        queue, immediate = env._queue, env._immediate
        head = (immediate[0] if immediate and (not queue
                                               or immediate[0] < queue[0])
                else queue[0])
        popped.append(head[:2])
        env.step()
    writes = [(record[1], record[2]._tid, record[4], record[5], record[6])
              for record in plane.records if record[0] == WRITE]
    return (popped, writes, logs, env.now, env.events_executed,
            cluster.metrics_snapshot(), at_cut)


#: A write on the second flow lands while its waiter runs ahead.
_RUNG = ([("push", 3), ("consume",)] * 4, 64, 0.25, 0.5, 0.0, 20, 120.0,
         None, None, None)
#: The pushing node crashes between two links of one chain, before a
#: harvest at 1 000 ns reads the counters.
_CUT = ([("push", 4), ("now",), ("push", 4), ("now",)], 64, 0.25, 0.5,
        0.0, 0, 0.0, None, 150.0, 1_000.0)
#: A ``run(until=...)`` horizon inside one chain: its links fall at
#: 146 ns apart, so the fourth would land past 500 ns.
_HORIZON = ([("push", 4), ("now",), ("push", 4), ("now",)], 64, 0.25, 0.5,
            0.0, 0, 0.0, None, None, 500.0)
#: Reads, a timeout and a charge between pushes; a refresh comes due;
#: the flow closes mid-stream and the pushes after it fail.
_BETWEEN = ([("push", 2), ("now",), ("timeout", 37.5), ("push", 5),
             ("now",), ("compute", 15.0), ("consume",), ("push", 3),
             ("close",), ("push", 1)], 8, 0.5, 1.25, 300.0, 4, 15.0,
            40_000.0, None, None)
#: A shut window behind a slow target, then an abort.
_SHUT = ([("push", 12), ("abort",), ("now",)], 2, 1.0, 2.0, 3000.0, 3,
         0.0, None, None, None)


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@example(*_RUNG)
@example(*_CUT)
@example(*_HORIZON)
@example(*_BETWEEN)
@example(*_SHUT)
@given(program=st.lists(_PROGRAM_OP, min_size=1, max_size=16),
       window=st.integers(2, 64), threshold_share=st.floats(0.0, 1.0),
       scale=st.sampled_from([0.5, 0.8, 1.25, 2.0]),
       slow=st.sampled_from([0.0, 300.0, 3000.0]),
       feed=st.integers(0, 20),
       gap=st.sampled_from([0.0, 15.0, 120.0, 900.0]),
       peer_timeout=st.sampled_from([None, 40_000.0]),
       crash_at=st.one_of(st.none(), st.floats(50.0, 8_000.0)),
       cut=st.one_of(st.none(), st.floats(0.0, 8_000.0)))
def test_a_push_that_runs_ahead_is_the_push_that_slept(
        program, window, threshold_share, scale, slow, feed, gap,
        peer_timeout, crash_at, cut):
    """Random programmes of latency pushes, ``env.now`` reads, timeouts,
    CPU charges, consumes of a second flow, a close or an abort mid-
    stream, a crash of the pushing node and a ``run(until=...)``
    horizon, on a CPU that is not nominal: the push that runs ahead of
    the clock pops every queue entry at the time and under the sequence
    number the push that slept through its charge did, so the ``WRITE``
    records, every instant a thread saw (errors included), the final
    clock, the event count and the metrics snapshot (the sources'
    ``core.tuples_pushed`` and ``core.segments_flushed``) are the same,
    at the horizon as at the end — where every thread's log is too."""
    threshold = max(1, round(threshold_share * window))
    args = (program, window, threshold, scale, slow, feed, gap,
            peer_timeout, crash_at, cut)
    product = _programme(*args)
    with discrete_reference.sleeping_latency_push() as pushes:
        reference = _programme(*args)
    if crash_at is not None:
        # A thread killed while it ran ahead had run its own code up to
        # its next yield: what it wrote to Python state there stays
        # written, while everything it queued is dropped.
        logs = [product[2]] + ([product[6][3]] if cut is not None else [])
        for log in logs:
            log["source"][:] = [entry for entry in log["source"]
                                if entry[-1] < crash_at]
    assert product[0] == reference[0]
    assert product[1:] == reference[1:]
    if any(op[0] == "push" for op in program) and crash_at is None:
        assert pushes["pushes"] > 0


@pytest.mark.parametrize("call", sorted(_DEFERRED))
def test_a_kernel_call_made_ahead_of_the_clock_is_the_call_made_after_a_sleep(
        call, monkeypatch):
    """Right after a push that ran ahead, each kernel call whose guard
    defers it — ``succeed``, ``fail``, a train, ``sleep_until``,
    ``cancel`` and a condition's watch — takes that deferral, and the
    run equals the one whose pushes slept: the same queue entries at
    the same instants under the same sequence numbers, and the same
    thread logs, clock, events and metrics."""
    args = ([("push", 3), ("kernel", call, 5.0), ("push", 2), ("now",),
             ("kernel", call, 0.0), ("now",)],
            64, 16, 0.5, 0.0, 0, 0.0, None, None, None)
    deferred = []
    defer = Environment._defer

    def recording(env, fn, fn_args):
        deferred.append(fn.__name__)
        return defer(env, fn, fn_args)

    monkeypatch.setattr(Environment, "_defer", recording)
    product = _programme(*args)
    assert _DEFERRED[call] in deferred
    deferred.clear()
    with discrete_reference.sleeping_latency_push() as pushes:
        reference = _programme(*args)
    assert _DEFERRED[call] not in deferred and pushes["pushes"] == 5
    assert product == reference
    assert [entry[0] for entry in product[2]["source"]] == [
        call, "now", call, "now", "done"]
