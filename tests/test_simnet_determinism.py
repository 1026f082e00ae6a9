"""Determinism guards for the event-kernel fast paths.

The kernel carries three wall-clock optimizations — a zero-delay bypass
deque, a recycled Timeout pool, and ``__slots__``/local-binding in the
hot loop. All of them must preserve the exact (time, sequence) FIFO
ordering: same seed, same program ⇒ bit-identical event order.
"""

from repro.core import FLOW_END, DfiRuntime, Endpoint, Schema
from repro.simnet import Cluster
from repro.simnet.kernel import Environment

SCHEMA = Schema(("key", "uint64"), ("value", "uint64"))


# -- raw kernel ordering -------------------------------------------------

def test_zero_delay_events_keep_fifo_order_with_timed_events():
    """Zero-delay timeouts (bypass deque) and equal-time heap timeouts
    must process in exact schedule order."""
    env = Environment()
    trace = []

    def proc(label, delays):
        for i, delay in enumerate(delays):
            yield env.timeout(delay)
            trace.append((env.now, label, i))

    # a alternates zero-delay with 1ns waits; b/c only zero-delay; d is
    # scheduled at the same instants via equal timed delays.
    env.process(proc("a", [0.0, 1.0, 0.0, 1.0, 0.0]))
    env.process(proc("b", [0.0] * 5))
    env.process(proc("c", [0.0] * 5))
    env.process(proc("d", [1.0, 1.0, 0.0, 0.0]))
    env.run()
    baseline = list(trace)

    trace.clear()
    env = Environment()

    def proc2(label, delays):
        for i, delay in enumerate(delays):
            yield env.timeout(delay)
            trace.append((env.now, label, i))

    env.process(proc2("a", [0.0, 1.0, 0.0, 1.0, 0.0]))
    env.process(proc2("b", [0.0] * 5))
    env.process(proc2("c", [0.0] * 5))
    env.process(proc2("d", [1.0, 1.0, 0.0, 0.0]))
    env.run()
    assert trace == baseline
    # FIFO among same-time events: first instant runs a, b, c in
    # process-creation order.
    first_instant = [entry for entry in baseline if entry[0] == 0.0]
    assert [label for _t, label, _i in first_instant[:3]] == ["a", "b", "c"]


def test_timed_callbacks_do_not_leak_state():
    """Timed callbacks — one-action trains, each arming the next from its
    own action — leak nothing between entries: each action fires once,
    at its own instant, with its own argument, and a train list its
    caller changes after handing it over changes nothing queued."""
    env = Environment()
    seen = []

    def tick(arg):
        index, step = arg
        seen.append((env.now, index, step))
        if step < 49:
            env.schedule_train([(env.now + float(index + 1), tick,
                                 (index, step + 1))])

    for index in range(4):
        env.schedule_train([(float(index + 1), tick, (index, 0))])
    env.run()
    assert len(seen) == 200
    for now, index, step in seen:
        assert now == float((step + 1) * (index + 1))
    # Two hundred callbacks, each a queue entry of its own, popped once.
    assert env.events_executed == env._sequence == 200
    assert not env._queue and not env._immediate
    # A lone action is queued as the caller's tuple itself.
    actions = [(env.now + 1.0, tick, (9, 49))]
    env.schedule_train(actions)
    assert env._queue == [(env.now + 1.0, 201, actions[0])]
    actions[0] = (env.now + 2.0, tick, (8, 49))
    actions.append((env.now + 3.0, tick, (7, 49)))
    env.run()
    assert seen[-1] == (env.now, 9, 49) and len(seen) == 201


def test_condition_index_map_matches_event_positions():
    """AnyOf must report the position of the triggering event (the O(1)
    id→index map replacing ``list.index``)."""
    env = Environment()
    results = []

    def waiter():
        events = [env.timeout(3.0), env.timeout(1.0), env.timeout(2.0)]
        index, value = yield env.any_of(events)
        results.append((index, value, env.now))

    env.process(waiter())
    env.run()
    assert results == [(1, None, 1.0)]


# -- whole-simulation determinism ---------------------------------------

def _run_shuffle_once(seed):
    cluster = Cluster(node_count=3, seed=seed)
    dfi = DfiRuntime(cluster)
    dfi.init_shuffle_flow("f", [Endpoint(0, 0)],
                          [Endpoint(1, 0), Endpoint(2, 0)], SCHEMA,
                          shuffle_key="key")
    received = {0: [], 1: []}
    checkpoints = []

    def source_thread():
        source = yield from dfi.open_source("f", 0)
        for i in range(600):
            yield from source.push((i * 31 + 7, i))
            if i % 100 == 99:
                checkpoints.append(cluster.env.now)
        yield from source.close()

    def target_thread(index):
        target = yield from dfi.open_target("f", index)
        while True:
            item = yield from target.consume()
            if item is FLOW_END:
                checkpoints.append(cluster.env.now)
                return
            received[index].append(item)

    cluster.env.process(source_thread())
    cluster.env.process(target_thread(0))
    cluster.env.process(target_thread(1))
    cluster.run()
    return cluster.env.now, checkpoints, received


def test_same_seed_runs_are_bit_identical():
    assert _run_shuffle_once(3) == _run_shuffle_once(3)


def test_simulated_times_are_exact_floats():
    """The end-to-end time must be reproducible to full float precision —
    the guarantee the figure benches rely on."""
    end1, checkpoints1, _ = _run_shuffle_once(11)
    end2, checkpoints2, _ = _run_shuffle_once(11)
    assert end1 == end2
    assert all(a == b for a, b in zip(checkpoints1, checkpoints2))
