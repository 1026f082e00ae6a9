"""Unit tests for the discrete-event kernel."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import SimulationError
from repro.simnet import Environment, Interrupt, ShardedEnvironment


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(10)
        yield env.timeout(5)
        return env.now

    p = env.process(proc(env))
    env.run()
    assert env.now == 15
    assert p.value == 15


def test_timeout_value_passthrough():
    env = Environment()

    def proc(env):
        got = yield env.timeout(3, value="hello")
        return got

    p = env.process(proc(env))
    env.run()
    assert p.value == "hello"


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_events_fire_in_time_order():
    env = Environment()
    order = []

    def waiter(env, delay, tag):
        yield env.timeout(delay)
        order.append(tag)

    env.process(waiter(env, 30, "c"))
    env.process(waiter(env, 10, "a"))
    env.process(waiter(env, 20, "b"))
    env.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fifo_order():
    env = Environment()
    order = []

    def waiter(env, tag):
        yield env.timeout(5)
        order.append(tag)

    for tag in range(6):
        env.process(waiter(env, tag))
    env.run()
    assert order == list(range(6))


def test_process_waits_on_process():
    env = Environment()

    def child(env):
        yield env.timeout(7)
        return 42

    def parent(env):
        result = yield env.process(child(env))
        return result + 1

    p = env.process(parent(env))
    env.run()
    assert p.value == 43
    assert env.now == 7


def test_wait_on_already_finished_process():
    env = Environment()

    def child(env):
        yield env.timeout(1)
        return "early"

    def parent(env, child_proc):
        yield env.timeout(10)
        result = yield child_proc
        return result

    child_proc = env.process(child(env))
    parent_proc = env.process(parent(env, child_proc))
    env.run()
    assert parent_proc.value == "early"
    assert env.now == 10


def test_manual_event_succeed():
    env = Environment()
    gate = env.event()
    results = []

    def waiter(env):
        value = yield gate
        results.append(value)

    def firer(env):
        yield env.timeout(100)
        gate.succeed("go")

    env.process(waiter(env))
    env.process(firer(env))
    env.run()
    assert results == ["go"]


def test_event_cannot_trigger_twice():
    env = Environment()
    gate = env.event()
    gate.succeed(1)
    with pytest.raises(SimulationError):
        gate.succeed(2)


def test_failed_event_raises_in_waiter():
    env = Environment()
    gate = env.event()

    def waiter(env):
        try:
            yield gate
        except ValueError as exc:
            return f"caught {exc}"

    p = env.process(waiter(env))
    gate.fail(ValueError("boom"))
    env.run()
    assert p.value == "caught boom"


def test_unhandled_process_failure_propagates_to_run():
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        raise RuntimeError("explode")

    env.process(bad(env))
    with pytest.raises(RuntimeError, match="explode"):
        env.run()


def test_process_failure_caught_by_waiter_is_defused():
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        raise RuntimeError("explode")

    def guardian(env):
        try:
            yield env.process(bad(env))
        except RuntimeError:
            return "handled"

    p = env.process(guardian(env))
    env.run()
    assert p.value == "handled"


def test_yield_non_event_fails_process():
    env = Environment()

    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(SimulationError, match="non-event"):
        env.run()


def test_all_of_collects_values_in_order():
    env = Environment()

    def proc(env):
        values = yield env.all_of([
            env.timeout(30, value="slow"),
            env.timeout(10, value="fast"),
        ])
        return values

    p = env.process(proc(env))
    env.run()
    assert p.value == ["slow", "fast"]
    assert env.now == 30


def test_any_of_returns_first():
    env = Environment()

    def proc(env):
        index, value = yield env.any_of([
            env.timeout(30, value="slow"),
            env.timeout(10, value="fast"),
        ])
        return index, value

    p = env.process(proc(env))
    env.run(p)
    assert p.value == (1, "fast")
    assert env.now == 10


def test_all_of_empty_triggers_immediately():
    env = Environment()

    def proc(env):
        values = yield env.all_of([])
        return values

    p = env.process(proc(env))
    env.run()
    assert p.value == []


def test_run_until_time_stops_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(100)

    env.process(proc(env))
    env.run(until=50)
    assert env.now == 50
    env.run()
    assert env.now == 100


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(10)
        return "finished"

    p = env.process(proc(env))
    assert env.run(until=p) == "finished"


def test_run_until_past_time_rejected():
    env = Environment()
    env.run(until=10)
    with pytest.raises(SimulationError):
        env.run(until=5)


def test_run_until_event_deadlock_detected():
    env = Environment()
    gate = env.event()

    def waiter(env):
        yield gate

    env.process(waiter(env))
    with pytest.raises(SimulationError, match="drained"):
        env.run(until=gate)


def test_interrupt_raises_inside_process():
    env = Environment()

    def sleeper(env):
        try:
            yield env.timeout(1000)
        except Interrupt as interrupt:
            return ("interrupted", interrupt.cause, env.now)

    def interrupter(env, victim):
        yield env.timeout(5)
        victim.interrupt("wake up")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert victim.value == ("interrupted", "wake up", 5)


def test_interrupt_finished_process_rejected():
    env = Environment()

    def quick(env):
        yield env.timeout(1)

    p = env.process(quick(env))
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_active_process_tracking():
    env = Environment()
    seen = []

    def proc(env):
        seen.append(env.active_process)
        yield env.timeout(1)

    p = env.process(proc(env))
    env.run()
    assert seen == [p]
    assert env.active_process is None


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(25)
    assert env.peek() == 25
    env.run()
    assert env.peek() == float("inf")


# -- order against an independent oracle -----------------------------------

_DELAYS = (0, 1e-3, 1, 2047, 2048, 5e5, 1e9, 2 ** 62, float("inf"))
_KINDS = ("timeout", "pooled_timeout", "schedule_at", "schedule_train",
          "succeed")


def _ops(children):
    """(kind, delays, shard tag, ops the firing callback schedules)."""
    return st.lists(st.tuples(
        st.sampled_from(_KINDS),
        st.lists(st.sampled_from(_DELAYS), min_size=1, max_size=4),
        st.integers(0, 3), children), max_size=4)


_PROGRAMMES = st.recursive(st.just([]), _ops, max_leaves=30)


def _numbered(ops, counter):
    return [(next(counter), kind, delays, tag, _numbered(children, counter))
            for kind, delays, tag, children in ops]


def _expected_order(programme):
    """``(now, op, action)`` in the order the kernel's contract gives:
    every scheduling call draws the next sequence number, a train draws
    one for all its actions, an instant at or before ``now`` means
    ``now``, and what fires next is the least ``(when, seq)`` — found
    here by a linear scan of a plain list."""
    now, seq, pending, fired = 0.0, 0, [], []

    def schedule(op):
        nonlocal seq
        seq += 1
        ident, kind, delays, _tag, _children = op
        whens = (sorted(now + delay for delay in delays)
                 if kind == "schedule_train"
                 else [now if kind == "succeed" else now + delays[0]])
        for action, when in enumerate(whens):
            pending.append((max(when, now), seq, action, op))

    for op in programme:
        schedule(op)
    while pending:
        entry = min(pending, key=lambda e: e[:3])
        pending.remove(entry)
        now, _seq, action, op = entry
        fired.append((now, op[0], action))
        if action == 0:
            for child in op[4]:
                schedule(child)
    return fired


def _kernel_order(env, programme, stepwise):
    fired = []

    def schedule(op):
        ident, kind, delays, tag, children = op

        def fire(action=0):
            fired.append((env.now, ident, action))
            if action == 0:
                for child in children:
                    schedule(child)

        if env.shard_count > 1:
            env._post_shard = tag   # attribution only: must not reorder
        try:
            if kind == "schedule_at":
                env.schedule_at(env.now + delays[0], fire)
            elif kind == "schedule_train":
                env.schedule_train([
                    (when, fire, action) for action, when
                    in enumerate(sorted(env.now + d for d in delays))])
            elif kind == "succeed":
                event = env.event()
                event.callbacks.append(lambda _event: fire())
                event.succeed()
            else:
                timer = getattr(env, kind)(delays[0])
                timer.callbacks.append(lambda _event: fire())
        finally:
            if env.shard_count > 1:
                env._post_shard = -1

    for op in programme:
        schedule(op)
    if stepwise:
        with pytest.raises(SimulationError, match="queue is empty"):
            while True:
                env.step()
    else:
        env.run()
    return fired


@settings(max_examples=150, deadline=None)
@given(ops=_PROGRAMMES, stepwise=st.booleans())
def test_events_fire_in_when_seq_order_of_an_independent_reference(
        ops, stepwise):
    programme = _numbered(ops, itertools.count())
    expected = _expected_order(programme)
    assert _kernel_order(Environment(), programme, stepwise) == expected
    assert _kernel_order(ShardedEnvironment(4), programme,
                         stepwise) == expected
