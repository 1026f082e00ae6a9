"""Unit tests for the discrete-event kernel."""

import contextlib
import heapq
import itertools
import tokenize
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.common.errors import SimulationError
from repro.core import DfiRuntime, Endpoint, Optimization, Schema
from repro.simnet import Cluster, Environment, Interrupt
from tests import discrete_reference


class Stepwise(Environment):
    """The one kernel with ``run()`` driven through :meth:`step`, one
    event at a time: the reference dispatch that the written-out
    ``_run_all`` loop must agree with event for event."""

    __slots__ = ()

    def _run_all(self) -> None:
        while self._queue or self._immediate:
            self.step()


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
_KINDS = ("timeout", "schedule_train", "succeed", "cancel", "sleep",
          "sleep_until", "park")


def _ops(children):
    """(kind, delays, ops the firing callback schedules)."""
    return st.lists(st.tuples(
        st.sampled_from(_KINDS),
        st.lists(st.sampled_from(_DELAYS), min_size=1, max_size=4),
        children), max_size=4)


_PROGRAMMES = st.recursive(st.just([]), _ops, max_leaves=30)


def _numbered(ops, counter):
    return [(next(counter), kind, delays, _numbered(children, counter))
            for kind, delays, children in ops]


def _expected_order(programme):
    """``(now, op, action)`` in the order the kernel's contract gives:
    every scheduling call draws the next sequence number, a train draws
    one for all its actions, an instant at or before ``now`` means
    ``now``, and what fires next is the least ``(when, seq)`` — found
    here by a linear scan of a plain list. A ``cancel`` op is a guard
    timer (action 0, at the first delay) and, one sequence number later,
    a wake (action 1, at the last delay) that withdraws the guard if it
    is still pending. A ``sleep`` op starts a process now (action 1),
    which then sleeps the first delay (action 0); a ``sleep_until`` op
    sleeps to the instant that delay after its start. A ``park`` op starts a
    process now (action 1) that parks on its wake entry, and arms a
    timer at the first delay (action 2) that queues the entry the last
    delay later (action 0). A process's exit draws a number too, after
    everything its last action scheduled, but moves nothing here."""
    now, seq, pending, fired = 0.0, 0, [], []

    def push(op, action, delay):
        nonlocal seq
        seq += 1
        pending.append((now + delay, seq, action, op))

    def schedule(op):
        nonlocal seq
        ident, kind, delays, _children = op
        if kind == "cancel":
            for action, delay in enumerate((delays[0], delays[-1])):
                push(op, action, delay)
            return
        if kind in ("sleep", "sleep_until", "park"):
            push(op, 1, 0)
            if kind == "park":
                push(op, 2, delays[0])
            return
        seq += 1
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
        kind, delays = op[1], op[2]
        if action == 0:
            for child in op[3]:
                schedule(child)
        elif kind == "cancel":
            pending[:] = [e for e in pending if e[3] is not op]
        elif kind in ("sleep", "sleep_until"):
            push(op, 0, delays[0])
        elif kind == "park" and action == 2:
            push(op, 0, delays[-1])
    return fired


def _kernel_order(env, programme, stepwise):
    fired = []

    def schedule(op):
        ident, kind, delays, children = op

        def fire(action=0):
            fired.append((env.now, ident, action))
            if action == 0:
                for child in children:
                    schedule(child)

        if kind == "schedule_train":
            env.schedule_train([
                (when, fire, action) for action, when
                in enumerate(sorted(env.now + d for d in delays))])
        elif kind == "succeed":
            event = env.event()
            event.callbacks.append(lambda _event: fire())
            event.succeed()
        elif kind == "cancel":
            guard = env.timeout(delays[0])
            guard.callbacks.append(lambda _event: fire())

            def wake(_event):
                fire(1)
                if not guard.processed:
                    env.cancel(guard)

            env.timeout(delays[-1]).callbacks.append(wake)
        elif kind == "sleep":
            def sleeper():
                fire(1)
                yield float(delays[0])
                fire()

            env.process(sleeper())
        elif kind == "sleep_until":
            def sleeper():
                fire(1)
                yield env.sleep_until(env.now + delays[0])
                fire()

            env.process(sleeper())
        elif kind == "park":
            parked = []

            def parker():
                fire(1)
                parked.append(env.active_process._wake)
                yield parked[0]
                fire()

            def waker(_event):
                fire(2)
                entry = parked[0]
                entry._value = None   # what a doorbell hook does
                env._schedule(entry, float(delays[-1]))

            env.process(parker())
            env.timeout(delays[0]).callbacks.append(waker)
        else:
            env.timeout(delays[0]).callbacks.append(lambda _event: fire())

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
    for env in (Environment(), Stepwise()):
        assert _kernel_order(env, programme, stepwise) == expected
        # A cancelled guard leaves the clock at the last event that fired.
        assert env.now == (expected[-1][0] if expected else 0.0)


def _left_half(index: int) -> bool:
    """Whether heap slot ``index`` lies under the root's left child."""
    while index > 2:
        index = (index - 1) >> 1
    return index == 1


#: 63 timer delays: with ties, in no order; and in the slot order of a
#: heap whose left half runs later than its right, so that the queue's
#: last entry (right half) sifts toward the root when it fills a
#: left-half slot.
_CANCEL_LAYOUTS = {
    "mixed": [float((index * 37) % 23 + 1) for index in range(63)],
    "left_late": [float(index + 1 + 100 * _left_half(index))
                  for index in range(63)],
}


@pytest.mark.parametrize("layout", sorted(_CANCEL_LAYOUTS))
def test_cancel_restores_the_heap_with_one_sift(monkeypatch, layout):
    """Cancelling a guard anywhere among the queued timers leaves every
    other timer firing in ``(time, seq)`` order, with the queue repaired
    from the guard's slot alone, never rebuilt by ``heapify``."""
    def rebuilt(_queue):
        raise AssertionError("cancel rebuilt the whole heap")

    monkeypatch.setattr(heapq, "heapify", rebuilt)
    delays = _CANCEL_LAYOUTS[layout]
    for guard in range(len(delays)):
        env = Environment()
        fired = []
        timers = []
        for index, delay in enumerate(delays):
            timer = env.timeout(delay, index)
            timer.callbacks.append(lambda event: fired.append(event.value))
            timers.append(timer)
        env.cancel(timers[guard])
        env.run()
        assert fired == sorted((index for index in range(len(delays))
                                if index != guard),
                               key=lambda index: (delays[index], index))


# -- trains against the macro walker they replaced -------------------------

#: Offsets from ``now``: negative ones make a train's instants clamped,
#: repeated ones make them tie.
_OFFSETS = (-3.0, -0.5, 0.0, 1.0, 2.5, 7.0, 1e6)
_TRAIN_KINDS = ("train", "succeed", "timeout", "sleep", "sleep_until",
                "wake", "cancel")


def _train_ops(children):
    """(kind, offsets, ops the firing action schedules); a train may be
    empty."""
    return st.lists(st.tuples(
        st.sampled_from(_TRAIN_KINDS),
        st.lists(st.sampled_from(_OFFSETS), max_size=5),
        children), max_size=4)


_TRAIN_PROGRAMMES = st.recursive(st.just([]), _train_ops, max_leaves=30)


def _train_order(env, programme):
    """Run ``programme`` on ``env``; return the ``(now, op, action)``
    firing sequence. A ``train`` op is one action per offset, at
    ``now + offset``; the other kinds use the offsets' magnitudes as
    delays (the first offset, or 1.0 when there is none). Action 0 of an
    op schedules its children. A ``sleep``/``sleep_until`` op starts a
    process (action 1) that sleeps, ``sleep_until`` to a possibly past
    instant. A ``wake`` op starts a process (action 1) that parks on its
    wake entry, and a train action (action 2) that queues the entry, as
    a doorbell's write hook does. A ``cancel`` op is a guard timer
    (action 0) and a train action (action 1) that withdraws it if it is
    still pending."""
    fired = []

    def schedule(op):
        ident, kind, offsets, children = op
        first = offsets[0] if offsets else 1.0
        last = offsets[-1] if offsets else 1.0

        def fire(action=0):
            fired.append((env.now, ident, action))
            if action == 0:
                for child in children:
                    schedule(child)

        if kind == "train":
            env.schedule_train([
                (when, fire, action) for action, when
                in enumerate(sorted(env.now + offset for offset in offsets))])
        elif kind == "succeed":
            event = env.event()
            event.callbacks.append(lambda _event: fire())
            event.succeed()
        elif kind == "timeout":
            env.timeout(abs(first)).callbacks.append(lambda _event: fire())
        elif kind == "sleep":
            def sleeper():
                fire(1)
                yield abs(first)
                fire()

            env.process(sleeper())
        elif kind == "sleep_until":
            def sleeper():
                fire(1)
                yield env.sleep_until(env.now + first)
                fire()

            env.process(sleeper())
        elif kind == "wake":
            parked = []

            def parker():
                fire(1)
                parked.append(env.active_process._wake)
                yield parked[0]
                fire()

            def ring(_arg):
                fire(2)
                entry = parked[0]
                entry._value = None
                env._schedule(entry, abs(last))

            env.process(parker())
            env.schedule_train([(env.now + first, ring, None)])
        else:
            guard = env.timeout(abs(first))
            guard.callbacks.append(lambda _event: fire())

            def withdraw(_arg):
                fire(1)
                if not guard.processed:
                    env.cancel(guard)

            env.schedule_train([(env.now + abs(last), withdraw, None)])

    for op in programme:
        schedule(op)
    env.run()
    return fired


@settings(max_examples=200, deadline=None)
@given(ops=_TRAIN_PROGRAMMES, stepwise=st.booleans())
def test_trains_fire_as_the_macro_walker_fired_them(ops, stepwise):
    """A run of equal-instant actions queued as an entry of its own fires
    every action at the instant, in the order, and with the queue pops
    of the pooled walker that ``tests/discrete_reference.py`` keeps —
    through ``run()`` and through ``step()``."""
    programme = _numbered(ops, itertools.count())
    runs = []
    for walker in (contextlib.nullcontext, discrete_reference.macro_walker):
        env = Stepwise() if stepwise else Environment()
        with walker():
            fired = _train_order(env, programme)
        runs.append((fired, env.now, env.events_executed))
    assert runs[0] == runs[1]


# -- a process's own wake entry ----------------------------------------------

#: Each wake-entry test runs through ``run()``'s written-out loop and
#: through the :class:`Stepwise` reference (the ``sharded`` leg).
_KERNELS = pytest.mark.parametrize(
    "make", [Environment, Stepwise], ids=["flat", "sharded"])


@_KERNELS
def test_interrupted_sleep_leaves_its_entry_behind_and_sleeps_again(make):
    env = make()
    log = []

    def sleeper():
        try:
            yield 1000.0
        except Interrupt:
            log.append(("interrupted", env.now))
        yield 5.0
        log.append(("slept", env.now))
        return "done"

    def interrupter(victim):
        yield 10.0
        victim.interrupt()

    victim = env.process(sleeper())
    env.process(interrupter(victim))
    env.run()
    assert log == [("interrupted", 10.0), ("slept", 15.0)]
    assert victim.value == "done"
    # Two starts, the interrupter's sleep, the interrupt, the second
    # sleep, two exits — and the first sleep's entry, which still fires
    # at its instant and wakes nobody.
    assert env.events_executed == 8
    assert env.now == 1000.0


@pytest.mark.parametrize("racks", [1, 2])
def test_process_killed_while_parked_on_a_doorbell_stays_dead(racks):
    cluster = Cluster.racked(racks, 2 // racks)
    dfi = DfiRuntime(cluster)
    dfi.init_shuffle_flow("f", [Endpoint(0, 0)], [Endpoint(1, 0)],
                          Schema(("key", "uint64")),
                          optimization=Optimization.LATENCY)
    targets, got = [], []

    def target():
        targets.append((yield from dfi.open_target("f", 0)))
        got.append((yield from targets[0].consume()))

    def source():
        src = yield from dfi.open_source("f", 0)
        yield 1000.0
        cluster.node(1).fail_stop()
        yield from src.push((7,))   # lands on the dead target's ring
        yield from src.close()

    parked = cluster.node(1).spawn(target())
    sender = cluster.node(0).spawn(source())
    cluster.run()
    assert got == [] and not parked.is_alive and parked.value is None
    assert sender.ok and not sender.is_alive
    # The write rang the doorbell, which fired the armed (dead) entry.
    doorbell = targets[0]._doorbell
    assert doorbell._event is None and 0 in doorbell.dirty


def test_negative_compute_raises_at_the_call():
    node = Cluster(node_count=1).node(0)
    with pytest.raises(SimulationError, match="negative"):
        node.compute(-1.0)


def test_yield_negative_delay_fails_process():
    env = Environment()

    def bad():
        yield -1.0

    env.process(bad())
    with pytest.raises(SimulationError, match="negative delay"):
        env.run()


def test_float_subclass_delay_sleeps():
    class Nanos(float):
        pass

    env = Environment()

    def proc():
        yield Nanos(2.5)
        return env.now

    p = env.process(proc())
    env.run()
    assert p.value == 2.5


# -- a sleep to an absolute instant ------------------------------------------

@_KERNELS
def test_sleep_until_wakes_exactly_at_when(make):
    # ``when - now`` rounds half-even to an even 2**20, and adding it back
    # rounds the same way: a relative sleep would land one ulp early.
    now, when = 2.0 ** -33, 2.0 ** 20 + 2.0 ** -32
    assert now + (when - now) != when
    env = make()

    def sleeper():
        yield now
        yield env.sleep_until(when)
        return env.now

    proc = env.process(sleeper())
    env.run()
    assert proc.value == when
    # The start, two sleeps and the exit: the entry is the only event
    # a sleep costs.
    assert env.events_executed == 4


@_KERNELS
def test_sleep_until_a_past_instant_resumes_on_the_next_step(make):
    env = make()
    log = []

    def sleeper():
        yield 10.0
        env.event().succeed()   # queued first at this instant
        yield env.sleep_until(3.0)
        log.append(("woke", env.now, env.events_executed))

    env.process(sleeper())
    env.run()
    # Start, the sleep, the event queued before the entry, then the entry.
    assert log == [("woke", 10.0, 4)]


@_KERNELS
def test_sleep_until_interrupted_leaves_its_entry_behind(make):
    env = make()
    log = []

    def sleeper():
        try:
            yield env.sleep_until(1000.0)
        except Interrupt:
            log.append(("interrupted", env.now))
        yield env.sleep_until(15.0)
        log.append(("slept", env.now))

    def interrupter(victim):
        yield 10.0
        victim.interrupt()

    victim = env.process(sleeper())
    env.process(interrupter(victim))
    env.run()
    assert log == [("interrupted", 10.0), ("slept", 15.0)]
    # The first entry still fires at its instant and wakes nobody.
    assert env.now == 1000.0 and env.events_executed == 8


@_KERNELS
def test_sleep_until_killed_stays_dead(make):
    env = make()
    log = []

    def sleeper():
        yield env.sleep_until(1000.0)
        log.append("resumed")

    def killer(victim):
        yield 10.0
        victim.kill("crashed")

    victim = env.process(sleeper())
    env.process(killer(victim))
    env.run()
    assert log == [] and victim.value == "crashed"
    assert env.now == 1000.0   # the entry left behind fired, waking nobody


@_KERNELS
@pytest.mark.parametrize("then", ["sleep_until", "float"])
def test_re_arming_a_queued_entry_fails_the_process(make, then):
    env = make()

    def sleeper():
        env.sleep_until(100.0)   # armed and queued, never yielded
        yield env.sleep_until(200.0) if then == "sleep_until" else 5.0

    proc = env.process(sleeper())
    proc.callbacks.append(lambda event: event.defuse())
    env.run()
    assert not proc.ok
    with pytest.raises(SimulationError, match="re-armed its wake entry"):
        proc.value


def test_sleep_until_outside_a_process_raises():
    with pytest.raises(SimulationError, match="outside"):
        Environment().sleep_until(1.0)


# -- one fire-and-forget primitive --------------------------------------------

def _callbacks_uses(path):
    """Lines of ``path`` that read or assign an ``<expr>.callbacks``
    attribute (code only: comments and strings do not count)."""
    with tokenize.open(path) as source:
        tokens = list(tokenize.generate_tokens(source.readline))
    return [token.start[0] for previous, token in zip(tokens, tokens[1:])
            if token.type == tokenize.NAME and token.string == "callbacks"
            and previous.type == tokenize.OP and previous.string == "."]


def test_only_the_kernel_touches_event_callbacks():
    """No module under ``src/repro`` but ``simnet/kernel.py`` reads or
    appends to an event's ``.callbacks``: code that runs a callback at
    an instant schedules a ``(when, fn, arg)`` action with
    ``Environment.schedule_train``, and a wait is a ``yield``."""
    root = Path(repro.__file__).parent
    kernel = root / "simnet" / "kernel.py"
    assert _callbacks_uses(kernel)   # the scan sees what it looks for
    offenders = [f"{path.relative_to(root)}:{line}"
                 for path in sorted(root.rglob("*.py")) if path != kernel
                 for line in _callbacks_uses(path)]
    assert offenders == []


# -- a process running ahead of the clock -------------------------------------

def _ahead_pair(make, charge=10.0):
    """An environment and a run-ahead process that does what a sleeping
    one does: a 5 ns step, then ``charge`` of CPU with an action behind
    it, a ``now`` read, a timeout and a sleep. Returns (env, logs): each
    side's log holds what it saw by kind, the clock and — where the
    kernel runs it at the clock — the count of events."""
    env = make()
    logs = {"ahead": [], "slept": []}

    def action(side):
        logs[side].append(("post", env.now, env.events_executed))

    def body(side):
        log = logs[side]
        yield 5.0
        if side == "ahead":
            env.run_ahead(charge, action, side)
        else:
            yield charge
            action(side)
        log.append(("now", env.now))
        timer = env.timeout(3.0)
        log.append(("built", env.now))
        yield timer
        log.append(("timer", env.now, env.events_executed))
        yield 2.0
        log.append(("slept", env.now, env.events_executed))

    env.process(body("ahead"))
    env.process(body("slept"))
    return env, logs


@_KERNELS
def test_run_ahead_queues_where_a_sleep_would(make):
    """A process's own clock reads its local instant, and the entries it
    queues there pop at the instants and in the order a process that
    slept through the charge queues them: the two sides interleave
    entry for entry."""
    env, logs = _ahead_pair(make)
    env.run()
    ahead, slept = ({entry[0]: entry[1:] for entry in logs[side]}
                    for side in ("ahead", "slept"))
    instants = {"post": 15.0, "now": 15.0, "built": 15.0, "timer": 18.0,
                "slept": 20.0}
    assert {kind: seen[0] for kind, seen in ahead.items()} == instants
    assert {kind: seen[0] for kind, seen in slept.items()} == instants
    # The ahead side ran its ``now`` read and built its timer before the
    # clock got there, but each of its entries pops one step before its
    # sleeping twin: the two queue in lockstep, the ahead one first.
    assert logs["ahead"][0][0] == "now"
    for kind in ("post", "timer", "slept"):
        assert ahead[kind][1] + 1 == slept[kind][1]
    assert env.now == 20.0 and env.events_executed == 12


@_KERNELS
def test_run_ahead_outside_a_process_raises(make):
    env = make()
    with pytest.raises(SimulationError, match="outside a running process"):
        env.run_ahead(1.0, print, None)


@_KERNELS
def test_interrupting_a_process_ahead_of_the_clock_is_refused(make):
    """Interrupt keeps its semantics for a process at the clock and is
    refused with ``SimulationError`` while the process's links are
    pending: its current yield lies at an instant not reached yet."""
    env = make()
    seen = []

    def runner():
        yield 1.0
        env.run_ahead(10.0, seen.append, "posted")
        try:
            yield 100.0
        except Interrupt as exc:
            seen.append(("interrupted", exc.cause, env.now))

    def interrupter(target):
        yield 5.0           # the link, due at 11, is pending
        with pytest.raises(SimulationError, match="runs ahead"):
            target.interrupt("early")
        seen.append(("refused", env.now))
        yield 10.0          # past the link: at the clock again
        target.interrupt("late")

    target = env.process(runner())
    env.process(interrupter(target))
    env.run()
    assert seen == [("refused", 5.0), "posted", ("interrupted", "late", 15.0)]


@_KERNELS
def test_a_process_killed_ahead_of_the_clock_never_reaches_its_links(make):
    """Killed before its local instant, a process posts nothing there,
    and nothing it queued ahead of the clock is ever queued — as if it
    had been killed asleep in the charge."""
    env = make()
    seen = []

    def runner():
        yield 1.0
        env.run_ahead(10.0, seen.append, "first")
        env.run_ahead(10.0, seen.append, "second")
        env.timeout(1.0)
        env.process(iter_forever())
        yield 50.0

    def iter_forever():
        seen.append("started")
        yield 1.0

    def killer(target):
        yield 15.0          # between the links, due at 11 and 21
        target.kill()

    target = env.process(runner())
    env.process(killer(target))
    env.run()
    assert seen == ["first"]
    # Two starts, the runner's step, the first link (which queued the
    # second, as the first wake of a sleeping runner queues its next
    # sleep), the killer's sleep, the kill's conclusion, the killer's
    # exit and the second link, which pops at 21 and does nothing: the
    # timer and the process built behind it were never queued.
    assert env.events_executed == 8
    assert env.now == 21.0


@_KERNELS
def test_park_resumes_at_the_local_instant_without_an_entry(make):
    env = make()
    seen = []

    def runner():
        from repro.simnet.kernel import PARK
        yield PARK          # at the clock: continues at once
        seen.append(("at clock", env.now, env.events_executed))
        env.run_ahead(7.0, seen.append, "posted")
        yield PARK
        seen.append(("parked", env.now, env.events_executed))

    env.process(runner())
    env.run()
    assert seen == [("at clock", 0.0, 1), "posted", ("parked", 7.0, 2)]
    assert env.events_executed == 3   # start, link, exit


@_KERNELS
def test_sync_primitives_refuse_a_process_ahead_of_the_clock(make):
    """A store, a resource, a barrier and a signal act on their state when
    called, which a process ahead of the clock must not do: each call is
    refused, and after ``PARK`` the same call goes through."""
    from repro.simnet import PARK, Barrier, Resource, Signal, Store
    env = make()
    store, resource = Store(env), Resource(env)
    barrier, signal = Barrier(env, 1), Signal(env)
    calls = [lambda: store.put(1), store.get, resource.acquire,
             barrier.wait, signal.wait, signal.fire]
    refused, done = [], []

    def runner():
        env.run_ahead(4.0, done.append, "posted")
        for call in calls:
            try:
                call()
            except SimulationError as exc:
                refused.append("ahead of the clock" in str(exc))
        yield PARK
        for call in calls:
            call()
        resource.release()
        done.append(env.now)

    env.process(runner())
    env.run()
    assert refused == [True] * len(calls)
    assert done == ["posted", 4.0]


@_KERNELS
def test_run_ahead_stops_at_a_run_until_horizon(make):
    """Under ``run(until=T)`` a process runs ahead only to instants the
    run reaches: a charge that would cross ``T`` is refused
    (``run_ahead`` answers ``False`` and queues nothing), and the caller
    sleeps instead, so none of its code runs past ``T`` before the clock
    gets there. A run without ``until`` has no horizon."""
    from repro.simnet.kernel import PARK
    env = make()
    seen = []

    def runner():
        yield 1.0
        seen.append(env.run_ahead(4.0, seen.append, "first"))     # to 5
        seen.append(env.run_ahead(10.0, seen.append, "second"))   # to 15
        yield 10.0          # the refused charge, slept behind the link
        seen.append(("woke", env.now))
        seen.append(env.run_ahead(10.0, seen.append, "third"))
        yield PARK
        seen.append(("parked", env.now))

    env.process(runner())
    env.run(until=10.0)
    assert seen == [True, False, "first"]
    assert env.now == 10.0
    env.run()
    assert seen == [True, False, "first", ("woke", 15.0), True, "third",
                    ("parked", 25.0)]
