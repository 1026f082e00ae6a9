"""Deterministic discrete-event simulation kernel.

A minimal, dependency-free event loop in the spirit of SimPy: simulated
*processes* are Python generators that ``yield`` events (timeouts, other
processes, synchronization primitives) and are resumed when those events
trigger, or ``yield`` a plain ``float`` delay to sleep. A callback that
nobody waits on is a ``(when, fn, arg)`` action, queued as itself by
``Environment.schedule_train`` and called in place. Time is a float
nanosecond counter; ties are broken FIFO by a monotonic sequence number
so runs are bit-for-bit reproducible. A process may also run ahead of
the clock (:meth:`Environment.run_ahead`): it charges itself CPU time and
carries on at its own local instant while the kernel replays what it
queues there, in order, when the clock gets there.

Example::

    env = Environment()

    def worker(env):
        yield env.timeout(10)
        return "done"

    proc = env.process(worker(env))
    env.run()
    assert env.now == 10 and proc.value == "done"
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Generator, Iterable
from operator import itemgetter
from typing import Any, Callable

from repro.common.errors import SimulationError

#: Sentinel for "event has not produced a value yet".
_PENDING = object()

#: The item of a timed-queue entry ``(when, seq, item)``.
_ITEM_OF = itemgetter(2)

_heappush = heapq.heappush


class _Park:
    __slots__ = ()

    def __repr__(self) -> str:
        return "PARK"


#: Yielded by library code before it reads state that other processes
#: write: a process running ahead of the clock resumes, with no queue
#: entry of its own, once the clock reaches its local instant (its last
#: link has run); any other process continues at once.
PARK = _Park()

#: ``Process._parked`` of a process whose held wake entry a waker fired
#: while its links were pending.
_RUNG = _Park()


class Event:
    """A one-shot occurrence in simulated time.

    Events move through three states: *pending* (created), *triggered*
    (scheduled on the event queue with a value or an exception), and
    *processed* (callbacks have run). Processes wait on events by yielding
    them.
    """

    __slots__ = ("env", "callbacks", "_value", "_exception", "_defused",
                 "_scheduled", "_processed")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: list[Callable[[Event], None]] | None = []
        self._value: Any = _PENDING
        self._exception: BaseException | None = None
        self._defused = False
        self._scheduled = False
        self._processed = False

    @property
    def triggered(self) -> bool:
        """True once the event has a value (or exception) scheduled."""
        return self._value is not _PENDING or self._exception is not None

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event triggered successfully (no exception)."""
        if not self.triggered:
            raise SimulationError("event has not been triggered yet")
        return self._exception is None

    @property
    def value(self) -> Any:
        """The event's result value (raises the failure exception if any)."""
        if self._exception is not None:
            raise self._exception
        if self._value is _PENDING:
            raise SimulationError("event has no value yet")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        env = self.env
        if env._ahead is not None:
            env._defer(self.succeed, (value,))
            return self
        self._value = value
        env._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception that propagates to waiters."""
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() requires an exception, got {exception!r}")
        env = self.env
        if env._ahead is not None:
            env._defer(self.fail, (exception,))
            return self
        self._exception = exception
        self._value = None
        env._schedule(self)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so the kernel will not re-raise."""
        self._defused = True

    def __repr__(self) -> str:
        state = ("processed" if self._processed
                 else "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """Event that triggers automatically after a fixed delay — the event a
    process yields to wait. Code that only needs a callback run at an
    instant schedules a ``(when, fn, arg)`` action with
    :meth:`Environment.schedule_train` instead, which queues the action
    itself and builds no event."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float,
                 value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(env)
        self.delay = delay
        self._value = value
        env._schedule(self, delay)


class WakeEntry(Event):
    """A process's own reusable queue entry: the event behind every wait
    that only one process can end.

    Its permanent one-element callback list holds the process's
    ``_resume``, so re-arming it builds no event, no list and no bound
    method. It starts the process; after that it is queued one of three
    ways: the process yields a ``float`` delay (the kernel queues it at
    ``now + delay``); the process calls :meth:`Environment.sleep_until`,
    which queues it at an absolute instant, and yields it; or the process
    yields the entry itself, read off ``Process._wake`` by a waker that
    resumes only that process and queues the entry when it fires (the
    doorbell's polled wait). An entry is *free* while ``callbacks`` is
    ``None`` — fresh, or fired — and is armed again only then. A process
    killed while parked leaves its entry behind, waking nobody.
    """

    __slots__ = ("_cb",)

    def __init__(self, process: "Process") -> None:
        super().__init__(process.env)
        self._value = None
        self.callbacks.append(process._resume)
        self._cb: list = self.callbacks
        self.callbacks = None


class Process(Event):
    """A running simulated activity driven by a generator.

    The process *is itself an event* that triggers when the generator
    returns (value = the generator's return value) or raises.

    The generator may yield an :class:`Event` (resumed with its value
    once it is processed) or a non-negative ``float`` delay in ns, a
    sleep: the kernel queues the process's :class:`WakeEntry` at
    ``now + delay``, drawing the sequence number at the yield, exactly
    where a :class:`Timeout` built and yielded there would draw it.
    :meth:`Environment.sleep_until` queues the same entry at an absolute
    instant for the process to yield. Internal single-waiter wakers hand
    the process its entry (``_wake``) to yield instead, and queue it
    themselves.

    A process that ran ahead of the clock (:meth:`Environment.run_ahead`)
    keeps its last pending link in ``_ahead`` until that link has run; a
    waker that finds ``_ahead`` set on the process whose wake entry it
    holds calls :meth:`_ring_ahead` instead of queueing the entry. What
    the process yielded that only the clock's arrival may resolve waits
    in ``_parked``.
    """

    __slots__ = ("_generator", "_waiting_on", "_wake", "name", "_ahead",
                 "_parked", "_link")

    def __init__(self, env: "Environment",
                 generator: Generator[Event, Any, Any],
                 name: str | None = None) -> None:
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"process target must be a generator, got {generator!r}")
        super().__init__(env)
        self._generator = generator
        self._waiting_on: Event | None = None
        self.name = name or getattr(generator, "__name__", "process")
        self._ahead: _Link | None = None
        self._parked: Any = None
        #: The first link of each chain: one is queued at a time, and a
        #: chain starts only once the last one ended.
        self._link = link = _Link()
        link.process = self
        # The entry's first use starts the process on the next step.
        self._wake = wake = WakeEntry(self)
        wake.callbacks = wake._cb
        env._schedule(wake)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def kill(self, value: Any = None) -> None:
        """Forcibly terminate the process (fail-stop semantics).

        The generator is closed (``finally`` blocks run, but the process
        body never resumes), any event the process was waiting on is
        detached, and the process event succeeds with ``value`` so that
        waiters observe a terminated — not hung — process. A no-op on an
        already-finished process. Used by the fault plane's node-crash
        injection; cannot kill the currently-running process. A process
        killed while it ran ahead of the clock never reached its pending
        links: they post nothing, and what it queued or parked behind
        them is dropped (``_ahead`` stays set, so a waker it armed stays
        silent too).
        """
        if self.triggered:
            return
        if self.env._active_process is self:
            raise SimulationError("a process cannot kill itself")
        waiting = self._waiting_on
        if waiting is not None and waiting.callbacks is not None:
            try:
                waiting.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._waiting_on = None
        self._parked = None
        self._generator.close()
        self.succeed(value)

    def _ring_ahead(self) -> None:
        """A waker fired the wake entry this process holds while its links
        are pending: the write it waits for lands before its local
        instant, where it would have looked before waiting, so it
        resumes when its last link has run, with no queue entry."""
        if self._value is _PENDING:
            self._parked = _RUNG

    def _resume(self, event: Event) -> None:
        if self._value is not _PENDING or self._exception is not None:
            # Killed while an event (e.g. its start) still held this
            # callback: the wakeup is void.
            return
        self._waiting_on = None
        env = self.env
        env._active_process = self
        while True:
            try:
                if event._exception is None:
                    target = self._generator.send(event._value)
                else:
                    event._defused = True
                    target = self._generator.throw(event._exception)
            except StopIteration as stop:
                env._active_process = None
                self.succeed(stop.value)
                break
            except BaseException as exc:
                env._active_process = None
                self.fail(exc)
                break
            if target.__class__ is not float and target is not self._wake:
                if isinstance(target, Event):
                    if target._processed:
                        # Already concluded: continue immediately with its
                        # outcome.
                        event = target
                        continue
                    if target.callbacks is None:
                        raise SimulationError(
                            f"event {target!r} is being processed; "
                            f"cannot wait on it")
                    env._active_process = None
                    if env._ahead is None:
                        target.callbacks.append(self._resume)
                        self._waiting_on = target
                        return
                    # Ahead of the clock: waited on (or, concluded by
                    # then, continued with) once the last link has run.
                    self._parked = target
                    break
                if target is PARK:
                    if env._ahead is None:
                        event = self._wake  # carries no outcome
                        continue
                    env._active_process = None
                    self._parked = target
                    break
                if not isinstance(target, float):
                    env._active_process = None
                    self.fail(SimulationError(
                        f"process {self.name!r} yielded a non-event: "
                        f"{target!r}"))
                    break
                target = float(target)   # a subclass, e.g. numpy.float64
            # A wait only this process can end, on its own entry: a sleep,
            # queued here (ahead of the clock: by the last link's action);
            # the entry itself, which the waker holding it queues when it
            # fires; or the entry ``sleep_until`` armed and queued at an
            # absolute instant, the one armed entry a yield may name.
            wake = self._wake
            if target is not wake and target < 0.0:
                problem = f"yielded a negative delay: {target!r}"
            elif wake.callbacks is not None and target is not wake:
                problem = "re-armed its wake entry before it fired"
            else:
                if wake.callbacks is None:
                    wake.callbacks = wake._cb
                    wake._processed = False
                    wake._scheduled = False
                    if target is not wake:
                        env._schedule(wake, target)
                self._waiting_on = wake
                env._active_process = None
                if env._ahead is None:
                    return
                break
            env._active_process = None
            self.fail(SimulationError(f"process {self.name!r} {problem}"))
            break
        if env._ahead is not None:
            # It ran ahead of the clock and has stopped: the clock reads
            # the kernel's own instant again.
            env._ahead = None
            env._now = env._clock


class Condition(Event):
    """Base class for :class:`AllOf` / :class:`AnyOf` composite events."""

    __slots__ = ("events", "_remaining", "_indices")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self.events = list(events)
        # id -> first construction index: O(1) lookup in _check (and the
        # first index is the right answer when an event appears twice).
        self._indices: dict[int, int] = {}
        for index, event in enumerate(self.events):
            if event.env is not env:
                raise SimulationError("events belong to different kernels")
            self._indices.setdefault(id(event), index)
        self._remaining = len(self.events)
        if not self.events:
            self.succeed(self._collect())
        elif env._ahead is not None:
            # Built ahead of the clock: it watches its events from there.
            env._defer(self._watch, ())
        else:
            for event in self.events:
                if event._processed:
                    self._check(event)
                else:
                    event.callbacks.append(self._check)

    def _watch(self) -> None:
        for event in self.events:
            if event._processed:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _collect(self) -> Any:
        raise NotImplementedError

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(Condition):
    """Triggers once all child events have triggered; value is their
    values in construction order."""

    __slots__ = ()

    def _collect(self) -> list[Any]:
        return [event.value for event in self.events]

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if event._exception is not None:
            event.defuse()
            self.fail(event._exception)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(self._collect())


class AnyOf(Condition):
    """Triggers as soon as one child triggers; value is ``(index, value)``
    of the first child to do so."""

    __slots__ = ()

    def _collect(self) -> Any:
        for index, event in enumerate(self.events):
            if event.triggered:
                return (index, event.value)
        raise SimulationError("AnyOf triggered without a triggered child")

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if event._exception is not None:
            event.defuse()
            self.fail(event._exception)
            return
        self.succeed((self._indices[id(event)], event._value))


class _Link:
    """One link of a process's run-ahead chain: the action ``fn(arg)``
    at the process's local instant, queued as a queue entry of its own
    (``when`` holds the instant of a link that a link before it
    queues). ``after`` lists, in program order, what the process queued
    at that instant before it ran further ahead — ``(fn, args)`` calls,
    and last the next link — or is ``None``."""

    __slots__ = ("when", "fn", "arg", "process", "after")

    #: What the run loops test an entry's item by: an event on the queue
    #: always holds its callback list.
    callbacks = None


class Environment:
    """The simulation kernel: clock, event queue, and run loop.

    Pending entries ``(time, sequence, item)`` live in two structures
    that order by the same ``(time, sequence)`` key, so popping the
    smaller of their heads is popping from one heap:

    * timed entries sit in one binary heap (``_queue``);
    * zero-delay entries (process resumes, ``succeed()`` wakeups — the
      majority) skip the sift into a FIFO deque (``_immediate``), whose
      keys are non-decreasing by construction.

    An entry's ``item`` is an :class:`Event`, whose callbacks run when it
    is popped, or a run of :meth:`schedule_train` actions — one
    ``(when, fn, arg)`` tuple, or a list of them — each called as
    ``fn(arg)`` in place.

    A wait only one process can end — a yielded ``float`` delay (CPU
    charges, back-off sleeps), a :meth:`sleep_until` deadline (a batch's
    merged CPU charge) or a single-waiter waker (the doorbell's polled
    wait) — is queued as that process's own :class:`WakeEntry`, re-armed
    in place. A callback that nobody waits on (a write's commits, a
    READ's response, a completion, a fault transition) is a
    ``(when, fn, arg)`` action of :meth:`schedule_train`, queued as
    itself.

    A process may run ahead of the clock (:meth:`run_ahead`). While it
    does, ``_ahead`` names it, ``_now`` reads its local instant and
    ``_clock`` keeps the kernel's own, and every entry it queues is
    deferred to its last link's action, which queues it in program
    order at the instant the process queued it. Under :meth:`run`
    ``until`` a time no process runs ahead past it (``_horizon``).
    """

    __slots__ = ("_now", "_queue", "_immediate", "_sequence",
                 "_active_process", "events_executed", "_ahead", "_clock",
                 "_horizon")

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        #: Timed entries, a heap on ``(time, sequence)``.
        self._queue: list[tuple[float, int, Any]] = []
        #: Zero-delay entries in FIFO order (times are non-decreasing).
        self._immediate: deque[tuple[float, int, Any]] = deque()
        self._sequence = 0
        self._active_process: Process | None = None
        #: Entries popped so far. Pure read-time observability — never
        #: consulted by the simulation.
        self.events_executed = 0
        #: The process running ahead of the clock right now, if any.
        self._ahead: Process | None = None
        #: The kernel's instant while ``_ahead`` runs.
        self._clock = self._now
        #: The ``until`` of the :meth:`run` under way, if it is a time: no
        #: process runs ahead past it.
        self._horizon = float("inf")

    @property
    def now(self) -> float:
        """Current simulated time in ns (hot obs log sites read ``_now``);
        inside a process running ahead of the clock, its local instant."""
        return self._now

    @property
    def active_process(self) -> Process | None:
        """The process currently being resumed, if any."""
        return self._active_process

    # -- event construction ---------------------------------------------
    def event(self) -> Event:
        """Create a new untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers after ``delay`` ns."""
        return Timeout(self, delay, value)

    def sleep_until(self, when: float) -> WakeEntry:
        """Queue the running process's own :class:`WakeEntry` at the
        absolute instant ``when`` and return it; the process yields it at
        once (``yield env.sleep_until(when)``) and resumes at ``when``
        exactly — a deadline built as ``now + d1 + d2 + ...`` lands on
        the float that separate sleeps of ``d1``, ``d2``, ... reach, which
        the relative ``when - now`` can miss by one ulp. An instant at or
        before ``now`` resumes on the next step. Builds no event: the cost
        of a ``float`` yield, queued through :meth:`_schedule_abs`. An
        entry still queued cannot be armed again: that raises here, in
        the process, and fails it.
        """
        process = self._active_process
        if process is None:
            raise SimulationError("sleep_until outside a running process")
        wake = process._wake
        if wake.callbacks is not None:
            raise SimulationError(f"process {process.name!r} re-armed its "
                                  f"wake entry before it fired")
        wake.callbacks = wake._cb
        wake._processed = False
        wake._scheduled = False
        self._schedule_abs(wake, when)
        return wake

    def schedule_train(self, actions) -> None:
        """The kernel's one fire-and-forget primitive: run a train of
        ``(when, fn, arg)`` tuples, each ``fn(arg)`` at its exact
        absolute timestamp, with no event built for any of them.

        ``actions`` must be sorted by non-decreasing ``when``. Each run
        of equal-instant actions is queued as one entry of its own — the
        action itself, or a list copied from the train — so the train
        may be reused once this returns. Actions at or before ``now``
        form one run that goes on the next step. The entries draw
        consecutive sequence numbers, so against every other entry each
        run orders exactly as a ``Timeout`` armed per action here would
        (two writes clamped to one loopback arrival instant still commit
        in posting order), and a train costs one queue pop per distinct
        instant. A timed callback is a train of one, scheduled where its
        timer would have been armed, at ``now + delay``. The
        ``(when, fn, arg)`` record shape lets callers share one function
        across the train and keep per-action state in a plain tuple
        instead of a closure.
        """
        if self._ahead is not None:
            self._defer(self.schedule_train, (tuple(actions),))
            return
        now = self._now
        seq = self._sequence
        at = now
        run = None
        for action in actions:
            when = action[0]
            if when > at:
                if run is not None:
                    seq += 1
                    if at == now:
                        self._immediate.append((now, seq, run))
                    else:
                        heapq.heappush(self._queue, (at, seq, run))
                at = when
                run = action
            elif run is None:
                run = action
            elif run.__class__ is tuple:
                run = [run, action]
            else:
                run.append(action)
        if run is not None:
            seq += 1
            if at == now:
                self._immediate.append((now, seq, run))
            else:
                heapq.heappush(self._queue, (at, seq, run))
            self._sequence = seq

    def run_ahead(self, delay: float, fn: Callable[[Any], None],
                  arg: Any) -> bool:
        """Charge the running process ``delay`` of CPU time and queue
        ``fn(arg)`` at the instant it reaches, without suspending it: the
        process carries on at that local instant, ahead of the clock.
        Returns ``False``, doing nothing, when that instant lies past the
        horizon of a :meth:`run` ``until`` a time: the caller sleeps
        instead, so no code of the process runs at an instant the run
        does not reach.

        It is what ``yield delay`` followed by ``fn(arg)`` would do, at
        the cost of one queue entry and no resume. The first link of a
        process's chain is queued here, drawing its sequence number
        where the sleep's wake entry would; each later link, and every
        entry the process queues while it runs ahead (a ``Timeout``, a
        ``succeed()``, a sleep, a train, a started process), is queued
        by the action of the link before it, in program order — each
        draws its number where a sleeping process would. ``now`` reads
        the local instant. The process's next yield resolves when its
        last link has run: a sleep or a wake entry it holds is armed at
        once (a waker that fires the held entry early makes it resume
        there), an event is waited on from there, and :data:`PARK`
        resumes it there. A link of a process killed before the link's
        instant does nothing.
        """
        when = self._now + delay
        if when > self._horizon:
            return False
        process = self._ahead
        if process is None:
            process = self._active_process
            if process is None:
                raise SimulationError("run_ahead outside a running process")
            link = process._link
            link.fn = fn
            link.arg = arg
            link.after = None
            self._clock = self._now
            self._ahead = process
            # Links go on the heap even at ``now``: it orders them with
            # ``_immediate`` by the same ``(time, sequence)`` key.
            self._sequence = seq = self._sequence + 1
            _heappush(self._queue, (when, seq, link))
        else:
            link = _Link()
            link.fn = fn
            link.arg = arg
            link.after = None
            link.process = process
            link.when = when
            tail = process._ahead
            if tail.after is None:
                tail.after = [link]
            else:
                tail.after.append(link)
        self._now = when
        process._ahead = link
        return True

    def _defer(self, fn: Callable, args: tuple) -> None:
        """Leave ``fn(*args)`` to the running-ahead process's last link."""
        tail = self._ahead._ahead
        if tail.after is None:
            tail.after = [(fn, args)]
        else:
            tail.after.append((fn, args))

    def _advance(self, link: _Link) -> None:
        """After ``link``'s action: what its process queued at that
        instant, then its next link — or, past its last one, the
        resolution of its parked yield."""
        process = link.process
        after = link.after
        if after is not None:
            for op in after:
                if op.__class__ is _Link:
                    self._sequence = seq = self._sequence + 1
                    _heappush(self._queue, (op.when, seq, op))
                    return
                op[0](*op[1])
        process._ahead = None
        target = process._parked
        if target is None:
            return
        process._parked = None
        if target is _RUNG:
            # The held wake entry fired early: it fires here instead.
            wake = process._wake
            wake.callbacks = None
            wake._processed = True
            process._resume(wake)
        elif target is PARK:
            process._resume(process._wake)
        elif target._processed:
            process._resume(target)
        else:
            target.callbacks.append(process._resume)
            process._waiting_on = target

    def process(self, generator: Generator[Event, Any, Any],
                name: str | None = None) -> Process:
        """Start a new process driving ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event triggering when all ``events`` have triggered."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event triggering when any one of ``events`` triggers."""
        return AnyOf(self, events)

    # -- scheduling -------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        # Ahead of the clock the call itself is replayed by the last link,
        # which marks the event scheduled (a second schedule of it before
        # then raises there).
        if event._scheduled:
            raise SimulationError(f"{event!r} already scheduled")
        if self._ahead is not None:
            self._defer(self._schedule, (event, delay))
            return
        event._scheduled = True
        self._sequence += 1
        if delay == 0.0:
            self._immediate.append((self._now, self._sequence, event))
        else:
            heapq.heappush(self._queue,
                           (self._now + delay, self._sequence, event))

    def _schedule_abs(self, event: Event, when: float) -> None:
        """Schedule ``event`` at the absolute time ``when`` (clamped to
        ``now``). Used by :meth:`sleep_until`, whose deadlines are
        pre-computed absolutes that must not be round-tripped through a
        relative delay. Ahead of the clock, replayed as
        :meth:`_schedule` is."""
        if event._scheduled:
            raise SimulationError(f"{event!r} already scheduled")
        if self._ahead is not None:
            self._defer(self._schedule_abs, (event, when))
            return
        event._scheduled = True
        self._sequence += 1
        if when <= self._now:
            self._immediate.append((self._now, self._sequence, event))
        else:
            heapq.heappush(self._queue, (when, self._sequence, event))

    def cancel(self, timer: Timeout) -> None:
        """Withdraw a pending ``timer`` from the timed queue: it never
        fires, and the clock never reaches its instant on its account.
        Finding it is a search of the queue, linear but in C (an event
        compares equal only to itself), so it is for rare calls — a
        guard timer beaten by the wake it guarded — not for hot paths;
        the queue's last entry takes its place and one sift from there
        restores the heap. A timer that is not waiting there (already
        fired, or zero-delay) raises."""
        if self._ahead is not None:
            self._defer(self.cancel, (timer,))
            return
        queue = self._queue
        try:
            index = list(map(_ITEM_OF, queue)).index(timer)
        except ValueError:
            raise SimulationError(
                f"{timer!r} is not on the timed queue") from None
        last = queue.pop()
        if last[2] is not timer:
            queue[index] = last
            if index and last < queue[(index - 1) >> 1]:
                heapq._siftdown(queue, 0, index)  # toward the root
            else:
                heapq._siftup(queue, index)  # toward the leaves

    def _pop_next(self) -> tuple[float, int, Any]:
        """Pop the globally next entry. Sequence numbers are unique, so
        comparing the two heads as tuples never reaches the item."""
        immediate = self._immediate
        queue = self._queue
        if immediate:
            if queue and queue[0] < immediate[0]:
                return heapq.heappop(queue)
            return immediate.popleft()
        if queue:
            return heapq.heappop(queue)
        raise SimulationError("event queue is empty")

    def step(self) -> None:
        """Process the single next entry on the queue: run its actions,
        or its event's callbacks."""
        when, _seq, item = self._pop_next()
        self._now = when
        self.events_executed += 1
        if item.__class__ is tuple:
            item[1](item[2])
            return
        if item.__class__ is list:
            for action in item:
                action[1](action[2])
            return
        callbacks = item.callbacks
        if callbacks is None:
            # A link (a queued event always holds its callback list).
            process = item.process
            if process._value is _PENDING:
                item.fn(item.arg)
                self._advance(item)
            return
        item.callbacks = None
        item._processed = True
        for callback in callbacks:
            callback(item)
        if item._exception is not None and not item._defused:
            raise item._exception

    def _run_all(self) -> None:
        """Run until nothing is pending: :meth:`step` in a loop, with the
        pop and the dispatch written out so that an entry costs no frame
        of the kernel's own."""
        queue = self._queue
        immediate = self._immediate
        popleft = immediate.popleft
        heappop = heapq.heappop
        while True:
            if immediate:
                if queue and queue[0] < immediate[0]:
                    when, _seq, item = heappop(queue)
                else:
                    when, _seq, item = popleft()
            elif queue:
                when, _seq, item = heappop(queue)
            else:
                return
            self._now = when
            self.events_executed += 1
            if item.__class__ is tuple:
                item[1](item[2])
                continue
            if item.__class__ is list:
                for action in item:
                    action[1](action[2])
                continue
            callbacks = item.callbacks
            if callbacks is None:
                # A link (a queued event always holds its callback list).
                process = item.process
                if process._value is _PENDING:
                    item.fn(item.arg)
                    if item.after is None and process._parked is None:
                        process._ahead = None   # the chain's end
                    else:
                        self._advance(item)
                continue
            item.callbacks = None
            item._processed = True
            for callback in callbacks:
                callback(item)
            if item._exception is not None and not item._defused:
                raise item._exception

    def run(self, until: float | Event | None = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (drain the queue), a time (stop when the
        clock would pass it), or an :class:`Event` (stop when it is
        processed and return its value).
        """
        if until is None:
            self._run_all()
            return None
        stop_event: Event | None = None
        stop_time: float | None = None
        if isinstance(until, Event):
            stop_event = until
        else:
            stop_time = float(until)
            if stop_time < self._now:
                raise SimulationError(
                    f"until ({stop_time}) lies in the past (now={self._now})")
        queue = self._queue
        immediate = self._immediate
        step = self.step
        if stop_time is not None:
            self._horizon = stop_time
        try:
            while queue or immediate:
                if stop_event is not None and stop_event._processed:
                    return stop_event.value
                if stop_time is not None and self.peek() > stop_time:
                    self._now = stop_time
                    return None
                step()
        finally:
            self._horizon = float("inf")
        if stop_event is not None:
            if stop_event._processed:
                return stop_event.value
            raise SimulationError(
                "run() until an event, but the queue drained before the "
                "event triggered (deadlock?)")
        self._now = stop_time
        return None

    def peek(self) -> float:
        """Time of the next queued entry, or ``inf`` if the queue is empty."""
        queue = self._queue
        if self._immediate:
            when = self._immediate[0][0]
            if not queue or when <= queue[0][0]:
                return when
        return queue[0][0] if queue else float("inf")
