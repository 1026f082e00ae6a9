"""Deterministic discrete-event simulation kernel.

A minimal, dependency-free event loop in the spirit of SimPy: simulated
*processes* are Python generators that ``yield`` events (timeouts, other
processes, synchronization primitives) and are resumed when those events
trigger, or ``yield`` a plain ``float`` delay to sleep. Time is a float
nanosecond counter; ties are broken FIFO by a monotonic sequence number
so runs are bit-for-bit reproducible.

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
from typing import Any, Callable

from repro.common.errors import SimulationError

#: Sentinel for "event has not produced a value yet".
_PENDING = object()

#: Upper bound on recycled MacroEvent records kept by an Environment.
#: One record is live per in-flight train — a segment train, or the
#: one-action train of a timed callback (a READ's request and response,
#: a congestion-plane timer); steady-state flows recycle through a
#: handful, so the cap bounds idle memory while still absorbing bursts
#: (many channels flushing in one instant).
_MACRO_POOL_CAP = 256


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
        self._value = value
        self.env._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception that propagates to waiters."""
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() requires an exception, got {exception!r}")
        self._exception = exception
        self._value = None
        self.env._schedule(self)
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
    :meth:`Environment.schedule_train` instead."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float,
                 value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(env)
        self.delay = delay
        self._value = value
        env._schedule(self, delay)


class MacroEvent(Event):
    """One reusable queue entry that walks a sorted train of
    ``(when, fn, arg)`` actions — the record behind
    :meth:`Environment.schedule_train`.

    Every action fires at its exact absolute timestamp with one live
    queue entry per train, re-queued once per hop under the sequence
    number the train drew when it was scheduled: against every other
    event a hop orders exactly as a ``Timeout`` armed per action at
    post time would (two writes clamped to one loopback arrival instant
    still commit in posting order). The walker state lives in slots on
    a pooled record, and exhausted records recycle through
    ``Environment._macro_pool`` so a steady-state flow allocates
    nothing per flush.
    """

    __slots__ = ("actions", "index", "end", "seq", "_cb")

    def __init__(self, env: "Environment") -> None:
        super().__init__(env)
        #: Sorted ``(when, fn, arg)`` train being walked (``None`` when
        #: the record is idle in the pool).
        self.actions: "list | None" = None
        self.index = 0
        #: The train's length when it was scheduled.
        self.end = 0
        #: Sequence number of the train's first hop (see class docstring).
        self.seq = 0
        # The permanent one-element callback list. step() reads and
        # clears ``callbacks`` before invoking us; _fire restores this
        # same list on every re-arm, so a whole train costs zero list
        # allocations after the record exists.
        self._cb: list = [self._fire]
        self.callbacks = self._cb

    def _fire(self, _event: Event) -> None:
        env = self.env
        actions = self.actions
        index = self.index
        total = self.end
        now = env._now
        while index < total:
            action = actions[index]
            if action[0] > now:
                break
            index += 1
            action[1](action[2])
        if index < total:
            # Re-arm for the next hop (strictly later than now): reset
            # the processed state step() just consumed and restore the
            # permanent callback list.
            self.index = index
            self._processed = False
            self.callbacks = self._cb
            env._requeue(self, actions[index][0])
            return
        self.actions = None
        pool = env._macro_pool
        if len(pool) < _MACRO_POOL_CAP:
            pool.append(self)


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
    interrupted or killed while parked leaves its entry behind, waking
    nobody, and an interrupted one gets a fresh one.
    """

    __slots__ = ("_cb",)

    def __init__(self, process: "Process") -> None:
        super().__init__(process.env)
        self._value = None
        self.callbacks.append(process._resume)
        self._cb: list = self.callbacks
        self.callbacks = None


class Interrupt(Exception):
    """Raised inside a process that another process interrupted."""

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


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
    """

    __slots__ = ("_generator", "_waiting_on", "_wake", "name")

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
        # The entry's first use starts the process on the next step.
        self._wake = wake = WakeEntry(self)
        wake.callbacks = wake._cb
        env._schedule(wake)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield."""
        if self.triggered:
            raise SimulationError("cannot interrupt a finished process")
        waiting = self._waiting_on
        interrupt_event = Event(self.env)
        interrupt_event._defused = True
        interrupt_event._exception = Interrupt(cause)
        interrupt_event._value = None
        if waiting is not None and waiting.callbacks is not None:
            try:
                waiting.callbacks.remove(self._resume)
            except ValueError:
                pass
            if waiting is self._wake:
                # Left behind, waking nobody: the next wait needs another.
                self._wake = WakeEntry(self)
        self._waiting_on = None
        interrupt_event.callbacks = [self._resume]
        self.env._schedule(interrupt_event)

    def kill(self, value: Any = None) -> None:
        """Forcibly terminate the process (fail-stop semantics).

        The generator is closed (``finally`` blocks run, but the process
        body never resumes), any event the process was waiting on is
        detached, and the process event succeeds with ``value`` so that
        waiters observe a terminated — not hung — process. A no-op on an
        already-finished process. Used by the fault plane's node-crash
        injection; cannot kill the currently-running process.
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
        self._generator.close()
        self.succeed(value)

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
                return
            except BaseException as exc:
                env._active_process = None
                self.fail(exc)
                return
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
                    target.callbacks.append(self._resume)
                    self._waiting_on = target
                    env._active_process = None
                    return
                if not isinstance(target, float):
                    env._active_process = None
                    self.fail(SimulationError(
                        f"process {self.name!r} yielded a non-event: "
                        f"{target!r}"))
                    return
                target = float(target)   # a subclass, e.g. numpy.float64
            # A wait only this process can end, on its own entry: a sleep,
            # queued here; the entry itself, which the waker holding it
            # queues when it fires; or the entry ``sleep_until`` armed and
            # queued at an absolute instant, the one armed entry a yield
            # may name.
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
                return
            env._active_process = None
            self.fail(SimulationError(f"process {self.name!r} {problem}"))
            return


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
            return
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


class Environment:
    """The simulation kernel: clock, event queue, and run loop.

    Pending events live in two structures that order by the same
    ``(time, sequence)`` key, so popping the smaller of their heads is
    popping from one heap:

    * timed events sit in one binary heap (``_queue``);
    * zero-delay events (process resumes, ``succeed()`` wakeups — the
      majority) skip the sift into a FIFO deque (``_immediate``), whose
      keys are non-decreasing by construction.

    A wait only one process can end — a yielded ``float`` delay (CPU
    charges, back-off sleeps), a :meth:`sleep_until` deadline (a batch's
    merged CPU charge) or a single-waiter waker (the doorbell's polled
    wait) — is queued as that process's own :class:`WakeEntry`, re-armed
    in place. A callback that nobody waits on (a write's commits, a
    READ's response, a completion, a congestion-plane timer) is a
    ``(when, fn, arg)`` action of :meth:`schedule_train`, walked by a
    pooled :class:`MacroEvent`.
    """

    __slots__ = ("_now", "_queue", "_immediate", "_sequence",
                 "_active_process", "_macro_pool", "events_executed")

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        #: Timed events, a heap on ``(time, sequence)``.
        self._queue: list[tuple[float, int, Event]] = []
        #: Zero-delay events in FIFO order (times are non-decreasing).
        self._immediate: deque[tuple[float, int, Event]] = deque()
        self._sequence = 0
        self._active_process: Process | None = None
        self._macro_pool: list[MacroEvent] = []
        #: Events executed so far. Pure read-time observability — never
        #: consulted by the simulation.
        self.events_executed = 0

    @property
    def now(self) -> float:
        """Current simulated time in ns (hot obs log sites read ``_now``)."""
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
        ``(when, fn, arg)`` actions, each ``fn(arg)`` at its exact
        absolute timestamp, using a *single* in-flight pooled
        :class:`MacroEvent` that walks the train instead of one queued
        event per action.

        ``actions`` must be sorted by non-decreasing ``when`` and must
        not grow once handed over (the walk stops at its length at this
        call). An instant at or before ``now`` runs on the next step. A
        train of segment commits costs one live queue entry at any
        moment, yet every action still fires at the same ``(time, ...)``
        key a per-action ``Timeout`` would have used; a timed callback
        is a train of one, scheduled where its timer would have been
        armed, at ``now + delay``. The ``(when, fn, arg)`` record shape
        lets callers share one function across the train and keep
        per-action state in a plain tuple instead of a closure.
        """
        if not actions:
            return
        pool = self._macro_pool
        if pool:
            macro = pool.pop()
            macro._value = _PENDING
            macro._exception = None
            macro._defused = False
            macro._scheduled = False
            macro._processed = False
            macro.callbacks = macro._cb
        else:
            macro = MacroEvent(self)
        macro.actions = actions
        macro.index = 0
        macro.end = len(actions)
        self._schedule_abs(macro, actions[0][0])
        macro.seq = self._sequence

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
        if event._scheduled:
            raise SimulationError(f"{event!r} already scheduled")
        event._scheduled = True
        self._sequence += 1
        if delay == 0.0:
            self._immediate.append((self._now, self._sequence, event))
        else:
            heapq.heappush(self._queue,
                           (self._now + delay, self._sequence, event))

    def _schedule_abs(self, event: Event, when: float) -> None:
        """Schedule ``event`` at the absolute time ``when`` (clamped to
        ``now``). Used by the batch-schedule API, whose action timestamps
        are pre-computed absolutes that must not be round-tripped through
        a relative delay."""
        if event._scheduled:
            raise SimulationError(f"{event!r} already scheduled")
        event._scheduled = True
        self._sequence += 1
        if when <= self._now:
            self._immediate.append((self._now, self._sequence, event))
        else:
            heapq.heappush(self._queue, (when, self._sequence, event))

    def cancel(self, timer: Timeout) -> None:
        """Withdraw a pending ``timer`` from the timed queue: it never
        fires, and the clock never reaches its instant on its account.
        Finding it is linear in the queue, so it is for rare calls — a
        guard timer beaten by the wake it guarded — not for hot paths;
        the queue's last entry takes its place and one sift from there
        restores the heap. A timer that is not waiting there (already
        fired, or zero-delay) raises."""
        queue = self._queue
        for index, entry in enumerate(queue):
            if entry[2] is timer:
                last = queue.pop()
                if index < len(queue):
                    queue[index] = last
                    if index and last < queue[(index - 1) >> 1]:
                        heapq._siftdown(queue, 0, index)  # toward the root
                    else:
                        heapq._siftup(queue, index)  # toward the leaves
                return
        raise SimulationError(f"{timer!r} is not on the timed queue")

    def _requeue(self, macro: MacroEvent, when: float) -> None:
        """Queue the next hop of a walking ``macro`` at ``when`` (past
        ``now``) under the sequence number of its first hop."""
        heapq.heappush(self._queue, (when, macro.seq, macro))

    def _pop_next(self) -> tuple[float, int, Event]:
        """Pop the globally next entry. Sequence numbers are unique, so
        comparing the two heads as tuples never reaches the event."""
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
        """Process the single next event on the queue."""
        when, _seq, event = self._pop_next()
        self._now = when
        self.events_executed += 1
        callbacks = event.callbacks
        event.callbacks = None
        event._processed = True
        for callback in callbacks:
            callback(event)
        if event._exception is not None and not event._defused:
            raise event._exception

    def _run_all(self) -> None:
        """Run until nothing is pending: :meth:`step` in a loop, with the
        pop and the dispatch written out so that an event costs no frame
        of the kernel's own."""
        queue = self._queue
        immediate = self._immediate
        popleft = immediate.popleft
        heappop = heapq.heappop
        while True:
            if immediate:
                if queue and queue[0] < immediate[0]:
                    when, _seq, event = heappop(queue)
                else:
                    when, _seq, event = popleft()
            elif queue:
                when, _seq, event = heappop(queue)
            else:
                return
            self._now = when
            self.events_executed += 1
            callbacks = event.callbacks
            event.callbacks = None
            event._processed = True
            for callback in callbacks:
                callback(event)
            if event._exception is not None and not event._defused:
                raise event._exception

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
        while queue or immediate:
            if stop_event is not None and stop_event._processed:
                return stop_event.value
            if stop_time is not None and self.peek() > stop_time:
                self._now = stop_time
                return None
            step()
        if stop_event is not None:
            if stop_event._processed:
                return stop_event.value
            raise SimulationError(
                "run() until an event, but the queue drained before the "
                "event triggered (deadlock?)")
        self._now = stop_time
        return None

    def peek(self) -> float:
        """Time of the next queued event, or ``inf`` if the queue is empty."""
        queue = self._queue
        if self._immediate:
            when = self._immediate[0][0]
            if not queue or when <= queue[0][0]:
                return when
        return queue[0][0] if queue else float("inf")
