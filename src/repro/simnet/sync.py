"""Synchronization primitives for simulated processes.

These mirror the classic SimPy resources but stay intentionally small:

* :class:`Store` — FIFO queue of items with optional capacity;
* :class:`Resource` — counted resource with FIFO acquire/release;
* :class:`Barrier` — reusable rendezvous for N parties;
* :class:`Signal` — broadcast event that many processes can wait on.

Each acts on its state when called, so a process running ahead of the
clock (``Environment.run_ahead``) is refused with
:class:`SimulationError`: it yields ``PARK`` first, which brings it to
the clock.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.common.errors import SimulationError
from repro.simnet.kernel import Environment, Event


def _ahead_of_clock(what: str) -> SimulationError:
    return SimulationError(
        f"{what} called ahead of the clock; yield PARK first")


class Store:
    """FIFO item queue: producers ``yield store.put(x)``, consumers
    ``item = yield store.get()``."""

    def __init__(self, env: Environment, capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise SimulationError("store capacity must be positive")
        self.env = env
        self.capacity = capacity
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self._putters: deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple[Any, ...]:
        """Snapshot of queued items (for inspection/testing)."""
        return tuple(self._items)

    def put(self, item: Any) -> Event:
        """Return an event that triggers once ``item`` is enqueued."""
        if self.env._ahead is not None:
            raise _ahead_of_clock("Store.put")
        event = Event(self.env)
        if len(self._items) < self.capacity:
            self._items.append(item)
            event.succeed()
            self._wake_getters()
        else:
            self._putters.append((event, item))
        return event

    def get(self) -> Event:
        """Return an event that triggers with the next item."""
        if self.env._ahead is not None:
            raise _ahead_of_clock("Store.get")
        event = Event(self.env)
        if self._items:
            event.succeed(self._items.popleft())
            self._admit_putters()
        else:
            self._getters.append(event)
        return event

    def _wake_getters(self) -> None:
        while self._getters and self._items:
            getter = self._getters.popleft()
            getter.succeed(self._items.popleft())

    def _admit_putters(self) -> None:
        while self._putters and len(self._items) < self.capacity:
            putter, item = self._putters.popleft()
            self._items.append(item)
            putter.succeed()
        self._wake_getters()


class Resource:
    """Counted resource with FIFO semantics.

    Usage::

        yield resource.acquire()
        try:
            ...
        finally:
            resource.release()
    """

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiters: deque[Event] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of processes currently waiting to acquire."""
        return len(self._waiters)

    def acquire(self) -> Event:
        """Return an event that triggers when a slot is granted."""
        if self.env._ahead is not None:
            raise _ahead_of_clock("Resource.acquire")
        event = Event(self.env)
        if self._in_use < self.capacity:
            self._in_use += 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Release one held slot, waking the next waiter if any."""
        if self.env._ahead is not None:
            raise _ahead_of_clock("Resource.release")
        if self._in_use <= 0:
            raise SimulationError("release() without matching acquire()")
        if self._waiters:
            waiter = self._waiters.popleft()
            waiter.succeed()
        else:
            self._in_use -= 1


class Barrier:
    """Reusable barrier: the Nth arrival releases everyone, then resets."""

    def __init__(self, env: Environment, parties: int) -> None:
        if parties < 1:
            raise SimulationError("barrier needs at least one party")
        self.env = env
        self.parties = parties
        self._arrived = 0
        self._gate = Event(env)

    def wait(self) -> Event:
        """Return an event that triggers when all parties have arrived."""
        if self.env._ahead is not None:
            raise _ahead_of_clock("Barrier.wait")
        self._arrived += 1
        gate = self._gate
        if self._arrived == self.parties:
            self._arrived = 0
            self._gate = Event(self.env)
            gate.succeed()
        return gate


class Signal:
    """Broadcast flag: ``fire()`` wakes every current and future waiter."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._event = Event(env)
        self._fired = False
        self._value: Any = None

    @property
    def fired(self) -> bool:
        return self._fired

    def fire(self, value: Any = None) -> None:
        """Fire the signal; subsequent ``wait()`` calls complete instantly."""
        if self.env._ahead is not None:
            raise _ahead_of_clock("Signal.fire")
        if self._fired:
            raise SimulationError("signal already fired")
        self._fired = True
        self._value = value
        self._event.succeed(value)

    def wait(self) -> Event:
        """Return an event that triggers once the signal has fired."""
        if self.env._ahead is not None:
            raise _ahead_of_clock("Signal.wait")
        if self._fired:
            done = Event(self.env)
            done.succeed(self._value)
            return done
        return self._event
