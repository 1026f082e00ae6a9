"""Completion queues and work-request bookkeeping."""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.simnet.kernel import Environment, Event


class Opcode(enum.Enum):
    """Operation type recorded in a completion entry."""

    WRITE = "write"
    READ = "read"
    SEND = "send"
    RECV = "recv"
    FETCH_ADD = "fetch_add"
    COMPARE_SWAP = "compare_swap"


class WcStatus(enum.Enum):
    """Completion status (mirrors ``ibv_wc_status`` success/failure)."""

    SUCCESS = "success"
    ERROR = "error"
    #: Transport retry budget exceeded: the peer never acknowledged
    #: (crashed peer or a path down beyond the detection bound) —
    #: ``IBV_WC_RETRY_EXC_ERR``.
    RETRY_EXC_ERR = "retry_exc_err"
    #: Work request flushed after the QP entered the error state (the
    #: peer died while the operation was in flight) — ``IBV_WC_WR_FLUSH_ERR``.
    WR_FLUSH_ERR = "wr_flush_err"


@dataclass(slots=True)
class Completion:
    """One completion-queue entry (a ``struct ibv_wc``)."""

    wr_id: Any
    opcode: Opcode
    status: WcStatus = WcStatus.SUCCESS
    byte_len: int = 0
    #: Operation-specific result, e.g. the old value of a fetch-and-add.
    result: Any = None
    #: Immediate data carried by a send, if any.
    imm: int | None = None


class WorkRequest:
    """A posted work request; ``done`` triggers when the operation
    completes (for writes: when the RC ACK returns to the sender).

    The ``done`` event is materialized lazily on first access: most
    unsignaled writes are fire-and-forget — nobody ever waits on them —
    and never creating their event skips an allocation, a schedule, and
    a kernel step per work request. If the operation completed before
    the event was first accessed, the event is returned already
    triggered with the operation's result.
    """

    __slots__ = ("wr_id", "opcode", "signaled", "_env", "_done",
                 "_completed", "_result", "_error", "_completes_at")

    def __init__(self, env: Environment, wr_id: Any, opcode: Opcode,
                 signaled: bool) -> None:
        self._env = env
        self.wr_id = wr_id
        self.opcode = opcode
        self.signaled = signaled
        self._done: Event | None = None
        self._completed = False
        self._result: Any = None
        self._error: BaseException | None = None
        self._completes_at: float | None = None

    @property
    def done(self) -> Event:
        """Completion event (created on demand)."""
        event = self._done
        if event is None:
            when = self._completes_at
            if (when is not None and not self._completed
                    and when <= self._env.now):
                # The recorded completion time passed unobserved: settle
                # now, with the timestamp semantics of an eager timer.
                self._completed = True
            event = self._done = Event(self._env)
            if self._completed:
                if self._error is not None:
                    event.fail(self._error)
                    event.defuse()
                else:
                    event.succeed(self._result)
            elif when is not None:
                # First observer arrived before the completion time:
                # settle at the exact instant.
                self._env.schedule_train([(when, self._settle, None)])
        return event

    @property
    def error(self) -> "BaseException | None":
        """The failure this work request completed with, if any."""
        return self._error

    def _complete(self, result: Any = None) -> None:
        """Record completion, triggering ``done`` only if someone looked."""
        self._completed = True
        self._result = result
        if self._done is not None:
            self._done.succeed(result)

    def _complete_at(self, when: float, result: Any = None) -> None:
        """Record that this request completes at the absolute simulated
        time ``when`` without scheduling anything: the train fast path
        expands acknowledgments lazily. If ``done`` is accessed at or
        after ``when`` the event materializes already triggered; an
        earlier access schedules its settling at the exact instant. Must be
        called before the first ``done`` access."""
        self._completes_at = when
        self._result = result

    def _settle(self, _arg) -> None:
        """Deferred-completion action (see :meth:`_complete_at`)."""
        if not self._completed:
            self._complete(self._result)

    def _fail(self, error: BaseException) -> None:
        """Record an error completion. ``done`` fails (pre-defused: a
        process yielding it sees the exception thrown in; the kernel
        never re-raises it for fire-and-forget requests nobody awaits)."""
        self._completed = True
        self._error = error
        if self._done is not None:
            self._done.fail(error)
            self._done.defuse()

    def __repr__(self) -> str:
        state = "done" if self._completed else "pending"
        return (f"<WorkRequest {self.opcode.value} wr_id={self.wr_id!r} "
                f"{state}>")


class CompletionQueue:
    """FIFO completion queue with optional blocking waits.

    ``poll`` is the cheap non-blocking check applications spin on;
    ``wait`` returns an event for event-driven consumers.
    """

    def __init__(self, env: Environment, name: str = "cq",
                 metrics=None) -> None:
        self.env = env
        self.name = name
        #: Entries not yet polled, oldest first. A consumer that handles
        #: each one as it pops it may drain this deque in place instead of
        #: taking :meth:`poll`'s list (the multicast replicate target does).
        self.entries: deque[Completion] = deque()
        self._waiters: deque[Event] = deque()
        #: Total completions ever pushed (for stats/tests).
        self.pushed = 0
        #: Optional :class:`repro.obs.MetricsRegistry` of the owning node
        #: (``None`` while observability is off — the hot-path guard).
        #: ``rdma.cq_pushed`` is harvested at read time from ``pushed``;
        #: only the rare error completions bump a counter live.
        self._metrics = metrics
        if metrics is not None:
            metrics.add_collector(self._collect_obs)

    def _collect_obs(self):
        """Read-time counter harvest (see MetricsRegistry.add_collector)."""
        return (("rdma.cq_pushed", self.pushed),)

    def __len__(self) -> int:
        return len(self.entries)

    def push(self, completion: Completion) -> None:
        """Add a completion entry, waking one blocked waiter if any."""
        self.pushed += 1
        if completion.status is not WcStatus.SUCCESS:
            metrics = self._metrics
            if metrics is not None:
                metrics.inc("rdma.cq_errors")
        if self._waiters:
            self._waiters.popleft().succeed(completion)
        else:
            self.entries.append(completion)

    def poll(self, max_entries: int = 16) -> list[Completion]:
        """Pop up to ``max_entries`` completions without blocking."""
        popped = []
        while self.entries and len(popped) < max_entries:
            popped.append(self.entries.popleft())
        return popped

    def wait(self) -> Event:
        """Return an event triggering with the next completion entry."""
        event = Event(self.env)
        if self.entries:
            event.succeed(self.entries.popleft())
        else:
            self._waiters.append(event)
        return event
