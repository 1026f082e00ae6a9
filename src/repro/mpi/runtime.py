"""MPI baseline runtime: process-centric ranks on the simulated cluster.

This models the HPC-X-style MPI deployment the paper compares against
(Section 6.2), with the properties that drive its measured behaviour:

* *eager vs. rendezvous* point-to-point protocol: small sends return after
  a local copy; large sends handshake with the receiver and block until the
  data moved — no batching either way, so tiny tuples waste the wire
  (Fig. 10a);
* *process-centric parallelism*: one rank per process. Multi-threaded use
  (``MPI_THREAD_MULTIPLE``) funnels every call through a per-rank latch
  whose hold time grows with the number of contending threads — the
  collapse of Fig. 10b. Multi-process mode avoids the latch but pays a
  shared-memory surcharge when threads of the *application* touch common
  data structures across process boundaries;
* *bulk-synchronous collectives*: all ranks must enter the collective with
  their full input before any data moves (Figs. 11 and 12).
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Any

from repro.common.config import DEFAULT_MPI, MpiProfile
from repro.common.errors import MpiError
from repro.simnet.cluster import Cluster
from repro.simnet.kernel import Event
from repro.simnet.node import Node
from repro.simnet.sync import Resource, Signal

#: Wildcard source for ``recv`` (MPI_ANY_SOURCE).
ANY_SOURCE = -1
#: Wildcard tag for ``recv`` (MPI_ANY_TAG).
ANY_TAG = -1
#: Wire overhead of one MPI message envelope (header + matching info).
_ENVELOPE_BYTES = 64
#: Size of the rendezvous RTS/CTS control messages.
_CONTROL_BYTES = 64


class ThreadingLevel(enum.Enum):
    """MPI threading support level requested at init."""

    SINGLE = "single"
    MULTIPLE = "multiple"  # MPI_THREAD_MULTIPLE


class _Rendezvous:
    """Sender-side state of one rendezvous (large-message) transfer."""

    __slots__ = ("cts", "payload", "size", "done_event")

    def __init__(self, env, payload: Any, size: int) -> None:
        self.cts = Event(env)
        self.payload = payload
        self.size = size
        self.done_event: Event | None = None


class _Request:
    """Handle of a non-blocking point-to-point operation."""

    __slots__ = ("_event",)

    def __init__(self, env) -> None:
        self._event = Event(env)

    @property
    def complete(self) -> bool:
        return self._event.triggered

    def wait(self):
        """Generator: block until the operation finished; returns the
        receive result for irecv, ``None`` for isend."""
        if self._event.processed:
            return self._event.value
        result = yield self._event
        return result


class Rank:
    """One MPI rank: a process pinned to a node with a receive mailbox."""

    def __init__(self, runtime: "MpiRuntime", rank: int, node: Node) -> None:
        self.runtime = runtime
        self.rank = rank
        self.node = node
        self.env = node.env
        self._latch = Resource(node.env, capacity=1)
        #: Unmatched incoming messages: (kind, source, tag, payload, size).
        self._pending: deque[tuple] = deque()
        #: Blocked receivers: (source, tag, event).
        self._recv_waiters: deque[tuple] = deque()
        self._collective_seq = 0
        self.messages_sent = 0
        self.bytes_sent = 0

    # -- cost model ----------------------------------------------------------
    def _call_overhead(self, extra: float = 0.0):
        """Per-call software cost, to ``yield from``: the compute sleep in
        a plain tuple (no generator per call), or the THREAD_MULTIPLE
        latch generator with its contention penalty."""
        if self.runtime.threading is ThreadingLevel.MULTIPLE:
            return self._latched(extra)
        return (self.node.compute(extra),) if extra > 0 else ()

    def _latched(self, extra: float):
        """Generator: the THREAD_MULTIPLE latch held for the call's cost."""
        profile = self.runtime.profile
        yield self._latch.acquire()
        contenders = self._latch.queue_length
        hold = (profile.thread_latch_hold
                + profile.thread_latch_contention * contenders
                + extra)
        yield self.node.compute(hold)
        self._latch.release()

    def charge_shm_access(self, num_bytes: int):
        """Generator: cost of touching ``num_bytes`` of a data structure
        shared across process boundaries (multi-process mode)."""
        yield self.node.compute(
            num_bytes * self.runtime.profile.shm_access_per_byte)

    # -- point-to-point ----------------------------------------------------
    def send(self, dest: int, payload: Any, size: int, tag: int = 0):
        """Generator: MPI_Send. Eager (small) sends return once the local
        copy is done; rendezvous (large) sends block until the receiver
        matched and the data transferred."""
        profile = self.runtime.profile
        dest_rank = self.runtime.rank_object(dest)
        self.messages_sent += 1
        self.bytes_sent += size
        if size <= profile.eager_threshold:
            cost = (profile.per_message_overhead
                    + size * profile.eager_copy_per_byte)
            yield from self._call_overhead(cost)
            self._post(dest_rank, size + _ENVELOPE_BYTES, dest_rank._deliver,
                       ("eager", self.rank, tag, payload, size))
            return
        # Rendezvous: announce, wait for clear-to-send, then move the data.
        yield from self._call_overhead(profile.per_message_overhead)
        rendezvous = _Rendezvous(self.env, payload, size)
        self._post(dest_rank, _CONTROL_BYTES, dest_rank._deliver,
                   ("rts", self.rank, tag, rendezvous, size))
        yield rendezvous.cts
        data = self.runtime.cluster.fabric.unicast(
            self.node, dest_rank.node, size + _ENVELOPE_BYTES)
        yield data
        rendezvous.done_event.succeed((payload, size))

    def isend(self, dest: int, payload: Any, size: int, tag: int = 0):
        """Generator: MPI_Isend — returns a request handle immediately;
        ``wait`` on it for completion. Eager sends complete locally;
        rendezvous sends complete once the receiver matched and the data
        moved (the non-blocking variant the paper notes applications must
        otherwise hand-roll, Section 2.3)."""
        handle = _Request(self.env)

        def _drive():
            yield from self.send(dest, payload, size, tag)
            handle._event.succeed(None)

        self.env.process(_drive(), name=f"isend-r{self.rank}-to-{dest}")
        if False:  # pragma: no cover - keeps this a generator function
            yield
        return handle

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Generator: MPI_Irecv — returns a request handle immediately;
        ``wait`` yields ``(payload, size, source)``."""
        handle = _Request(self.env)

        def _drive():
            result = yield from self.recv(source, tag)
            handle._event.succeed(result)

        self.env.process(_drive(), name=f"irecv-r{self.rank}")
        if False:  # pragma: no cover - keeps this a generator function
            yield
        return handle

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Generator: MPI_Recv. Returns ``(payload, size, source)``."""
        yield from self._call_overhead(
            self.runtime.profile.per_message_overhead)
        match = self._match_pending(source, tag)
        if match is None:
            event = Event(self.env)
            self._recv_waiters.append((source, tag, event))
            match = yield event
        kind, src, _tag, payload, size = match
        if kind == "eager":
            return payload, size, src
        # Rendezvous: grant the sender clear-to-send and await the data.
        rendezvous: _Rendezvous = payload
        rendezvous.done_event = Event(self.env)
        self._post(self.runtime.rank_object(src), _CONTROL_BYTES,
                   Event.succeed, rendezvous.cts)
        data_payload, data_size = yield rendezvous.done_event
        return data_payload, data_size, src

    def _post(self, dest_rank: "Rank", size: int, fn, arg) -> None:
        """Send ``size`` bytes to ``dest_rank`` and run ``fn(arg)`` when
        they have arrived."""
        env = self.env
        now = env._now
        arrival = self.runtime.cluster.fabric.unicast_arrival(
            self.node, dest_rank.node, size, now)
        env.schedule_train([(now + (arrival - now), fn, arg)])

    def _deliver(self, message: tuple) -> None:
        """Match an arrived ``(kind, source, tag, payload, size)``
        message against the blocked receivers, else queue it."""
        kind, source, tag, payload, size = message
        for i, (want_src, want_tag, event) in enumerate(self._recv_waiters):
            if self._matches(want_src, want_tag, source, tag):
                del self._recv_waiters[i]
                event.succeed(message)
                return
        self._pending.append(message)

    def _match_pending(self, source: int, tag: int):
        for i, message in enumerate(self._pending):
            _kind, src, msg_tag, _payload, _size = message
            if self._matches(source, tag, src, msg_tag):
                del self._pending[i]
                return message
        return None

    @staticmethod
    def _matches(want_src: int, want_tag: int, src: int, tag: int) -> bool:
        return ((want_src == ANY_SOURCE or want_src == src)
                and (want_tag == ANY_TAG or want_tag == tag))

    def next_collective_seq(self) -> int:
        seq = self._collective_seq
        self._collective_seq += 1
        return seq

    def __repr__(self) -> str:
        return f"<Rank {self.rank} on {self.node.name}>"


class MpiRuntime:
    """An MPI world: ``ranks_per_node`` ranks on each cluster node."""

    def __init__(self, cluster: Cluster, ranks_per_node: int = 1,
                 threading: ThreadingLevel = ThreadingLevel.SINGLE,
                 profile: MpiProfile = DEFAULT_MPI,
                 nodes: "list[int] | None" = None) -> None:
        if ranks_per_node < 1:
            raise MpiError("ranks_per_node must be >= 1")
        self.cluster = cluster
        self.profile = profile
        self.threading = threading
        node_ids = nodes if nodes is not None else range(cluster.node_count)
        self._ranks: list[Rank] = []
        for node_id in node_ids:
            node = cluster.node(node_id)
            for _ in range(ranks_per_node):
                self._ranks.append(Rank(self, len(self._ranks), node))
        self._collectives: dict[tuple, "_CollectiveState"] = {}

    @property
    def world_size(self) -> int:
        return len(self._ranks)

    def rank_object(self, rank: int) -> Rank:
        if not 0 <= rank < len(self._ranks):
            raise MpiError(f"rank {rank} out of range [0, {len(self._ranks)})")
        return self._ranks[rank]

    def _collective_state(self, kind: str, seq: int) -> "_CollectiveState":
        key = (kind, seq)
        state = self._collectives.get(key)
        if state is None:
            state = _CollectiveState(self.cluster.env, self.world_size)
            self._collectives[key] = state
        return state


class _CollectiveState:
    """Shared per-invocation state of one collective operation."""

    def __init__(self, env, world_size: int) -> None:
        self.env = env
        self.world_size = world_size
        self.entered = 0
        self.finished = 0
        self.entry_signal = Signal(env)
        self.exit_signal = Signal(env)
        self.contributions: dict[int, Any] = {}
        self._round_barriers: dict[int, Any] = {}

    def round_barrier(self, round_index: int):
        """Per-round rendezvous for round-synchronized exchanges."""
        from repro.simnet.sync import Barrier

        barrier = self._round_barriers.get(round_index)
        if barrier is None:
            barrier = Barrier(self.env, self.world_size)
            self._round_barriers[round_index] = barrier
        return barrier

    def enter(self, rank: int, contribution: Any = None) -> None:
        self.contributions[rank] = contribution
        self.entered += 1
        if self.entered == self.world_size:
            self.entry_signal.fire()

    def finish(self) -> None:
        self.finished += 1
        if self.finished == self.world_size:
            self.exit_signal.fire()
