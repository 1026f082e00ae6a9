"""MPI collective operations (bulk-synchronous).

Every collective has BSP semantics: no data moves before all ranks have
entered with their complete input, and no rank leaves before the exchange
finished — exactly the property that makes MPI collectives unable to
overlap computation with communication and sensitive to stragglers
(paper Sections 2.3 and 6.2.2).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.common.errors import MpiError
from repro.mpi.runtime import _ENVELOPE_BYTES, MpiRuntime, Rank


def _entry(rank: Rank, kind: str, contribution: Any = None):
    """Generator: charge entry overhead and enter the collective's
    rendezvous. Returns the shared state once *all* ranks have entered."""
    runtime = rank.runtime
    yield from rank._call_overhead(
        runtime.profile.collective_entry_overhead)
    state = runtime._collective_state(kind, rank.next_collective_seq())
    state.enter(rank.rank, contribution)
    if not state.entry_signal.fired:
        yield state.entry_signal.wait()
    return state


def _exit(rank: Rank, state):
    """Generator: completion barrier — wait for every rank to finish."""
    state.finish()
    if not state.exit_signal.fired:
        yield state.exit_signal.wait()


def barrier(rank: Rank):
    """Generator: MPI_Barrier."""
    state = yield from _entry(rank, "barrier")
    yield from _exit(rank, state)


def alltoall(rank: Rank, chunks: "list[tuple[Any, int]]"):
    """Generator: MPI_Alltoall.

    ``chunks[d]`` is the ``(payload, size)`` this rank contributes for
    destination ``d`` (``len(chunks)`` must equal the world size). Returns
    the list of payloads received, indexed by source rank.
    """
    runtime = rank.runtime
    world = runtime.world_size
    if len(chunks) != world:
        raise MpiError(
            f"alltoall needs one chunk per rank ({world}), got "
            f"{len(chunks)}")
    state = yield from _entry(rank, "alltoall", chunks)
    # All inputs are ready (BSP). The exchange proceeds in world-1
    # synchronized pairwise rounds (the classic ring/pairwise alltoall):
    # in round r, rank i sends to (i+r) and receives from (i-r), and no
    # rank starts round r+1 before everyone finished round r. A straggler
    # therefore paces *every* round — its per-round send-buffer packing
    # runs at reduced frequency and the barrier makes everyone wait.
    copy_cost = runtime.profile.eager_copy_per_byte
    for round_index in range(1, world):
        dest = (rank.rank + round_index) % world
        _payload, size = chunks[dest]
        yield rank.node.compute(size * copy_cost)
        arrival = runtime.cluster.fabric.unicast(
            rank.node, runtime.rank_object(dest).node,
            size + _ENVELOPE_BYTES)
        rank.messages_sent += 1
        rank.bytes_sent += size
        yield arrival
        yield state.round_barrier(round_index).wait()
    yield from _exit(rank, state)
    return [state.contributions[src][rank.rank][0] for src in range(world)]


def _fire_once(signal) -> None:
    """Arrival action of a broadcast hop: wake the child's tree level."""
    if not signal.fired:
        signal.fire()


def bcast(rank: Rank, payload: Any, size: int, root: int = 0):
    """Generator: MPI_Bcast along a binomial tree rooted at ``root``.
    Returns the broadcast payload on every rank."""
    runtime = rank.runtime
    world = runtime.world_size
    state = yield from _entry(rank, "bcast",
                              payload if rank.rank == root else None)
    payload = state.contributions[root]
    # Binomial tree on ranks relative to the root.
    relative = (rank.rank - root) % world
    have_signal = state.__dict__.setdefault("have", {})
    for r in range(world):
        if r not in have_signal:
            from repro.simnet.sync import Signal
            have_signal[r] = Signal(rank.env)
    if relative != 0 and not have_signal[relative].fired:
        yield have_signal[relative].wait()
    mask = 1
    while mask < world:
        if relative < mask:
            child = relative + mask
            if child < world:
                dest = (child + root) % world
                rank._post(runtime.rank_object(dest), size + _ENVELOPE_BYTES,
                           _fire_once, have_signal[child])
                rank.messages_sent += 1
                rank.bytes_sent += size
        mask <<= 1
    yield from _exit(rank, state)
    return payload


def gather(rank: Rank, payload: Any, size: int, root: int = 0):
    """Generator: MPI_Gather. Root returns the list of payloads by rank;
    non-roots return ``None``."""
    runtime = rank.runtime
    state = yield from _entry(rank, "gather", (payload, size))
    if rank.rank != root:
        arrival = runtime.cluster.fabric.unicast(
            rank.node, runtime.rank_object(root).node,
            size + _ENVELOPE_BYTES)
        rank.messages_sent += 1
        rank.bytes_sent += size
        yield arrival
    yield from _exit(rank, state)
    if rank.rank != root:
        return None
    return [state.contributions[r][0] for r in range(runtime.world_size)]


def scatter(rank: Rank, chunks: "list[tuple[Any, int]] | None",
            root: int = 0):
    """Generator: MPI_Scatter. Root passes one ``(payload, size)`` per
    rank; every rank returns its own payload."""
    runtime = rank.runtime
    world = runtime.world_size
    if rank.rank == root and (chunks is None or len(chunks) != world):
        raise MpiError(f"scatter root needs {world} chunks")
    state = yield from _entry(rank, "scatter",
                              chunks if rank.rank == root else None)
    root_chunks = state.contributions[root]
    my_payload, my_size = root_chunks[rank.rank]
    if rank.rank == root:
        events = []
        for dest in range(world):
            if dest == root:
                continue
            _payload, size = root_chunks[dest]
            events.append(runtime.cluster.fabric.unicast(
                rank.node, runtime.rank_object(dest).node,
                size + _ENVELOPE_BYTES))
            rank.messages_sent += 1
            rank.bytes_sent += size
        if events:
            yield rank.env.all_of(events)
    yield from _exit(rank, state)
    return my_payload


def allreduce(rank: Rank, value: Any, size: int,
              op: Callable[[Any, Any], Any]):
    """Generator: MPI_Allreduce — gather to rank 0, fold, broadcast."""
    gathered = yield from gather(rank, value, size, root=0)
    if rank.rank == 0:
        result = gathered[0]
        for item in gathered[1:]:
            result = op(result, item)
    else:
        result = None
    result = yield from bcast(rank, result, size, root=0)
    return result
