"""Rank-bound communicator: the object MPI application code programs
against (a thin veneer over the runtime and the collective functions).

Each method returns the generator of the rank or collective call it
forwards to, without a frame of its own; callers ``yield from`` it."""

from __future__ import annotations

from typing import Any, Callable

from repro.mpi import collectives
from repro.mpi.runtime import ANY_SOURCE, ANY_TAG, MpiRuntime, Rank


class Communicator:
    """MPI_COMM_WORLD as seen from one rank."""

    def __init__(self, runtime: MpiRuntime, rank: int) -> None:
        self.runtime = runtime
        self._rank = runtime.rank_object(rank)

    @property
    def rank(self) -> int:
        return self._rank.rank

    @property
    def size(self) -> int:
        return self.runtime.world_size

    @property
    def node(self):
        return self._rank.node

    @property
    def rank_object(self) -> Rank:
        return self._rank

    # -- point-to-point ----------------------------------------------------
    def send(self, dest: int, payload: Any, size: int, tag: int = 0):
        """Generator: MPI_Send (eager or rendezvous by size)."""
        return self._rank.send(dest, payload, size, tag)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Generator: MPI_Recv -> (payload, size, source)."""
        return self._rank.recv(source, tag)

    def isend(self, dest: int, payload: Any, size: int, tag: int = 0):
        """Generator: MPI_Isend -> request handle (wait() to complete)."""
        return self._rank.isend(dest, payload, size, tag)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Generator: MPI_Irecv -> request handle (wait() to receive)."""
        return self._rank.irecv(source, tag)

    # -- collectives ---------------------------------------------------------
    def barrier(self):
        """Generator: MPI_Barrier."""
        return collectives.barrier(self._rank)

    def alltoall(self, chunks):
        """Generator: MPI_Alltoall -> payloads indexed by source."""
        return collectives.alltoall(self._rank, chunks)

    def bcast(self, payload: Any, size: int, root: int = 0):
        """Generator: MPI_Bcast -> payload on every rank."""
        return collectives.bcast(self._rank, payload, size, root)

    def gather(self, payload: Any, size: int, root: int = 0):
        """Generator: MPI_Gather -> list at root, None elsewhere."""
        return collectives.gather(self._rank, payload, size, root)

    def scatter(self, chunks, root: int = 0):
        """Generator: MPI_Scatter -> this rank's payload."""
        return collectives.scatter(self._rank, chunks, root)

    def allreduce(self, value: Any, size: int,
                  op: Callable[[Any, Any], Any]):
        """Generator: MPI_Allreduce -> folded value on every rank."""
        return collectives.allreduce(self._rank, value, size, op)

    # -- multi-process shared-memory surcharge ------------------------------
    def charge_shm_access(self, num_bytes: int):
        """Generator: cost of touching shared state across processes."""
        return self._rank.charge_shm_access(num_bytes)
