"""Multiprocess window executor for partition-parallel simulations.

:func:`run_partitioned` steps *independent* cluster partitions on worker
processes, advancing every partition in lockstep horizon windows with a
barrier between windows. This is where partitioning buys real wall-clock
parallelism: one cluster must execute its events in exact global order
(see ``simnet/shard.py``) and is therefore single-threaded by
construction, but partitions that share *no* traffic have no common order
to preserve — each can run on its own core, GIL-free.

Honesty note — where the win is and is not
------------------------------------------
Each partition is a **separate** :class:`~repro.simnet.cluster.Cluster`
built inside its worker process. Cross-partition flows are impossible, and
not merely unsupported: ``Fabric.unicast`` books the destination's
downlink *synchronously at send time* and ``unicast_train`` returns
arrival floats the sender consumes immediately, so a cross-partition
message would need the peer partition's mutable link state mid-window —
exactly the shared memory that separate processes do not have. The
horizon-barrier structure (windows of ``window`` ns, barrier at each
edge) is the classic conservative-PDES executor shape and is where a
mailbox exchange would slot in; for isolated partitions the mailboxes
are empty by construction and the barrier only enforces lockstep pacing.

Use it for what it is: scale-out scenarios made of independent node
groups (per-rack serving cells, parameter sweeps). A single cluster
with cross-rack flows must stay in one process. Workers are forked, so
builders and collectors need not be picklable — results must be.

Opt-in: nothing in the repo calls this implicitly.
"""

from __future__ import annotations

import math
import os
from typing import Any, Callable, Sequence

from repro.common.errors import ConfigurationError, SimulationError

#: Per-window barrier timeout (s). Generous: a window that takes longer
#: than this in wall-clock almost certainly means a sibling worker died.
_BARRIER_TIMEOUT = 300.0


def _default_collect(cluster) -> dict:
    return cluster.metrics_snapshot()


def _drive(cluster, until: float, window: "float | None",
           barrier=None) -> None:
    """Advance ``cluster`` to ``until`` in lockstep windows.

    ``window=None`` runs the whole span as one window (maximum overlap;
    the right choice for isolated partitions). A finite ``window`` closes
    every partition's clock at the same horizon edges — the conservative
    execution schedule that a future mailbox exchange would require.
    """
    if window is None:
        windows = 1
    else:
        windows = max(1, math.ceil(until / window))
    edge = 0.0
    for index in range(windows):
        edge = until if index == windows - 1 else min(edge + window, until)
        cluster.run(until=edge)
        if barrier is not None:
            barrier.wait(_BARRIER_TIMEOUT)


def _worker(index: int, builder, until: float, window: "float | None",
            barrier, queue, collect) -> None:
    try:
        cluster = builder()
        _drive(cluster, until, window, barrier)
        queue.put((index, True, collect(cluster)))
    except BaseException as exc:  # surface in the parent, don't hang it
        if barrier is not None:
            barrier.abort()
        queue.put((index, False, repr(exc)))


def run_partitioned(builders: Sequence[Callable[[], Any]], *,
                    until: float, window: "float | None" = None,
                    processes: "int | None" = None,
                    collect: Callable[[Any], Any] = _default_collect
                    ) -> list:
    """Run one isolated cluster per ``builders`` entry to ``until`` and
    return ``[collect(cluster), ...]`` in partition order.

    ``builders[i]`` is called in worker ``i``'s process (serially in this
    process when ``processes=1`` or fork is unavailable) and must build a
    fresh, self-contained cluster — partitions exchange no traffic, which
    is precisely why they may run concurrently (module docstring). The
    serial and multiprocess paths drive identical window schedules, so
    their simulated results are bit-identical; ``tests/test_simnet_shard.py``
    asserts it.
    """
    if not builders:
        raise ConfigurationError("run_partitioned needs at least one builder")
    until = float(until)
    if until <= 0:
        raise ConfigurationError("run_partitioned needs until > 0")
    if window is not None and window <= 0:
        raise ConfigurationError("window must be positive (or None)")
    if processes is None:
        processes = min(len(builders), os.cpu_count() or 1)
    try:
        import multiprocessing
        context = multiprocessing.get_context("fork")
    except ValueError:
        context = None
    if processes <= 1 or context is None:
        results = []
        for builder in builders:
            cluster = builder()
            _drive(cluster, until, window)
            results.append(collect(cluster))
        return results

    results: list = [None] * len(builders)
    queue = context.SimpleQueue()
    # Waves: at most ``processes`` partitions in flight; the horizon
    # barrier spans one wave (partitions in different waves are still
    # isolated, so cross-wave lockstep would add nothing).
    for start in range(0, len(builders), processes):
        wave = list(enumerate(builders))[start:start + processes]
        barrier = (context.Barrier(len(wave)) if window is not None
                   and len(wave) > 1 else None)
        workers = [context.Process(
            target=_worker,
            args=(index, builder, until, window, barrier, queue, collect),
            daemon=True) for index, builder in wave]
        for worker in workers:
            worker.start()
        failures = []
        for _ in wave:
            index, ok, payload = queue.get()
            if ok:
                results[index] = payload
            else:
                failures.append((index, payload))
        for worker in workers:
            worker.join()
        if failures:
            detail = "; ".join(f"partition {i}: {msg}"
                               for i, msg in sorted(failures))
            raise SimulationError(f"partitioned run failed — {detail}")
    return results
