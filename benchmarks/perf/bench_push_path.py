"""Wall-clock microbench of the DFI push hot path.

Unlike the figure benches (which report *simulated* bandwidth), this bench
measures how fast the simulator itself chews through tuples — real seconds
per simulated push. It is the perf trajectory we track across PRs: the
ROADMAP north star is "as fast as the hardware allows", and for a
simulator the hardware limit is the host CPU.

Run with::

    PYTHONPATH=src python benchmarks/perf/bench_push_path.py [--profile]

Emits ``benchmarks/perf/BENCH_push_path.json`` with tuples/sec per
scenario plus the simulated GiB/s (which must not change when the hot
path gets faster — determinism guard). ``--profile`` wraps the run in
cProfile and prints the top 20 entries by cumulative time.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, os.pardir, "src"))

from profutil import maybe_profiled  # noqa: E402

from repro.bench.flows import measure_shuffle_bandwidth  # noqa: E402
from repro.common.units import GIB, SECONDS  # noqa: E402
from repro.core import (  # noqa: E402
    FLOW_END,
    DfiRuntime,
    Endpoint,
    FlowOptions,
    Optimization,
    Schema,
)
from repro.simnet import Cluster  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUTPUT = os.path.join(HERE, "BENCH_push_path.json")

#: Number of timed repetitions per scenario; the best (max tuples/s) is
#: reported, standard microbench practice to shed scheduler noise (the
#: consume and doorbell benches use the same convention).
REPS = int(os.environ.get("BENCH_PUSH_REPS", 3))


def _schema(tuple_size: int) -> Schema:
    if tuple_size <= 8:
        return Schema(("key", "uint64"))
    return Schema(("key", "uint64"), ("pad", tuple_size - 8))


def _run_shuffle(tuple_size: int, total_bytes: int, mode: str,
                 optimization=Optimization.BANDWIDTH) -> dict:
    """One 1:8 shuffle run; returns wall-clock + simulated metrics.

    ``mode`` selects the push API exercised by the source thread:

    * ``per-tuple`` — one ``push`` per tuple (the pre-PR hot path; tuple
      construction happens inline, as any application's would);
    * ``batched``  — ``push_batch`` in 1024-tuple chunks, constructed
      inline inside the measured window (fair vs. per-tuple);
    * ``bytes``    — ``push_bytes`` of pre-partitioned packed rows with
      direct routing (the paper's third routing mode). This models an
      operator whose output already lives in row format — e.g. a
      partitioned spill file — so the slab is prepared *before* the
      measured window and the source only pays the zero-copy push path.
    """
    target_nodes = 8
    cluster = Cluster(node_count=1 + target_nodes)
    # Counters stay on for the measured run: the plane's cost is the
    # ledger's (shuffle_batched_obs) and tests/test_obs_budget.py's job;
    # here the registry IS the tally, so the bench output and the
    # telemetry plane can never disagree.
    cluster.enable_observability()
    dfi = DfiRuntime(cluster)
    schema = _schema(tuple_size)
    dfi.init_shuffle_flow(
        "bench", [Endpoint(0, 0)],
        [Endpoint(1 + n, 0) for n in range(target_nodes)],
        schema, shuffle_key="key", optimization=optimization,
        options=FlowOptions())
    count = total_bytes // tuple_size
    pad = b"x" * (tuple_size - 8)
    window = {"start": None, "end": 0.0}
    slab = None
    if mode == "bytes":
        # Pre-partitioned packed rows, pushed in segment-sized chunks
        # round-robin over the targets (feeds all rings evenly, like the
        # hash router's traffic pattern does).
        slab = memoryview(b"".join(
            schema.pack((i, pad)) for i in range(count)))

    def source_thread():
        source = yield from dfi.open_source("bench", 0)
        window["start"] = cluster.now
        if mode == "batched":
            pushed = 0
            while pushed < count:
                n = min(1024, count - pushed)
                batch = [(i, pad) for i in range(pushed, pushed + n)]
                yield from source.push_batch(batch)
                pushed += n
        elif mode == "bytes":
            chunk = (8192 // tuple_size) * tuple_size
            offset, t = 0, 0
            size = len(slab)
            while offset < size:
                end = min(offset + chunk, size)
                yield from source.push_bytes(slab[offset:end], target=t)
                t = (t + 1) % target_nodes
                offset = end
        else:
            for i in range(count):
                yield from source.push((i, pad))
        yield from source.close()

    def target_thread(index):
        target = yield from dfi.open_target("bench", index)
        while True:
            batch = yield from target.consume_batch()
            if batch is FLOW_END:
                window["end"] = max(window["end"], cluster.now)
                return

    cluster.env.process(source_thread())
    for n in range(target_nodes):
        cluster.env.process(target_thread(n))
    wall_start = time.perf_counter()
    cluster.run()
    wall = time.perf_counter() - wall_start
    elapsed_ns = window["end"] - window["start"]
    # The reported tuple count comes from the telemetry plane, not a
    # bench-local tally — cross-checked here against the ground truth.
    pushed = cluster.node(0).metrics.get("core.tuples_pushed")
    assert pushed == count, (pushed, count)
    return {
        "tuple_size": tuple_size,
        "tuples": pushed,
        "mode": mode,
        "wall_seconds": wall,
        "tuples_per_sec": count / wall,
        "simulated_elapsed_ns": elapsed_ns,
        "simulated_gib_s": (count * tuple_size) / elapsed_ns * SECONDS / GIB,
    }


def _supports_batch() -> bool:
    from repro.core.shuffle import ShuffleSource
    return hasattr(ShuffleSource, "push_batch")


def _best_of(fn, *args) -> dict:
    """Run a scenario ``REPS`` times, report the best wall-clock rep.

    Simulated metrics must be bit-identical across reps (the simulator is
    deterministic); any divergence is a correctness bug, so it asserts.
    """
    best = fn(*args)
    for _ in range(REPS - 1):
        rep = fn(*args)
        assert rep["simulated_elapsed_ns"] == best["simulated_elapsed_ns"], (
            rep["mode"], rep["simulated_elapsed_ns"],
            best["simulated_elapsed_ns"])
        if rep["tuples_per_sec"] > best["tuples_per_sec"]:
            best = rep
    best["reps"] = REPS
    return best


def main() -> None:
    total_bytes = int(os.environ.get("BENCH_PUSH_BYTES", 4 << 20))
    results = {"bench": "push_path", "total_bytes": total_bytes,
               "reps": REPS, "scenarios": []}
    scenarios = [(64, "per-tuple"), (256, "per-tuple"), (1024, "per-tuple")]
    if _supports_batch():
        scenarios += [(64, "batched"), (256, "batched"), (1024, "batched"),
                      (64, "bytes")]
    # Warm the interpreter on a small run before anything is timed.
    _run_shuffle(64, min(total_bytes, 256 << 10), "per-tuple")
    for tuple_size, mode in scenarios:
        entry = _best_of(_run_shuffle, tuple_size, total_bytes, mode)
        results["scenarios"].append(entry)
        print(f"shuffle/bw {entry['tuple_size']:5d} B {entry['mode']:>9}: "
              f"{entry['tuples_per_sec']:12.0f} tuples/s wall, "
              f"{entry['simulated_gib_s']:6.2f} GiB/s simulated")
    # Cross-check the canonical Fig. 7a measurement path too (used by the
    # determinism guard: its simulated number must never move).
    m = measure_shuffle_bandwidth(64, 1, total_bytes=1 << 20)
    results["fig7a_64B_1src_simulated_bytes_per_ns"] = m.bytes_per_ns
    print(f"fig7a(64 B, 1 src) simulated: {m.bytes_per_ns!r} B/ns")
    with open(OUTPUT, "w") as fh:
        json.dump(results, fh, indent=2)
    print(f"wrote {OUTPUT}")


if __name__ == "__main__":
    maybe_profiled(main)
