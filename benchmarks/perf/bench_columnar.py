"""Wall-clock microbench of the schema-compiled columnar kernels.

Two layers, one JSON:

* **kernel scenarios** — the generated hash-router and columnar fold
  kernels head-to-head against the generic fallback on identical
  inputs, asserting partition/aggregate equality while timing both legs
  (no simulator — this is the raw kernel speedup);
* **flow scenarios** — the canonical 64 B batched 1:8 shuffle plus the
  byte-mode shuffle and the columnar combiner fold, end-to-end through
  the simulator, with the simulated-ns determinism guard every perf
  bench carries.

Run with::

    PYTHONPATH=src python benchmarks/perf/bench_columnar.py

Emits ``benchmarks/perf/BENCH_columnar.json``. ``--check <committed>``
compares a fresh run against the committed baseline (±20% band,
report-only exit 0, same convention as the other hot-path benches) and
hard-asserts that the simulated ns of every flow scenario is
bit-identical to the committed record — host speed moves tuples/s,
never simulated time. ``--profile`` wraps the run in cProfile.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, os.pardir, "src"))

from profutil import maybe_profiled  # noqa: E402

from repro.common import config  # noqa: E402
from repro.core import (  # noqa: E402
    FLOW_END,
    AggregationSpec,
    DfiRuntime,
    Endpoint,
    FlowOptions,
    Optimization,
    Schema,
)
from repro.simnet import Cluster  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUTPUT = os.path.join(HERE, "BENCH_columnar.json")

REPS = int(os.environ.get("BENCH_COLUMNAR_REPS", 3))
TOTAL_BYTES = int(os.environ.get("BENCH_COLUMNAR_BYTES", 4 << 20))


def _generic_schema(*fields) -> Schema:
    """A schema carrying no generated kernels (the REPRO_NO_CODEGEN
    path), built by flipping the config flag around construction only.

    Kernels bind at construction, so the flip cannot mix code paths
    inside a schema; the bench needs both legs in one process to time
    them on identical inputs.
    """
    saved = config.CODEGEN_ENABLED
    config.CODEGEN_ENABLED = False
    try:
        return Schema(*fields)
    finally:
        config.CODEGEN_ENABLED = saved


# -- kernel scenarios (no simulator) -----------------------------------------

def _time_leg(fn, *args) -> float:
    best = float("inf")
    for _ in range(REPS):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def _kernel_route(tuple_size: int) -> list:
    """The shuffle partition kernel: generated fused-hash router vs the
    generic closure (the hot path of every batched key-hash shuffle)."""
    from repro.core.routing import key_hash_router

    fields = (("key", "uint64"), ("pad", tuple_size - 8))
    compiled, generic = Schema(*fields), _generic_schema(*fields)
    count = TOTAL_BYTES // tuple_size
    pad = b"x" * (tuple_size - 8)
    tuples = [(i, pad) for i in range(count)]
    route_c = key_hash_router(compiled, "key").route_many
    route_g = key_hash_router(generic, "key").route_many
    groups_c = route_c(tuples, 8)
    assert groups_c == route_g(tuples, 8), "compiled router diverged"
    del groups_c
    wall_c = _time_leg(route_c, tuples, 8)
    wall_g = _time_leg(route_g, tuples, 8)
    return [_kernel_entry(f"route-{tuple_size}B", count, wall_c, wall_g)]


def _kernel_fold() -> list:
    """Columnar fold on a *wide* tuple: the selective struct format
    decodes only the group and value columns; the generic loop must
    materialize every row (including a 48-byte pad object) first."""
    fields = (("key", "uint64"), ("value", "uint64"), ("pad", 48))
    compiled, generic = Schema(*fields), _generic_schema(*fields)
    count = TOTAL_BYTES // 64
    pad = b"p" * 48
    packed = b"".join(compiled.pack((i % 512, 1, pad))
                      for i in range(count))
    chunks = [memoryview(packed)[off:off + (64 << 10)]
              for off in range(0, len(packed), 64 << 10)]

    def fold_compiled():
        table: dict = {}
        fold = compiled.fold_kernel(0, 1, "sum")(table.get,
                                                 table.__setitem__)
        fold(chunks)
        return table

    def fold_generic():
        # The pre-columnar combiner loop: unpack rows, fold per tuple.
        table: dict = {}
        get, put = table.get, table.__setitem__
        for chunk in chunks:
            for group, value, _pad in generic.unpack_rows(chunk):
                current = get(group)
                put(group, value if current is None else current + value)
        return table

    assert fold_compiled() == fold_generic(), "fold diverged"
    wall_c = _time_leg(fold_compiled)
    wall_g = _time_leg(fold_generic)
    return [_kernel_entry("fold-sum-64B", count, wall_c, wall_g)]


def _kernel_entry(name: str, count: int, wall_compiled: float,
                  wall_generic: float) -> dict:
    return {
        "scenario": f"kernel-{name}",
        "tuples": count,
        "mode": "kernel",
        "wall_seconds": wall_compiled,
        "tuples_per_sec": count / wall_compiled,
        "generic_tuples_per_sec": count / wall_generic,
        "speedup_vs_generic": wall_generic / wall_compiled,
        "simulated_elapsed_ns": 0.0,
        "reps": REPS,
    }


# -- flow scenarios (end-to-end through the simulator) -----------------------

def _run_shuffle(mode: str) -> dict:
    """The canonical columnar gate: 64 B tuples, 1:8 bandwidth shuffle."""
    tuple_size = 64
    target_nodes = 8
    cluster = Cluster(node_count=1 + target_nodes)
    dfi = DfiRuntime(cluster)
    schema = Schema(("key", "uint64"), ("pad", tuple_size - 8))
    dfi.init_shuffle_flow(
        "col", [Endpoint(0, 0)],
        [Endpoint(1 + n, 0) for n in range(target_nodes)],
        schema, shuffle_key="key", optimization=Optimization.BANDWIDTH,
        options=FlowOptions())
    count = TOTAL_BYTES // tuple_size
    pad = b"x" * (tuple_size - 8)
    window = {"start": None, "end": 0.0}
    slab = None
    if mode == "bytes":
        slab = memoryview(b"".join(
            schema.pack((i, pad)) for i in range(count)))

    def source_thread():
        source = yield from dfi.open_source("col", 0)
        window["start"] = cluster.now
        if mode == "batched":
            pushed = 0
            while pushed < count:
                n = min(1024, count - pushed)
                batch = [(i, pad) for i in range(pushed, pushed + n)]
                yield from source.push_batch(batch)
                pushed += n
        else:
            chunk = (8192 // tuple_size) * tuple_size
            offset, t = 0, 0
            size = len(slab)
            while offset < size:
                end = min(offset + chunk, size)
                yield from source.push_bytes(slab[offset:end], target=t)
                t = (t + 1) % target_nodes
                offset = end
        yield from source.close()

    received = [0] * target_nodes

    def target_thread(index):
        target = yield from dfi.open_target("col", index)
        while True:
            batch = yield from target.consume_batch()
            if batch is FLOW_END:
                break
            received[index] += len(batch)
        window["end"] = max(window["end"], cluster.now)

    cluster.node(0).spawn(source_thread())
    for n in range(target_nodes):
        cluster.node(1 + n).spawn(target_thread(n))
    start = time.perf_counter()
    cluster.run()
    wall = time.perf_counter() - start
    assert sum(received) == count
    return {
        "scenario": f"shuffle-1to8-64B-{mode}",
        "tuples": count,
        "mode": mode,
        "wall_seconds": wall,
        "tuples_per_sec": count / wall,
        "simulated_elapsed_ns": window["end"] - window["start"],
    }


def _run_combiner() -> dict:
    """8:1 combiner, byte-mode drain + columnar sum fold on the target."""
    sources = 8
    cluster = Cluster(node_count=sources + 1)
    dfi = DfiRuntime(cluster)
    schema = Schema(("key", "uint64"), ("value", "uint64"))
    dfi.init_combiner_flow(
        "colsum", [Endpoint(n, 0) for n in range(sources)],
        Endpoint(sources, 0), schema,
        aggregation=AggregationSpec("sum", "key", "value"),
        optimization=Optimization.BANDWIDTH, options=FlowOptions())
    per_source = TOTAL_BYTES // 16 // sources
    window = {"start": None, "end": 0.0}

    def source_thread(index):
        source = yield from dfi.open_source("colsum", index)
        if window["start"] is None:
            window["start"] = cluster.now
        pushed = 0
        while pushed < per_source:
            n = min(1024, per_source - pushed)
            yield from source.push_batch(
                [(i % 4096, 1) for i in range(pushed, pushed + n)])
            pushed += n
        yield from source.close()

    out = {}

    def target_thread():
        target = yield from dfi.open_target("colsum", 0)
        while (yield from target.consume_step()) is not FLOW_END:
            pass
        out["aggregated"] = target.tuples_aggregated
        window["end"] = cluster.now

    for n in range(sources):
        cluster.node(n).spawn(source_thread(n))
    cluster.node(sources).spawn(target_thread())
    start = time.perf_counter()
    cluster.run()
    wall = time.perf_counter() - start
    count = per_source * sources
    assert out["aggregated"] == count
    return {
        "scenario": "combiner-8to1-16B-fold",
        "tuples": count,
        "mode": "fold",
        "wall_seconds": wall,
        "tuples_per_sec": count / wall,
        "simulated_elapsed_ns": window["end"] - window["start"],
    }


def _best_of(fn, *args) -> dict:
    best = fn(*args)
    for _ in range(REPS - 1):
        rep = fn(*args)
        assert rep["simulated_elapsed_ns"] == best["simulated_elapsed_ns"], (
            rep["scenario"], rep["simulated_elapsed_ns"],
            best["simulated_elapsed_ns"])
        if rep["tuples_per_sec"] > best["tuples_per_sec"]:
            best = rep
    best["reps"] = REPS
    return best


def run_all() -> dict:
    results = {"bench": "columnar", "total_bytes": TOTAL_BYTES,
               "reps": REPS, "codegen": config.CODEGEN_ENABLED,
               "scenarios": []}
    # Warm runs: imports, kernel compilation, allocator.
    _run_shuffle("batched")
    _run_combiner()
    scenarios = _kernel_route(64) + _kernel_fold()
    scenarios += [_best_of(_run_shuffle, "batched"),
                  _best_of(_run_shuffle, "bytes"),
                  _best_of(_run_combiner)]
    for entry in scenarios:
        results["scenarios"].append(entry)
        extra = ""
        if "speedup_vs_generic" in entry:
            extra = f"  ({entry['speedup_vs_generic']:4.2f}x vs generic)"
        print(f"{entry['scenario']:>28}: "
              f"{entry['tuples_per_sec']:12.0f} tuples/s wall, "
              f"sim {entry['simulated_elapsed_ns']:12.2f} ns{extra}")
    return results


def check_against(committed_path: str, fresh: dict) -> None:
    """±20% report-only band on tuples/s; **hard gate** on simulated ns
    (bit-identical to the committed record or the check dies)."""
    with open(committed_path) as fh:
        committed = json.load(fh)
    baseline = {entry["scenario"]: entry
                for entry in committed.get("scenarios", [])}
    print(f"\n--- regression check vs {committed_path} (+-20% band, "
          f"report-only) ---")
    for entry in fresh["scenarios"]:
        name = entry["scenario"]
        ref = baseline.get(name)
        if ref is None:
            print(f"{name:>28}: NEW (no committed baseline)")
            continue
        assert (entry["simulated_elapsed_ns"]
                == ref["simulated_elapsed_ns"]), (
            f"{name}: simulated time drifted from the committed record: "
            f"{entry['simulated_elapsed_ns']} != "
            f"{ref['simulated_elapsed_ns']}")
        ratio = entry["tuples_per_sec"] / ref["tuples_per_sec"]
        verdict = "ok" if 0.8 <= ratio else "REGRESSION?"
        if ratio > 1.2:
            verdict = "faster"
        print(f"{name:>28}: {ratio:5.2f}x committed  [{verdict}]")
    print("--- end regression check (simulated ns hard-gated, tuples/s "
          "informational) ---")


def main() -> None:
    args = sys.argv[1:]
    check_path = None
    if args and args[0] == "--check":
        check_path = args[1] if len(args) > 1 else OUTPUT
    results = run_all()
    if check_path is not None:
        check_against(check_path, results)
        return  # report-only: never rewrites the committed JSON
    with open(OUTPUT, "w") as fh:
        json.dump(results, fh, indent=2)
    print(f"wrote {OUTPUT}")


if __name__ == "__main__":
    maybe_profiled(main)
