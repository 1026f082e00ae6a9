"""Simulated-time fingerprint of the figure benches.

Prints the *exact* (repr, full float precision) simulated metrics of a
representative slice of every figure-bench family. Performance work on
the simulator must leave this fingerprint bit-identical: the hot path may
get faster in wall-clock terms, but the simulated GiB/s and RTTs are the
paper reproduction and must not move.

Run with::

    PYTHONPATH=src python benchmarks/perf/fingerprint.py [output.json]

and diff the JSON against a pre-change capture. Every ``--check*`` mode
reports drifted keys as a per-metric unified diff (one element per line
for tuple-valued metrics) and exits 1 on any drift, 0 when clean.

``--check-fault-neutral`` runs the whole fingerprint twice — once bare,
once with an *empty* ``FaultPlan`` installed on every cluster — and
fails (exit 1) on any difference: the fault plane must be exactly free
when no faults are scheduled.

``--check <baseline.json>`` collects a fresh fingerprint and compares it
bit-exactly against a previously captured JSON: any drift on a key the
baseline knows fails (exit 1); keys only the fresh run has are reported
as new (coverage growth, not drift).

``--check-congestion-neutral`` runs the fingerprint twice — once bare,
once with an *unbounded* ``CongestionConfig`` installed on every cluster
— and fails (exit 1) on any difference: a congestion plane whose
thresholds never trip must add zero delay, mark nothing, and schedule no
events (the ``congestion=None`` default is stronger still — the plane is
never even consulted).

``--with-obs`` runs the whole fingerprint three times — bare, with the
observability plane (counters, tracing **and** causal-edge recording)
enabled on every cluster, and with observability plus an empty
``FaultPlan`` — and fails (exit 1) on any difference: recording
telemetry must never move simulated time (the ``repro.obs`` determinism
contract, see docs/observability.md).
"""

from __future__ import annotations

import difflib
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, os.pardir, "src"))

from repro.bench.flows import (  # noqa: E402
    measure_combiner_bandwidth,
    measure_replicate_bandwidth,
    measure_replicate_rtt,
    measure_scaleout_bandwidth,
    measure_shuffle_bandwidth,
    measure_shuffle_rtt,
)
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


def _combiner_step_fingerprint() -> tuple:
    """N:1 combiner drained with ``consume_step`` (the incremental consume
    path): exact finish time plus an order-independent aggregate checksum."""
    cluster = Cluster(node_count=5)
    dfi = DfiRuntime(cluster)
    schema = Schema(("group", "uint64"), ("value", "uint64"))
    dfi.init_combiner_flow(
        "fp-agg", [Endpoint(1 + n, 0) for n in range(4)], Endpoint(0, 0),
        schema, aggregation=AggregationSpec("sum", "group", "value"),
        options=FlowOptions(source_segments=4, target_segments=16,
                            credit_threshold=8))
    out = {}

    def source_thread(index):
        source = yield from dfi.open_source("fp-agg", index)
        for i in range(2000):
            yield from source.push((i % 32, i))
        yield from source.close()

    def target_thread():
        target = yield from dfi.open_target("fp-agg")
        while (yield from target.consume_step()) is not FLOW_END:
            pass
        out["aggregates"] = dict(target.aggregates)
        out["tuples"] = target.tuples_aggregated

    for index in range(4):
        cluster.env.process(source_thread(index))
    cluster.env.process(target_thread())
    cluster.run()
    checksum = sum(group * 31 + value
                   for group, value in sorted(out["aggregates"].items()))
    return cluster.now, out["tuples"], checksum


def _train_shuffle_fingerprint() -> tuple:
    """1:1 bandwidth shuffle pushed in 1024-tuple batches: full-segment
    flushes ride the doorbell-train path (windowed writability proof,
    one ``QueuePair.post_train`` per train). Exact finish time plus the
    delivered tuple count pin the train timeline."""
    cluster = Cluster(node_count=2)
    dfi = DfiRuntime(cluster)
    schema = Schema(("key", "uint64"), ("pad", 56))
    dfi.init_shuffle_flow("fp-train", [Endpoint(0, 0)], [Endpoint(1, 0)],
                          schema, shuffle_key="key", options=FlowOptions())
    count = (256 << 10) // schema.tuple_size
    pad = b"x" * 56
    consumed = [0]

    def source_thread():
        source = yield from dfi.open_source("fp-train", 0)
        pushed = 0
        while pushed < count:
            n = min(1024, count - pushed)
            yield from source.push_batch(
                [(i, pad) for i in range(pushed, pushed + n)], target=0)
            pushed += n
        yield from source.close()

    def target_thread():
        target = yield from dfi.open_target("fp-train", 0)
        while True:
            batch = yield from target.consume_batch()
            if batch is FLOW_END:
                break
            consumed[0] += len(batch)

    cluster.env.process(source_thread())
    cluster.env.process(target_thread())
    cluster.run()
    return cluster.now, consumed[0]


def _train_replicate_fingerprint() -> tuple:
    """1:2 naive replicate pushed in batches: whole segment trains fan
    out through ``FooterRingWriter.write_segments`` with one doorbell per
    windowed chunk."""
    cluster = Cluster(node_count=3)
    dfi = DfiRuntime(cluster)
    schema = Schema(("key", "uint64"), ("pad", 248))
    dfi.init_replicate_flow(
        "fp-rep", [Endpoint(0, 0)], [Endpoint(1, 0), Endpoint(2, 0)],
        schema, options=FlowOptions())
    count = (128 << 10) // schema.tuple_size
    pad = b"x" * 248
    received = [0]

    def source_thread():
        source = yield from dfi.open_source("fp-rep", 0)
        pushed = 0
        while pushed < count:
            n = min(1024, count - pushed)
            yield from source.push_batch(
                [(i, pad) for i in range(pushed, pushed + n)])
            pushed += n
        yield from source.close()

    def target_thread(index):
        target = yield from dfi.open_target("fp-rep", index)
        while True:
            item = yield from target.consume()
            if item is FLOW_END:
                break
            received[0] += 1

    cluster.env.process(source_thread())
    for index in range(2):
        cluster.env.process(target_thread(index))
    cluster.run()
    return cluster.now, received[0]


def collect() -> dict:
    fp = {}
    for tuple_size, threads in ((64, 1), (256, 2)):
        m = measure_shuffle_bandwidth(tuple_size, threads,
                                      total_bytes=1 << 20)
        fp[f"shuffle_bw_{tuple_size}B_{threads}src"] = m.elapsed_ns
    m = measure_shuffle_bandwidth(
        64, 1, total_bytes=1 << 20, optimization=Optimization.LATENCY,
        options=FlowOptions(target_segments=64, credit_threshold=16))
    fp["shuffle_lat_64B_1src"] = m.elapsed_ns
    fp["shuffle_rtt_64B_4srv"] = measure_shuffle_rtt(64, 4, iterations=50)
    m = measure_scaleout_bandwidth(4, 2, bytes_per_source=256 << 10)
    fp["scaleout_4x2"] = m.elapsed_ns
    for multicast in (False, True):
        m = measure_replicate_bandwidth(256, 1, multicast,
                                        total_bytes=512 << 10)
        fp[f"replicate_{'mc' if multicast else 'naive'}_256B"] = m.elapsed_ns
        fp[f"replicate_{'mc' if multicast else 'naive'}_rtt"] = (
            measure_replicate_rtt(64, 3, multicast, iterations=30))
    m = measure_combiner_bandwidth(16, 1, total_bytes=512 << 10)
    fp["combiner_16B"] = m.elapsed_ns
    # Consume-path scenarios (PR 2): N:1 flows stress the target-side
    # drain loop — many channels funneling into one consume_batch loop.
    m = measure_shuffle_bandwidth(64, 8, target_nodes=1,
                                  total_bytes=1 << 20)
    fp["consume_nto1_64B_8src"] = m.elapsed_ns
    m = measure_shuffle_bandwidth(
        64, 4, target_nodes=1, total_bytes=128 << 10,
        optimization=Optimization.LATENCY,
        options=FlowOptions(target_segments=64, credit_threshold=16))
    fp["consume_nto1_lat_64B_4src"] = m.elapsed_ns
    fp["consume_combiner_step_4src"] = _combiner_step_fingerprint()
    # Doorbell-train scenarios (this PR): batched pushes route full
    # segments through deferred-doorbell trains and windowed proofs.
    fp["train_shuffle_64B_1src"] = _train_shuffle_fingerprint()
    fp["train_replicate_256B_1to2"] = _train_replicate_fingerprint()
    return fp


def _render(value) -> list:
    """One repr line per element for sequences, so a drifted tuple metric
    pins the exact drifted component in the diff instead of one long line."""
    if isinstance(value, (tuple, list)):
        return [f"  {item!r}" for item in value]
    return [f"  {value!r}"]


def _diff_metrics(header: str, expected: dict, got: dict,
                  expected_name: str, got_name: str) -> bool:
    """Print a per-metric unified diff of every drifted key.

    Returns True when anything drifted (the caller's failure signal);
    prints nothing and returns False when the two captures agree on every
    key of ``expected``.
    """
    drifted = [key for key in expected if expected[key] != got.get(key)]
    if not drifted:
        return False
    print(header)
    for key in drifted:
        expected_lines = [f"{key}:"] + _render(expected[key])
        got_lines = [f"{key}:"] + _render(got.get(key))
        for line in difflib.unified_diff(expected_lines, got_lines,
                                         fromfile=expected_name,
                                         tofile=got_name, lineterm=""):
            print(f"  {line}")
    return True


def check_fault_neutral() -> int:
    """Assert an empty fault plan leaves the fingerprint bit-identical."""
    from repro.simnet import FaultPlan, faults

    bare = collect()
    faults.set_default_plan(FaultPlan())
    try:
        with_plane = collect()
    finally:
        faults.set_default_plan(None)

    if _diff_metrics("FAULT-NEUTRALITY VIOLATION: empty fault plane moved "
                     "simulated metrics:",
                     bare, with_plane, "bare", "with-fault-plane"):
        return 1
    print(f"fault-neutral: {len(bare)} metrics bit-identical with an "
          f"empty fault plane installed")
    return 0


def check_congestion_neutral() -> int:
    """Assert an installed-but-unbounded congestion plane leaves the
    fingerprint bit-identical: every threshold sits at infinity, so the
    plane's admission arithmetic must add exactly zero delay, mark
    nothing, and schedule no CNP/recovery events. ``congestion=None``
    neutrality is stronger still (the plane is never consulted) and is
    covered by the bare run this one is compared against."""
    from repro.simnet import congestion
    from repro.simnet.congestion import CongestionConfig

    bare = collect()
    congestion.set_default_config(CongestionConfig.unbounded())
    try:
        with_plane = collect()
    finally:
        congestion.set_default_config(None)

    if _diff_metrics("CONGESTION-NEUTRALITY VIOLATION: unbounded congestion "
                     "plane moved simulated metrics:",
                     bare, with_plane, "bare", "with-congestion-plane"):
        return 1
    print(f"congestion-neutral: {len(bare)} metrics bit-identical with an "
          f"unbounded congestion plane installed")
    return 0


def check_with_obs() -> int:
    """Assert counters + tracing + causal recording leave the fingerprint
    bit-identical, alone and stacked on top of an (empty) fault plane."""
    from repro import obs
    from repro.simnet import FaultPlan, faults

    bare = collect()
    obs.set_default_observability(True, trace=True, causal=True)
    try:
        with_obs = collect()
        faults.set_default_plan(FaultPlan())
        try:
            with_obs_faults = collect()
        finally:
            faults.set_default_plan(None)
    finally:
        obs.set_default_observability(False)

    status = 0
    for label, probe in (("counters+tracing+causal", with_obs),
                         ("counters+tracing+causal+fault-plane",
                          with_obs_faults)):
        if _diff_metrics(f"OBS-NEUTRALITY VIOLATION ({label}) moved "
                         f"simulated metrics:",
                         bare, probe, "bare", f"with-{label}"):
            status = 1
        else:
            print(f"obs-neutral ({label}): {len(bare)} metrics "
                  f"bit-identical")
    return status


def check_baseline(path: str) -> int:
    """Bit-exact compare a fresh fingerprint against a captured JSON."""
    with open(path) as fh:
        baseline = json.load(fh)
    # JSON round-trips tuples as lists; normalize the fresh capture the
    # same way so the comparison is representation-free.
    fresh = json.loads(json.dumps(collect()))
    for key in fresh:
        if key not in baseline:
            print(f"new metric (no baseline): {key}: {fresh[key]!r}")
    if _diff_metrics(f"FINGERPRINT DRIFT vs {path}:",
                     baseline, fresh, "baseline", "fresh"):
        return 1
    print(f"fingerprint: {len(baseline)} baseline metrics bit-identical "
          f"vs {path}")
    return 0


def main() -> None:
    args = sys.argv[1:]
    if "--check-fault-neutral" in args:
        sys.exit(check_fault_neutral())
    if "--check-congestion-neutral" in args:
        sys.exit(check_congestion_neutral())
    if "--with-obs" in args:
        sys.exit(check_with_obs())
    if args and args[0] == "--check":
        if len(args) < 2:
            print("usage: fingerprint.py --check <baseline.json>")
            sys.exit(2)
        sys.exit(check_baseline(args[1]))
    output = args[0] if args else None
    fp = collect()
    for key, value in fp.items():
        print(f"{key}: {value!r}")
    if output:
        with open(output, "w") as fh:
            json.dump(fp, fh, indent=2)
        print(f"wrote {output}")


if __name__ == "__main__":
    main()
