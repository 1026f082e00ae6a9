#!/usr/bin/env python3
"""Observe a shuffle: counters, a Perfetto trace and critical-path blame.

A 1:8 bandwidth shuffle of 64 B tuples runs with the observability
plane fully on (counters, per-flow tracing, causal edges). Turning it on
never moves simulated time — the run is repeated with the plane off and
the two finish times are compared. Afterwards the example prints the
metrics report and the blame table of the flow, and with
``--trace-out FILE`` writes the Chrome ``trace_event`` JSON (open it at
https://ui.perfetto.dev, or feed it to ``python -m repro.obs.analyze``).

Run:  python examples/observe_shuffle.py [--bytes N] [--trace-out FILE]
"""

import argparse

from repro import FLOW_END, Cluster, DfiRuntime, Schema
from repro.obs import (
    analyze_cluster,
    export_chrome_trace,
    render_blame,
    render_report,
)

TUPLE_SIZE = 64
TARGETS = 8


def run_shuffle(total_bytes: int, observe: bool) -> Cluster:
    cluster = Cluster(node_count=1 + TARGETS)
    if observe:
        # BEFORE opening endpoints: they cache the plane at construction.
        cluster.enable_observability(trace=True, causal=True)
    dfi = DfiRuntime(cluster)
    dfi.init_shuffle_flow(
        "shuffle", sources=["node0|0"],
        targets=[f"node{1 + n}|0" for n in range(TARGETS)],
        schema=Schema(("key", "uint64"), ("pad", TUPLE_SIZE - 8)),
        shuffle_key="key")
    count = total_bytes // TUPLE_SIZE
    pad = b"x" * (TUPLE_SIZE - 8)

    def source_thread():
        source = yield from dfi.open_source("shuffle", 0)
        for start in range(0, count, 1024):
            yield from source.push_batch(
                [(key, pad) for key in range(start, min(start + 1024, count))])
        yield from source.close()

    def target_thread(index):
        target = yield from dfi.open_target("shuffle", index)
        while (yield from target.consume_batch()) is not FLOW_END:
            pass

    cluster.env.process(source_thread())
    for index in range(TARGETS):
        cluster.env.process(target_thread(index))
    cluster.run()
    return cluster


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bytes", type=int, default=1 << 20,
                        help="payload bytes to shuffle (default 1 MiB)")
    parser.add_argument("--trace-out", metavar="FILE", default=None,
                        help="write the Perfetto-loadable trace here")
    args = parser.parse_args()

    bare = run_shuffle(args.bytes, observe=False)
    cluster = run_shuffle(args.bytes, observe=True)
    assert cluster.now == bare.now, "observability moved simulated time"
    print(f"finished at t = {cluster.now / 1e3:.2f} us, with the plane on "
          f"and off alike\n")

    # Everything below is derived now, from the one record per doorbell
    # train and per drain pass the run appended to the plane log.
    snapshot = cluster.metrics_snapshot()
    pushed = snapshot["nodes"][0]["counters"]["core.tuples_pushed"]
    assert pushed == args.bytes // TUPLE_SIZE, pushed
    print(render_report(snapshot))
    print()
    print(render_blame(analyze_cluster(cluster)))
    if args.trace_out:
        document = export_chrome_trace(cluster, args.trace_out)
        print(f"\nwrote {len(document['traceEvents'])} trace events and "
              f"{len(document['reproCausal']['edges'])} causal edges to "
              f"{args.trace_out}")


if __name__ == "__main__":
    main()
