"""Command-line driver for the perftest baselines.

Run with::

    PYTHONPATH=src python -m repro.apps.perftest lat --size 64
    PYTHONPATH=src python -m repro.apps.perftest bw --size 4096 --stats

``--stats`` enables the observability plane before the run and prints
the compact :func:`repro.obs.render_report` table afterwards — the
simulated results are bit-identical either way (the ``repro.obs``
determinism contract). ``--trace-out FILE`` additionally records every
flow event and writes a Chrome ``trace_event`` JSON loadable in
Perfetto (perftest itself creates no DFI flows, so the file carries the
metadata and any fault-plan instants; it is mostly useful as a smoke
test of the exporter).
"""

from __future__ import annotations

import argparse
import statistics
import sys

from repro.apps.perftest.perftest import ib_write_bw, ib_write_lat
from repro.simnet.cluster import Cluster


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.apps.perftest",
        description="ib_write_lat / ib_write_bw on the simulated fabric")
    parser.add_argument("tool", choices=("lat", "bw"),
                        help="lat: ping-pong RTT; bw: windowed bandwidth")
    parser.add_argument("--size", type=int, default=64,
                        help="message size in bytes (default 64)")
    parser.add_argument("--iterations", type=int, default=None,
                        help="iterations (default: 100 lat / 1000 bw)")
    parser.add_argument("--window", type=int, default=64,
                        help="outstanding writes for bw (default 64)")
    parser.add_argument("--seed", type=int, default=7,
                        help="experiment seed (default 7)")
    parser.add_argument("--nodes", type=int, default=2,
                        help="cluster size; the client runs on node 0 and "
                             "the server on the last node (default 2)")
    parser.add_argument("--shards", type=int, default=1,
                        help="event-kernel shards (default 1; simulated "
                             "results are bit-identical at any shard "
                             "count)")
    parser.add_argument("--stats", action="store_true",
                        help="enable observability and print the metrics "
                             "report after the run")
    parser.add_argument("--trace-out", metavar="FILE", default=None,
                        help="write a Chrome trace_event JSON (implies "
                             "--stats with tracing)")
    args = parser.parse_args(argv)

    if args.nodes < 2:
        parser.error("--nodes must be >= 2 (client and server)")
    cluster = Cluster(node_count=args.nodes, seed=args.seed,
                      shards=args.shards)
    if args.stats or args.trace_out:
        cluster.enable_observability(trace=args.trace_out is not None)
    server_node = args.nodes - 1

    if args.tool == "lat":
        iterations = args.iterations or 100
        rtts = ib_write_lat(cluster, args.size, iterations=iterations,
                            server_node=server_node)
        print(f"ib_write_lat size={args.size}B iterations={iterations}: "
              f"median={statistics.median(rtts):.1f} ns "
              f"min={min(rtts):.1f} ns max={max(rtts):.1f} ns")
    else:
        iterations = args.iterations or 1000
        bw = ib_write_bw(cluster, args.size, iterations=iterations,
                         window=args.window, server_node=server_node)
        print(f"ib_write_bw size={args.size}B iterations={iterations} "
              f"window={args.window}: {bw:.3f} GB/s")

    if args.stats or args.trace_out:
        from repro.obs import export_chrome_trace, render_report

        print(render_report(cluster.metrics_snapshot()))
        if args.trace_out:
            export_chrome_trace(cluster, args.trace_out)
            print(f"wrote {args.trace_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
