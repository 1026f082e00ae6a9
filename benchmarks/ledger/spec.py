"""Names, units, directions and bounds of every metric the ledger reports.

``BENCHMARK.json`` at the repository root is the copy the PR driver
reads; ``test_ledger.py`` checks that the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass

from layers import LAYERS


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the base value by which the metric may get worse.
    #: ``None``: reported, never gated.
    bound: "float | None" = None
    #: Repeats bit for bit on the same commit, seed and sizes: any
    #: difference at all is a finding.
    exact: bool = False


#: What a user of the simulator sees. Host times are calibrated seconds
#: (see calib.py); ``sim_ns`` is model output and must never move.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("run_s", "s", "lower", 0.15),
    Metric("calls_per_op", "count", "lower", 0.02, exact=True),
    Metric("sim_ns", "sim_ns", "lower", 0.0, exact=True),
    Metric("peak_rss_mb", "MiB", "lower", 0.10),
    Metric("fail_rate", "fraction", "lower", 0.0, exact=True),
)

_TALLIES = (
    Metric("simnet.kernel.events_per_op", "count", "lower", exact=True),
    Metric("rdma.qp.wqes_per_op", "count", "lower", exact=True),
    Metric("rdma.qp.trains_per_op", "count", "lower", exact=True),
    Metric("simnet.fabric.msgs_per_op", "count", "lower", exact=True),
    Metric("simnet.fabric.wire_bytes_per_payload_byte", "ratio", "lower",
           exact=True),
    Metric("simnet.congestion.ecn_marks", "count", "lower", exact=True),
    Metric("simnet.shard.mailbox_crossings", "count", "lower", exact=True),
    Metric("obs.trace_events_kept", "count", "lower", exact=True),
    Metric("sim.gib_per_s", "GiB/s", "higher", exact=True),
)

_HARNESS = (
    Metric("run_s.q1", "s", "lower"),
    Metric("run_s.q3", "s", "lower"),
    Metric("run_s.slices", "count", "higher"),
    Metric("trace.overhead_ratio", "ratio", "lower"),
    Metric("calib.slice_s", "s", "lower"),
    Metric("host.wall_s", "s", "lower"),
    Metric("host.ops_per_s", "1/s", "higher"),
)

#: Reported on every workload.
PER_LAYER = tuple(
    metric for layer in LAYERS for metric in (
        Metric(f"{layer}.self_share", "fraction", "lower"),
        Metric(f"{layer}.self_cost", "s", "lower"),
        Metric(f"{layer}.calls_per_op", "count", "lower", exact=True),
    )) + _TALLIES + _HARNESS

#: Reported only where they mean something: the round-trip percentiles
#: on ``pingpong_latency``, the obs on/off ratio on ``shuffle_batched_obs``
#: (and only when ``shuffle_batched`` ran in the same invocation).
WORKLOAD_SPECIFIC = (
    Metric("sim.rtt_p50_ns", "sim_ns", "lower", exact=True),
    Metric("sim.rtt_p99_ns", "sim_ns", "lower", exact=True),
    Metric("obs.overhead_ratio", "ratio", "lower"),
)

#: The PR driver wants end-to-end metrics that are never 0 and that may
#: differ between seeds within their bound, so the two exact-zero-bound
#: ones are handed to it as unbounded per-layer metrics instead (the
#: ledger's own --sets / --compare still gate them exactly).
DRIVER_END_TO_END = tuple(m for m in END_TO_END if m.bound)
DRIVER_PER_LAYER = tuple(m for m in END_TO_END if not m.bound) + PER_LAYER

BY_NAME = {m.name: m for m in END_TO_END + PER_LAYER + WORKLOAD_SPECIFIC}
