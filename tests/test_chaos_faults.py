"""Chaos tests: seeded random fault schedules against every flow type.

The invariant under test is **no hang**: whatever a random (but seeded,
hence reproducible) fault plan does to a run — crashes, link outages,
partitions, degrades — every endpoint process must finish within the
simulation horizon with a *legible* outcome: normal completion, a flow
error from the taxonomy (FlowPeerFailedError / FlowTimeoutError /
FlowAbortedError), or death by crash injection. Raw transport errors
leaking to the application, or a process still blocked at the horizon,
are failures.

The same harness is the chaos determinism check: every cell of the
matrix runs twice and must produce bit-identical outcomes, tuple counts
and final clock.
"""

import pytest

from repro.common.errors import (
    FlowAbortedError,
    FlowPeerFailedError,
    FlowTimeoutError,
)
from repro.core import (
    FLOW_END,
    AggregationSpec,
    DfiRuntime,
    FlowOptions,
    Optimization,
    Schema,
)
from repro.simnet import Cluster, CongestionConfig, FaultPlan

SCHEMA = Schema(("key", "uint64"), ("value", "uint64"))
SEEDS = range(5)
FLOW_TYPES = ("shuffle", "replicate", "combiner")
MODES = (Optimization.BANDWIDTH, Optimization.LATENCY)

#: Simulated horizon: generous against every bounded wait in the stack
#: (fault window 0.05-0.8 ms, detection 60 µs, peer timeout 200 µs,
#: 32 backoff rounds ≈ 1.4 ms worst case).
HORIZON = 8_000_000.0
DETECTION = 60_000.0

ALLOWED = {"completed", "killed", "FlowPeerFailedError",
           "FlowTimeoutError", "FlowAbortedError"}
_FLOW_ERRORS = (FlowPeerFailedError, FlowTimeoutError, FlowAbortedError)


#: Tight band so the 256-byte chaos segments actually trip marking and
#: PFC when a congested cell runs — the stock datacenter() band (24 KiB)
#: would never see the small chaos transfers, whose egress queues peak at
#: two in-flight segments (544 bytes).
CHAOS_CONGESTION = CongestionConfig(
    queue_capacity=512, kmin=64, kmax=256,
    min_rate_fraction=0.05, cnp_interval=8_000.0,
    recovery_period=8_000.0, ai_fraction=0.02, hai_fraction=0.1,
    recovery_jitter=0.1)


def _options(flow_type, optimization, seed, congestion=None):
    return FlowOptions(
        segment_size=256, source_segments=4, target_segments=8,
        credit_threshold=2,
        peer_timeout=200_000.0,
        max_backoff_retries=32,
        max_retransmits=8,
        # Exercise both failure policies across the seed matrix.
        on_target_failure="reroute" if seed % 2 else "abort",
        multicast=(flow_type == "replicate"
                   and optimization is Optimization.LATENCY),
        congestion=congestion)


def _run_chaos(seed, flow_type, optimization, congestion=None):
    """One chaos run; returns (outcomes, tuple counts, final time)."""
    cluster = Cluster(node_count=5, seed=seed)
    plan = FaultPlan.random(seed, node_ids=range(5), start=50_000.0,
                            horizon=800_000.0, entry_count=3,
                            protected=(0,))  # node 0: registry master
    cluster.install_faults(plan, detection_timeout=DETECTION)
    dfi = DfiRuntime(cluster)
    options = _options(flow_type, optimization, seed, congestion)

    if flow_type == "shuffle":
        dfi.init_shuffle_flow("chaos", ["node1|0", "node2|0"],
                              ["node3|0", "node4|0"], SCHEMA,
                              shuffle_key="key", optimization=optimization,
                              options=options)
        sources = [(1, 0), (2, 1)]
        targets = [(3, 0), (4, 1)]
    elif flow_type == "replicate":
        dfi.init_replicate_flow("chaos", ["node1|0"],
                                ["node2|0", "node3|0", "node4|0"], SCHEMA,
                                optimization=optimization, options=options)
        sources = [(1, 0)]
        targets = [(2, 0), (3, 1), (4, 2)]
    else:
        dfi.init_combiner_flow("chaos", ["node1|0", "node2|0", "node3|0"],
                               "node4|0", SCHEMA,
                               aggregation=AggregationSpec("sum", "key",
                                                           "value"),
                               optimization=optimization, options=options)
        sources = [(1, 0), (2, 1), (3, 2)]
        targets = [(4, 0)]

    outcomes = {}
    counts = {}

    def source_thread(key, index):
        try:
            source = yield from dfi.open_source("chaos", index)
            for i in range(600):
                yield from source.push((i, 1))
            yield from source.close()
            outcomes[key] = "completed"
        except _FLOW_ERRORS as exc:
            outcomes[key] = type(exc).__name__

    def target_thread(key, index):
        counts[key] = 0
        try:
            target = yield from dfi.open_target("chaos", index)
            if flow_type == "combiner":
                while (yield from target.consume_step()) is not FLOW_END:
                    pass
                counts[key] = target.tuples_aggregated
            else:
                while True:
                    item = yield from target.consume()
                    if item is FLOW_END:
                        break
                    counts[key] += 1
            outcomes[key] = "completed"
        except _FLOW_ERRORS as exc:
            outcomes[key] = type(exc).__name__

    procs = {}
    for node_id, index in sources:
        key = ("src", index)
        procs[key] = cluster.node(node_id).spawn(source_thread(key, index))
    for node_id, index in targets:
        key = ("tgt", index)
        procs[key] = cluster.node(node_id).spawn(target_thread(key, index))

    cluster.run(until=HORIZON)

    for key, proc in procs.items():
        if key not in outcomes:
            # Crash injection kills the whole process: that is a legible
            # outcome. Anything else still unfinished at the horizon is a
            # hang — exactly what this suite exists to catch.
            assert not proc.is_alive, (
                f"hang: endpoint {key} still blocked at the horizon "
                f"(seed={seed}, flow={flow_type}, "
                f"mode={optimization.value}, plan={plan.entries})")
            outcomes[key] = "killed"
    return outcomes, counts, cluster.now


def _check_cell(seed, flow_type, mode, congestion=None):
    """One matrix cell, run twice: legible outcomes, and the same
    (outcomes, counts, final time) triple both times."""
    first = _run_chaos(seed, flow_type, mode, congestion)
    assert set(first[0].values()) <= ALLOWED, first[0]
    assert _run_chaos(seed, flow_type, mode, congestion) == first


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("flow_type", FLOW_TYPES)
@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_no_hang(seed, flow_type, mode):
    _check_cell(seed, flow_type, mode)


def test_chaos_matrix_actually_injects_failures():
    """Sanity check on the harness itself: across the whole seed matrix
    at least some runs must experience a fault-induced outcome —
    otherwise the no-hang assertions above are vacuous."""
    observed = set()
    for seed in SEEDS:
        for flow_type in FLOW_TYPES:
            outcomes, _counts, _now = _run_chaos(
                seed, flow_type, Optimization.BANDWIDTH)
            observed |= set(outcomes.values())
    assert observed - {"completed"}, "no chaos run saw any failure"


@pytest.mark.parametrize("flow_type", FLOW_TYPES)
def test_chaos_runs_are_bit_reproducible(flow_type):
    for mode in MODES:
        first = _run_chaos(3, flow_type, mode)
        second = _run_chaos(3, flow_type, mode)
        assert first == second


# -- congestion x fault cells ------------------------------------------------
# Same invariant, harder conditions: random fault plans (including
# link_degrade, which rescales the very bandwidth the virtual queues and
# rate limiters are calibrated against) on top of an active congestion
# plane with a band tight enough to throttle the chaos traffic. The rate
# floor plus self-clearing grace must keep every endpoint legible.

@pytest.mark.parametrize("flow_type", FLOW_TYPES)
@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_congested_no_hang(seed, flow_type):
    _check_cell(seed, flow_type, Optimization.BANDWIDTH, CHAOS_CONGESTION)


@pytest.mark.parametrize("flow_type", FLOW_TYPES)
@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_congested_latency_no_hang(seed, flow_type):
    _check_cell(seed, flow_type, Optimization.LATENCY, CHAOS_CONGESTION)


@pytest.mark.parametrize("flow_type", FLOW_TYPES)
def test_chaos_congested_bit_reproducible(flow_type):
    first = _run_chaos(3, flow_type, Optimization.BANDWIDTH,
                       congestion=CHAOS_CONGESTION)
    second = _run_chaos(3, flow_type, Optimization.BANDWIDTH,
                        congestion=CHAOS_CONGESTION)
    assert first == second


def test_chaos_congested_cells_actually_throttle():
    """Vacuity guard for the congested matrix: across the seeds, at
    least one shuffle cell's congestion plane must have done real work
    (packets observed, and marks or PFC stalls recorded) — otherwise the
    congested no-hang assertions test nothing beyond the plain matrix."""
    packets = marks_or_stalls = 0
    for seed in SEEDS:
        _outcomes, _counts, now = _run_chaos(
            seed, "shuffle", Optimization.BANDWIDTH,
            congestion=CHAOS_CONGESTION)
        assert now <= HORIZON
    # Re-run one cell with the cluster exposed to read the plane tallies.
    cluster = Cluster(node_count=5, seed=1)
    cluster.install_faults(FaultPlan(), detection_timeout=DETECTION)
    dfi = DfiRuntime(cluster)
    options = _options("shuffle", Optimization.BANDWIDTH, 1,
                       CHAOS_CONGESTION)
    dfi.init_shuffle_flow("chaos", ["node1|0", "node2|0"],
                          ["node3|0", "node4|0"], SCHEMA,
                          shuffle_key="key", options=options)

    def src(index):
        source = yield from dfi.open_source("chaos", index)
        for i in range(600):
            yield from source.push((i, 1))
        yield from source.close()

    def tgt(index):
        target = yield from dfi.open_target("chaos", index)
        while (yield from target.consume()) is not FLOW_END:
            pass

    cluster.node(1).spawn(src(0))
    cluster.node(2).spawn(src(1))
    cluster.node(3).spawn(tgt(0))
    cluster.node(4).spawn(tgt(1))
    cluster.run(until=HORIZON)
    stats = cluster.congestion.stats()
    packets = stats["packets_seen"]
    marks_or_stalls = stats["ecn_marks"] + stats["pfc_stalls"]
    assert packets > 0
    assert marks_or_stalls > 0, stats
