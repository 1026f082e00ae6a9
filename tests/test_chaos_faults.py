"""Chaos tests: seeded random fault schedules against every flow type.

The invariant under test is **no hang**: whatever a random (but seeded,
hence reproducible) fault plan does to a run — crashes, link outages,
partitions, degrades — every endpoint process must finish within the
simulation horizon with a *legible* outcome: normal completion, a flow
error from the taxonomy (FlowPeerFailedError / FlowTimeoutError /
FlowAbortedError), or death by crash injection. Raw transport errors
leaking to the application, or a process still blocked at the horizon,
are failures.

The same harness is the chaos differential: every cell of the matrix
runs once on the product, whose RC writes take the macro walk cut at
each crash instant, and once on the discrete per-WQE oracle
(``tests/discrete_reference.py``), whose timers re-check liveness when
they fire. Both must produce identical outcomes, tuple counts and final
clock. The oracle also charges a batched push's CPU once per channel
group, where the product sleeps once per flush boundary: the batched
cells run that merged charge under crash, abort and reroute. The
``bit_reproducible`` tests run the product twice.
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
from tests import discrete_reference

SCHEMA = Schema(("key", "uint64"), ("value", "uint64"))
SEEDS = range(5)
#: Rows per ``push_batch`` call of the batched cells.
BATCH = 25
#: Where the batched cells' faults land: a bandwidth shuffle source
#: pushes its 600 tuples within ~20 µs, before the 50 µs the other
#: cells' faults start at.
BATCHED_WINDOW = (2_000.0, 20_000.0)
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


def _run_chaos(seed, flow_type, optimization, congestion=None, batch=None,
               ends=None, sent=None):
    """One chaos run; returns (outcomes, tuple counts, final time — the
    instant of the last kernel entry at or before :data:`HORIZON`). With
    ``batch``, each source pushes its tuples ``batch`` at a time through
    ``push_batch``, and the faults land in :data:`BATCHED_WINDOW`. With
    ``ends``, the instant each endpoint finished (or was killed) is
    recorded there; with ``sent``, each opened source's ``tuples_sent``
    then."""
    ends = {} if ends is None else ends
    cluster = Cluster(node_count=5, seed=seed)
    start, end = (50_000.0, 800_000.0) if batch is None else BATCHED_WINDOW
    plan = FaultPlan.random(seed, node_ids=range(5), start=start,
                            horizon=end, entry_count=3,
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
        source = None
        try:
            source = yield from dfi.open_source("chaos", index)
            if batch is None:
                for i in range(600):
                    yield from source.push((i, 1))
            else:
                for first in range(0, 600, batch):
                    yield from source.push_batch(
                        [(i, 1) for i in range(first, first + batch)])
            yield from source.close()
            outcomes[key] = "completed"
        except _FLOW_ERRORS as exc:
            outcomes[key] = type(exc).__name__
        finally:
            ends[key] = cluster.now
            if sent is not None and source is not None:
                sent[key] = source.tuples_sent

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
        finally:
            ends[key] = cluster.now

    procs = {}
    for node_id, index in sources:
        key = ("src", index)
        procs[key] = cluster.node(node_id).spawn(source_thread(key, index))
    for node_id, index in targets:
        key = ("tgt", index)
        procs[key] = cluster.node(node_id).spawn(target_thread(key, index))

    # Step while the next entry lies within the horizon, so the final
    # time is the instant of the last entry that ran (``run(until=...)``
    # would leave the clock at the horizon itself).
    env = cluster.env
    while env.peek() <= HORIZON:
        env.step()

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


def _first_difference(product, reference):
    """The first key at which two (outcomes, counts, final time) triples
    differ, with both values, or ``None`` when they are equal."""
    for part, mine, theirs in zip(("outcomes", "counts"), product,
                                  reference):
        for key in sorted(mine.keys() | theirs.keys()):
            if mine.get(key) != theirs.get(key):
                return (f"{part}[{key}]: product {mine.get(key)!r}, "
                        f"reference {theirs.get(key)!r}")
    if product[2] != reference[2]:
        return (f"final time: product {product[2]!r}, "
                f"reference {reference[2]!r}")
    return None


def _check_cell(seed, flow_type, mode, congestion=None, batch=None):
    """One matrix cell, on the product and on the discrete oracle:
    legible outcomes, and the same (outcomes, counts, final time)
    triple both times, every endpoint ending at the same instant."""
    product_ends, reference_ends = {}, {}
    product = _run_chaos(seed, flow_type, mode, congestion, batch,
                         product_ends)
    assert set(product[0].values()) <= ALLOWED, product[0]
    with discrete_reference.installed() as posts:
        reference = _run_chaos(seed, flow_type, mode, congestion, batch,
                               reference_ends)
    assert posts["wqes"] > 0
    difference = _first_difference(product, reference)
    assert difference is None, (
        f"seed={seed}, flow={flow_type}, mode={mode.value}: the product "
        f"and the discrete reference differ at {difference}")
    assert product_ends == reference_ends


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


# -- batched pushes -----------------------------------------------------------
# The same cells with every source pushing through ``push_batch``: the
# product sleeps its merged CPU charge once per flush boundary, the oracle
# once per channel group, and a crash, an abort or a reroute that
# surfaces mid-batch must find both at the same instant.

@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_batched_no_hang(seed):
    _check_cell(seed, "shuffle", Optimization.BANDWIDTH, batch=BATCH)


@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_batched_congested_no_hang(seed):
    _check_cell(seed, "shuffle", Optimization.BANDWIDTH, CHAOS_CONGESTION,
                batch=BATCH)


def test_chaos_batched_cells_crash_abort_and_reroute():
    """Vacuity guard for the batched cells: across the seeds the faults
    land while the sources push — a crash kills an endpoint, the abort
    policy fails a source, and under the reroute policy a survivor takes
    over the failed target's share (more than 900 of the 1 200 tuples the
    two sources push; a key share is about 600)."""
    observed, rerouted = set(), False
    for seed in SEEDS:
        outcomes, counts, _now = _run_chaos(
            seed, "shuffle", Optimization.BANDWIDTH, batch=BATCH)
        observed |= set(outcomes.values())
        rerouted |= seed % 2 == 1 and max(counts.values()) > 900
    assert {"killed", "FlowPeerFailedError"} <= observed, observed
    assert rerouted


#: Rows per ``push_batch`` call of the row-loop cells: half a 256-byte
#: chaos segment, so each batch is routed and packed row by row and
#: seals at most one slot per channel (the 25-row cells above exceed a
#: segment and take the group walk).
ROW_BATCH = 8


@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_row_loop_no_hang(seed):
    _check_cell(seed, "shuffle", Optimization.BANDWIDTH, batch=ROW_BATCH)


@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_row_loop_congested_no_hang(seed):
    _check_cell(seed, "shuffle", Optimization.BANDWIDTH, CHAOS_CONGESTION,
                batch=ROW_BATCH)


def test_chaos_row_loop_cells_crash_abort_and_reroute():
    """Vacuity guard for the row-loop cells, as for the batched cells: a
    crash kills an endpoint, the abort policy fails a source, and a
    survivor takes over a failed target's share under the reroute
    policy — a post failing mid-batch takes back the rows staged for the
    channels after it."""
    observed, rerouted = set(), False
    for seed in SEEDS:
        outcomes, counts, _now = _run_chaos(
            seed, "shuffle", Optimization.BANDWIDTH, batch=ROW_BATCH)
        observed |= set(outcomes.values())
        rerouted |= seed % 2 == 1 and max(counts.values()) > 900
    assert {"killed", "FlowPeerFailedError"} <= observed, observed
    assert rerouted


@pytest.mark.parametrize("seed", (3, 7, 13))
def test_chaos_row_loop_reroute(seed):
    """A target dies while the sources push 8-row batches under the
    reroute policy, and a post fails in the row loop's second pass: the
    rows staged for the channels after it are taken back (in seed 7 a
    sealed slot among them) and re-pushed with the failed group over the
    survivor, as the oracle's per-group walk re-pushes the groups it did
    not reach. In seed 3 the failed group is the last, and its rows
    staged past its seal leave ``tuples_sent`` again. The survivor takes
    over the dead target's share either way."""
    _check_cell(seed, "shuffle", Optimization.BANDWIDTH, batch=ROW_BATCH)
    sent, reference_sent = {}, {}
    outcomes, counts, _now = _run_chaos(
        seed, "shuffle", Optimization.BANDWIDTH, batch=ROW_BATCH, sent=sent)
    with discrete_reference.installed():
        _run_chaos(seed, "shuffle", Optimization.BANDWIDTH, batch=ROW_BATCH,
                   sent=reference_sent)
    assert sent == reference_sent
    assert "killed" in outcomes.values()
    assert max(counts.values()) > 750, counts


#: Rows per ``push_batch`` call of the packed-partition cells: at least
#: ``_ROUTE_NP_MIN``, so each batch is packed once and split by target.
PACKED_BATCH = 300


@pytest.mark.parametrize("seed", (3, 7, 9))
def test_chaos_packed_batch_reroute(seed):
    """A target dies while the sources push 300-row batches under the
    reroute policy: the product re-pushes the failed group plus every
    group not yet pushed, taken from the packed partition's row order,
    and must agree with the oracle, which routes and packs per group.
    In seeds 3 and 9 the failed group is the second (the re-pushed rows
    start mid-order), in seed 7 the first; either way the survivor
    takes over the dead target's share."""
    _check_cell(seed, "shuffle", Optimization.BANDWIDTH, batch=PACKED_BATCH)
    outcomes, counts, _now = _run_chaos(
        seed, "shuffle", Optimization.BANDWIDTH, batch=PACKED_BATCH)
    assert "killed" in outcomes.values()
    assert max(counts.values()) > 850, counts
