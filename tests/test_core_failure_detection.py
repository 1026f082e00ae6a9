"""Flow-layer failure detection and policy tests.

Drives the detection machinery end-to-end: consume-side deadline bounds
(FlowTimeoutError vs FlowPeerFailedError), source-side target-failure
policies (``on_target_failure="abort"`` / ``"reroute"``), the naive
replicate all-targets contract, and the multicast retransmit bound under
total datagram loss.
"""

import pytest

from repro import obs
from repro.common import HardwareProfile
from repro.common.errors import (
    FlowAbortedError,
    FlowPeerFailedError,
    FlowTimeoutError,
)
from repro.core import FLOW_END, DfiRuntime, FlowOptions, Schema
from repro.core.flowdef import Optimization
from repro.simnet import Cluster, FaultPlan, node_crash

SCHEMA = Schema(("key", "uint64"), ("value", "uint64"))


def _small_options(**overrides):
    base = dict(segment_size=128, source_segments=4, target_segments=4,
                credit_threshold=2)
    base.update(overrides)
    return FlowOptions(**base)


# -- consume-side detection --------------------------------------------------

def test_consume_times_out_on_silent_source():
    """No fault plane, no traffic: the bounded wait surfaces a plain
    FlowTimeoutError (the peer is not *known* dead) at the deadline."""
    cluster = Cluster(node_count=2)
    dfi = DfiRuntime(cluster)
    dfi.init_shuffle_flow("silent", ["node0|0"], ["node1|0"], SCHEMA,
                          shuffle_key="key",
                          options=_small_options(peer_timeout=50_000.0))
    outcome = {}

    def target_thread():
        target = yield from dfi.open_target("silent", 0)
        try:
            yield from target.consume()
        except FlowTimeoutError as exc:
            outcome["error"] = exc
            outcome["at"] = cluster.now

    cluster.env.process(target_thread())
    cluster.run()
    assert isinstance(outcome["error"], FlowTimeoutError)
    assert outcome["at"] >= 50_000.0


def test_consume_detects_crashed_source():
    """A source that crashes mid-flow is reported as FlowPeerFailedError,
    within (roughly) one peer_timeout of its last segment."""
    cluster = Cluster(node_count=2)
    cluster.install_faults(FaultPlan([node_crash(0, at=200_000.0)]),
                           detection_timeout=20_000.0)
    dfi = DfiRuntime(cluster, master_node_id=1)
    dfi.init_shuffle_flow("crashy", ["node0|0"], ["node1|0"], SCHEMA,
                          shuffle_key="key",
                          options=_small_options(peer_timeout=60_000.0))
    outcome = {"tuples": 0}

    def source_thread():
        source = yield from dfi.open_source("crashy", 0)
        i = 0
        while True:  # pushes until the crash kills this process
            yield from source.push((i, i))
            i += 1

    def target_thread():
        target = yield from dfi.open_target("crashy", 0)
        try:
            while True:
                item = yield from target.consume()
                if item is FLOW_END:
                    return
                outcome["tuples"] += 1
        except FlowPeerFailedError as exc:
            outcome["error"] = exc
            outcome["at"] = cluster.now

    cluster.node(0).spawn(source_thread())
    cluster.env.process(target_thread())
    cluster.run()
    assert isinstance(outcome["error"], FlowPeerFailedError)
    assert outcome["tuples"] > 0  # pre-crash traffic was delivered
    assert outcome["at"] >= 200_000.0  # not before the crash
    assert outcome["at"] <= 200_000.0 + 2 * 60_000.0  # bounded propagation


# -- source-side failure policy ---------------------------------------------

def _crash_target_run(policy):
    cluster = Cluster(node_count=3)
    cluster.install_faults(FaultPlan([node_crash(2, at=100_000.0)]),
                           detection_timeout=10_000.0)
    dfi = DfiRuntime(cluster)
    dfi.init_shuffle_flow(
        "pol", ["node0|0"], ["node1|0", "node2|0"], SCHEMA,
        shuffle_key="key",
        options=_small_options(peer_timeout=100_000.0,
                               on_target_failure=policy))
    outcome = {"survivor": [], "source_error": None, "survivor_error": None,
               "closed": False, "failed": (), "cluster": cluster}

    def source_thread():
        source = yield from dfi.open_source("pol", 0)
        try:
            for i in range(4000):
                yield from source.push((i, i))
            yield from source.close()
            outcome["closed"] = True
        except FlowPeerFailedError as exc:
            outcome["source_error"] = exc
        outcome["failed"] = source.failed_targets

    def survivor_thread():
        target = yield from dfi.open_target("pol", 0)
        try:
            while True:
                item = yield from target.consume()
                if item is FLOW_END:
                    return
                outcome["survivor"].append(item)
        except FlowAbortedError as exc:
            outcome["survivor_error"] = exc

    def victim_thread():
        target = yield from dfi.open_target("pol", 1)
        while (yield from target.consume()) is not FLOW_END:
            pass

    cluster.env.process(source_thread())
    cluster.env.process(survivor_thread())
    cluster.node(2).spawn(victim_thread())
    cluster.run()
    return outcome


def test_abort_policy_tears_down_the_flow():
    outcome = _crash_target_run("abort")
    assert isinstance(outcome["source_error"], FlowPeerFailedError)
    assert outcome["failed"] == (1,)
    assert not outcome["closed"]
    # The surviving target saw the abort marker, not a hang.
    assert isinstance(outcome["survivor_error"], FlowAbortedError)


def test_reroute_policy_continues_on_the_survivors():
    outcome = _crash_target_run("reroute")
    assert outcome["source_error"] is None
    assert outcome["closed"]
    assert outcome["failed"] == (1,)
    assert outcome["survivor_error"] is None
    # The survivor absorbed the failed target's key share: it received
    # tuples from both halves of the key space after the failure.
    post_failure_keys = {k for k, _v in outcome["survivor"][-200:]}
    assert any(k % 2 == 0 for k in post_failure_keys)
    assert any(k % 2 == 1 for k in post_failure_keys)


# -- naive replicate ---------------------------------------------------------

def test_naive_replicate_aborts_when_a_target_dies():
    """Replicate promises delivery to *all* targets: under the default
    abort policy a dead target voids the flow for everyone."""
    cluster = Cluster(node_count=3)
    cluster.install_faults(FaultPlan([node_crash(2, at=100_000.0)]),
                           detection_timeout=10_000.0)
    dfi = DfiRuntime(cluster)
    dfi.init_replicate_flow(
        "rep", ["node0|0"], ["node1|0", "node2|0"], SCHEMA,
        options=_small_options(peer_timeout=100_000.0))
    outcome = {"survivor_error": None, "source_error": None}

    def source_thread():
        source = yield from dfi.open_source("rep", 0)
        try:
            for i in range(4000):
                yield from source.push((i, i))
            yield from source.close()
        except FlowPeerFailedError as exc:
            outcome["source_error"] = exc

    def survivor_thread():
        target = yield from dfi.open_target("rep", 0)
        try:
            while (yield from target.consume()) is not FLOW_END:
                pass
        except FlowAbortedError as exc:
            outcome["survivor_error"] = exc

    def victim_thread():
        target = yield from dfi.open_target("rep", 1)
        while (yield from target.consume()) is not FLOW_END:
            pass

    cluster.env.process(source_thread())
    cluster.env.process(survivor_thread())
    cluster.node(2).spawn(victim_thread())
    cluster.run()
    assert isinstance(outcome["source_error"], FlowPeerFailedError)
    assert isinstance(outcome["survivor_error"], FlowAbortedError)


def _naive_reroute_run():
    cluster = Cluster(node_count=3)
    cluster.install_faults(FaultPlan([node_crash(2, at=100_000.0)]),
                           detection_timeout=10_000.0)
    dfi = DfiRuntime(cluster)
    dfi.init_replicate_flow(
        "repr", ["node0|0"], ["node1|0", "node2|0"], SCHEMA,
        options=_small_options(on_target_failure="reroute"))
    outcome = {"survivor": 0, "done": False, "cluster": cluster}

    def source_thread():
        source = yield from dfi.open_source("repr", 0)
        for i in range(4000):
            yield from source.push((i, i))
        yield from source.close()
        outcome["failed"] = source.failed_targets

    def survivor_thread():
        target = yield from dfi.open_target("repr", 0)
        while True:
            item = yield from target.consume()
            if item is FLOW_END:
                outcome["done"] = True
                return
            outcome["survivor"] += 1

    def victim_thread():
        target = yield from dfi.open_target("repr", 1)
        while (yield from target.consume()) is not FLOW_END:
            pass

    cluster.env.process(source_thread())
    cluster.env.process(survivor_thread())
    cluster.node(2).spawn(victim_thread())
    cluster.run()
    return outcome


def test_naive_replicate_reroute_degrades_to_survivors():
    outcome = _naive_reroute_run()
    assert outcome["failed"] == (1,)
    assert outcome["done"]
    assert outcome["survivor"] == 4000  # the survivor got every tuple


@pytest.mark.parametrize("run", [
    lambda: _crash_target_run("abort"),
    lambda: _crash_target_run("reroute"),
    _naive_reroute_run,
], ids=["shuffle-abort", "shuffle-reroute", "naive-replicate-reroute"])
def test_target_crash_leaves_no_per_segment_obs_state(run):
    """A target that never drains must not pin observability state per
    segment written to it (the plane used to keep one latency stamp per
    such segment forever). What remains after a read is bounded: an
    empty log and, per ring that never consumed its close marker, one
    slot-sized list of write stamps."""
    obs.set_default_observability(True, trace=True, causal=True)
    try:
        cluster = run()["cluster"]
    finally:
        obs.set_default_observability(False)
    plane = cluster.obs
    assert plane.records  # the run logged, nothing was derived yet
    snapshot = cluster.metrics_snapshot()
    assert snapshot["trace_rings"] and snapshot["causal"]["edges"]
    assert not plane.records
    assert not hasattr(plane, "pending_segments")
    assert len(plane.stamps) <= 1  # only the crashed target's ring
    for (node_id, _rkey), slots in plane.stamps.items():
        assert node_id == 2
        assert len(slots) == _small_options().target_segments


# -- multicast retransmit bound ---------------------------------------------

def test_multicast_total_loss_hits_the_retransmit_bound():
    """With every datagram dropped (loss probability 1.0) no credit ever
    comes back: the source must give up after ``max_retransmits`` stalled
    rounds instead of retransmitting forever."""
    profile = HardwareProfile().with_multicast_loss(1.0)
    cluster = Cluster(node_count=3, profile=profile)
    dfi = DfiRuntime(cluster)
    dfi.init_replicate_flow(
        "lossy", ["node0|0"], ["node1|0", "node2|0"], SCHEMA,
        optimization=Optimization.LATENCY,
        options=_small_options(multicast=True, retransmit_timeout=5_000.0,
                               max_retransmits=4, peer_timeout=80_000.0))
    outcome = {"target_errors": []}

    def source_thread():
        source = yield from dfi.open_source("lossy", 0)
        try:
            for i in range(64):
                yield from source.push((i, i))
            yield from source.close()
        except FlowPeerFailedError as exc:
            outcome["source_error"] = exc
            outcome["at"] = cluster.now

    def target_thread(index):
        target = yield from dfi.open_target("lossy", index)
        try:
            while (yield from target.consume()) is not FLOW_END:
                pass
        except (FlowTimeoutError, FlowAbortedError) as exc:
            outcome["target_errors"].append(exc)

    cluster.env.process(source_thread())
    cluster.env.process(target_thread(0))
    cluster.env.process(target_thread(1))
    cluster.run()
    assert isinstance(outcome["source_error"], FlowPeerFailedError)
    # Bounded: a handful of 5 µs retransmit rounds, not an endless spin.
    assert outcome["at"] < 1_000_000.0
    # The targets saw nothing and also hit their own bounds (no hang).
    assert len(outcome["target_errors"]) == 2


def test_multicast_target_detects_crashed_source():
    cluster = Cluster(node_count=3)
    cluster.install_faults(FaultPlan([node_crash(0, at=150_000.0)]),
                           detection_timeout=20_000.0)
    dfi = DfiRuntime(cluster, master_node_id=1)
    dfi.init_replicate_flow(
        "mccrash", ["node0|0"], ["node1|0", "node2|0"], SCHEMA,
        optimization=Optimization.LATENCY,
        options=_small_options(multicast=True, peer_timeout=60_000.0))
    errors = []

    def source_thread():
        source = yield from dfi.open_source("mccrash", 0)
        i = 0
        while True:
            yield from source.push((i, i))
            i += 1

    def target_thread(index):
        target = yield from dfi.open_target("mccrash", index)
        try:
            while (yield from target.consume()) is not FLOW_END:
                pass
        except FlowPeerFailedError as exc:
            errors.append((index, exc, cluster.now))

    cluster.node(0).spawn(source_thread())
    cluster.env.process(target_thread(0))
    cluster.env.process(target_thread(1))
    cluster.run()
    assert len(errors) == 2
    for _index, exc, at in errors:
        assert isinstance(exc, FlowPeerFailedError)
        assert 150_000.0 <= at <= 150_000.0 + 3 * 60_000.0
