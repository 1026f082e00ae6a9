"""Congestion-plane tests: virtual egress queues with lossless hold-off,
and the incast/fairness/victim pathology scenarios.

Covers config and FlowOptions validation, the integer link accessors and
degrade re-pricing, the bounded virtual queue in isolation and under
32:1 incast (peak never exceeds capacity), the ``kmin`` congestion
threshold, a plane that queues no kernel action of its own, congestion-off neutrality (an
unbounded plane is timeline-invisible), seeded bit-reproducibility of
every congested scenario, and the failure-detection interplay: a full
queue must not surface spurious ``FlowTimeoutError``, while a genuinely
dead peer still raises.
"""

import pytest

from repro.common.errors import (
    ConfigurationError,
    FlowPeerFailedError,
    FlowTimeoutError,
    SimulationError,
)
from repro.bench.flows import (
    _payload_schema,
    measure_fairness,
    measure_incast,
    measure_victim,
)
from repro.core import FLOW_END, DfiRuntime, Endpoint, FlowOptions, Schema
from repro.rdma import get_nic
from repro.simnet import (
    Cluster,
    CongestionConfig,
    FaultPlan,
    link_degrade,
    node_crash,
    stall_is_congestion,
)
from repro.simnet.congestion import _LinkQueue
from repro.simnet.kernel import Environment
from repro.simnet.link import Link

SCHEMA = Schema(("key", "uint64"), ("value", "uint64"))

#: Scenario config for the pathology tests (tuned in datacenter()).
DC = CongestionConfig.datacenter()


# -- config validation -------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigurationError):
        CongestionConfig(queue_capacity=0)
    with pytest.raises(ConfigurationError):
        CongestionConfig(kmin=0)
    with pytest.raises(ConfigurationError):
        CongestionConfig(kmin=-1024)
    # The plane marks nothing, so it takes no marking band.
    with pytest.raises(TypeError):
        CongestionConfig(kmax=128 * 1024)
    with pytest.raises(TypeError):
        CongestionConfig(pmax=0.25)
    # The two canned configs must validate.
    CongestionConfig.unbounded()
    CongestionConfig.datacenter()


def test_flow_options_rejects_bad_congestion_value():
    with pytest.raises(ConfigurationError):
        FlowOptions(congestion="datacenter")
    FlowOptions(congestion=None)
    FlowOptions(congestion=DC)


def test_install_congestion_idempotent_and_conflict_checked():
    cluster = Cluster(node_count=2)
    assert cluster.congestion is None
    plane = cluster.install_congestion(DC)
    assert cluster.congestion is plane
    assert cluster.install_congestion(CongestionConfig.datacenter()) is plane
    with pytest.raises(ConfigurationError):
        cluster.install_congestion(CongestionConfig.unbounded())
    with pytest.raises(ConfigurationError):
        cluster.install_congestion("nope")


def test_stall_is_congestion_false_without_plane():
    cluster = Cluster(node_count=2)
    assert not stall_is_congestion(cluster.node(0))
    assert not stall_is_congestion(cluster.node(0), cluster.node(1))


# -- link accessors and degrade re-pricing -----------------------------------

def test_link_integer_accessors():
    link = Link("l", bandwidth=12.5)
    assert link.busy_until_ns == 0
    assert link.backlog_bytes(0.0) == 0
    start, end = link.reserve(1000, 0.0)
    assert (start, end) == (0.0, 80.0)
    assert link.busy_until_ns == 80
    assert link.backlog_ns(0.0) == 80.0
    assert link.backlog_bytes(0.0) == 1000
    assert link.backlog_bytes(40.0) == 500
    assert link.backlog_bytes(80.0) == 0


def test_link_rescale_reprices_backlog():
    link = Link("l", bandwidth=12.5)
    link.reserve(1000, 0.0)               # busy until 80
    link.rescale(0.5, now=40.0)           # 500 bytes left at 6.25 B/ns
    assert link.bandwidth == 6.25
    assert link.busy_until == 40.0 + 500 / 6.25
    with pytest.raises(SimulationError):
        link.rescale(0.0, now=0.0)


def test_degrade_and_reserve_commute_at_same_timestamp():
    """The satellite regression: degrading a link and reserving on it at
    the same timestamp must land on one completion time regardless of
    order — rescale re-prices the queued bytes, reserve prices the new
    ones, and both see the same post-degrade bandwidth."""
    a = Link("a", bandwidth=12.5)
    b = Link("b", bandwidth=12.5)
    a.reserve(1000, 0.0)
    b.reserve(1000, 0.0)
    # Order 1: reserve the new message, then degrade.
    _, end_a = a.reserve(500, 0.0)
    a.rescale(0.5, now=0.0)
    # Order 2: degrade, then reserve.
    b.rescale(0.5, now=0.0)
    _, end_b = b.reserve(500, 0.0)
    assert a.busy_until == b.busy_until == end_b
    assert end_a != end_b  # the already-priced slot keeps its timestamps


def test_metrics_snapshot_reports_busy_until_and_congestion():
    cluster = Cluster(node_count=2)
    cluster.install_congestion(DC)
    snapshot = cluster.metrics_snapshot()
    for link_stats in snapshot["links"].values():
        assert isinstance(link_stats["busy_until_ns"], int)
    assert snapshot["congestion"]["packets_seen"] == 0
    bare = Cluster(node_count=2).metrics_snapshot()
    assert "congestion" not in bare


# -- virtual queue unit behaviour --------------------------------------------

def test_virtual_queue_admit_bounds_and_drains():
    q = _LinkQueue()
    bw, cap = 12.5, 1000.0
    # Fill to capacity: no hold-off while it fits.
    delay, level = q.admit(0.0, 600, cap, bw)
    assert (delay, level) == (0.0, 600.0)
    delay, level = q.admit(0.0, 400, cap, bw)
    assert (delay, level) == (0.0, 1000.0)
    # Overflow: held exactly until the queue drains room.
    delay, level = q.admit(0.0, 250, cap, bw)
    assert delay == 250 / bw
    assert level == cap
    assert q.peak == cap
    # Drains at line rate afterwards.
    now = q.last + 1000 / bw
    assert q.peek(now, bw) == 0.0
    assert q.peek(q.last, bw) == cap


def test_virtual_queue_peek_is_conservative_before_last():
    q = _LinkQueue()
    q.admit(100.0, 500, 1e9, 12.5)
    assert q.peek(50.0, 12.5) == 500.0  # stamped in this packet's future


# -- the kmin threshold -------------------------------------------------------

def _qp_pair(cluster, size=1 << 20):
    remote = get_nic(cluster.node(1)).register_memory(size)
    qp = get_nic(cluster.node(0)).create_qp(cluster.node(1))
    return qp, remote


def test_spaced_writes_never_congest_or_stall():
    """Writes spaced far enough apart for the queue to drain never hold a
    sender back, and the queue never reaches ``kmin``: no instant of the
    run reads as congestion."""
    cluster = Cluster(node_count=2)
    plane = cluster.install_congestion(DC)
    qp, remote = _qp_pair(cluster)
    target = cluster.node(1)
    verdicts = []

    def sender():
        for _ in range(4):
            wr = qp.post_write(b"x" * 1024, remote.rkey, 0)
            verdicts.append(plane.congested(target))
            yield wr.done
            yield cluster.env.timeout(10_000.0)  # let the queue drain

    cluster.node(0).spawn(sender())
    cluster.run()
    assert plane.packets_seen == 4
    assert plane.pfc_stalls == 0
    assert verdicts == [False] * 4
    assert plane.stats()["links"]["node1.down"]["peak_queue_bytes"] == 1024


def test_back_to_back_writes_congest_from_kmin_until_drained():
    """``congested`` reads the queue level against ``kmin``: true from the
    post that lifts the level to ``kmin``, false again once the queue has
    drained below it at line rate."""
    config = CongestionConfig(queue_capacity=64 * 1024, kmin=8192)
    cluster = Cluster(node_count=2)
    plane = cluster.install_congestion(config)
    qp, remote = _qp_pair(cluster)
    target = cluster.node(1)
    verdicts = []

    def sender():
        wrs = []
        for _ in range(4):
            wrs.append(qp.post_write(b"x" * 4096, remote.rkey, 0))
            verdicts.append(plane.congested(target))
        for wr in wrs:
            yield wr.done
        yield cluster.env.timeout(10_000.0)
        verdicts.append(plane.congested(target))

    cluster.node(0).spawn(sender())
    cluster.run()
    assert verdicts == [False, True, True, True, False]
    assert stall_is_congestion(cluster.node(0), target) is False
    assert plane.pfc_stalls == 0


# -- congestion-off neutrality -----------------------------------------------

def test_unbounded_plane_is_timeline_invisible():
    """An installed plane whose thresholds never trip adds exactly zero
    delay: elapsed and per-sender finish times are bit-identical to a
    run without any plane (the local version of
    ``fingerprint.py --check-congestion-neutral``)."""
    bare = measure_incast(4, bytes_per_sender=32 << 10, seed=11)
    probed = measure_incast(
        4, bytes_per_sender=32 << 10, seed=11,
        options=FlowOptions(congestion=CongestionConfig.unbounded()))
    assert probed["elapsed_ns"] == bare["elapsed_ns"]
    assert probed["finish_ns"] == bare["finish_ns"]
    plane = probed["cluster"].congestion
    assert plane.pfc_stalls == 0
    assert plane.packets_seen > 0  # the plane did observe the traffic
    # The queue really built up, yet an infinite kmin never reads it as
    # congestion.
    target = probed["cluster"].node(0)
    assert plane.stats()["links"]["node0.down"]["peak_queue_bytes"] > DC.kmin
    assert not plane.congested(target)


# -- pathology scenarios -----------------------------------------------------

@pytest.mark.parametrize("senders", (8, 16, 32))
def test_incast_bounded_queue_and_reproducible(senders):
    options = FlowOptions(congestion=DC)
    first = measure_incast(senders, bytes_per_sender=64 << 10,
                           options=options, seed=3)
    second = measure_incast(senders, bytes_per_sender=64 << 10,
                            options=options, seed=3)
    assert first["elapsed_ns"] == second["elapsed_ns"]
    assert first["finish_ns"] == second["finish_ns"]
    stats = first["cluster"].congestion.stats()
    peak = stats["links"]["node0.down"]["peak_queue_bytes"]
    assert 0 < peak <= DC.queue_capacity
    # Completion-time inflation vs the unthrottled fabric stays bounded.
    bare = measure_incast(senders, bytes_per_sender=64 << 10, seed=3)
    assert first["elapsed_ns"] <= 3.0 * bare["elapsed_ns"]


def test_incast_32_to_1_fills_the_queue_and_stalls():
    run = measure_incast(32, bytes_per_sender=64 << 10,
                         options=FlowOptions(congestion=DC), seed=3)
    stats = run["cluster"].congestion.stats()
    link = stats["links"]["node0.down"]
    assert stats["pfc_stalls"] > 50
    assert link["pfc_stalls"] > 0.1 * link["packets"]
    assert link["peak_queue_bytes"] == DC.queue_capacity


def test_the_plane_queues_no_kernel_action(monkeypatch):
    """A 16:1 incast that fills the queue and stalls queues no action of
    the plane's own: the hold-off is closed form at post time, and no
    timer or notification follows a stall."""
    origins = []
    schedule_train = Environment.schedule_train

    def recording(env, actions):
        origins.extend(getattr(fn, "__module__", None)
                       for _when, fn, _arg in actions)
        return schedule_train(env, actions)

    monkeypatch.setattr(Environment, "schedule_train", recording)
    run = measure_incast(16, bytes_per_sender=64 << 10,
                         options=FlowOptions(congestion=DC), seed=3)
    stats = run["cluster"].congestion.stats()
    assert origins, "the wrapper saw no queued action"
    assert "repro.simnet.congestion" not in origins
    assert stats["links"]["node0.down"]["peak_queue_bytes"] \
        == DC.queue_capacity
    assert stats["pfc_stalls"] > 0


def test_fairness_jain_index():
    options = FlowOptions(congestion=DC)
    first = measure_fairness(4, options=options, seed=7)
    second = measure_fairness(4, options=options, seed=7)
    assert first["elapsed_ns"] == second["elapsed_ns"]
    assert first["jain_index"] >= 0.9
    # Fairness must not cost more than a bounded makespan inflation.
    bare = measure_fairness(4, seed=7)
    assert first["makespan_ns"] <= 3.0 * bare["makespan_ns"]


def test_victim_behind_elephant_bounded_inflation():
    bare = measure_victim(seed=5)
    throttled = measure_victim(options=FlowOptions(congestion=DC), seed=5)
    again = measure_victim(options=FlowOptions(congestion=DC), seed=5)
    assert throttled["victim_elapsed_ns"] == again["victim_elapsed_ns"]
    assert throttled["elephant_elapsed_ns"] == again["elephant_elapsed_ns"]
    # The elephant fan-in really congested the shared egress port.
    assert throttled["cluster"].congestion.pfc_stalls > 0
    # Bounded inflation for both roles — the victim must not be starved
    # by the very hold-off that bounds the queue it shares.
    assert (throttled["victim_elapsed_ns"]
            <= 2.0 * bare["victim_elapsed_ns"])
    assert (throttled["elephant_elapsed_ns"]
            <= 3.0 * bare["elephant_elapsed_ns"])


# -- congestion vs failure detection -----------------------------------------

def test_throttling_does_not_trip_peer_timeout():
    """An incast held back at a full egress queue, with a peer_timeout
    far below its transfer time, must still complete: the deadline
    checks ask ``stall_is_congestion`` and grant self-clearing grace.
    The same incast without the plane times out at that deadline."""
    timeout = 5_000.0
    options = FlowOptions(congestion=DC, peer_timeout=timeout, trace=True)
    run = measure_incast(16, bytes_per_sender=64 << 10, options=options,
                         seed=3)
    assert run["elapsed_ns"] > timeout  # deadline tighter than the run
    stats = run["cluster"].congestion.stats()
    assert stats["pfc_stalls"] > 0
    nodes = run["cluster"].metrics_snapshot()["nodes"].values()
    assert sum(node["counters"].get("core.congestion_grace", 0)
               for node in nodes) > 0
    with pytest.raises(FlowTimeoutError):
        measure_incast(16, bytes_per_sender=64 << 10, seed=3,
                       options=FlowOptions(peer_timeout=timeout))


def test_dead_peer_still_raises_under_congestion():
    """Congestion grace must not mask real failures: with the plane
    active and stalling, a crashed target is still surfaced as a flow
    error — deterministically, not as a hang."""
    def run_once():
        cluster = Cluster(node_count=3, seed=9)
        cluster.install_faults(
            FaultPlan([node_crash(2, at=30_000.0)]),
            detection_timeout=20_000.0)
        dfi = DfiRuntime(cluster)
        options = FlowOptions(
            segment_size=256, source_segments=4, target_segments=4,
            credit_threshold=2, peer_timeout=50_000.0,
            max_backoff_retries=16, congestion=DC)
        dfi.init_shuffle_flow("doomed", ["node1|0"], ["node2|0"], SCHEMA,
                              shuffle_key="key", options=options)
        outcome = {}

        def source_thread():
            try:
                source = yield from dfi.open_source("doomed", 0)
                for i in range(5000):
                    yield from source.push((i, 1))
                yield from source.close()
                outcome["source"] = "completed"
            except (FlowPeerFailedError, FlowTimeoutError) as exc:
                outcome["source"] = type(exc).__name__
                outcome["at"] = cluster.now

        def target_thread():
            target = yield from dfi.open_target("doomed", 0)
            while (yield from target.consume()) is not FLOW_END:
                pass  # killed by the crash injection

        source = cluster.node(1).spawn(source_thread())
        cluster.node(2).spawn(target_thread())
        cluster.run(until=4_000_000.0)
        assert not source.is_alive, "source hung past the horizon"
        return outcome

    first = run_once()
    second = run_once()
    assert first == second
    assert first["source"] in ("FlowPeerFailedError", "FlowTimeoutError")
    assert first["at"] < 4_000_000.0


def test_incast_under_link_degrade_completes():
    """The satellite invariant: ``link_degrade`` composing with bounded
    queues (re-priced backlog + recalibrated virtual-queue drain) must
    not hang an incast — it completes, still stalling."""
    plan = FaultPlan([link_degrade(0, at=20_000.0, duration=200_000.0,
                                   factor=4.0)])
    options = FlowOptions(congestion=DC, peer_timeout=300_000.0)
    cluster = Cluster(node_count=9, seed=3)
    cluster.install_faults(plan, detection_timeout=60_000.0)
    dfi = DfiRuntime(cluster)
    schema = _payload_schema(64)
    dfi.init_shuffle_flow("incast",
                          [Endpoint(1 + n, 0) for n in range(8)],
                          [Endpoint(0, 0)], schema, shuffle_key="key",
                          options=options)
    pad = b"x" * 56
    done = {"consumed": 0, "ended": False}

    def source_thread(index):
        source = yield from dfi.open_source("incast", index)
        for start in range(0, 1024, 64):
            rows = [(start + i, pad) for i in range(64)]
            yield from source.push_batch(rows, target=0)
        yield from source.close()

    def target_thread():
        target = yield from dfi.open_target("incast", 0)
        while True:
            batch = yield from target.consume_batch()
            if batch is FLOW_END:
                done["ended"] = True
                return
            done["consumed"] += len(batch)

    for n in range(8):
        cluster.node(1 + n).spawn(source_thread(n))
    cluster.node(0).spawn(target_thread())
    cluster.run(until=8_000_000.0)
    assert done["ended"] and done["consumed"] == 8 * 1024
    assert cluster.congestion.pfc_stalls > 0


# -- observability -----------------------------------------------------------

def test_queue_depth_histogram_recorded_up_to_capacity():
    run = measure_incast(8, bytes_per_sender=64 << 10,
                         options=FlowOptions(congestion=DC, trace=True),
                         seed=3)
    cluster = run["cluster"]
    snapshot = cluster.metrics_snapshot()
    depth = snapshot["nodes"][0]["histograms"]["net.queue_depth"]
    # One sample per admitted packet, the fullest at the capacity.
    assert depth["count"] == cluster.congestion.stats()["packets_seen"]
    assert depth["max"] == DC.queue_capacity
    # The plane keeps no trace ring of its own.
    assert set(cluster.obs.tracers) == {"incast"}
