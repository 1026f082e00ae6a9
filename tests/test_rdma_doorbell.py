"""Tests for doorbell batching: kernel event trains, ``post_write_batch``,
deferred doorbells, and deterministic fault semantics mid-train."""

import pytest

from repro.common.errors import QpFlushedError
from repro.rdma import WcStatus, get_nic
from repro.rdma.completion import Opcode, WorkRequest
from repro.simnet import Cluster, Environment, FaultPlan
from repro.simnet.congestion import CongestionConfig
from repro.simnet.faults import (
    DEFAULT_DETECTION_TIMEOUT,
    link_degrade,
    link_down,
)


# -- kernel: schedule_at / schedule_train ------------------------------------

def test_schedule_at_fires_callback_at_time():
    env = Environment()
    fired = []
    env.schedule_at(5.0, lambda: fired.append(env.now))
    env.schedule_at(2.0, lambda: fired.append(env.now))
    env.run()
    assert fired == [2.0, 5.0]


def test_schedule_train_fires_actions_in_order():
    env = Environment()
    fired = []

    def record(tag):
        fired.append((tag, env.now))

    env.schedule_train([(1.0, record, "a"),
                        (3.0, record, "b"),
                        (3.0, record, "c"),
                        (7.5, record, "d")])
    env.run()
    assert fired == [("a", 1.0), ("b", 3.0), ("c", 3.0), ("d", 7.5)]


def test_schedule_train_interleaves_with_other_events():
    """A train is a scheduling optimization, not a priority lane: its
    actions sort into the global timeline like individual timers."""
    env = Environment()
    fired = []
    env.schedule_at(2.0, lambda: fired.append("solo"))
    env.schedule_train([(1.0, fired.append, "t1"),
                        (3.0, fired.append, "t3")])
    env.run()
    assert fired == ["t1", "solo", "t3"]


# -- QP: post_write_batch ----------------------------------------------------

def _pair():
    cluster = Cluster(node_count=2)
    nic0 = get_nic(cluster.node(0))
    nic1 = get_nic(cluster.node(1))
    remote = nic1.register_memory(4096)
    qp = nic0.create_qp(cluster.node(1))
    return cluster, nic0, qp, remote


def _payloads(n, size=256):
    return [bytes([0x10 + i]) * size for i in range(n)]


def test_post_write_batch_delivers_all_payloads():
    cluster, _nic0, qp, remote = _pair()
    payloads = _payloads(8)

    def sender(env):
        wrs = qp.post_write_batch(
            [(p, remote.rkey, i * 256, i == 7)
             for i, p in enumerate(payloads)])
        yield wrs[-1].done

    cluster.env.process(sender(cluster.env))
    cluster.run()
    for i, payload in enumerate(payloads):
        assert remote.read(i * 256, 256) == payload


def test_train_timing_matches_sequential_posts():
    """The equivalence contract: a train changes wall-clock cost only.
    Tail completion time, ack times of every WQE, and the NIC/fabric
    counters are bit-identical to back-to-back ``post_write`` calls."""
    def run(batched):
        cluster, nic0, qp, remote = _pair()
        payloads = _payloads(8)
        times = {}

        def sender(env):
            if batched:
                wrs = qp.post_write_batch(
                    [(p, remote.rkey, i * 256, i == 7)
                     for i, p in enumerate(payloads)])
            else:
                wrs = [qp.post_write(p, remote.rkey, i * 256,
                                     signaled=(i == 7))
                       for i, p in enumerate(payloads)]
            yield wrs[-1].done
            times["tail"] = env.now
            # Unsignaled WQEs complete lazily; observing done after the
            # run settles them without extra events.
            times["acks"] = [wr.done.triggered for wr in wrs]

        cluster.env.process(sender(cluster.env))
        cluster.run()
        return times, nic0.bytes_posted, cluster.now

    seq = run(batched=False)
    train = run(batched=True)
    assert train == seq


def test_deferred_doorbell_stages_without_posting():
    cluster, nic0, qp, remote = _pair()
    out = {}

    def sender(env):
        wr0 = qp.post_write(b"a" * 64, remote.rkey, 0, doorbell=False)
        wr1 = qp.post_write(b"b" * 64, remote.rkey, 64, signaled=True,
                            doorbell=False)
        # Nothing is on the wire before the doorbell rings.
        out["staged_bytes"] = nic0.bytes_posted
        posted = qp.ring_doorbell()
        out["posted"] = posted == [wr0, wr1]
        yield wr1.done

    cluster.env.process(sender(cluster.env))
    cluster.run()
    assert out["staged_bytes"] == 0
    assert out["posted"]
    assert remote.read(0, 64) == b"a" * 64
    assert remote.read(64, 64) == b"b" * 64


def test_ring_doorbell_empty_is_noop():
    cluster, _nic0, qp, _remote = _pair()
    assert qp.ring_doorbell() == []


def test_train_single_cq_entry_for_one_signaled_wqe():
    cluster, _nic0, qp, remote = _pair()
    out = {}

    def sender(env):
        wrs = qp.post_write_batch(
            [(b"x" * 128, remote.rkey, i * 128, i == 7)
             for i in range(8)])
        yield wrs[-1].done
        out["cq"] = qp.send_cq.poll(max_entries=64)

    cluster.env.process(sender(cluster.env))
    cluster.run()
    assert len(out["cq"]) == 1
    assert out["cq"][0].status is WcStatus.SUCCESS
    assert out["cq"][0].byte_len == 128


def test_loopback_train_delivers_in_order():
    cluster = Cluster(node_count=2)
    nic0 = get_nic(cluster.node(0))
    local = nic0.register_memory(1024)
    qp = nic0.create_qp(cluster.node(0))

    def sender(env):
        wrs = qp.post_write_batch(
            [(bytes([i + 1]) * 128, local.rkey, i * 128, i == 7)
             for i in range(8)])
        yield wrs[-1].done

    cluster.env.process(sender(cluster.env))
    cluster.run()
    for i in range(8):
        assert local.read(i * 128, 128) == bytes([i + 1]) * 128


# -- fault semantics: a link outage splitting a train ------------------------

def _run_split_train(outage_at):
    """Post one 8-segment train into a long outage starting at
    ``outage_at``; returns (delivered prefix length, per-WQE statuses,
    error time, final clock)."""
    cluster = Cluster(node_count=2)
    cluster.install_faults(FaultPlan([
        link_down(0, 1, at=outage_at,
                  duration=20 * DEFAULT_DETECTION_TIMEOUT)]))
    nic1 = get_nic(cluster.node(1))
    remote = nic1.register_memory(8 * 1024)
    qp = get_nic(cluster.node(0)).create_qp(cluster.node(1))
    out = {"statuses": []}

    def sender(env):
        wrs = qp.post_write_batch(
            [(bytes([i + 1]) * 1024, remote.rkey, i * 1024, True)
             for i in range(8)])
        for wr in wrs:
            try:
                yield wr.done
                out["statuses"].append("ok")
            except QpFlushedError:
                out["statuses"].append("flushed")
                out.setdefault("error_at", env.now)

    cluster.env.process(sender(cluster.env))
    cluster.run()
    delivered = 0
    for i in range(8):
        if remote.read(i * 1024, 1024) == bytes([i + 1]) * 1024:
            delivered += 1
        else:
            break
    cq_statuses = [wc.status for wc in qp.send_cq.poll(max_entries=64)]
    return (delivered, tuple(out["statuses"]), out.get("error_at"),
            tuple(cq_statuses), cluster.now)


def test_link_down_mid_train_delivers_prefix_flushes_suffix():
    # 8 x 1 KiB at ~12.8 GB/s wire is ~80 ns per segment; an outage a few
    # segments in admits a prefix and flushes everything after it.
    delivered, statuses, error_at, cq, _now = _run_split_train(
        outage_at=300.0)
    assert 0 < delivered < 8
    assert statuses == ("ok",) * delivered + ("flushed",) * (8 - delivered)
    # Flushed WQEs surface at the detection bound, not at heal time.
    assert error_at == pytest.approx(DEFAULT_DETECTION_TIMEOUT,
                                     rel=0, abs=500.0)
    assert cq.count(WcStatus.RETRY_EXC_ERR) == 8 - delivered
    assert cq.count(WcStatus.SUCCESS) == delivered


def test_outage_before_train_flushes_everything():
    delivered, statuses, _error_at, cq, _now = _run_split_train(
        outage_at=0.0)
    assert delivered == 0
    assert statuses == ("flushed",) * 8
    assert cq.count(WcStatus.RETRY_EXC_ERR) == 8


@pytest.mark.parametrize("seed", range(3))
def test_split_train_bit_reproducible_across_chaos_seeds(seed):
    """Satellite acceptance: for each chaos seed, the split point, the
    flush times, and the final clock are bit-identical across runs."""
    from repro.common.rand import derive_rng

    outage_at = derive_rng(seed, "doorbell-chaos").uniform(100.0, 700.0)
    first = _run_split_train(outage_at)
    second = _run_split_train(outage_at)
    assert first == second
    delivered, statuses, _error_at, _cq, _now = first
    assert statuses == (("ok",) * delivered
                        + ("flushed",) * (8 - delivered))


# -- post_train: the one doorbell-train primitive -----------------------------

def _train_entries(remote, count, size, wr_for=None):
    """``post_train`` entries for ``count`` back-to-back ``size``-byte
    writes; ``wr_for(i)`` supplies a work request (default: ``None``, the
    unsignaled fire-and-forget shape ring channels use)."""
    return [(wr_for(i) if wr_for is not None else None, size,
             ((0, bytes([i + 1]) * size),), remote, i * size)
            for i in range(count)]


def test_post_train_none_entries_split_by_outage():
    """Entries without a work request still get exact fault semantics:
    the prefix admitted before the outage lands, and the failing WQE and
    every later one surface a ``RETRY_EXC_ERR`` completion."""
    outage_at = 300.0
    cluster = Cluster(node_count=2)
    cluster.install_faults(FaultPlan([
        link_down(0, 1, at=outage_at,
                  duration=20 * DEFAULT_DETECTION_TIMEOUT)]))
    remote = get_nic(cluster.node(1)).register_memory(8 * 1024)
    qp = get_nic(cluster.node(0)).create_qp(cluster.node(1))

    def sender(env):
        qp.post_train(_train_entries(remote, 8, 1024))
        yield env.timeout(0)

    cluster.env.process(sender(cluster.env))
    cluster.run()
    delivered = [remote.read(i * 1024, 1024) == bytes([i + 1]) * 1024
                 for i in range(8)]
    prefix = delivered.index(False)
    assert 0 < prefix < 8
    assert not any(delivered[prefix:])
    # Same split point as the train of real work requests.
    assert prefix == _run_split_train(outage_at)[0]
    # Unsignaled successes stay silent; every flushed WQE reports.
    statuses = [wc.status for wc in qp.send_cq.poll(max_entries=64)]
    assert statuses == [WcStatus.RETRY_EXC_ERR] * (8 - prefix)


def _obs_train_run(none_entries, plane=None):
    """Ring three trains of four (last WQE signaled) with telemetry on;
    returns node 0's registry snapshot and the always-on NIC tally."""
    cluster = Cluster(node_count=3)
    cluster.enable_observability()
    if plane is not None:
        plane(cluster)
    remote = get_nic(cluster.node(1)).register_memory(4096)
    qp = get_nic(cluster.node(0)).create_qp(cluster.node(1))

    def sender(env):
        for _ in range(3):
            if none_entries:
                tail = WorkRequest(env, None, Opcode.WRITE, True)
                qp.post_train(_train_entries(
                    remote, 4, 256,
                    wr_for=lambda i, tail=tail: tail if i == 3 else None))
            else:
                for i in range(4):
                    tail = qp.post_write(bytes([i + 1]) * 256, remote.rkey,
                                         i * 256, signaled=(i == 3),
                                         doorbell=False)
                qp.ring_doorbell()
            yield tail.done

    cluster.env.process(sender(cluster.env))
    cluster.run()
    snapshot = cluster.metrics_snapshot()
    return snapshot["nodes"][0], snapshot["nics"][0]["doorbell_trains"]


def test_post_train_telemetry_identical_for_none_entries():
    staged, _ = _obs_train_run(none_entries=False)
    bare, _ = _obs_train_run(none_entries=True)
    for name in ("rdma.wqes_posted", "rdma.wqes_signaled",
                 "rdma.wqes_unsignaled", "rdma.doorbell_trains"):
        assert bare["counters"][name] == staged["counters"][name], name
    assert staged["counters"]["rdma.wqes_unsignaled"] == 9
    assert (bare["histograms"]["rdma.train_len"]
            == staged["histograms"]["rdma.train_len"])


def _inert_congestion(cluster):
    cluster.install_congestion(CongestionConfig.unbounded())


def _inert_fault(cluster):
    cluster.install_faults(FaultPlan(
        [link_degrade(2, at=1.0, duration=10.0, factor=2.0)]))


@pytest.mark.parametrize("plane", [None, _inert_congestion, _inert_fault],
                         ids=["no-plane", "congestion", "fault"])
def test_nic_doorbell_tally_agrees_with_obs_counter(plane):
    """The always-on ``nic.doorbell_trains`` counts every train, also the
    ones an active plane walks per WQE."""
    registry, nic_trains = _obs_train_run(none_entries=False, plane=plane)
    assert nic_trains == registry["counters"]["rdma.doorbell_trains"] == 3
