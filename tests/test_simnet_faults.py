"""Unit tests for the deterministic fault plane (``repro.simnet.faults``).

Covers plan validation, the four fault kinds end-to-end through the RDMA
layer (healed-blip delay, beyond-detection flush, crash kill + UD drop,
partition reachability, degrade timing), the empty-plan neutrality
guarantee, and bit-reproducibility of both installed planes and randomly
drawn plans.
"""

import pytest

from repro.common.errors import ConfigurationError, QpFlushedError
from repro.rdma import WcStatus, get_nic
from repro.simnet import (
    Cluster,
    FaultPlan,
    link_degrade,
    link_down,
    node_crash,
    partition,
)
from repro.simnet.faults import DEFAULT_DETECTION_TIMEOUT


# -- plan validation ---------------------------------------------------------

def test_entry_validation():
    with pytest.raises(ConfigurationError):
        link_down(1, 1, at=0, duration=100)
    with pytest.raises(ConfigurationError):
        link_down(0, 1, at=-1, duration=100)
    with pytest.raises(ConfigurationError):
        node_crash(0, at=-5)
    with pytest.raises(ConfigurationError):
        partition([[0, 1]], at=0, heal_at=10)  # one group
    with pytest.raises(ConfigurationError):
        partition([[0, 1], [1, 2]], at=0, heal_at=10)  # overlap
    with pytest.raises(ConfigurationError):
        link_degrade(0, at=0, duration=10, factor=1.0)
    with pytest.raises(ConfigurationError):
        FaultPlan(["not-a-fault"])


def test_plan_referencing_unknown_node_rejected_at_install():
    cluster = Cluster(node_count=2)
    with pytest.raises(Exception):
        cluster.install_faults(FaultPlan([node_crash(7, at=100)]))


# -- empty-plan neutrality ---------------------------------------------------

def test_empty_plane_is_inactive_and_inert():
    cluster = Cluster(node_count=2)
    plane = cluster.install_faults(FaultPlan())
    assert plane.active is False
    assert cluster.faults is plane

    remote = get_nic(cluster.node(1)).register_memory(64)
    qp = get_nic(cluster.node(0)).create_qp(cluster.node(1))
    times = {}

    def sender(env):
        yield qp.post_write(b"x" * 32, remote.rkey, 0).done
        times["empty"] = env.now

    cluster.env.process(sender(cluster.env))
    cluster.run()

    # The same transfer on a cluster with no plane installed at all
    # finishes at the identical simulated instant.
    bare = Cluster(node_count=2)
    remote2 = get_nic(bare.node(1)).register_memory(64)
    qp2 = get_nic(bare.node(0)).create_qp(bare.node(1))

    def sender2(env):
        yield qp2.post_write(b"x" * 32, remote2.rkey, 0).done
        times["bare"] = env.now

    bare.env.process(sender2(bare.env))
    bare.run()
    assert times["empty"] == times["bare"]


# -- link_down ---------------------------------------------------------------

def _timed_write(cluster, at):
    """Post one 32-byte write node0 -> node1 at time ``at``; returns a dict
    later holding the completion time or error."""
    remote = get_nic(cluster.node(1)).register_memory(64)
    qp = get_nic(cluster.node(0)).create_qp(cluster.node(1))
    out = {}

    def sender(env):
        yield env.timeout(at)
        wr = qp.post_write(b"y" * 32, remote.rkey, 0)
        try:
            yield wr.done
            out["done"] = env.now
        except QpFlushedError as exc:
            out["error"] = exc
            out["error_at"] = env.now
        out["cq"] = qp.send_cq.poll(max_entries=16)

    cluster.env.process(sender(cluster.env))
    return out


def test_link_down_blip_delays_but_delivers():
    baseline = Cluster(node_count=2)
    base = _timed_write(baseline, at=0.0)
    baseline.run()

    cluster = Cluster(node_count=2)
    cluster.install_faults(FaultPlan([link_down(0, 1, at=0.0,
                                                duration=20_000.0)]))
    out = _timed_write(cluster, at=0.0)
    cluster.run()
    # The outage heals inside the detection bound: the write rides it out
    # and lands exactly one outage-length later than the clean run.
    assert out["done"] == base["done"] + 20_000.0


def test_link_down_beyond_detection_flushes_with_retry_exc():
    cluster = Cluster(node_count=2)
    cluster.install_faults(FaultPlan([
        link_down(0, 1, at=0.0,
                  duration=10 * DEFAULT_DETECTION_TIMEOUT)]))
    out = _timed_write(cluster, at=0.0)
    cluster.run()
    assert isinstance(out["error"], QpFlushedError)
    # The failure surfaces at the detection bound, not at heal time.
    assert out["error_at"] == pytest.approx(DEFAULT_DETECTION_TIMEOUT)
    statuses = [wc.status for wc in out["cq"]]
    assert WcStatus.RETRY_EXC_ERR in statuses


def test_other_pairs_unaffected_by_link_down():
    cluster = Cluster(node_count=3)
    cluster.install_faults(FaultPlan([
        link_down(0, 1, at=0.0, duration=10 * DEFAULT_DETECTION_TIMEOUT)]))
    remote = get_nic(cluster.node(2)).register_memory(64)
    qp = get_nic(cluster.node(0)).create_qp(cluster.node(2))

    def sender(env):
        yield qp.post_write(b"z" * 32, remote.rkey, 0).done

    proc = cluster.env.process(sender(cluster.env))
    cluster.run()
    assert proc.ok
    assert remote.read(0, 1) == b"z"


# -- node_crash --------------------------------------------------------------

def test_crash_kills_spawned_processes_and_flushes_writes():
    cluster = Cluster(node_count=2)
    plane = cluster.install_faults(FaultPlan([node_crash(1, at=5_000.0)]))
    progress = []

    def victim(env):
        while True:
            yield env.timeout(1_000.0)
            progress.append(env.now)

    victim_proc = cluster.node(1).spawn(victim(cluster.env))
    out = _timed_write(cluster, at=10_000.0)  # posted after the crash
    cluster.run()
    assert not victim_proc.is_alive
    assert max(progress) <= 5_000.0
    assert 1 in plane.crashed
    assert cluster.node(1).crashed
    assert isinstance(out["error"], QpFlushedError)


def test_crash_drops_ud_multicast_for_dead_member():
    from repro.rdma import MulticastGroup

    cluster = Cluster(node_count=3)
    cluster.install_faults(FaultPlan([node_crash(2, at=1_000.0)]))
    group = MulticastGroup("g")
    rings = {}
    for node_id in (1, 2):
        nic = get_nic(cluster.node(node_id))
        ud = nic.create_ud_qp()
        ring = nic.register_memory(4096)
        for slot in range(4):
            ud.post_recv(ring, slot * 1024, 1024)
        group.join(ud)
        rings[node_id] = ud

    sender_ud = get_nic(cluster.node(0)).create_ud_qp()

    def sender(env):
        yield env.timeout(2_000.0)  # after node2's crash
        sender_ud.post_send_multicast(group, b"m" * 64)
        yield env.timeout(50_000.0)

    cluster.env.process(sender(cluster.env))
    cluster.run()
    assert len(rings[1].recv_cq.poll(max_entries=8)) == 1
    assert len(rings[2].recv_cq.poll(max_entries=8)) == 0


# -- partition ---------------------------------------------------------------

def test_partition_blocks_across_groups_only():
    cluster = Cluster(node_count=4)
    plane = cluster.install_faults(FaultPlan([
        partition([[0, 1], [2, 3]], at=0.0, heal_at=50_000.0)]))
    n = cluster.node
    assert plane.rc_admission(n(0), n(2)) == pytest.approx(50_000.0)
    assert plane.rc_admission(n(0), n(1)) == 0.0
    assert plane.rc_admission(n(2), n(3)) == 0.0
    assert not plane.ud_deliverable(n(1), n(3))
    assert plane.ud_deliverable(n(0), n(1))
    # Within the detection bound the partition is a blip, not a failure.
    assert not plane.peer_failed(n(0), n(2))


def test_partition_beyond_detection_is_peer_failure():
    cluster = Cluster(node_count=2)
    plane = cluster.install_faults(
        FaultPlan([partition([[0], [1]], at=0.0, heal_at=1e9)]),
        detection_timeout=10_000.0)
    assert plane.peer_failed(cluster.node(0), cluster.node(1))


# -- link_degrade ------------------------------------------------------------

def test_degrade_window_slows_then_restores():
    def run(plan):
        cluster = Cluster(node_count=2)
        if plan is not None:
            cluster.install_faults(plan)
        out = _timed_write(cluster, at=10_000.0)
        cluster.run()
        return out["done"]

    clean = run(None)
    degraded = run(FaultPlan([link_degrade(0, at=5_000.0,
                                           duration=100_000.0, factor=8.0)]))
    after_heal = run(FaultPlan([link_degrade(0, at=1_000.0,
                                             duration=2_000.0, factor=8.0)]))
    assert degraded > clean
    assert after_heal == clean  # window over before the write: full speed


# -- determinism -------------------------------------------------------------

def _faulted_run(seed):
    cluster = Cluster(node_count=4, seed=seed)
    cluster.install_faults(FaultPlan([
        link_down(0, 1, at=3_000.0, duration=30_000.0),
        node_crash(3, at=40_000.0),
        link_degrade(2, at=10_000.0, duration=20_000.0, factor=4.0),
    ]))
    trace = []
    for dst in (1, 2, 3):
        out = _timed_write(cluster, at=float(dst) * 2_000.0)
        out["dst"] = dst
        trace.append(out)
    cluster.run()
    return [(o.get("done"), o.get("error_at"), str(o.get("error")))
            for o in trace]


def test_faulted_run_is_bit_reproducible():
    assert _faulted_run(seed=11) == _faulted_run(seed=11)


def test_random_plan_is_deterministic_and_bounded():
    nodes = range(5)
    first = FaultPlan.random(seed=42, node_ids=nodes, start=1_000.0,
                             horizon=1_000_000.0, entry_count=6,
                             protected=(0,))
    second = FaultPlan.random(seed=42, node_ids=nodes, start=1_000.0,
                              horizon=1_000_000.0, entry_count=6,
                              protected=(0,))
    assert first.entries == second.entries
    assert len(first) == 6
    assert 0 not in first.node_ids()  # protected node untouched
    from repro.simnet import NodeCrash
    crashes = [e for e in first if isinstance(e, NodeCrash)]
    assert len(crashes) <= 1
    other = FaultPlan.random(seed=43, node_ids=nodes, start=1_000.0,
                             horizon=1_000_000.0, entry_count=6,
                             protected=(0,))
    assert first.entries != other.entries


# -- fault transitions are kernel timers --------------------------------------

def test_a_crash_and_a_degrade_are_install_timers_that_touch_only_their_victim():
    """A crash and a degrade are kernel timers queued at install: the
    crash kills the victim's processes at its instant and no other
    node's, the degrade rescales the victim's links and restores them."""
    cluster = Cluster.racked(2, 2)
    env = cluster.env
    before = env._sequence
    cluster.install_faults(FaultPlan([
        node_crash(3, at=1000.0),
        link_degrade(2, at=100.0, duration=50.0, factor=2.0)]))
    assert env._sequence == before + 3 and env.peek() == 100.0
    bandwidth = cluster.node(2).uplink.bandwidth
    seen = []

    def sleeper(node):
        yield 5000.0
        seen.append(node.node_id)

    def probe():
        yield 120.0
        seen.append(cluster.node(2).uplink.bandwidth)

    victim = cluster.node(3).spawn(sleeper(cluster.node(3)))
    survivor = cluster.node(2).spawn(sleeper(cluster.node(2)))
    cluster.node(0).spawn(probe())
    cluster.run()
    assert 3 in cluster.faults.crashed
    assert not victim.is_alive and not survivor.is_alive
    assert seen == [bandwidth / 2.0, 2]
    assert cluster.node(2).uplink.bandwidth == bandwidth
    assert cluster.now == 5000.0
