"""Tests for links, nodes, and the switch fabric model."""

import pytest

from repro.common import HardwareProfile
from repro.common.errors import ConfigurationError, SimulationError
from repro.common.units import KIB, MIB, MICROSECONDS
from repro.simnet import Cluster
from repro.simnet.link import Link


# -- Link --------------------------------------------------------------------

def test_link_serialization_time():
    link = Link("l", bandwidth=1.0)  # 1 B/ns
    assert link.serialization_time(1000) == 1000


def test_link_reserve_fifo_queueing():
    link = Link("l", bandwidth=1.0)
    s1, e1 = link.reserve(100, earliest=0)
    s2, e2 = link.reserve(100, earliest=0)
    assert (s1, e1) == (0, 100)
    assert (s2, e2) == (100, 200)  # head-of-line blocking


def test_link_reserve_idle_gap():
    link = Link("l", bandwidth=1.0)
    link.reserve(100, earliest=0)
    s, e = link.reserve(50, earliest=500)
    assert (s, e) == (500, 550)


def test_link_stats():
    link = Link("l", bandwidth=2.0)
    link.reserve(100, 0)
    link.reserve(300, 0)
    assert link.bytes_carried == 400
    assert link.messages_carried == 2


def test_link_rejects_bad_inputs():
    with pytest.raises(SimulationError):
        Link("bad", bandwidth=0)
    link = Link("l", bandwidth=1.0)
    with pytest.raises(SimulationError):
        link.serialization_time(-1)
    with pytest.raises(SimulationError):
        link.reserve(-1, 0.0)


def test_link_utilization():
    link = Link("l", bandwidth=1.0)
    link.reserve(100, 0)
    assert link.utilization(200) == pytest.approx(0.5)
    assert link.utilization(0) == 0.0


# -- Cluster / Node ----------------------------------------------------------

def test_cluster_builds_nodes():
    cluster = Cluster(node_count=4)
    assert cluster.node_count == 4
    assert cluster.node(2).name == "node2"


def test_cluster_rejects_bad_node_count():
    with pytest.raises(ConfigurationError):
        Cluster(node_count=0)


def test_cluster_node_id_bounds():
    cluster = Cluster(node_count=2)
    with pytest.raises(ConfigurationError):
        cluster.node(5)


def test_node_compute_scales_with_frequency():
    profile = HardwareProfile(cpu_frequency_scale={1: 0.5})
    cluster = Cluster(node_count=2, profile=profile)
    times = {}

    def worker(node):
        yield node.compute(100)
        times[node.node_id] = node.env.now

    for node in cluster.nodes:
        node.spawn(worker(node))
    cluster.run()
    assert times[0] == 100
    assert times[1] == 200  # straggler at half frequency takes twice as long


def test_straggler_profile_helper():
    profile = HardwareProfile().with_straggler(3, 0.5)
    assert profile.cpu_scale(3) == 0.5
    assert profile.cpu_scale(0) == 1.0


# -- Fabric unicast ----------------------------------------------------------

def test_unicast_uncongested_is_cut_through():
    cluster = Cluster(node_count=2)
    profile = cluster.profile
    size = 64 * KIB
    expected = (profile.wire_latency
                + size / profile.link_bandwidth)
    arrived = {}

    def sender(cluster):
        event = cluster.fabric.unicast(cluster.node(0), cluster.node(1), size)
        yield event
        arrived["t"] = cluster.env.now

    cluster.env.process(sender(cluster))
    cluster.run()
    assert arrived["t"] == pytest.approx(expected, rel=1e-9)


def test_unicast_small_message_latency_dominated():
    cluster = Cluster(node_count=2)
    done = {}

    def sender(cluster):
        yield cluster.fabric.unicast(cluster.node(0), cluster.node(1), 16)
        done["t"] = cluster.env.now

    cluster.env.process(sender(cluster))
    cluster.run()
    # 16 B at 12.5 GB/s ~ 1.3 ns; wire latency dominates.
    assert done["t"] == pytest.approx(cluster.profile.wire_latency, rel=0.01)


def test_unicast_back_to_back_messages_saturate_link():
    cluster = Cluster(node_count=2)
    size = 8 * KIB
    count = 100
    done = {}

    def sender(cluster):
        events = [cluster.fabric.unicast(cluster.node(0), cluster.node(1),
                                         size)
                  for _ in range(count)]
        yield cluster.env.all_of(events)
        done["t"] = cluster.env.now

    cluster.env.process(sender(cluster))
    cluster.run()
    serialization = count * size / cluster.profile.link_bandwidth
    assert done["t"] == pytest.approx(
        serialization + cluster.profile.wire_latency, rel=1e-6)


def test_incast_congestion_on_downlink():
    """Multiple senders to one receiver share the receiver's downlink."""
    cluster = Cluster(node_count=3)
    size = 1 * MIB
    done = {}

    def sender(cluster, src):
        yield cluster.fabric.unicast(cluster.node(src), cluster.node(2), size)
        done[src] = cluster.env.now

    cluster.env.process(sender(cluster, 0))
    cluster.env.process(sender(cluster, 1))
    cluster.run()
    one_serialization = size / cluster.profile.link_bandwidth
    # Both uplinks run in parallel but the shared downlink serializes both.
    assert max(done.values()) >= 2 * one_serialization


def test_loopback_bypasses_links():
    cluster = Cluster(node_count=1)
    node = cluster.node(0)
    done = {}

    def sender(cluster):
        yield cluster.fabric.unicast(node, node, 4 * KIB)
        done["t"] = cluster.env.now

    cluster.env.process(sender(cluster))
    cluster.run()
    assert node.uplink.bytes_carried == 0
    assert node.downlink.bytes_carried == 0
    assert done["t"] < MICROSECONDS


def test_unicast_foreign_node_rejected():
    cluster_a = Cluster(node_count=1)
    cluster_b = Cluster(node_count=1)
    with pytest.raises(SimulationError):
        cluster_a.fabric.unicast(cluster_a.node(0), cluster_b.node(0), 10)


# -- Fabric multicast ----------------------------------------------------------

def test_multicast_single_uplink_serialization():
    """The sender pays one uplink slot regardless of group size."""
    cluster = Cluster(node_count=5)
    source = cluster.node(0)
    members = [cluster.node(i) for i in range(1, 5)]
    size = 1 * MIB

    def sender(cluster):
        arrivals = cluster.fabric.multicast(source, members, size)
        yield cluster.env.all_of([e for e in arrivals.values()])

    cluster.env.process(sender(cluster))
    cluster.run()
    assert source.uplink.messages_carried == 1
    assert source.uplink.bytes_carried == size
    for member in members:
        assert member.downlink.bytes_carried == size


def test_multicast_aggregate_bandwidth_exceeds_sender_link():
    """Core claim behind Fig. 8b: switch replication beats the uplink."""
    cluster = Cluster(node_count=9)
    source = cluster.node(0)
    members = [cluster.node(i) for i in range(1, 9)]
    size = 256 * KIB
    rounds = 50
    done = {}

    def sender(cluster):
        for _ in range(rounds):
            arrivals = cluster.fabric.multicast(source, members, size)
            yield cluster.env.all_of(list(arrivals.values()))
        done["t"] = cluster.env.now

    cluster.env.process(sender(cluster))
    cluster.run()
    received = 8 * rounds * size
    agg_bandwidth = received / done["t"]
    assert agg_bandwidth > 4 * cluster.profile.link_bandwidth


def test_multicast_loss_injection_drops_members():
    profile = HardwareProfile(multicast_loss_probability=0.5)
    cluster = Cluster(node_count=3, profile=profile, seed=7)
    source = cluster.node(0)
    members = [cluster.node(1), cluster.node(2)]
    drops = 0
    total = 0

    def sender(cluster):
        nonlocal drops, total
        for _ in range(200):
            arrivals = cluster.fabric.multicast(source, members, 64)
            for event in arrivals.values():
                total += 1
                if event is None:
                    drops += 1
            yield cluster.env.timeout(10)

    cluster.env.process(sender(cluster))
    cluster.run()
    assert total == 400
    assert 120 < drops < 280  # ~50% loss
    assert cluster.fabric.multicast_drops == drops


def test_multicast_deterministic_across_runs():
    def run_once():
        profile = HardwareProfile(multicast_loss_probability=0.3)
        cluster = Cluster(node_count=3, profile=profile, seed=42)
        outcomes = []

        def sender(cluster):
            for _ in range(50):
                arrivals = cluster.fabric.multicast(
                    cluster.node(0), [cluster.node(1), cluster.node(2)], 64)
                outcomes.append(tuple(e is None for e in arrivals.values()))
                yield cluster.env.timeout(5)

        cluster.env.process(sender(cluster))
        cluster.run()
        return outcomes

    assert run_once() == run_once()


def test_multicast_empty_group_rejected():
    cluster = Cluster(node_count=2)
    with pytest.raises(SimulationError):
        cluster.fabric.multicast(cluster.node(0), [], 64)


def test_cluster_byte_accounting():
    cluster = Cluster(node_count=2)

    def sender(cluster):
        yield cluster.fabric.unicast(cluster.node(0), cluster.node(1), 1000)

    cluster.env.process(sender(cluster))
    cluster.run()
    assert cluster.total_bytes_sent() == 1000
    assert cluster.total_bytes_received() == 1000


def test_loopback_preserves_fifo_order():
    """Regression: a small message posted after a large one on the same
    node must not overtake it (footer-after-payload ordering depends on
    this even for same-node transfers)."""
    cluster = Cluster(node_count=1)
    node = cluster.node(0)
    arrivals = []

    def sender(cluster):
        big = cluster.fabric.unicast(node, node, 512 * KIB)
        small = cluster.fabric.unicast(node, node, 16)
        big.callbacks.append(lambda _e: arrivals.append("big"))
        small.callbacks.append(lambda _e: arrivals.append("small"))
        yield cluster.env.all_of([big, small])

    cluster.env.process(sender(cluster))
    cluster.run()
    assert arrivals == ["big", "small"]
