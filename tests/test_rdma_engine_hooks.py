"""Tests for the RNIC pipeline model and the memory-region doorbell."""

import pytest

from repro.common.errors import MemoryRegionError
from repro.rdma import get_nic
from repro.rdma.memory import Doorbell
from repro.simnet import Cluster


def test_engine_pipeline_rate_vs_latency():
    """WQE admission is paced by the service interval while each WQE
    still experiences the full processing latency."""
    cluster = Cluster(node_count=2)
    nic = get_nic(cluster.node(0))
    profile = cluster.profile
    first = nic.engine_delay(inline=False)
    second = nic.engine_delay(inline=False)
    # First WQE: no queue, just the processing latency.
    assert first == pytest.approx(profile.nic_processing)
    # Second WQE waits one service slot, then its latency.
    assert second == pytest.approx(profile.nic_wqe_service
                                   + profile.nic_processing)
    assert nic.wqes_processed == 2


def test_engine_inline_latency_lower():
    cluster = Cluster(node_count=2)
    nic = get_nic(cluster.node(0))
    regular = nic.engine_delay(inline=False)
    cluster2 = Cluster(node_count=2)
    nic2 = get_nic(cluster2.node(0))
    inline = nic2.engine_delay(inline=True)
    assert inline < regular


def test_engine_idle_gap_resets_queue():
    cluster = Cluster(node_count=2)
    nic = get_nic(cluster.node(0))
    profile = cluster.profile

    def proc(env):
        nic.engine_delay(inline=False)
        yield env.timeout(10_000)  # long idle: the pipeline drains
        delay = nic.engine_delay(inline=False)
        assert delay == pytest.approx(profile.nic_processing)

    cluster.env.process(proc(cluster.env))
    cluster.run()


# -- the doorbell --------------------------------------------------------

def _rung_doorbell(regions=1):
    """``regions`` fresh 64-byte regions behind one doorbell, its dirty
    set emptied and a wake armed: ``(cluster, regions, doorbell,
    event)``."""
    cluster = Cluster(node_count=1)
    node = cluster.node(0)
    nic = get_nic(node)
    memory = [nic.register_memory(64) for _ in range(regions)]
    doorbell = Doorbell(node, memory)
    doorbell.dirty.clear()
    return cluster, memory, doorbell, doorbell.arm()


def test_a_commit_lands_marks_its_region_dirty_and_rings_once():
    """A commit lands its bytes, marks its region dirty in commit order
    and fires the armed wake once."""
    _cluster, (first, second), doorbell, event = _rung_doorbell(regions=2)
    second.write(8, b"abcd")
    assert second.read(8, 4) == b"abcd"
    assert list(doorbell.dirty) == [1]
    assert event.triggered
    first.commit((0, b"x", 1))
    assert list(doorbell.dirty) == [1, 0]
    assert doorbell._event is None  # fired by the first commit only


def test_u64_helpers_ring_no_doorbell():
    """Credit counters are updated with write_u64 — deliberately without
    waking ring waiters (the source reads them remotely)."""
    _cluster, (region,), doorbell, event = _rung_doorbell()
    region.write_u64(0, 123)
    region.fetch_add_u64(0, 1)
    assert doorbell.dirty == {}
    assert not event.triggered


def test_a_remote_write_rings_on_its_prefix_then_its_tail():
    """One-sided writes land through region.commit, so a waiter on the
    region's doorbell wakes on the payload prefix and again on the
    64-byte tail, later, in increasing-address order."""
    cluster = Cluster(node_count=2)
    nic0, nic1 = get_nic(cluster.node(0)), get_nic(cluster.node(1))
    remote = nic1.register_memory(4096)
    doorbell = Doorbell(cluster.node(1), (remote,))
    qp = nic0.create_qp(cluster.node(1))
    wakes = []

    def sender(env):
        yield qp.post_write(b"z" * 1024, remote.rkey, 0).done

    def waiter(env):
        while len(wakes) < 2:
            yield doorbell.arm()
            wakes.append((env.now, remote.read(0, 1024).count(b"z")))

    cluster.env.process(waiter(cluster.env))
    cluster.env.process(sender(cluster.env))
    cluster.run()
    # Large write: ordered prefix commit then the 64-byte tail.
    (prefix_at, prefix_landed), (tail_at, tail_landed) = wakes
    assert prefix_landed == 1024 - 64
    assert tail_landed == 1024
    assert prefix_at < tail_at  # increasing-address DMA order


def test_second_doorbell_on_a_region_is_refused():
    """A region holds at most one doorbell: attaching a second refuses
    the whole set and leaves every region as it was."""
    cluster, (region,), doorbell, _event = _rung_doorbell()
    other = get_nic(cluster.node(0)).register_memory(64)
    with pytest.raises(MemoryRegionError, match="at most one doorbell"):
        Doorbell(cluster.node(0), (other, region))
    assert region._doorbell is doorbell
    assert other._doorbell is None
    region.write(0, b"a")
    assert list(doorbell.dirty) == [0]


@pytest.mark.parametrize("offset, data", [(-1, b"ab"), (63, b"ab"),
                                          (64, b"a"), (-8, b"")])
def test_out_of_range_write_changes_nothing(offset, data):
    """An out-of-range write raises the range check's error and message,
    changes no byte and rings no doorbell."""
    _cluster, (region,), doorbell, _event = _rung_doorbell()
    region.write(0, bytes(range(64)))
    doorbell.dirty.clear()
    event = doorbell.arm()
    message = (f"access [{offset}, {offset + len(data)}) outside region "
               f"of size 64 (rkey={region.rkey})")
    with pytest.raises(MemoryRegionError) as caught:
        region.write(offset, data)
    assert str(caught.value) == message
    assert region.read(0, 64) == bytes(range(64))
    assert doorbell.dirty == {}
    assert not event.triggered
