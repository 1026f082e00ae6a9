"""Tests for the RNIC pipeline model and memory-region write hooks."""

import pytest

from repro.common.errors import MemoryRegionError
from repro.rdma import get_nic
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


# -- write hooks ---------------------------------------------------------

def test_write_hook_fires_on_commit():
    cluster = Cluster(node_count=1)
    region = get_nic(cluster.node(0)).register_memory(64)
    events = []
    region.add_write_hook(lambda offset, length: events.append(
        (offset, length)))
    region.write(8, b"abcd")
    assert events == [(8, 4)]


def test_write_hook_removal():
    cluster = Cluster(node_count=1)
    region = get_nic(cluster.node(0)).register_memory(64)
    events = []
    hook = lambda offset, length: events.append(offset)  # noqa: E731
    region.add_write_hook(hook)
    region.write(0, b"x")
    region.remove_write_hook(hook)
    region.write(1, b"y")
    assert events == [0]


def test_write_hook_not_fired_by_u64_helpers():
    """Credit counters are updated with write_u64 — deliberately without
    waking ring waiters (the source reads them remotely)."""
    cluster = Cluster(node_count=1)
    region = get_nic(cluster.node(0)).register_memory(64)
    events = []
    region.add_write_hook(lambda offset, length: events.append(offset))
    region.write_u64(0, 123)
    region.fetch_add_u64(0, 1)
    assert events == []


def test_hook_fires_for_remote_write_commits():
    """One-sided writes land through region.write, so a waiter armed on
    the region observes both the payload and footer commits."""
    cluster = Cluster(node_count=2)
    nic0, nic1 = get_nic(cluster.node(0)), get_nic(cluster.node(1))
    remote = nic1.register_memory(4096)
    qp = nic0.create_qp(cluster.node(1))
    commits = []
    remote.add_write_hook(
        lambda offset, length: commits.append((offset, length,
                                               cluster.now)))

    def sender(env):
        yield qp.post_write(b"z" * 1024, remote.rkey, 0).done

    cluster.env.process(sender(cluster.env))
    cluster.run()
    # Large write: ordered prefix commit then the 64-byte tail.
    assert len(commits) == 2
    (p_off, p_len, p_t), (t_off, t_len, t_t) = commits
    assert p_off == 0 and p_len == 1024 - 64
    assert t_off == 1024 - 64 and t_len == 64
    assert p_t < t_t  # increasing-address DMA order


def test_hook_removing_itself_while_firing():
    """A commit fires the hooks registered when it began: one that
    unregisters itself mid-commit still lets the other fire for that
    commit, and only the other fires on the next one."""
    cluster = Cluster(node_count=1)
    region = get_nic(cluster.node(0)).register_memory(64)
    fired = []

    def once(offset, _length):
        fired.append(("once", offset))
        region.remove_write_hook(once)

    region.add_write_hook(once)
    region.add_write_hook(lambda offset, _length: fired.append(
        ("always", offset)))
    region.write(0, b"a")
    region.write(1, b"b")
    assert fired == [("once", 0), ("always", 0), ("always", 1)]


def test_hook_added_while_firing_starts_on_next_commit():
    cluster = Cluster(node_count=1)
    region = get_nic(cluster.node(0)).register_memory(64)
    fired = []

    def late(offset, _length):
        fired.append(("late", offset))

    def adder(offset, _length):
        fired.append(("adder", offset))
        if offset == 0:
            region.add_write_hook(late)

    region.add_write_hook(adder)
    region.write(0, b"a")
    assert fired == [("adder", 0)]
    region.write(1, b"b")
    assert fired == [("adder", 0), ("adder", 1), ("late", 1)]


@pytest.mark.parametrize("offset, data", [(-1, b"ab"), (63, b"ab"),
                                          (64, b"a"), (-8, b"")])
def test_out_of_range_write_changes_nothing(offset, data):
    """An out-of-range write raises the range check's error and message,
    changes no byte and fires no hook."""
    cluster = Cluster(node_count=1)
    region = get_nic(cluster.node(0)).register_memory(64)
    region.write(0, bytes(range(64)))
    fired = []
    region.add_write_hook(lambda offset, length: fired.append(offset))
    message = (f"access [{offset}, {offset + len(data)}) outside region "
               f"of size 64 (rkey={region.rkey})")
    with pytest.raises(MemoryRegionError) as caught:
        region.write(offset, data)
    assert str(caught.value) == message
    assert region.read(0, 64) == bytes(range(64))
    assert fired == []
