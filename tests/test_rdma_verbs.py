"""Tests for RC/UD queue pairs: writes, reads, atomics, send/recv, multicast."""

from array import array

import pytest

from repro.common import HardwareProfile
from repro.common.errors import MemoryRegionError, RdmaError
from repro.rdma import UD_MTU, MulticastGroup, Opcode, get_nic
from repro.rdma.qp import _ORDERED_TAIL
from repro.simnet import Cluster


def make_pair(node_count=2):
    cluster = Cluster(node_count=node_count)
    nic0 = get_nic(cluster.node(0))
    nic1 = get_nic(cluster.node(1))
    return cluster, nic0, nic1


# -- one-sided WRITE ---------------------------------------------------------

def test_write_lands_in_remote_memory():
    cluster, nic0, nic1 = make_pair()
    remote = nic1.register_memory(256)
    qp = nic0.create_qp(cluster.node(1))

    def sender(env):
        wr = qp.post_write(b"payload!", remote.rkey, 100)
        yield wr.done

    cluster.env.process(sender(cluster.env))
    cluster.run()
    assert remote.read(100, 8) == b"payload!"


def test_write_done_includes_ack_round_trip():
    cluster, nic0, nic1 = make_pair()
    remote = nic1.register_memory(64)
    qp = nic0.create_qp(cluster.node(1))
    times = {}

    def sender(env):
        wr = qp.post_write(b"x" * 32, remote.rkey, 0)
        yield wr.done
        times["done"] = env.now

    cluster.env.process(sender(cluster.env))
    cluster.run()
    # done >= two wire latencies (there and ack back)
    assert times["done"] >= 2 * cluster.profile.wire_latency


def test_write_dma_commits_payload_before_footer():
    """The increasing-address DMA guarantee DFI's footer protocol needs:
    mid-flight, the head of a large write is visible while its tail is not."""
    cluster, nic0, nic1 = make_pair()
    remote = nic1.register_memory(64 * 1024)
    qp = nic0.create_qp(cluster.node(1))
    size = 32 * 1024
    payload = bytes([0xAB]) * size

    def sender(env):
        wr = qp.post_write(payload, remote.rkey, 0)
        yield wr.done

    proc = cluster.env.process(sender(cluster.env))
    # Probe inside the window between the prefix commit (tail serialization
    # time before arrival) and the tail commit at arrival.
    serialization = size / cluster.profile.link_bandwidth
    arrival = (cluster.profile.nic_processing + cluster.profile.wire_latency
               + serialization)
    tail_window = _ORDERED_TAIL / cluster.profile.link_bandwidth
    probe_time = arrival - tail_window / 2
    cluster.run(until=probe_time)
    head_committed = remote.read(0, 1) == b"\xab"
    tail_committed = remote.read(size - 1, 1) == b"\xab"
    assert head_committed and not tail_committed
    cluster.run()
    assert remote.read(size - 1, 1) == b"\xab"
    assert proc.ok


def test_small_write_commits_atomically_with_tail():
    cluster, nic0, nic1 = make_pair()
    remote = nic1.register_memory(128)
    qp = nic0.create_qp(cluster.node(1))
    payload = b"z" * _ORDERED_TAIL  # exactly the tail size: single commit

    def sender(env):
        yield qp.post_write(payload, remote.rkey, 0).done

    cluster.env.process(sender(cluster.env))
    cluster.run()
    assert remote.read(0, len(payload)) == payload


def test_write_bounds_checked_at_post_time():
    cluster, nic0, nic1 = make_pair()
    remote = nic1.register_memory(16)
    qp = nic0.create_qp(cluster.node(1))
    with pytest.raises(MemoryRegionError):
        qp.post_write(b"x" * 32, remote.rkey, 0)
    with pytest.raises(MemoryRegionError):
        qp.post_write(b"x", 424242, 0)


def test_zero_length_write_rejected():
    cluster, nic0, nic1 = make_pair()
    remote = nic1.register_memory(16)
    qp = nic0.create_qp(cluster.node(1))
    with pytest.raises(RdmaError):
        qp.post_write(b"", remote.rkey, 0)


def test_selective_signaling():
    cluster, nic0, nic1 = make_pair()
    remote = nic1.register_memory(1024)
    qp = nic0.create_qp(cluster.node(1))

    def sender(env):
        unsignaled = qp.post_write(b"a" * 8, remote.rkey, 0, signaled=False)
        signaled = qp.post_write(b"b" * 8, remote.rkey, 8, signaled=True,
                                 wr_id="wrap")
        yield unsignaled.done
        yield signaled.done

    cluster.env.process(sender(cluster.env))
    cluster.run()
    completions = qp.send_cq.poll()
    assert len(completions) == 1
    assert completions[0].wr_id == "wrap"
    assert completions[0].opcode is Opcode.WRITE


def test_write_payload_snapshot_at_post_time():
    """Mutating the source buffer after posting must not corrupt the wire."""
    cluster, nic0, nic1 = make_pair()
    remote = nic1.register_memory(64)
    qp = nic0.create_qp(cluster.node(1))
    buffer = bytearray(b"original")

    def sender(env):
        wr = qp.post_write(buffer, remote.rkey, 0)
        buffer[:] = b"CLOBBER!"
        yield wr.done

    cluster.env.process(sender(cluster.env))
    cluster.run()
    assert remote.read(0, 8) == b"original"


@pytest.mark.parametrize("gather", [False, True], ids=["lone", "gather"])
@pytest.mark.parametrize("doorbell", [True, False], ids=["eager", "train"])
def test_zero_copy_write_counts_a_typed_buffer_in_bytes(gather, doorbell):
    """``assume_stable`` wraps the caller's buffer instead of copying it;
    a buffer of 8-byte items used to be sized by its item count, so the
    range check covered 3 bytes and the commit grew the region by 21."""
    cluster, nic0, nic1 = make_pair()
    remote = nic1.register_memory(64)
    qp = nic0.create_qp(cluster.node(1))
    words = array("Q", [1, 2, 3])
    payload = [memoryview(words)[:1], words[1:]] if gather else words

    def post(offset):
        return qp.post_write(payload, remote.rkey, offset,
                             assume_stable=True, doorbell=doorbell)

    with pytest.raises(MemoryRegionError):
        post(64 - 8)  # 24 bytes do not fit 8 bytes from the end
    post(8)
    qp.ring_doorbell()
    cluster.run()
    assert nic0.bytes_posted == 24
    assert len(remote.mem) == remote.size == 64
    assert remote.read(0, 64) == bytes(8) + words.tobytes() + bytes(32)


@pytest.mark.parametrize("typecode", ["B", "Q"])
def test_zero_copy_write_rejects_a_strided_buffer(typecode):
    """At post time, not when the commit event finds it cannot copy."""
    cluster, nic0, nic1 = make_pair()
    remote = nic1.register_memory(64)
    qp = nic0.create_qp(cluster.node(1))
    strided = memoryview(array(typecode, range(6)))[::2]
    for payload in (strided, [b"head", strided]):
        with pytest.raises(RdmaError, match="C-contiguous"):
            qp.post_write(payload, remote.rkey, 0, assume_stable=True)


def test_nic_engine_limits_message_rate():
    """Back-to-back tiny writes are paced by WQE processing time."""
    cluster, nic0, nic1 = make_pair()
    remote = nic1.register_memory(4096)
    qp = nic0.create_qp(cluster.node(1))
    count = 100
    done_at = {}

    def sender(env):
        wrs = [qp.post_write(b"x", remote.rkey, i) for i in range(count)]
        yield env.all_of([wr.done for wr in wrs])
        done_at["t"] = env.now

    cluster.env.process(sender(cluster.env))
    cluster.run()
    min_expected = count * cluster.profile.nic_wqe_service
    assert done_at["t"] >= min_expected


# -- one-sided READ ----------------------------------------------------------

def test_read_fetches_remote_bytes():
    cluster, nic0, nic1 = make_pair()
    remote = nic1.register_memory(64)
    remote.write(8, b"remote-data")
    local = nic0.register_memory(64)
    qp = nic0.create_qp(cluster.node(1))
    results = {}

    def reader(env):
        wr = qp.post_read(local, 0, remote.rkey, 8, 11)
        data = yield wr.done
        results["data"] = data

    cluster.env.process(reader(cluster.env))
    cluster.run()
    assert results["data"] == b"remote-data"
    assert local.read(0, 11) == b"remote-data"


def test_read_takes_a_full_round_trip():
    cluster, nic0, nic1 = make_pair()
    remote = nic1.register_memory(64)
    local = nic0.register_memory(64)
    qp = nic0.create_qp(cluster.node(1))
    times = {}

    def reader(env):
        yield qp.post_read(local, 0, remote.rkey, 0, 8).done
        times["rtt"] = env.now

    cluster.env.process(reader(cluster.env))
    cluster.run()
    assert times["rtt"] >= 2 * cluster.profile.wire_latency


def test_read_snapshots_remote_state_at_request_arrival():
    """A write committed long after the read request arrives is not seen."""
    cluster, nic0, nic1 = make_pair()
    remote = nic1.register_memory(64)
    remote.write(0, b"AAAA")
    local = nic0.register_memory(64)
    qp = nic0.create_qp(cluster.node(1))
    results = {}

    def reader(env):
        wr = qp.post_read(local, 0, remote.rkey, 0, 4)
        data = yield wr.done
        results["data"] = data

    def late_writer(env):
        # Mutate remote memory well after the request has arrived.
        yield env.timeout(10 * cluster.profile.wire_latency)
        remote.write(0, b"BBBB")

    cluster.env.process(reader(cluster.env))
    cluster.env.process(late_writer(cluster.env))
    cluster.run()
    assert results["data"] == b"AAAA"


def test_read_length_validation():
    cluster, nic0, nic1 = make_pair()
    remote = nic1.register_memory(16)
    local = nic0.register_memory(16)
    qp = nic0.create_qp(cluster.node(1))
    with pytest.raises(RdmaError):
        qp.post_read(local, 0, remote.rkey, 0, 0)
    with pytest.raises(MemoryRegionError):
        qp.post_read(local, 0, remote.rkey, 8, 16)


# -- atomics -----------------------------------------------------------------

def test_fetch_add_returns_old_and_increments():
    cluster, nic0, nic1 = make_pair()
    counter = nic1.register_memory(8)
    qp = nic0.create_qp(cluster.node(1))
    results = []

    def worker(env):
        for _ in range(3):
            old = yield qp.post_fetch_add(counter.rkey, 0, 1).done
            results.append(old)

    cluster.env.process(worker(cluster.env))
    cluster.run()
    assert results == [0, 1, 2]
    assert counter.read_u64(0) == 3


def test_concurrent_fetch_add_yields_unique_sequence_numbers():
    """The property the DFI tuple sequencer relies on."""
    cluster = Cluster(node_count=4)
    sequencer_nic = get_nic(cluster.node(0))
    counter = sequencer_nic.register_memory(8)
    drawn = []

    def client(env, node):
        qp = get_nic(node).create_qp(cluster.node(0))
        for _ in range(20):
            old = yield qp.post_fetch_add(counter.rkey, 0, 1).done
            drawn.append(old)

    for node_id in range(1, 4):
        node = cluster.node(node_id)
        node.spawn(client(cluster.env, node))
    cluster.run()
    assert sorted(drawn) == list(range(60))
    assert counter.read_u64(0) == 60


def test_compare_swap_over_the_wire():
    cluster, nic0, nic1 = make_pair()
    word = nic1.register_memory(8)
    word.write_u64(0, 5)
    qp = nic0.create_qp(cluster.node(1))
    results = []

    def worker(env):
        old = yield qp.post_compare_swap(word.rkey, 0, 5, 77).done
        results.append(old)
        old = yield qp.post_compare_swap(word.rkey, 0, 5, 88).done
        results.append(old)

    cluster.env.process(worker(cluster.env))
    cluster.run()
    assert results == [5, 77]
    assert word.read_u64(0) == 77


# -- two-sided SEND/RECV -------------------------------------------------------

def connected_pair(cluster, nic0, nic1):
    qp0 = nic0.create_qp(cluster.node(1))
    qp1 = nic1.create_qp(cluster.node(0))
    qp0.connect(qp1)
    return qp0, qp1


def test_send_recv_roundtrip():
    cluster, nic0, nic1 = make_pair()
    qp0, qp1 = connected_pair(cluster, nic0, nic1)
    rx = nic1.register_memory(256)
    qp1.post_recv(rx, 0, 256, wr_id="r0")

    def sender(env):
        yield qp0.post_send(b"two-sided", imm=42).done

    cluster.env.process(sender(cluster.env))
    cluster.run()
    completions = qp1.recv_cq.poll()
    assert len(completions) == 1
    wc = completions[0]
    assert wc.wr_id == "r0"
    assert wc.byte_len == 9
    assert wc.imm == 42
    assert rx.read(0, 9) == b"two-sided"


def test_send_buffered_until_recv_posted():
    cluster, nic0, nic1 = make_pair()
    qp0, qp1 = connected_pair(cluster, nic0, nic1)
    rx = nic1.register_memory(64)

    def sender(env):
        yield qp0.post_send(b"early").done

    def receiver(env):
        yield env.timeout(100_000)
        qp1.post_recv(rx, 0, 64)

    cluster.env.process(sender(cluster.env))
    cluster.env.process(receiver(cluster.env))
    cluster.run()
    assert rx.read(0, 5) == b"early"
    assert len(qp1.recv_cq.poll()) == 1


def test_send_without_connect_rejected():
    cluster, nic0, nic1 = make_pair()
    qp = nic0.create_qp(cluster.node(1))
    with pytest.raises(RdmaError, match="unconnected"):
        qp.post_send(b"nope")


def test_connect_mismatched_pair_rejected():
    cluster = Cluster(node_count=3)
    nic0 = get_nic(cluster.node(0))
    nic2 = get_nic(cluster.node(2))
    qp0 = nic0.create_qp(cluster.node(1))
    qp2 = nic2.create_qp(cluster.node(0))
    with pytest.raises(RdmaError, match="mismatch"):
        qp0.connect(qp2)


def test_recv_buffer_too_small_raises():
    cluster, nic0, nic1 = make_pair()
    qp0, qp1 = connected_pair(cluster, nic0, nic1)
    rx = nic1.register_memory(64)
    qp1.post_recv(rx, 0, 4)

    def sender(env):
        yield qp0.post_send(b"way too large").done

    cluster.env.process(sender(cluster.env))
    with pytest.raises(RdmaError, match="receive buffer"):
        cluster.run()


# -- UD multicast ----------------------------------------------------------

def make_multicast(node_count=4, profile=None, seed=0):
    cluster = Cluster(node_count=node_count,
                      profile=profile or HardwareProfile(), seed=seed)
    group = MulticastGroup("grp")
    receivers = []
    for node_id in range(1, node_count):
        nic = get_nic(cluster.node(node_id))
        qp = nic.create_ud_qp()
        rx = nic.register_memory(UD_MTU * 8)
        for slot in range(8):
            qp.post_recv(rx, slot * UD_MTU, UD_MTU)
        group.join(qp)
        receivers.append((qp, rx))
    sender_qp = get_nic(cluster.node(0)).create_ud_qp()
    return cluster, group, sender_qp, receivers


def test_multicast_delivers_to_all_members():
    cluster, group, sender_qp, receivers = make_multicast()

    def sender(env):
        yield sender_qp.post_send_multicast(group, b"replicated").done

    cluster.env.process(sender(cluster.env))
    cluster.run()
    for qp, rx in receivers:
        completions = qp.recv_cq.poll()
        assert len(completions) == 1
        assert rx.read(0, 10) == b"replicated"


def test_multicast_mtu_enforced():
    cluster, group, sender_qp, _ = make_multicast()
    with pytest.raises(RdmaError, match="MTU"):
        sender_qp.post_send_multicast(group, b"x" * (UD_MTU + 1))


def test_multicast_drop_when_no_recv_posted():
    cluster = Cluster(node_count=2)
    group = MulticastGroup("grp")
    rx_nic = get_nic(cluster.node(1))
    qp = rx_nic.create_ud_qp()  # no recvs posted
    group.join(qp)
    sender_qp = get_nic(cluster.node(0)).create_ud_qp()

    def sender(env):
        yield sender_qp.post_send_multicast(group, b"lost").done

    cluster.env.process(sender(cluster.env))
    cluster.run()
    assert rx_nic.rx_dropped_no_recv == 1
    assert len(qp.recv_cq.poll()) == 0


def test_multicast_loss_injection_reaches_ud_layer():
    profile = HardwareProfile(multicast_loss_probability=0.5)
    cluster, group, sender_qp, receivers = make_multicast(
        node_count=3, profile=profile, seed=11)
    rounds = 60

    def sender(env):
        for _ in range(rounds):
            yield sender_qp.post_send_multicast(group, b"maybe").done
            yield env.timeout(1000)

    cluster.env.process(sender(cluster.env))
    cluster.run()
    delivered = sum(qp.recv_cq.pushed for qp, _rx in receivers)
    assert delivered < rounds * len(receivers)
    assert delivered > 0


def test_group_join_leave():
    cluster = Cluster(node_count=2)
    group = MulticastGroup("g")
    qp = get_nic(cluster.node(1)).create_ud_qp()
    group.join(qp)
    assert len(group) == 1
    with pytest.raises(RdmaError):
        group.join(qp)
    group.leave(qp)
    assert len(group) == 0
    with pytest.raises(RdmaError):
        group.leave(qp)


def test_multicast_to_empty_group_rejected():
    cluster = Cluster(node_count=2)
    group = MulticastGroup("empty")
    sender_qp = get_nic(cluster.node(0)).create_ud_qp()
    with pytest.raises(RdmaError, match="no members"):
        sender_qp.post_send_multicast(group, b"x")
