"""`ib_write_lat` / `ib_write_bw` equivalents on the raw verbs layer.

The paper uses linux-rdma/perftest's ``ib_write_lat`` as the no-abstraction
latency baseline for Fig. 7b: a strict ping-pong of one-sided writes where
each side polls the last payload byte of its receive buffer. We reproduce
that tool here directly on our verbs layer — no DFI involved — so the
figure's "DFI adds only minimal overhead" comparison is meaningful.
"""

from __future__ import annotations

from repro.common.errors import ConfigurationError
from repro.common.rand import derive_rng
from repro.rdma.memory import Doorbell
from repro.rdma.nic import get_nic
from repro.simnet.cluster import Cluster


def _fill_payload(cluster: Cluster, tool: str, role: str, size: int,
                  client_node: int, server_node: int) -> bytearray:
    """Random-fill a message buffer from a named RNG stream.

    The real linux-rdma/perftest fills its buffers with random data; we
    do the same, but from ``derive_rng(cluster.seed, "perftest", ...)``
    so the bytes are (a) reproducible for a fixed experiment seed and
    (b) decorrelated from every other stream in the run — drawing here
    never perturbs node backoff RNGs or workload generators.
    """
    rng = derive_rng(cluster.seed, "perftest", tool, role, size,
                     client_node, server_node)
    return bytearray(rng.getrandbits(8) for _ in range(size))


def _wait_flag(doorbell, region, offset, expected: int):
    """Generator: wait until ``region[offset] == expected`` (memory poll,
    modeled with the region's doorbell exactly like DFI's target
    polling)."""
    while region.mem[offset] != expected:
        yield doorbell.arm()


def ib_write_lat(cluster: Cluster, size: int, iterations: int = 100,
                 client_node: int = 0, server_node: int = 1) -> list[float]:
    """Round-trip latency of a one-sided-write ping-pong.

    Returns the list of per-iteration round-trip times in nanoseconds.
    """
    if size < 1:
        raise ConfigurationError("message size must be >= 1 byte")
    if iterations < 1:
        raise ConfigurationError("need at least one iteration")
    client = cluster.node(client_node)
    server = cluster.node(server_node)
    client_nic, server_nic = get_nic(client), get_nic(server)
    client_buf = client_nic.register_memory(size)
    server_buf = server_nic.register_memory(size)
    client_bell = Doorbell(client, (client_buf,))
    server_bell = Doorbell(server, (server_buf,))
    client_qp = client_nic.create_qp(server)
    server_qp = server_nic.create_qp(client)
    rtts: list[float] = []

    def client_proc(env):
        payload = _fill_payload(cluster, "lat", "client", size,
                                client_node, server_node)
        for i in range(1, iterations + 1):
            start = env.now
            payload[-1] = i % 256
            client_qp.post_write(payload, server_buf.rkey, 0)
            yield from _wait_flag(client_bell, client_buf, size - 1, i % 256)
            rtts.append(env.now - start)

    def server_proc(env):
        payload = _fill_payload(cluster, "lat", "server", size,
                                client_node, server_node)
        for i in range(1, iterations + 1):
            yield from _wait_flag(server_bell, server_buf, size - 1, i % 256)
            payload[-1] = i % 256
            server_qp.post_write(payload, client_buf.rkey, 0)

    cluster.env.process(client_proc(cluster.env))
    cluster.env.process(server_proc(cluster.env))
    cluster.run()
    return rtts


def ib_write_bw(cluster: Cluster, size: int, iterations: int = 1000,
                window: int = 64, client_node: int = 0,
                server_node: int = 1) -> float:
    """One-directional write bandwidth with ``window`` outstanding writes.

    Returns the achieved bandwidth in bytes per nanosecond (== GB/s).
    """
    if size < 1 or iterations < 1 or window < 1:
        raise ConfigurationError("size, iterations and window must be >= 1")
    client = cluster.node(client_node)
    server = cluster.node(server_node)
    client_nic, server_nic = get_nic(client), get_nic(server)
    server_buf = server_nic.register_memory(size)
    qp = client_nic.create_qp(server)
    payload = bytes(_fill_payload(cluster, "bw", "client", size,
                                  client_node, server_node))
    state = {}

    def client_proc(env):
        outstanding = []
        start = env.now
        for i in range(iterations):
            signaled = (i % window == window - 1) or i == iterations - 1
            wr = qp.post_write(payload, server_buf.rkey, 0,
                               signaled=signaled)
            if signaled:
                outstanding.append(wr)
                if len(outstanding) > 1:
                    head = outstanding.pop(0)
                    if not head.done.triggered:
                        yield head.done
                qp.send_cq.poll(max_entries=window)
        for wr in outstanding:
            if not wr.done.triggered:
                yield wr.done
        state["elapsed"] = env.now - start

    cluster.env.process(client_proc(cluster.env))
    cluster.run()
    return iterations * size / state["elapsed"]
