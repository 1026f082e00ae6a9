"""Measurement routines for Experiment 1 (Figs. 7-9, Section 6.1.4)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.config import HardwareProfile
from repro.core import (
    FLOW_END,
    AggregationSpec,
    DfiRuntime,
    Endpoint,
    FlowOptions,
    Optimization,
    Ordering,
    Schema,
)
from repro.simnet import Cluster


def _payload_schema(tuple_size: int) -> Schema:
    """A (key, pad) schema of exactly ``tuple_size`` bytes."""
    if tuple_size < 16:
        return Schema(("key", "uint64"), ("pad", tuple_size - 8)) \
            if tuple_size > 8 else Schema(("key", "uint64"))
    return Schema(("key", "uint64"), ("pad", tuple_size - 8))


@dataclass
class BandwidthMeasurement:
    """Result of one bandwidth run."""

    payload_bytes: int
    elapsed_ns: float

    @property
    def bytes_per_ns(self) -> float:
        return self.payload_bytes / self.elapsed_ns


def measure_shuffle_bandwidth(tuple_size: int, source_threads: int,
                              target_nodes: int = 8,
                              total_bytes: int = 4 << 20,
                              options: FlowOptions = FlowOptions(),
                              profile: HardwareProfile = HardwareProfile(),
                              optimization: Optimization = Optimization.BANDWIDTH,
                              ) -> BandwidthMeasurement:
    """Fig. 7a: sender bandwidth of a 1:``target_nodes`` shuffle flow."""
    cluster = Cluster(node_count=1 + target_nodes, profile=profile)
    dfi = DfiRuntime(cluster)
    schema = _payload_schema(tuple_size)
    sources = [Endpoint(0, t) for t in range(source_threads)]
    targets = [Endpoint(1 + n, 0) for n in range(target_nodes)]
    dfi.init_shuffle_flow("bw", sources, targets, schema,
                          shuffle_key="key", options=options,
                          optimization=optimization)
    per_source = total_bytes // tuple_size // source_threads
    pad = b"x" * (tuple_size - 8)
    window = {"start": None, "end": 0.0}

    def source_thread(index):
        source = yield from dfi.open_source("bw", index)
        if window["start"] is None:
            window["start"] = cluster.now
        for i in range(per_source):
            yield from source.push((i, pad))
        yield from source.close()

    def target_thread(index):
        target = yield from dfi.open_target("bw", index)
        while True:
            batch = yield from target.consume_batch()
            if batch is FLOW_END:
                window["end"] = max(window["end"], cluster.now)
                return

    for t in range(source_threads):
        cluster.env.process(source_thread(t))
    for n in range(target_nodes):
        cluster.env.process(target_thread(n))
    cluster.run()
    payload = per_source * source_threads * tuple_size
    return BandwidthMeasurement(payload, window["end"] - window["start"])


def measure_shuffle_rtt(tuple_size: int, target_nodes: int,
                        iterations: int = 200,
                        profile: HardwareProfile = HardwareProfile(),
                        ) -> list[float]:
    """Fig. 7b: request/response round trip over two latency-optimized
    shuffle flows, shuffling requests across ``target_nodes`` servers."""
    cluster = Cluster(node_count=1 + target_nodes, profile=profile)
    dfi = DfiRuntime(cluster)
    schema = _payload_schema(max(tuple_size, 16))
    client = [Endpoint(0, 0)]
    servers = [Endpoint(1 + n, 0) for n in range(target_nodes)]
    options = FlowOptions(target_segments=64, credit_threshold=16)
    dfi.init_shuffle_flow("ping", client, servers, schema,
                          shuffle_key="key",
                          optimization=Optimization.LATENCY,
                          options=options)
    dfi.init_shuffle_flow("pong", servers, client, schema,
                          shuffle_key="key",
                          optimization=Optimization.LATENCY,
                          options=options)
    pad = b"x" * (schema.tuple_size - 8)
    rtts: list[float] = []

    def client_proc(env):
        ping = yield from dfi.open_source("ping", 0)
        pong = yield from dfi.open_target("pong", 0)
        for i in range(iterations):
            start = env.now
            yield from ping.push((i, pad), target=i % target_nodes)
            response = yield from pong.consume()
            assert response is not FLOW_END
            rtts.append(env.now - start)
        yield from ping.close()
        while (yield from pong.consume()) is not FLOW_END:
            pass

    def server_proc(index):
        ping = yield from dfi.open_target("ping", index)
        pong = yield from dfi.open_source("pong", index)
        while True:
            request = yield from ping.consume()
            if request is FLOW_END:
                yield from pong.close()
                return
            yield from pong.push(request, target=0)

    cluster.env.process(client_proc(cluster.env))
    for n in range(target_nodes):
        cluster.env.process(server_proc(n))
    cluster.run()
    return rtts


def measure_scaleout_bandwidth(servers: int, threads_per_server: int,
                               bytes_per_source: int = 1 << 20,
                               tuple_size: int = 256,
                               options: FlowOptions = FlowOptions(
                                   segment_size=4096, source_segments=32,
                                   target_segments=16, credit_threshold=8),
                               ) -> BandwidthMeasurement:
    """Fig. 7c: aggregated sender bandwidth of an N:N shuffle where every
    server runs sources and targets."""
    cluster = Cluster(node_count=servers)
    dfi = DfiRuntime(cluster)
    schema = _payload_schema(tuple_size)
    endpoints = [Endpoint(node, t) for node in range(servers)
                 for t in range(threads_per_server)]
    dfi.init_shuffle_flow("scale", endpoints, endpoints, schema,
                          shuffle_key="key", options=options)
    per_source = bytes_per_source // tuple_size
    pad = b"x" * (tuple_size - 8)
    window = {"start": None, "end": 0.0}

    def source_thread(index):
        source = yield from dfi.open_source("scale", index)
        if window["start"] is None:
            window["start"] = cluster.now
        for i in range(per_source):
            yield from source.push((i * len(endpoints) + index, pad))
        yield from source.close()

    def target_thread(index):
        target = yield from dfi.open_target("scale", index)
        while True:
            batch = yield from target.consume_batch()
            if batch is FLOW_END:
                window["end"] = max(window["end"], cluster.now)
                return

    for index in range(len(endpoints)):
        cluster.env.process(source_thread(index))
        cluster.env.process(target_thread(index))
    cluster.run()
    payload = per_source * len(endpoints) * tuple_size
    return BandwidthMeasurement(payload, window["end"] - window["start"])


def measure_replicate_bandwidth(tuple_size: int, source_threads: int,
                                multicast: bool, target_nodes: int = 8,
                                total_bytes: int = 2 << 20,
                                ) -> BandwidthMeasurement:
    """Figs. 8a/8b: *aggregated receiver* bandwidth of a 1:8 replicate
    flow, naive one-sided vs. switch multicast."""
    cluster = Cluster(node_count=1 + target_nodes)
    dfi = DfiRuntime(cluster)
    schema = _payload_schema(tuple_size)
    sources = [Endpoint(0, t) for t in range(source_threads)]
    targets = [Endpoint(1 + n, 0) for n in range(target_nodes)]
    dfi.init_replicate_flow(
        "rep", sources, targets, schema,
        options=FlowOptions(multicast=multicast, source_segments=4,
                            target_segments=16, credit_threshold=8))
    per_source = total_bytes // tuple_size // source_threads
    pad = b"x" * (tuple_size - 8)
    window = {"start": None, "end": 0.0}
    received = [0]

    def source_thread(index):
        source = yield from dfi.open_source("rep", index)
        if window["start"] is None:
            window["start"] = cluster.now
        for i in range(per_source):
            yield from source.push((i, pad))
        yield from source.close()

    def target_thread(index):
        target = yield from dfi.open_target("rep", index)
        while True:
            item = yield from target.consume()
            if item is FLOW_END:
                window["end"] = max(window["end"], cluster.now)
                return
            received[0] += 1

    for t in range(source_threads):
        cluster.env.process(source_thread(t))
    for n in range(target_nodes):
        cluster.env.process(target_thread(n))
    cluster.run()
    return BandwidthMeasurement(received[0] * tuple_size,
                                window["end"] - window["start"])


def measure_replicate_rtt(tuple_size: int, target_nodes: int,
                          multicast: bool, iterations: int = 200,
                          ) -> list[float]:
    """Fig. 8c: time until *all* targets answered one replicated request."""
    cluster = Cluster(node_count=1 + target_nodes)
    dfi = DfiRuntime(cluster)
    schema = _payload_schema(max(tuple_size, 16))
    client = [Endpoint(0, 0)]
    servers = [Endpoint(1 + n, 0) for n in range(target_nodes)]
    dfi.init_replicate_flow(
        "req", client, servers, schema,
        optimization=Optimization.LATENCY,
        options=FlowOptions(multicast=multicast, target_segments=64,
                            credit_threshold=16))
    dfi.init_shuffle_flow(
        "resp", servers, client, schema, shuffle_key="key",
        optimization=Optimization.LATENCY,
        options=FlowOptions(target_segments=64, credit_threshold=16))
    pad = b"x" * (schema.tuple_size - 8)
    rtts: list[float] = []

    def client_proc(env):
        request = yield from dfi.open_source("req", 0)
        responses = yield from dfi.open_target("resp", 0)
        for i in range(iterations):
            start = env.now
            yield from request.push((i, pad))
            for _ in range(target_nodes):
                response = yield from responses.consume()
                assert response is not FLOW_END
            rtts.append(env.now - start)
        yield from request.close()
        while (yield from responses.consume()) is not FLOW_END:
            pass

    def server_proc(index):
        requests = yield from dfi.open_target("req", index)
        responses = yield from dfi.open_source("resp", index)
        while True:
            item = yield from requests.consume()
            if item is FLOW_END:
                yield from responses.close()
                return
            yield from responses.push(item, target=0)

    cluster.env.process(client_proc(cluster.env))
    for n in range(target_nodes):
        cluster.env.process(server_proc(n))
    cluster.run()
    return rtts


def measure_combiner_bandwidth(tuple_size: int, threads_per_sender: int,
                               sender_nodes: int = 8,
                               total_bytes: int = 4 << 20,
                               ) -> BandwidthMeasurement:
    """Fig. 9: aggregated sender bandwidth of an N:1 combiner flow with a
    SUM aggregation — the target's in-going link is the natural limit."""
    cluster = Cluster(node_count=1 + sender_nodes)
    dfi = DfiRuntime(cluster)
    if tuple_size < 16:
        raise ValueError("combiner tuples need key + value (>= 16 B)")
    fields = [("group", "uint64"), ("value", "uint64")]
    if tuple_size > 16:
        fields.append(("pad", tuple_size - 16))
    schema = Schema(*fields)
    sources = [Endpoint(1 + n, t) for n in range(sender_nodes)
               for t in range(threads_per_sender)]
    dfi.init_combiner_flow(
        "agg", sources, Endpoint(0, 0), schema,
        aggregation=AggregationSpec("sum", "group", "value"),
        options=FlowOptions(source_segments=4, target_segments=16,
                            credit_threshold=8))
    per_source = total_bytes // tuple_size // len(sources)
    pad = (b"x" * (tuple_size - 16),) if tuple_size > 16 else ()
    window = {"start": None, "end": 0.0}

    def source_thread(index):
        source = yield from dfi.open_source("agg", index)
        if window["start"] is None:
            window["start"] = cluster.now
        for i in range(per_source):
            yield from source.push((i % 64, 1, *pad))
        yield from source.close()

    def target_thread(env):
        target = yield from dfi.open_target("agg")
        yield from target.consume_all()
        window["end"] = cluster.now

    for index in range(len(sources)):
        cluster.env.process(source_thread(index))
    cluster.env.process(target_thread(cluster.env))
    cluster.run()
    payload = per_source * len(sources) * tuple_size
    return BandwidthMeasurement(payload, window["end"] - window["start"])


def run_shuffle_mesh(groups: int, group_size: int, tuple_size: int = 64,
                     tuples_per_source: int = 256, seed: int = 0,
                     options: FlowOptions = FlowOptions(
                         source_segments=4, target_segments=16,
                         credit_threshold=8),
                     ) -> dict:
    """Grouped shuffle mesh: ``groups`` concurrent ``group_size``:
    ``group_size`` shuffle flows on one ``groups × group_size``-node
    cluster built rack-major by :meth:`Cluster.racked`, one group per
    rack.

    The scale scenario: 8×8 is the 64-node kernel bench's flow-shaped
    event mix, and every flow stays inside its rack. Returns sim/wall
    measurements plus the cluster (callers read
    ``cluster.metrics_snapshot()``).
    """
    import time as _time

    cluster = Cluster.racked(groups, group_size, seed=seed)
    dfi = DfiRuntime(cluster)
    schema = _payload_schema(tuple_size)
    pad = b"x" * (tuple_size - 8)
    done = {"flows": 0}
    for group in range(groups):
        base = group * group_size
        endpoints = [Endpoint(base + n, 0) for n in range(group_size)]
        dfi.init_shuffle_flow(f"mesh{group}", endpoints, endpoints, schema,
                              shuffle_key="key", options=options)

    def source_thread(flow, index, node_id):
        source = yield from dfi.open_source(flow, index)
        batch = 32
        for start in range(0, tuples_per_source, batch):
            rows = [((start + i) * 1315423911 + index + node_id, pad)
                    for i in range(min(batch, tuples_per_source - start))]
            yield from source.push_batch(rows)
        yield from source.close()

    def target_thread(flow, index):
        target = yield from dfi.open_target(flow, index)
        received = 0
        while True:
            batch = yield from target.consume_batch()
            if batch is FLOW_END:
                done["flows"] += 1
                return
            received += len(batch)

    for group in range(groups):
        base = group * group_size
        flow = f"mesh{group}"
        for index in range(group_size):
            node = cluster.node(base + index)
            node.spawn(source_thread(flow, index, node.node_id))
            node.spawn(target_thread(flow, index))
    wall_start = _time.perf_counter()
    cluster.run()
    wall = _time.perf_counter() - wall_start
    assert done["flows"] == groups * group_size
    return {
        "nodes": cluster.node_count,
        "flows": groups,
        "tuples": groups * group_size * tuples_per_source,
        "sim_ns": cluster.now,
        "wall_seconds": wall,
        "cluster": cluster,
    }


def measure_incast(senders: int, tuple_size: int = 64,
                   bytes_per_sender: int = 256 << 10,
                   options: FlowOptions = FlowOptions(),
                   optimization: Optimization = Optimization.BANDWIDTH,
                   seed: int = 0) -> dict:
    """N:1 incast: ``senders`` *distinct* source nodes all shuffling into
    one target node — the classic fan-in pathology (the target's downlink
    is the shared egress queue every sender piles onto).

    Unlike :func:`measure_shuffle_bandwidth` (whose source threads share
    node 0, stressing the *uplink*), every sender here has its own
    uplink, so contention concentrates exactly where the bounded egress
    queue and its PFC hold-off act. Returns the completion window,
    per-sender finish times, and the cluster (read ``metrics_snapshot()``
    / ``cluster.congestion.stats()`` for queue and stall detail).
    """
    cluster = Cluster(node_count=1 + senders, seed=seed)
    dfi = DfiRuntime(cluster)
    schema = _payload_schema(tuple_size)
    sources = [Endpoint(1 + n, 0) for n in range(senders)]
    dfi.init_shuffle_flow("incast", sources, [Endpoint(0, 0)], schema,
                          shuffle_key="key", options=options,
                          optimization=optimization)
    per_source = bytes_per_sender // tuple_size
    pad = b"x" * (tuple_size - 8)
    window = {"start": None, "end": 0.0}
    finishes = [0.0] * senders
    consumed = [0]

    def source_thread(index):
        source = yield from dfi.open_source("incast", index)
        if window["start"] is None:
            window["start"] = cluster.now
        batch = 64
        for start in range(0, per_source, batch):
            rows = [(start + i, pad)
                    for i in range(min(batch, per_source - start))]
            yield from source.push_batch(rows, target=0)
        yield from source.close()
        finishes[index] = cluster.now

    def target_thread():
        target = yield from dfi.open_target("incast", 0)
        while True:
            batch = yield from target.consume_batch()
            if batch is FLOW_END:
                window["end"] = cluster.now
                return
            consumed[0] += len(batch)

    for n in range(senders):
        cluster.node(1 + n).spawn(source_thread(n))
    cluster.node(0).spawn(target_thread())
    cluster.run()
    assert consumed[0] == per_source * senders
    return {
        "senders": senders,
        "payload_bytes": per_source * senders * tuple_size,
        "elapsed_ns": window["end"] - window["start"],
        "finish_ns": finishes,
        "cluster": cluster,
    }


def measure_fairness(tenants: int, tuple_size: int = 64,
                     bytes_per_tenant: int = 128 << 10,
                     options: FlowOptions = FlowOptions(),
                     seed: int = 0) -> dict:
    """Many-tenant fairness: ``tenants`` independent 1:1 shuffle flows,
    each from its own source node into its own target *thread* on one
    shared target node. Every tenant pushes the same byte count, so with
    a fair fabric the per-tenant throughputs cluster tightly; Jain's
    index over them quantifies how far elephants starve mice. Returns
    per-tenant elapsed times, throughputs, the index, and the cluster."""
    cluster = Cluster(node_count=1 + tenants, seed=seed)
    dfi = DfiRuntime(cluster)
    schema = _payload_schema(tuple_size)
    for tenant in range(tenants):
        dfi.init_shuffle_flow(
            f"tenant{tenant}", [Endpoint(1 + tenant, 0)],
            [Endpoint(0, tenant)], schema, shuffle_key="key",
            options=options)
    per_tenant = bytes_per_tenant // tuple_size
    pad = b"x" * (tuple_size - 8)
    elapsed = [0.0] * tenants

    def source_thread(tenant):
        source = yield from dfi.open_source(f"tenant{tenant}", 0)
        batch = 64
        for start in range(0, per_tenant, batch):
            rows = [(start + i, pad)
                    for i in range(min(batch, per_tenant - start))]
            yield from source.push_batch(rows, target=0)
        yield from source.close()

    def target_thread(tenant):
        target = yield from dfi.open_target(f"tenant{tenant}", 0)
        start = cluster.now
        while True:
            batch = yield from target.consume_batch()
            if batch is FLOW_END:
                elapsed[tenant] = cluster.now - start
                return

    for tenant in range(tenants):
        cluster.node(1 + tenant).spawn(source_thread(tenant))
        cluster.node(0).spawn(target_thread(tenant))
    cluster.run()
    throughputs = [per_tenant * tuple_size / t for t in elapsed]
    total = sum(throughputs)
    square_sum = sum(x * x for x in throughputs)
    jain = total * total / (tenants * square_sum) if square_sum else 1.0
    return {
        "tenants": tenants,
        "elapsed_ns": elapsed,
        "throughputs": throughputs,
        "jain_index": jain,
        "makespan_ns": max(elapsed),
        "cluster": cluster,
    }


def measure_victim(elephant_senders: int = 8,
                   elephant_bytes_per_sender: int = 512 << 10,
                   victim_bytes: int = 32 << 10, tuple_size: int = 64,
                   victim_start_ns: float = 50_000.0,
                   options: FlowOptions = FlowOptions(),
                   seed: int = 0) -> dict:
    """Victim-flow-behind-elephant: an ``elephant_senders``:1 bulk incast
    (nodes 1..N → node 0, thread 0) has already filled node 0's egress
    queue when a short flow (node N+1 → node 0, thread 1) starts at
    ``victim_start_ns``. A single bulk sender cannot build a queue — the
    source CPU is the bottleneck below line rate — so the elephant must
    be a fan-in. On an ideal pipe the victim's packets wait behind the
    elephant's unbounded backlog; with bounded queues the elephant is
    held back at its senders and the victim's completion time stays
    within a small factor of the uncongested baseline (bounded
    inflation — the scenario-suite assertion). Returns
    both completion times and the cluster."""
    victim_node = 1 + elephant_senders
    cluster = Cluster(node_count=victim_node + 1, seed=seed)
    dfi = DfiRuntime(cluster)
    schema = _payload_schema(tuple_size)
    dfi.init_shuffle_flow(
        "elephant", [Endpoint(1 + n, 0) for n in range(elephant_senders)],
        [Endpoint(0, 0)], schema, shuffle_key="key", options=options)
    dfi.init_shuffle_flow("victim", [Endpoint(victim_node, 0)],
                          [Endpoint(0, 1)], schema, shuffle_key="key",
                          options=options)
    pad = b"x" * (tuple_size - 8)
    done = {}

    def source_thread(flow, index, total_bytes, delay):
        if delay:
            yield cluster.env.timeout(delay)
        source = yield from dfi.open_source(flow, index)
        done.setdefault(f"{flow}_start", cluster.now)
        count = total_bytes // tuple_size
        batch = 64
        for start in range(0, count, batch):
            rows = [(start + i, pad)
                    for i in range(min(batch, count - start))]
            yield from source.push_batch(rows, target=0)
        yield from source.close()

    def target_thread(flow):
        target = yield from dfi.open_target(flow, 0)
        while True:
            batch = yield from target.consume_batch()
            if batch is FLOW_END:
                done[f"{flow}_end"] = cluster.now
                return

    for n in range(elephant_senders):
        cluster.node(1 + n).spawn(source_thread(
            "elephant", n, elephant_bytes_per_sender, 0.0))
    cluster.node(victim_node).spawn(source_thread(
        "victim", 0, victim_bytes, victim_start_ns))
    cluster.node(0).spawn(target_thread("elephant"))
    cluster.node(0).spawn(target_thread("victim"))
    cluster.run()
    return {
        "victim_elapsed_ns": done["victim_end"] - done["victim_start"],
        "elephant_elapsed_ns": (done["elephant_end"]
                                - done["elephant_start"]),
        "cluster": cluster,
    }


def flow_memory_per_node(servers: int, threads_per_server: int,
                         options: FlowOptions = FlowOptions()) -> int:
    """Section 6.1.4: buffer bytes per node of an N:N shuffle deployment,
    from the protocol's ring-accounting (no data transfer needed).

    Per node: (local sources x all targets) send rings plus
    (local targets x all sources) receive rings.
    """
    endpoints = servers * threads_per_server
    slot = options.segment_size + 16
    send_rings = threads_per_server * endpoints
    recv_rings = threads_per_server * endpoints
    return (send_rings * options.source_segments
            + recv_rings * options.target_segments) * slot
