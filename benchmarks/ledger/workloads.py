"""The seven ledger workloads, built from the public ``repro`` API only.

Each workload is a function ``build(inputs, scale) -> Scenario``: it
creates a fresh cluster, spawns the source and target processes and
returns without running anything — the harness times ``cluster.run()``.
Targets fold what they receive into per-target ``[count, key_sum]``
cells; :meth:`Scenario.verified_ops` compares those with what the
benchmark itself derives from its inputs (``Inputs`` computes the
expected counts with its own copy of the documented key hash, never by
calling the router under test).

Everything here is closed loop: the simulator is driven by one host
process and a source pushes its next batch when the previous push
returned.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from operator import itemgetter

from repro.core import (FLOW_END, DfiRuntime, Endpoint, FlowOptions,
                        Optimization, Schema)
from repro.simnet import Cluster, CongestionConfig

TUPLE_SIZE = 64
PAD = bytes(TUPLE_SIZE - 8)
MASK64 = 2 ** 64 - 1
_KEY = itemgetter(0)

#: Ring sizing of the figure benches' replicate and mesh scenarios: short
#: rings so that credit and ring-full handling run, not only the write.
SHORT_RINGS = FlowOptions(source_segments=4, target_segments=16,
                          credit_threshold=8)


def expected_target(key: int, targets: int) -> int:
    """Where a shuffle key must land: Fibonacci hashing, high half, modulo
    the target count (paper §4.2.1 leaves the hash open; this is the one
    ``core/routing.py`` documents). The benchmark's own oracle."""
    return (((key * 0x9E3779B97F4A7C15) & MASK64) >> 32) % targets


class Inputs:
    """A pool of ``pool`` batches of ``batch`` ``(key, pad)`` tuples drawn
    from ``random.Random(seed)``, reused cyclically, with the facts the
    verifier needs about each batch."""

    def __init__(self, seed: int, batch: int, targets: int,
                 pool: int) -> None:
        rng = random.Random(seed)
        self.batch = batch
        self.batches = [[(rng.getrandbits(64), PAD) for _ in range(batch)]
                        for _ in range(pool)]
        self.key_sums = [sum(map(_KEY, rows)) for rows in self.batches]
        self.target_counts = []
        for rows in self.batches:
            counts = [0] * targets
            for key, _pad in rows:
                counts[expected_target(key, targets)] += 1
            self.target_counts.append(counts)

    def expect(self, first: int, batches: int):
        """Expected per-target counts and the key sum of ``batches``
        consecutive pool batches starting at pool index ``first``."""
        counts = [0] * len(self.target_counts[0])
        key_sum = 0
        for i in range(first, first + batches):
            slot = i % len(self.batches)
            key_sum += self.key_sums[slot]
            for t, n in enumerate(self.target_counts[slot]):
                counts[t] += n
        return counts, key_sum & MASK64


@dataclass
class Group:
    """One verification scope: targets whose deliveries are checked
    together (a shuffle flow: counts per target, checksum over the union;
    a replicate target: a scope of its own)."""

    expected_counts: list
    expected_sum: int
    cells: list = field(default_factory=list)   # [count, key_sum] per target

    def verified(self) -> int:
        counts = [cell[0] for cell in self.cells]
        if sum(cell[1] for cell in self.cells) & MASK64 != self.expected_sum:
            return 0
        # A surplus on one target is a duplicate or a misroute: it
        # verifies nothing and cancels one good delivery.
        good = sum(min(got, want) for got, want
                   in zip(counts, self.expected_counts))
        surplus = sum(max(got - want, 0) for got, want
                      in zip(counts, self.expected_counts))
        return max(good - surplus, 0)


@dataclass
class Scenario:
    cluster: Cluster
    ops: int
    payload_bytes: int
    groups: list
    rtts: list = field(default_factory=list)
    #: An op is a round trip (one delivery in every group) rather than
    #: one delivery: it verifies only when each of its halves does.
    round_trips: bool = False

    def verified_ops(self) -> int:
        verified = [group.verified() for group in self.groups]
        return min(verified) if self.round_trips else sum(verified)


def _drain_batches(dfi, flow, index, cell):
    target = yield from dfi.open_target(flow, index)
    while True:
        batch = yield from target.consume_batch()
        if batch is FLOW_END:
            return
        cell[0] += len(batch)
        cell[1] += sum(map(_KEY, batch))


def _shuffle_1to8(inputs, batches, per_tuple, obs):
    cluster = Cluster(node_count=9)
    if obs:
        cluster.enable_observability(trace=True, causal=True)
    dfi = DfiRuntime(cluster)
    schema = Schema(("key", "uint64"), ("pad", TUPLE_SIZE - 8))
    dfi.init_shuffle_flow("flow", [Endpoint(0, 0)],
                          [Endpoint(1 + n, 0) for n in range(8)],
                          schema, shuffle_key="key")
    pool = inputs.batches

    def source():
        src = yield from dfi.open_source("flow", 0)
        if per_tuple:
            for i in range(batches):
                for row in pool[i % len(pool)]:
                    yield from src.push(row)
        else:
            for i in range(batches):
                yield from src.push_batch(pool[i % len(pool)])
        yield from src.close()

    counts, key_sum = inputs.expect(0, batches)
    group = Group(counts, key_sum, [[0, 0] for _ in range(8)])
    cluster.env.process(source())
    for index, cell in enumerate(group.cells):
        cluster.env.process(_drain_batches(dfi, "flow", index, cell))
    ops = batches * inputs.batch
    return Scenario(cluster, ops, ops * TUPLE_SIZE, [group])


def shuffle_batched(inputs, scale):
    return _shuffle_1to8(inputs, 512 // scale, per_tuple=False, obs=False)


def shuffle_pertuple(inputs, scale):
    return _shuffle_1to8(inputs, 128 // scale, per_tuple=True, obs=False)


def shuffle_batched_obs(inputs, scale):
    return _shuffle_1to8(inputs, 512 // scale, per_tuple=False, obs=True)


def pingpong_latency(inputs, scale):
    trips = 4000 // scale
    cluster = Cluster(node_count=9)
    dfi = DfiRuntime(cluster)
    schema = Schema(("key", "uint64"), ("pad", TUPLE_SIZE - 8))
    client = [Endpoint(0, 0)]
    servers = [Endpoint(1 + n, 0) for n in range(8)]
    options = FlowOptions(target_segments=64, credit_threshold=16)
    for name, sources, targets in (("ping", client, servers),
                                   ("pong", servers, client)):
        dfi.init_shuffle_flow(name, sources, targets, schema,
                              shuffle_key="key",
                              optimization=Optimization.LATENCY,
                              options=options)
    rows = [row for rows in inputs.batches for row in rows]
    rtts = []
    echoed = [0, 0]
    env = cluster.env

    def client_proc():
        ping = yield from dfi.open_source("ping", 0)
        pong = yield from dfi.open_target("pong", 0)
        for i in range(trips):
            request = rows[i % len(rows)]
            start = env.now
            yield from ping.push(request)
            response = yield from pong.consume()
            rtts.append(env.now - start)
            if response is not FLOW_END and response[0] == request[0]:
                echoed[0] += 1
                echoed[1] += response[0]
        yield from ping.close()
        while (yield from pong.consume()) is not FLOW_END:
            echoed[0] += 1          # a surplus response fails the count

    def server_proc(index, cell):
        ping = yield from dfi.open_target("ping", index)
        pong = yield from dfi.open_source("pong", index)
        while True:
            request = yield from ping.consume()
            if request is FLOW_END:
                yield from pong.close()
                return
            cell[0] += 1
            cell[1] += request[0]
            yield from pong.push(request)

    # Requests: per-server counts by the key hash. Responses: one scope
    # with a single target whose cell counts only key-matched echoes.
    counts = [0] * 8
    key_sum = 0
    for i in range(trips):
        key = rows[i % len(rows)][0]
        counts[expected_target(key, 8)] += 1
        key_sum += key
    requests = Group(counts, key_sum & MASK64, [[0, 0] for _ in range(8)])
    responses = Group([trips], key_sum & MASK64, [echoed])
    env.process(client_proc())
    for index, cell in enumerate(requests.cells):
        env.process(server_proc(index, cell))
    return Scenario(cluster, trips, 2 * trips * TUPLE_SIZE,
                    [requests, responses], rtts, round_trips=True)


def replicate_mcast(inputs, scale):
    batches = 128 // scale          # x 256 tuples x 8 targets = 2^18 ops
    cluster = Cluster(node_count=9)
    dfi = DfiRuntime(cluster)
    schema = Schema(("key", "uint64"), ("pad", TUPLE_SIZE - 8))
    dfi.init_replicate_flow(
        "rep", [Endpoint(0, 0)], [Endpoint(1 + n, 0) for n in range(8)],
        schema, options=replace(SHORT_RINGS, multicast=True))
    pool = inputs.batches

    def source():
        src = yield from dfi.open_source("rep", 0)
        for i in range(batches):
            yield from src.push_batch(pool[i % len(pool)])
        yield from src.close()

    def target_proc(index, cell):
        target = yield from dfi.open_target("rep", index)
        count = key_sum = 0
        while True:
            row = yield from target.consume()
            if row is FLOW_END:
                cell[0], cell[1] = count, key_sum
                return
            count += 1
            key_sum += row[0]

    tuples = batches * inputs.batch
    _counts, key_sum = inputs.expect(0, batches)
    groups = [Group([tuples], key_sum, [[0, 0]]) for _ in range(8)]
    cluster.env.process(source())
    for index, group in enumerate(groups):
        cluster.env.process(target_proc(index, group.cells[0]))
    return Scenario(cluster, 8 * tuples, 8 * tuples * TUPLE_SIZE, groups)


def incast_congested(inputs, scale):
    senders = 16
    batches = 256 // scale          # x 64 tuples x 64 B = 1 MiB per sender
    cluster = Cluster(node_count=1 + senders)
    dfi = DfiRuntime(cluster)
    schema = Schema(("key", "uint64"), ("pad", TUPLE_SIZE - 8))
    dfi.init_shuffle_flow(
        "incast", [Endpoint(1 + n, 0) for n in range(senders)],
        [Endpoint(0, 0)], schema, shuffle_key="key",
        options=FlowOptions(congestion=CongestionConfig.datacenter()))
    pool = inputs.batches

    def source(index):
        src = yield from dfi.open_source("incast", index)
        for i in range(index, index + batches):
            yield from src.push_batch(pool[i % len(pool)], target=0)
        yield from src.close()

    count = key_sum = 0
    for index in range(senders):
        counts, part = inputs.expect(index, batches)
        count += counts[0]
        key_sum += part
    group = Group([count], key_sum & MASK64, [[0, 0]])
    for index in range(senders):
        cluster.node(1 + index).spawn(source(index))
    cluster.node(0).spawn(_drain_batches(dfi, "incast", 0, group.cells[0]))
    return Scenario(cluster, count, count * TUPLE_SIZE, [group])


def mesh_8x8(inputs, scale):
    racks = size = 8
    batches = 64 // scale           # x 32 tuples = 2048 per source
    cluster = Cluster.racked(racks, size)
    dfi = DfiRuntime(cluster)
    schema = Schema(("key", "uint64"), ("pad", TUPLE_SIZE - 8))
    pool = inputs.batches

    def source(flow, index, first):
        src = yield from dfi.open_source(flow, index)
        for i in range(first, first + batches):
            yield from src.push_batch(pool[i % len(pool)])
        yield from src.close()

    groups = []
    for rack in range(racks):
        base = rack * size
        flow = f"mesh{rack}"
        endpoints = [Endpoint(base + n, 0) for n in range(size)]
        dfi.init_shuffle_flow(flow, endpoints, endpoints, schema,
                              shuffle_key="key", options=SHORT_RINGS)
        counts = [0] * size
        key_sum = 0
        for index in range(size):
            first = (base + index) * batches
            cluster.node(base + index).spawn(source(flow, index, first))
            part_counts, part_sum = inputs.expect(first, batches)
            counts = [a + b for a, b in zip(counts, part_counts)]
            key_sum += part_sum
        group = Group(counts, key_sum & MASK64,
                      [[0, 0] for _ in range(size)])
        for index, cell in enumerate(group.cells):
            cluster.node(base + index).spawn(
                _drain_batches(dfi, flow, index, cell))
        groups.append(group)
    ops = racks * size * batches * inputs.batch
    return Scenario(cluster, ops, ops * TUPLE_SIZE, groups)


@dataclass(frozen=True)
class Workload:
    build: object
    batch: int          # tuples per pool batch
    targets: int        # fan-out the expected per-target counts are for
    why: str
    #: Batches in the key pool. The default is small and reused
    #: cyclically; the hash-routed bulk workloads draw enough distinct
    #: keys that per-target imbalance, and with it the exact call
    #: counts, barely moves from seed to seed.
    pool: int = 32


WORKLOADS = {
    "shuffle_batched": Workload(
        shuffle_batched, 1024, 8,
        "1:8 bandwidth shuffle via push_batch: the fused-train fast path "
        "where core.schema route/pack dominates", pool=128),
    "shuffle_pertuple": Workload(
        shuffle_pertuple, 1024, 8,
        "same flow via per-tuple push, the path figure benches and apps "
        "use: core.shuffle glue and core.routing dominate, codegen bypassed",
        pool=128),
    "pingpong_latency": Workload(
        pingpong_latency, 1024, 8,
        "latency-optimised request/response, one segment per tuple: "
        "simnet.kernel and rdma dominate, schema is idle"),
    "replicate_mcast": Workload(
        replicate_mcast, 256, 8,
        "1:8 multicast replicate with short rings: the only workload where "
        "core.replicate, UD QPs and sequence tracking do the work"),
    "incast_congested": Workload(
        incast_congested, 64, 1,
        "16:1 fan-in with the congestion plane live: consume-side heavy, "
        "de-elided event path, simnet.congestion active"),
    "shuffle_batched_obs": Workload(
        shuffle_batched_obs, 1024, 8,
        "shuffle_batched with trace and causal observability on: the only "
        "workload where obs does work; pairs with shuffle_batched",
        pool=128),
    "mesh_8x8": Workload(
        mesh_8x8, 32, 8,
        "64 nodes in 8 rack shards, eight concurrent 8:8 shuffles: the "
        "only workload where simnet.shard runs", pool=4096),
}
