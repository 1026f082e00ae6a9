"""Memory stability of long-running clusters cycling many flows.

A 256-1024-node serving cluster opens and closes flows continuously; the
per-cluster stores (flow registry, NIC region tables, fabric caches,
kernel queues) must reach a steady state instead of growing per
flow. ``FlowRegistry.release_flow`` is the lifecycle hook under test.
"""

import gc
import json
import mmap
import os
import subprocess
import sys
import weakref

import pytest

import repro
from repro.common.errors import (
    FlowAbortedError,
    FlowPeerFailedError,
    MemoryRegionError,
    RegistryError,
)
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
from repro.rdma.nic import get_nic
from repro.simnet import Cluster, FaultPlan, node_crash
from repro.simnet.kernel import Environment

_SCHEMA = Schema(("key", "uint64"), ("pad", 24))
_PAD = b"p" * 24
_VALUES = Schema(("key", "uint64"), ("value", "uint64"))


def _run_shuffle_cycle(dfi, cluster, name, tuples=64, replicate=None,
                       multicast=False, optimization=Optimization.BANDWIDTH):
    """One full flow lifetime: init, open, transfer, close — of a 1:2
    shuffle flow in mode ``optimization``, or of a replicate flow in mode
    ``replicate``."""
    options = FlowOptions(source_segments=2, target_segments=4,
                          credit_threshold=2, multicast=multicast)
    targets = [Endpoint(1, 0), Endpoint(2, 0)]
    if replicate is None:
        dfi.init_shuffle_flow(name, [Endpoint(0, 0)], targets, _SCHEMA,
                              shuffle_key="key", optimization=optimization,
                              options=options)
    else:
        dfi.init_replicate_flow(name, [Endpoint(0, 0)], targets, _SCHEMA,
                                optimization=replicate, options=options)

    def source_thread():
        source = yield from dfi.open_source(name, 0)
        for i in range(tuples):
            yield from source.push((i * 2654435761, _PAD))
        yield from source.close()

    def target_thread(index, node_id):
        target = yield from dfi.open_target(name, index)
        while (yield from target.consume()) is not FLOW_END:
            pass

    cluster.node(0).spawn(source_thread())
    cluster.node(1).spawn(target_thread(0, 1))
    cluster.node(2).spawn(target_thread(1, 2))
    cluster.run()


def _run_combiner_cycle(dfi, cluster, name, in_network):
    """One lifetime of a 2:1 SUM combiner flow, folded at the target or,
    with ``in_network``, in the switch."""
    dfi.init_combiner_flow(
        name, [Endpoint(0, 0), Endpoint(1, 0)], Endpoint(2, 0), _VALUES,
        aggregation=AggregationSpec("sum", "key", "value"),
        options=FlowOptions(source_segments=2, target_segments=4,
                            credit_threshold=2,
                            in_network_aggregation=in_network))
    result = {}

    def source_thread(index):
        source = yield from dfi.open_source(name, index)
        for i in range(64):
            yield from source.push((i % 8, 1))
        yield from source.close()

    def target_thread():
        target = yield from dfi.open_target(name)
        result.update((yield from target.consume_all()))

    cluster.node(0).spawn(source_thread(0))
    cluster.node(1).spawn(source_thread(1))
    cluster.node(2).spawn(target_thread())
    cluster.run()
    assert result == {key: 16 for key in range(8)}, name


def _footprint(cluster, registry):
    flows = registry._flows.values()
    return {
        "flows": len(flows),
        "board": sum(len(flow.board) for flow in flows),
        "waiting": sum(len(flow.waiting) for flow in flows),
        "regions": [len(get_nic(node)._regions) for node in cluster.nodes],
        "region_bytes": [get_nic(node).registered_bytes()
                         for node in cluster.nodes],
    }


def test_flow_cycle_memory_reaches_steady_state():
    cluster = Cluster(node_count=3)
    dfi = DfiRuntime(cluster)
    registry = dfi.registry

    _run_shuffle_cycle(dfi, cluster, "cycle0")
    held = _footprint(cluster, registry)
    # One record: its board holds the two published rings, and no
    # endpoint is left waiting.
    assert (held["flows"], held["board"], held["waiting"]) == (1, 2, 0)
    assert sum(held["regions"]) > 0

    registry.release_flow("cycle0")
    steady = _footprint(cluster, registry)
    # The record is gone and the ring/credit regions the targets held
    # were deregistered from their NICs.
    assert steady["flows"] == steady["board"] == steady["waiting"] == 0
    assert sum(steady["regions"]) < sum(held["regions"])
    assert sum(steady["region_bytes"]) < sum(held["region_bytes"])

    # Repeated cycles on the SAME cluster: the footprint after every
    # release is identical to the first — no per-flow residue anywhere.
    for cycle in range(1, 5):
        _run_shuffle_cycle(dfi, cluster, f"cycle{cycle}")
        registry.release_flow(f"cycle{cycle}")
        assert _footprint(cluster, registry) == steady, f"cycle {cycle}"
    # Released names become reusable.
    _run_shuffle_cycle(dfi, cluster, "cycle0")
    registry.release_flow("cycle0")
    assert _footprint(cluster, registry) == steady
    transports = {"shuffle"}

    def release(name):
        transports.add(registry.descriptor(name).transport)
        registry.release_flow(name)
        assert _footprint(cluster, registry) == steady, name

    # Replicate flows, both protocols: each naive ring writer sheds its
    # window's scratch region at close (two leaked per lifetime once), and
    # releasing a multicast flow drops the source's control region and
    # every target's receive ring (one per node leaked once).
    for multicast in (False, True):
        for mode in Optimization:
            for cycle in range(5):
                name = f"rep-{multicast}-{mode.name}-{cycle}"
                _run_shuffle_cycle(dfi, cluster, name, replicate=mode,
                                   multicast=multicast)
                release(name)
    # Every other transport: a latency shuffle, and a combiner folding at
    # the target or in the switch (whose target holds the switch's ring).
    for cycle in range(5):
        name = f"lat-{cycle}"
        _run_shuffle_cycle(dfi, cluster, name,
                           optimization=Optimization.LATENCY)
        release(name)
        for in_network in (False, True):
            name = f"comb-{in_network}-{cycle}"
            _run_combiner_cycle(dfi, cluster, name, in_network)
            release(name)
    assert transports == {"shuffle", "replicate", "multicast replicate",
                          "combiner", "in-network combiner"}


def _run_batched_cycle(dfi, cluster, name, batches=8, batch=1024,
                       keep_source=None):
    """One flow lifetime pushed in full-segment batches so steady-state
    flushes ride the fused macro-event fast path."""
    dfi.init_shuffle_flow(name, [Endpoint(0, 0)],
                          [Endpoint(1, 0), Endpoint(2, 0)], _SCHEMA,
                          shuffle_key="key", options=FlowOptions())

    def source_thread():
        source = yield from dfi.open_source(name, 0)
        if keep_source is not None:
            keep_source(source)
        for b in range(batches):
            yield from source.push_batch(
                [(i * 2654435761, _PAD)
                 for i in range(b * batch, (b + 1) * batch)])
        yield from source.close()

    def target_thread(index):
        target = yield from dfi.open_target(name, index)
        while (yield from target.consume_batch()) is not FLOW_END:
            pass

    cluster.node(0).spawn(source_thread())
    cluster.node(1).spawn(target_thread(0))
    cluster.node(2).spawn(target_thread(1))
    cluster.run()


def test_released_flows_leave_no_ring_or_staging_bytes_alive():
    """Default-size rings (256 KiB each, 513 KiB of staging per channel)
    are mapped buffers; a released flow must give every one of them back,
    not only its entries in the region tables."""
    cluster = Cluster(node_count=3)
    dfi = DfiRuntime(cluster)
    nics = [get_nic(node) for node in cluster.nodes]
    for cycle in range(3):
        sources = []
        _run_batched_cycle(dfi, cluster, f"bytes{cycle}",
                           keep_source=sources.append)
        # Mapped buffers take weak references; a bytearray is at most
        # MAP_MIN bytes and the region tables already account for it.
        buffers = [region.mem for nic in nics
                   for region in nic._regions.values()
                   if isinstance(region.mem, mmap.mmap)]
        buffers += [channel._stager.buffer
                    for channel in sources[0]._channels]
        assert [len(buffer) for buffer in buffers] == (
            [32 * (8192 + 16)] * 2 + [64 * (8192 + 16)] * 2)
        alive = [weakref.ref(buffer) for buffer in buffers]
        del buffers, sources
        dfi.registry.release_flow(f"bytes{cycle}")
        gc.collect()  # endpoints and their generators form cycles
        assert [ref() for ref in alive] == [None] * 4, f"cycle {cycle}"


@pytest.mark.parametrize("policy", ["abort", "reroute"])
@pytest.mark.parametrize("mode", list(Optimization),
                         ids=lambda mode: mode.name.lower())
@pytest.mark.parametrize("kind", ["shuffle", "naive"])
def test_failed_flow_releases_every_source_window(kind, mode, policy):
    """A 1:2 flow whose second target's node crashes at 100 µs sheds
    every source channel's window scratch region however its policy
    ends it: aborted, or rerouted and then closed."""
    cluster = Cluster(node_count=3)
    cluster.install_faults(FaultPlan([node_crash(2, at=100_000.0)]),
                           detection_timeout=10_000.0)
    dfi = DfiRuntime(cluster)
    schema = Schema(("key", "uint64"), ("value", "uint64"))
    options = FlowOptions(segment_size=128, source_segments=4,
                          target_segments=4, credit_threshold=2,
                          peer_timeout=100_000.0, on_target_failure=policy)
    targets = [Endpoint(1, 0), Endpoint(2, 0)]
    if kind == "shuffle":
        dfi.init_shuffle_flow("f", [Endpoint(0, 0)], targets, schema,
                              shuffle_key="key", optimization=mode,
                              options=options)
    else:
        dfi.init_replicate_flow("f", [Endpoint(0, 0)], targets, schema,
                                optimization=mode, options=options)
    sources = []

    def source_thread():
        source = yield from dfi.open_source("f", 0)
        sources.append(source)
        try:
            for i in range(4000):
                yield from source.push((i, i))
            yield from source.close()
        except FlowPeerFailedError:
            pass

    def target_thread(index):
        target = yield from dfi.open_target("f", index)
        try:
            while (yield from target.consume()) is not FLOW_END:
                pass
        except FlowAbortedError:
            pass

    cluster.env.process(source_thread())
    cluster.env.process(target_thread(0))
    cluster.node(2).spawn(target_thread(1))
    cluster.run()
    (source,) = sources
    assert source.failed_targets == (1,)
    windows = [getattr(channel, "_window", None) or channel._credit
               for channel in source._channels]
    assert [window._scratch for window in windows] == [None, None]


def _drained(env) -> bool:
    """Nothing is left queued, and every entry the kernel ever queued
    was popped once: each entry draws one sequence number."""
    return (not env._queue and not env._immediate
            and env.events_executed == env._sequence)


def test_batched_flow_cycles_keep_a_steady_footprint_and_event_cost():
    """Five batched flow cycles on one cluster: the registry/NIC
    footprint is identical after every release, every drained cycle
    leaves the kernel's queues empty, and identical cycles cost an
    identical number of kernel entries instead of growing."""
    cluster = Cluster(node_count=3)
    dfi = DfiRuntime(cluster)
    registry = dfi.registry
    env = cluster.env

    _run_batched_cycle(dfi, cluster, "fp0")
    # Doorbell trains actually ran.
    assert sum(get_nic(node).doorbell_trains for node in cluster.nodes)
    assert _drained(env)
    registry.release_flow("fp0")
    steady = _footprint(cluster, registry)
    costs = []
    for cycle in range(1, 5):
        before = env.events_executed
        _run_batched_cycle(dfi, cluster, f"fp{cycle}")
        registry.release_flow(f"fp{cycle}")
        assert _footprint(cluster, registry) == steady, f"cycle {cycle}"
        assert _drained(env), f"cycle {cycle}"
        costs.append(env.events_executed - before)
    assert len(set(costs)) == 1, costs


def test_latency_flow_has_no_per_write_growth():
    """A latency ping-pong long enough to lap its 4-slot rings hundreds
    of times: every eager write is still one WQE, one fabric message and
    zero doorbell trains, and its commits, like the credit reads'
    request and response, are kernel queue entries of their own — what
    is queued at the same point of every hundredth round trip does not
    grow with the write count, and the drained run leaves nothing
    queued."""
    from repro.core import Optimization

    trips = 800
    cluster = Cluster(node_count=2)
    dfi = DfiRuntime(cluster)
    options = FlowOptions(target_segments=4, credit_threshold=1)
    schema = Schema(("key", "uint64"), ("pad", 112))
    for name, source, target in (("ping", 0, 1), ("pong", 1, 0)):
        dfi.init_shuffle_flow(name, [Endpoint(source, 0)],
                              [Endpoint(target, 0)], schema,
                              shuffle_key="key",
                              optimization=Optimization.LATENCY,
                              options=options)
    pad = b"p" * 112
    pending = []
    env = cluster.env

    def client():
        ping = yield from dfi.open_source("ping", 0)
        pong = yield from dfi.open_target("pong", 0)
        for i in range(trips):
            yield from ping.push((i, pad))
            yield from pong.consume()
            if i % 100 == 99:
                pending.append(len(env._queue) + len(env._immediate))
        yield from ping.close()
        assert (yield from pong.consume()) is FLOW_END

    def server():
        ping = yield from dfi.open_target("ping", 0)
        pong = yield from dfi.open_source("pong", 0)
        while (request := (yield from ping.consume())) is not FLOW_END:
            yield from pong.push(request)
        yield from pong.close()

    cluster.node(0).spawn(client())
    cluster.node(1).spawn(server())
    cluster.run()

    # A closed loop: when the client holds its answer nothing else is in
    # flight, however many writes went before.
    assert pending == [0] * (trips // 100)
    assert _drained(env)
    # One write per hop plus the two close markers; every other WQE is
    # a credit read (request + response on the fabric).
    nics = [get_nic(node) for node in cluster.nodes]
    writes = 2 * (trips + 1)
    wqes = sum(nic.wqes_processed for nic in nics)
    assert wqes > writes
    assert cluster.fabric.unicast_count == writes + 2 * (wqes - writes)
    assert (wqes, cluster.fabric.unicast_count) == (2400, 3198)
    assert sum(nic.doorbell_trains for nic in nics) == 0


def test_release_flow_drops_sequencer_region():
    cluster = Cluster(node_count=3)
    dfi = DfiRuntime(cluster)
    master_nic = get_nic(cluster.node(0))
    before = len(master_nic._regions)
    dfi.init_replicate_flow("ordered", [Endpoint(0, 0)],
                            [Endpoint(1, 0), Endpoint(2, 0)], _SCHEMA,
                            ordering=Ordering.GLOBAL)
    assert len(master_nic._regions) == before + 1  # the u64 counter
    handle = dfi.registry.sequencer("ordered")
    dfi.registry.release_flow("ordered")
    assert len(master_nic._regions) == before
    with pytest.raises(MemoryRegionError):
        master_nic.region(handle.rkey)


def test_release_flow_lifecycle_errors():
    cluster = Cluster(node_count=3)
    dfi = DfiRuntime(cluster)
    registry = dfi.registry
    with pytest.raises(RegistryError):
        registry.release_flow("never-existed")
    _run_shuffle_cycle(dfi, cluster, "once")
    with pytest.raises(RegistryError, match=r"\('ring', 0, 1\)"):
        registry.publish("once", ("ring", 0, 1), None)
    registry.release_flow("once")
    with pytest.raises(RegistryError):  # double release is a bug, not a no-op
        registry.release_flow("once")
    # A released or unknown flow has no board and holds no regions:
    # nothing is stored that no later release could free.
    for name in ("once", "never-existed"):
        with pytest.raises(RegistryError, match="unknown flow"):
            registry.publish(name, ("control", 0, 0), object())
        with pytest.raises(RegistryError, match="unknown flow"):
            next(registry.wait(name, ("joined", 0)))
        with pytest.raises(RegistryError, match="unknown flow"):
            registry.published(name, ("ring", 0, 0))
        with pytest.raises(RegistryError, match="unknown flow"):
            registry.hold_region(name, 0, 5)
    assert registry._flows == {}

    # A wait that starts first resumes with the value at the instant it
    # is published; a later wait returns it without yielding.
    dfi.init_shuffle_flow("board", [Endpoint(0, 0)], [Endpoint(1, 0)],
                          _SCHEMA, shuffle_key="key")
    resumed = []
    publish_at = cluster.env.now + 250.0

    def waiter():
        value = yield from registry.wait("board", "aggregator")
        resumed.append((cluster.env.now, value))

    def publisher():
        yield cluster.env.timeout(250.0)
        registry.publish("board", "aggregator", "switch")

    cluster.env.process(waiter())
    cluster.env.process(publisher())
    cluster.run()
    assert resumed == [(publish_at, "switch")]
    assert registry.published("board", "aggregator") == "switch"
    with pytest.raises(StopIteration) as done:
        next(registry.wait("board", "aggregator"))
    assert done.value.value == "switch"
    registry.release_flow("board")


def test_nic_deregister_unknown_rkey_raises():
    cluster = Cluster(node_count=1)
    nic = get_nic(cluster.node(0))
    region = nic.register_memory(128)
    nic.deregister_memory(region.rkey)
    with pytest.raises(MemoryRegionError):
        nic.deregister_memory(region.rkey)


def test_fabric_loopback_cache_bounded_by_node_count():
    from repro.bench.flows import run_shuffle_mesh

    # The mesh includes same-node channels (source i -> target i), so the
    # loopback serialization cache is exercised on every node — and must
    # hold at most one entry per node, however much traffic flowed.
    result = run_shuffle_mesh(2, 4, tuples_per_source=64)
    cluster = result["cluster"]
    assert 0 < len(cluster.fabric._loopback_last) <= cluster.node_count


@pytest.mark.parametrize("racks", [1, 4])
def test_drained_mesh_and_train_bursts_leave_no_queue_entries(racks):
    from repro.bench.flows import run_shuffle_mesh

    result = run_shuffle_mesh(racks, 4, tuples_per_source=128)
    env = result["cluster"].env
    # Every timed callback and every train hop was a queue entry of its
    # own, popped once; the drained mesh leaves nothing behind.
    assert env.events_executed > 0 and _drained(env)
    # A burst of 300 one-action trains at one instant is 300 entries; a
    # train of 300 actions at one instant is one, holding a copy of the
    # train, which its caller may reuse at once.
    burst = Environment()
    for _ in range(300):
        burst.schedule_train([(1.0, list, ())])
    train = [(1.0, list, ())] * 300
    burst.schedule_train(train)
    train.clear()
    assert len(burst._queue) == burst._sequence == 301
    assert len(burst._queue[-1][2]) == 300
    burst.run()
    assert burst.events_executed == 301 and _drained(burst)


# -- scale: a channel pays for the slots it writes ---------------------------
# N-node all-to-all shuffle at default FlowOptions: N*N channels, each
# declaring a 256 KiB ring and 513 KiB of staging and touching a sliver of
# it. Measured in a subprocess, as tests/test_cold_start.py does, because a
# peak is per process — and as ``VmHWM``, not ``ru_maxrss``: a child
# inherits its parent's ``ru_maxrss`` across fork/exec, so under a pytest
# process that has grown past the bound it would report pytest's peak.

_ALL_TO_ALL = '''
import json, sys
from repro.core import FLOW_END, DfiRuntime, Endpoint, Schema
from repro.simnet import Cluster

NODES, ROWS = int(sys.argv[1]), 256
schema = Schema(("key", "uint64"), ("pad", 56))
cluster = Cluster(node_count=NODES)
dfi = DfiRuntime(cluster)
endpoints = [Endpoint(node, 0) for node in range(NODES)]
dfi.init_shuffle_flow("a2a", endpoints, endpoints, schema, shuffle_key="key")
received = [0] * NODES
declared = {}


def source_proc(index):
    source = yield from dfi.open_source("a2a", index)
    declared["source"] = source.memory_bytes
    yield from source.push_batch(
        [(row * 7919 + index, bytes(56)) for row in range(ROWS)])
    yield from source.close()


def target_proc(index):
    target = yield from dfi.open_target("a2a", index)
    declared["target"] = target.memory_bytes
    while (batch := (yield from target.consume_batch())) is not FLOW_END:
        received[index] += len(batch)


for index in range(NODES):
    cluster.node(index).spawn(source_proc(index))
    cluster.node(index).spawn(target_proc(index))
cluster.run()
with open("/proc/self/status") as status:
    (peak_kib,) = [int(line.split()[1]) for line in status
                   if line.startswith("VmHWM:")]
print(json.dumps({"delivered": sum(received), "sim_ns": cluster.env.now,
                  "peak_mib": peak_kib / 1024, "declared": declared}))
'''


@pytest.mark.parametrize("nodes, sim_ns, peak_mib", [
    # sim_ns as the parent of the first-touch change ran it; its peaks
    # were 816 and 3180 MiB, after it 53 and 126 MiB.
    (32, 65106.51999999989, 200),
    (64, 124260.43999999984, 300),
])
def test_all_to_all_peak_memory_follows_traffic(nodes, sim_ns, peak_mib):
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-c", _ALL_TO_ALL, str(nodes)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["delivered"] == nodes * 256
    assert report["sim_ns"] == sim_ns
    assert report["peak_mib"] < peak_mib
    # The protocol's own accounting keeps reporting what a ring declares.
    channel = 32 * (8192 + 16)
    assert report["declared"] == {"source": nodes * channel,
                                  "target": nodes * channel}
