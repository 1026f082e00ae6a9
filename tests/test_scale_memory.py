"""Memory stability of long-running clusters cycling many flows.

A 256-1024-node serving cluster opens and closes flows continuously; the
per-cluster stores (flow registry, NIC region tables, fabric caches,
kernel timer pool) must reach a steady state instead of growing per
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
from repro.common.errors import MemoryRegionError, RegistryError
from repro.core import (
    FLOW_END,
    DfiRuntime,
    Endpoint,
    FlowOptions,
    Optimization,
    Ordering,
    Schema,
)
from repro.rdma.nic import get_nic
from repro.simnet import Cluster
from repro.simnet.kernel import _TIMEOUT_POOL_CAP

_SCHEMA = Schema(("key", "uint64"), ("pad", 24))
_PAD = b"p" * 24


def _run_shuffle_cycle(dfi, cluster, name, tuples=64, replicate=None):
    """One full flow lifetime: init, open, transfer, close — of a 1:2
    shuffle flow, or of a naive replicate flow in mode ``replicate``."""
    options = FlowOptions(source_segments=2, target_segments=4,
                          credit_threshold=2)
    targets = [Endpoint(1, 0), Endpoint(2, 0)]
    if replicate is None:
        dfi.init_shuffle_flow(name, [Endpoint(0, 0)], targets, _SCHEMA,
                              shuffle_key="key", options=options)
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


def _footprint(cluster, registry):
    return {
        "flows": len(registry._flows),
        "rings": len(registry._rings),
        "ring_signals": len(registry._ring_signals),
        "sequencers": len(registry._sequencers),
        "backchannel": len(registry._backchannel),
        "backchannel_signals": len(registry._backchannel_signals),
        "ready": len(registry._ready_targets) + len(registry._ready_signals),
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
    assert held["flows"] == 1 and held["rings"] == 2
    assert sum(held["regions"]) > 0

    registry.release_flow("cycle0")
    steady = _footprint(cluster, registry)
    # Everything name-keyed is gone and the ring/credit regions behind
    # the published handles were deregistered from the target NICs.
    assert steady["flows"] == steady["rings"] == 0
    assert steady["ring_signals"] == steady["backchannel"] == 0
    assert steady["backchannel_signals"] == steady["ready"] == 0
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
    # Naive replicate flows, both protocols: each ring writer sheds its
    # window's scratch region at close (two leaked per lifetime once).
    for mode in Optimization:
        for cycle in range(5):
            name = f"rep-{mode.name}-{cycle}"
            _run_shuffle_cycle(dfi, cluster, name, replicate=mode)
            registry.release_flow(name)
            assert _footprint(cluster, registry) == steady, name


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
        buffers += [channel._staging for channel in sources[0]._channels]
        assert [len(buffer) for buffer in buffers] == (
            [32 * (8192 + 16)] * 2 + [64 * (8192 + 16)] * 2)
        alive = [weakref.ref(buffer) for buffer in buffers]
        del buffers, sources
        dfi.registry.release_flow(f"bytes{cycle}")
        gc.collect()  # endpoints and their generators form cycles
        assert [ref() for ref in alive] == [None] * 4, f"cycle {cycle}"


def test_macro_pool_steady_over_flow_cycles():
    """Five batched flow cycles on one cluster: the registry/NIC
    footprint is identical after every release and the kernel's recycled
    MacroEvent pool reaches a steady bounded size instead of growing."""
    from repro.simnet.kernel import _MACRO_POOL_CAP

    cluster = Cluster(node_count=3)
    dfi = DfiRuntime(cluster)
    registry = dfi.registry

    _run_batched_cycle(dfi, cluster, "fp0")
    # Doorbell trains actually ran: macro records were scheduled,
    # executed, and recycled into the pool.
    assert cluster.env._macro_pool, "no train ever scheduled a macro"
    registry.release_flow("fp0")
    steady = _footprint(cluster, registry)
    pool_sizes = [len(cluster.env._macro_pool)]
    for cycle in range(1, 5):
        _run_batched_cycle(dfi, cluster, f"fp{cycle}")
        registry.release_flow(f"fp{cycle}")
        assert _footprint(cluster, registry) == steady, f"cycle {cycle}"
        pool_sizes.append(len(cluster.env._macro_pool))
    assert max(pool_sizes) <= _MACRO_POOL_CAP
    # Identical workloads recycle into an identical pool: the record
    # count settles after the first cycle rather than creeping up.
    assert len(set(pool_sizes[1:])) == 1, pool_sizes


def test_latency_flow_has_no_per_write_growth():
    """A latency ping-pong long enough to lap its 4-slot rings hundreds
    of times: every eager write is still one WQE, one fabric message and
    zero doorbell trains, and walks a pooled macro-event — neither
    kernel pool grows with the write count."""
    from repro.core import Optimization
    from repro.simnet.kernel import _MACRO_POOL_CAP

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
    pool_sizes = []
    env = cluster.env

    def client():
        ping = yield from dfi.open_source("ping", 0)
        pong = yield from dfi.open_target("pong", 0)
        for i in range(trips):
            yield from ping.push((i, pad))
            yield from pong.consume()
            if i % 100 == 99:
                pool_sizes.append((len(env._macro_pool),
                                   len(env._timeout_pool)))
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

    # Pools settle within the first hundred round trips and stay put.
    assert len(set(pool_sizes)) == 1, pool_sizes
    assert 0 < pool_sizes[0][0] <= _MACRO_POOL_CAP
    assert pool_sizes[0][1] <= _TIMEOUT_POOL_CAP
    # One write per hop plus the two close markers; every other WQE is
    # a credit read (request + response on the fabric).
    nics = [get_nic(node) for node in cluster.nodes]
    writes = 2 * (trips + 1)
    wqes = sum(nic.wqes_processed for nic in nics)
    assert wqes > writes
    assert cluster.fabric.unicast_count == writes + 2 * (wqes - writes)
    assert (wqes, cluster.fabric.unicast_count) == (2400, 3198)
    assert sum(nic.doorbell_trains for nic in nics) == 0
    assert cluster.fabric.unicast_trains == 0


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
    registry.release_flow("once")
    with pytest.raises(RegistryError):  # double release is a bug, not a no-op
        registry.release_flow("once")


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


@pytest.mark.parametrize("shards", [1, 4])
def test_timeout_pool_stays_capped(shards):
    from repro.bench.flows import run_shuffle_mesh

    result = run_shuffle_mesh(1, 4, tuples_per_source=128, shards=shards)
    env = result["cluster"].env
    assert len(env._timeout_pool) <= _TIMEOUT_POOL_CAP


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
