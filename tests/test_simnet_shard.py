"""The rack-major topology helper and the partition executor.

Every cluster runs its events on one :class:`Environment`: a single
queue ordered by ``(time, sequence)`` (DESIGN.md §8), whose order
``tests/test_simnet_kernel.py`` holds however the queue is driven. This
file holds :meth:`Cluster.racked` to a rack-major numbering of the flat
cluster: clocks, byte counts, event counts, chaos outcomes and the
committed fingerprint are bit-identical to the flat ``Cluster`` of the
same size. :func:`run_partitioned` runs isolated clusters on worker
processes.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.common.config import DEFAULT_HARDWARE
from repro.common.errors import ConfigurationError, SimulationError
from repro.core import (
    FLOW_END,
    DfiRuntime,
    Endpoint,
    FlowOptions,
    Optimization,
    Schema,
)
from repro.rdma import get_nic
from repro.simnet import Cluster, Environment, run_partitioned


def _flat_twin(racks, nodes_per_rack, profile=DEFAULT_HARDWARE, seed=0):
    """What :meth:`Cluster.racked` must equal: the flat cluster."""
    return Cluster(racks * nodes_per_rack, profile=profile, seed=seed)


# -- the rack-major topology helper -----------------------------------------

def test_block_shard_map_partitions_contiguously():
    """Rack ``r`` owns the contiguous ids ``r*n .. (r+1)*n - 1``, which
    are the flat cluster's nodes: a per-node straggler profile lands on
    the same node ids either way."""
    profile = DEFAULT_HARDWARE.with_straggler(5, 0.5).with_straggler(2, 0.25)
    for racks, per_rack in ((8, 1), (2, 4), (1, 8), (3, 3)):
        racked = Cluster.racked(racks, per_rack, profile)
        flat = _flat_twin(racks, per_rack, profile)
        assert racked.nodes_per_rack == per_rack
        assert racked.node_count == flat.node_count == racks * per_rack
        for node, twin in zip(racked.nodes, flat.nodes):
            assert node.node_id == twin.node_id
            assert node.name == twin.name
            assert node.uplink.name == twin.uplink.name
            assert node.cpu_scale == twin.cpu_scale
        assert [node.cpu_scale for node in racked.nodes
                if node.cpu_scale != 1.0] == (
            [0.25, 0.5] if racks * per_rack > 5 else [])


def test_cluster_shard_map_validation():
    with pytest.raises(ConfigurationError):
        Cluster(node_count=0)
    for racks, per_rack in ((0, 4), (4, 0), (-1, 2)):
        with pytest.raises(ConfigurationError):
            Cluster.racked(racks, per_rack)
    # The shard knobs are gone, not ignored.
    with pytest.raises(TypeError):
        Cluster(node_count=4, shards=2)
    with pytest.raises(TypeError):
        Cluster(node_count=4, shard_map=[0, 0, 1, 1])
    with pytest.raises(TypeError):
        Cluster.racked(4, 4, shards=2)


def test_racked_builder_aligns_shards_to_racks():
    cluster = Cluster.racked(4, 4)
    assert cluster.node_count == 16
    assert cluster.nodes_per_rack == 4
    assert [node.node_id // 4 for node in cluster.nodes] == [
        rack for rack in range(4) for _ in range(4)]
    assert type(cluster.env) is Environment
    assert all(node.env is cluster.env for node in cluster.nodes)


def test_shards_one_keeps_single_queue_kernel():
    from repro.bench.flows import run_shuffle_mesh

    mesh = run_shuffle_mesh(2, 2, tuples_per_source=8)["cluster"]
    for cluster in (Cluster(node_count=4), Cluster.racked(2, 2), mesh):
        assert type(cluster.env) is Environment
        assert not hasattr(cluster, "shard_count")
        assert not hasattr(cluster.env, "shard_count")


def test_default_shards_is_monkeypatchable():
    """``racked`` keeps its positional signature (racks, nodes_per_rack,
    profile, seed) and forwards the profile and the seed: a lossy
    multicast draws its losses exactly as the flat twin does."""
    profile = DEFAULT_HARDWARE.with_multicast_loss(0.3)

    def drops(cluster):
        fabric = cluster.fabric
        source, members = cluster.node(0), cluster.nodes[1:]
        arrivals = [fabric.multicast(source, members, 256)
                    for _ in range(40)]
        cluster.run()
        return ([[event is None for event in fan.values()]
                 for fan in arrivals], fabric.multicast_drops, cluster.now)

    racked = Cluster.racked(2, 3, profile, 9)
    assert racked.profile is profile and racked.seed == 9
    lossy = drops(racked)
    assert lossy == drops(_flat_twin(2, 3, profile, 9))
    assert 0 < lossy[1] < 40 * 5
    assert lossy != drops(Cluster.racked(2, 3, profile, 10))


# -- the racked cluster is the flat cluster ----------------------------------

def _one_shuffle(make):
    """A 2:3 contended shuffle on ``make(seed)``, a five-node cluster;
    returns the full simulated signature."""
    cluster = make(3)
    dfi = DfiRuntime(cluster)
    schema = Schema(("key", "uint64"), ("pad", 24))
    pad = b"p" * 24
    dfi.init_shuffle_flow("inv", [Endpoint(0, 0), Endpoint(1, 0)],
                          [Endpoint(n, 0) for n in (2, 3, 4)], schema,
                          shuffle_key="key",
                          options=FlowOptions(source_segments=4,
                                              target_segments=8,
                                              credit_threshold=4))

    def source_thread(index):
        source = yield from dfi.open_source("inv", index)
        for i in range(150):
            yield from source.push((i * 2654435761 + index, pad))
        yield from source.close()

    def target_thread(index):
        target = yield from dfi.open_target("inv", index)
        while (yield from target.consume()) is not FLOW_END:
            pass

    for index, node_id in enumerate((0, 1)):
        cluster.node(node_id).spawn(source_thread(index))
    for index, node_id in enumerate((2, 3, 4)):
        cluster.node(node_id).spawn(target_thread(index))
    cluster.run()
    return {
        "now": cluster.now,
        "events": cluster.env._sequence,
        "executed": cluster.env.events_executed,
        "bytes": cluster.total_bytes_received(),
        "unicasts": cluster.fabric.unicast_count,
        "trains": sum(get_nic(node).doorbell_trains
                      for node in cluster.nodes),
    }


def test_shuffle_invariant_across_shard_counts_and_maps():
    baseline = _one_shuffle(lambda seed: Cluster(node_count=5, seed=seed))
    assert baseline["bytes"] > 0
    for racks, per_rack in ((1, 5), (5, 1)):
        got = _one_shuffle(lambda seed: Cluster.racked(racks, per_rack,
                                                       seed=seed))
        assert got == baseline, f"racked({racks}, {per_rack})"


def test_mesh_invariant_across_shard_counts(monkeypatch):
    """``run_shuffle_mesh`` on its racked cluster against the same mesh
    on the flat twin."""
    from repro.bench import flows

    def signature():
        result = flows.run_shuffle_mesh(2, 4, tuples_per_source=64)
        cluster = result["cluster"]
        return {
            "sim_ns": result["sim_ns"],
            "nodes": result["nodes"],
            "events": cluster.env._sequence,
            "executed": cluster.env.events_executed,
            "bytes": cluster.total_bytes_received(),
            "unicasts": cluster.fabric.unicast_count,
        }, cluster

    racked, cluster = signature()
    assert cluster.nodes_per_rack == 4 and racked["bytes"] > 0

    class Flat:
        racked = staticmethod(_flat_twin)

    monkeypatch.setattr(flows, "Cluster", Flat)
    flat, cluster = signature()
    assert not hasattr(cluster, "nodes_per_rack")
    assert flat == racked


def test_fabric_counts_mailbox_crossings():
    """Unicasts across two racks and a loopback: the same arrival
    instants, fabric counts and link tallies as on the flat twin."""
    def traffic(cluster):
        arrivals = []
        source, peer = cluster.node(0), cluster.node(1)

        def sender():
            for size in (512, 512, 4096, 64, 512):
                yield 100.0
                cluster.fabric.unicast(source, peer, size).callbacks.append(
                    lambda _event: arrivals.append(cluster.now))
            yield 100.0
            cluster.fabric.unicast(source, source, 512).callbacks.append(
                lambda _event: arrivals.append(("loop", cluster.now)))

        source.spawn(sender())
        cluster.run()
        links = {link.name: (link.bytes_carried, link.messages_carried)
                 for node in cluster.nodes
                 for link in (node.uplink, node.downlink)}
        return arrivals, cluster.fabric.unicast_count, links, cluster.now

    racked = traffic(Cluster.racked(2, 1))
    assert racked == traffic(_flat_twin(2, 1))
    arrivals, unicasts, links, _now = racked
    assert unicasts == 6 and len(arrivals) == 6
    assert [entry for entry in arrivals if isinstance(entry, tuple)]
    # The loopback never touched a link.
    assert links["node1.down"][1] == 5 and links["node0.down"][1] == 0


@pytest.mark.parametrize("seed,flow_type,mode", [
    (7, "shuffle", "bw"),
    (11, "replicate", "lat"),
    (13, "combiner", "bw"),
])
def test_chaos_outcomes_invariant_under_sharding(monkeypatch, seed,
                                                 flow_type, mode):
    """Fault plans + flows: ``_run_chaos`` must produce bit-identical
    outcomes, counts and final clocks when every cluster it builds is a
    racked one."""
    import tests.test_chaos_faults as chaos

    optimization = {"bw": Optimization.BANDWIDTH,
                    "lat": Optimization.LATENCY}[mode]
    baseline = chaos._run_chaos(seed, flow_type, optimization)
    built = []

    def racked(node_count, seed=0):
        built.append(Cluster.racked(node_count, 1, seed=seed))
        return built[-1]

    monkeypatch.setattr(chaos, "Cluster", racked)
    assert chaos._run_chaos(seed, flow_type, optimization) == baseline
    assert len(built) == 1 and built[0].nodes_per_rack == 1


def _load_fingerprint():
    perf = Path(__file__).resolve().parent.parent / "benchmarks" / "perf"
    spec = importlib.util.spec_from_file_location(
        "_fingerprint", perf / "fingerprint.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module, json.loads((perf / "FINGERPRINT.json").read_text())


def test_fingerprint_bit_identical_at_four_shards():
    """The whole committed fingerprint, alone and on the observability
    plane with tracing and causal edges: the plane must not move a
    single simulated metric."""
    from repro import obs

    fingerprint, committed = _load_fingerprint()
    assert len(committed) == 17
    assert json.loads(json.dumps(fingerprint.collect())) == committed
    obs.set_default_observability(True, trace=True, causal=True)
    try:
        with_obs = fingerprint.collect()
    finally:
        obs.set_default_observability(False)
    assert json.loads(json.dumps(with_obs)) == committed


# -- multiprocess window executor --------------------------------------------

def _tiny_partition(seed):
    cluster = Cluster(node_count=2, seed=seed)

    def pinger(node, peer, count):
        for i in range(count):
            yield node.env.timeout(50.0)
            cluster.fabric.unicast(node, peer, 256 + seed + i)

    cluster.node(0).spawn(pinger(cluster.node(0), cluster.node(1), 20))
    cluster.node(1).spawn(pinger(cluster.node(1), cluster.node(0), 10))
    return cluster


def _collect_tiny(cluster):
    return {
        "now": cluster.now,
        "bytes": cluster.total_bytes_received(),
        "unicasts": cluster.fabric.unicast_count,
    }


def test_run_partitioned_serial_matches_multiprocess():
    builders = [(lambda seed=seed: _tiny_partition(seed))
                for seed in range(3)]
    serial = run_partitioned(builders, until=100_000.0, processes=1,
                             collect=_collect_tiny)
    assert len(serial) == 3
    assert serial[0] != serial[1]  # partitions genuinely differ
    parallel = run_partitioned(builders, until=100_000.0, processes=3,
                               collect=_collect_tiny)
    assert parallel == serial
    # Windowed lockstep (the barrier path) changes nothing observable.
    windowed = run_partitioned(builders, until=100_000.0, window=10_000.0,
                               processes=3, collect=_collect_tiny)
    assert windowed == serial


def test_run_partitioned_validates_arguments():
    with pytest.raises(ConfigurationError):
        run_partitioned([], until=100.0)
    with pytest.raises(ConfigurationError):
        run_partitioned([lambda: None], until=0.0)
    with pytest.raises(ConfigurationError):
        run_partitioned([lambda: None], until=100.0, window=-1.0)


def test_run_partitioned_surfaces_worker_failures():
    def bad_builder():
        raise RuntimeError("builder exploded")

    builders = [lambda: _tiny_partition(0), bad_builder]
    for processes in (1, 2):
        with pytest.raises((SimulationError, RuntimeError),
                           match="exploded|partition 1"):
            run_partitioned(builders, until=1_000.0, processes=processes,
                            collect=_collect_tiny)
