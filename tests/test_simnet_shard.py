"""Sharded event kernel: order equivalence, shard invariance, executor.

The contract under test (``simnet/shard.py``): a shard is a tag on the
one calendar queue — attribution, never order. Every simulated
observable — clocks, byte counts, event sequence numbers, chaos outcomes
— must be bit-identical between the plain ``Environment`` and a
``ShardedEnvironment`` at any shard count with any node→shard map.
"""

import importlib.util
import json
import random
from pathlib import Path

import pytest

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
from repro.simnet import (
    Cluster,
    Environment,
    FaultPlan,
    ShardedEnvironment,
    Timeout,
    block_shard_map,
    link_degrade,
    node_crash,
    run_partitioned,
)
from tests import discrete_reference


# -- shard maps --------------------------------------------------------------

def test_block_shard_map_partitions_contiguously():
    assert block_shard_map(8, 1) == [0] * 8
    assert block_shard_map(8, 2) == [0, 0, 0, 0, 1, 1, 1, 1]
    assert block_shard_map(8, 8) == list(range(8))
    # Uneven split stays contiguous and covers every shard.
    uneven = block_shard_map(10, 4)
    assert uneven == sorted(uneven)
    assert set(uneven) == {0, 1, 2, 3}
    with pytest.raises(ConfigurationError):
        block_shard_map(8, 0)


def test_cluster_shard_map_validation():
    with pytest.raises(ConfigurationError):
        Cluster(node_count=4, shards=0)
    with pytest.raises(ConfigurationError):
        Cluster(node_count=4, shards=2, shard_map=[0, 1])  # wrong length
    with pytest.raises(ConfigurationError):
        Cluster(node_count=4, shards=2, shard_map=[0, 1, 2, 4])  # range
    with pytest.raises(ConfigurationError):
        Cluster(node_count=4, shards=2, shard_map=[0, -1, 0, 0])
    # Shard count is clamped to the node count...
    assert Cluster(node_count=2, shards=16).shard_count == 2
    # ...and widened to cover an explicit map.
    wide = Cluster(node_count=4, shards=1, shard_map=[0, 1, 2, 3])
    assert wide.shard_count == 4
    assert [wide.shard_of(n) for n in range(4)] == [0, 1, 2, 3]


def test_racked_builder_aligns_shards_to_racks():
    cluster = Cluster.racked(4, 4)
    assert cluster.node_count == 16
    assert cluster.shard_count == 4
    assert cluster.nodes_per_rack == 4
    assert cluster.shard_of(0) == 0 and cluster.shard_of(5) == 1
    # Coarsening keeps the map rack-aligned: blocks of racks nest.
    coarse = Cluster.racked(4, 4, shards=2)
    assert coarse.shard_count == 2
    assert coarse.shard_map == [0] * 8 + [1] * 8
    with pytest.raises(ConfigurationError):
        Cluster.racked(0, 4)


def test_shards_one_keeps_single_queue_kernel():
    cluster = Cluster(node_count=4, shards=1)
    assert type(cluster.env) is Environment
    assert cluster.shard_count == 1
    sharded = Cluster(node_count=4, shards=2)
    assert isinstance(sharded.env, ShardedEnvironment)
    # shards=None means one.
    assert type(Cluster(node_count=4).env) is Environment


def test_default_shards_is_monkeypatchable(monkeypatch):
    import repro.simnet.cluster as cluster_mod
    monkeypatch.setattr(cluster_mod, "DEFAULT_SHARDS", 4)
    cluster = Cluster(node_count=8)
    assert isinstance(cluster.env, ShardedEnvironment)
    assert cluster.shard_count == 4


# -- raw-kernel order equivalence --------------------------------------------

def _chaotic_workload(env, seed, log):
    """A mixed event storm: timeout chains with zero-delay bursts, manual
    events, direct callbacks, trains and far timers — with every
    scheduling call randomly tagged to a foreign shard when the kernel is
    sharded (tags are attribution only; draws happen identically on both
    kernels)."""
    rng = random.Random(seed)
    shards = env.shard_count

    def post(make):
        tag = rng.randrange(16)
        if shards > 1:
            env._post_shard = tag % shards
            try:
                return make()
            finally:
                env._post_shard = -1
        return make()

    def worker(name, steps):
        for i in range(steps):
            delay = rng.choice(
                (0.0, 0.0, 1.0, 3.5, 2048.0, rng.random() * 9000.0))
            yield post(lambda: env.timeout(delay))
            log.append((env.now, name, i))

    def firer(events):
        for i, event in enumerate(events):
            yield env.timeout(rng.random() * 500.0)
            post(lambda: event.succeed(i))

    def waiter(name, events):
        for event in events:
            got = yield event
            log.append((env.now, name, got))

    for p in range(5):
        env.process(worker(f"w{p}", 30))
    manual = [env.event() for _ in range(20)]
    env.process(firer(manual))
    env.process(waiter("waiter", manual))
    for j in range(40):
        when = rng.random() * 8000.0 + 0.5
        post(lambda when=when, j=j: env.schedule_at(
            when, lambda: log.append((env.now, "cb", j))))
    env.schedule_train([(100.0 + 7.0 * i, log.append, (0.0, "train", i))
                        for i in range(16)])
    # Timers orders of magnitude past everything else, up to where a
    # float no longer resolves nanoseconds: a tagged entry orders by
    # (when, seq) like any other.
    far = [600_000.0 + rng.random() * 3_000_000.0 for _ in range(12)]
    far += [40_000_000.0, float(1 << 62), float(1 << 63)]
    for j, when in enumerate(far):
        post(lambda when=when, j=j: env.schedule_at(
            when, lambda: log.append((env.now, "far", j))))
    env.run()


def test_sharded_order_matches_single_queue_exactly():
    baseline: list = []
    _chaotic_workload(Environment(), seed=42, log=baseline)
    assert len(baseline) > 200
    for shards in (2, 3, 8):
        log: list = []
        env = ShardedEnvironment(shards)
        _chaotic_workload(env, seed=42, log=log)
        assert log == baseline, f"event order diverged at shards={shards}"
        assert env.now == float(1 << 63)
        stats = env.shard_stats()
        assert stats["shards"] == shards
        # Every drained event drew one sequence number, except that the
        # 16-hop train re-queues all its hops under the one it drew.
        assert stats["events_drained"] == env._sequence + 15
        assert stats["drain_rounds"] >= 1
        # Foreign tags were applied, so mailboxes saw traffic.
        assert sum(lane["mailbox_in"] for lane in stats["lanes"]) > 0


def test_sharded_step_and_peek_compatibility():
    single, sharded = Environment(), ShardedEnvironment(4)
    logs = ([], [])
    for env, log in zip((single, sharded), logs):
        env.schedule_at(5.0, lambda log=log: log.append("b"))
        env.schedule_at(1.0, lambda log=log: log.append("a"))
        assert env.peek() == 1.0
        env.step()
        assert env.now == 1.0
        assert env.peek() == 5.0
        env.step()
        with pytest.raises(SimulationError):
            env.step()
    assert logs[0] == logs[1] == ["a", "b"]
    assert sharded.peek() == float("inf")


def test_sharded_run_until_semantics():
    env = ShardedEnvironment(2)
    hits = []
    for when in (10.0, 20.0, 30.0):
        env.schedule_at(when, lambda when=when: hits.append(when))
    env.run(until=15.0)
    assert env.now == 15.0 and hits == [10.0]
    with pytest.raises(SimulationError):
        env.run(until=5.0)  # lies in the past
    env.run()
    assert hits == [10.0, 20.0, 30.0]

    env = ShardedEnvironment(2)

    def proc(env):
        yield env.timeout(7.0)
        return "done"

    p = env.process(proc(env))
    assert env.run(until=p) == "done"

    env = ShardedEnvironment(2)
    never = env.event()
    env.schedule_at(1.0, lambda: None)
    with pytest.raises(SimulationError):
        env.run(until=never)  # queue drains before the event fires


def test_sharded_exception_propagation():
    env = ShardedEnvironment(4)

    def boom(env):
        yield env.timeout(3.0)
        raise ValueError("kaboom")

    env.process(boom(env))
    with pytest.raises(ValueError, match="kaboom"):
        env.run()


def _assert_tallies_consistent(env):
    stats = env.shard_stats()
    assert stats["events_drained"] == env.events_executed
    assert sum(lane["drained"] for lane in stats["lanes"]) == (
        env.events_executed)
    assert stats["drain_rounds"] == sum(
        lane["rounds"] for lane in stats["lanes"])
    return stats


def test_tallies_count_every_event_however_the_kernel_is_driven():
    env = ShardedEnvironment(2)
    for delay in (1.0, 2.0, 3.0):
        env.timeout(delay)
    env.step()
    env.step()
    assert env.events_executed == 2
    stats = _assert_tallies_consistent(env)
    assert stats["events_drained"] == 2 and stats["drain_rounds"] == 1

    env = ShardedEnvironment(3)

    def ticker(env, period, count):
        for _ in range(count):
            yield env.timeout(period)

    for shard, period in enumerate((3.0, 5.0, 7.0)):
        env._post_shard = shard
        env.process(ticker(env, period, 40))
        env._post_shard = -1
    env.run(until=50.0)
    assert 0 < _assert_tallies_consistent(env)["events_drained"]
    stop = env.process(ticker(env, 11.0, 4))
    env.run(until=stop)
    _assert_tallies_consistent(env)
    env.step()
    _assert_tallies_consistent(env)
    env.run()
    stats = _assert_tallies_consistent(env)
    assert all(lane["drained"] > 0 for lane in stats["lanes"])

    def boom(env):
        yield env.timeout(1.0)
        raise ValueError("kaboom")

    before = env.events_executed
    env.process(boom(env))
    with pytest.raises(ValueError, match="kaboom"):
        env.run()
    assert env.events_executed > before
    _assert_tallies_consistent(env)


def test_drain_rounds_are_maximal_same_shard_runs():
    env = ShardedEnvironment(3)
    order: list = []
    # Execution order is by time; the tag sequence is chosen freely.
    tags = [0, 0, 1, 1, 1, 0, 2, 2, 0, 0, 0, 1]
    for index, shard in enumerate(tags):
        env._post_shard = shard
        env.schedule_at(10.0 * (index + 1),
                        lambda shard=shard: order.append(shard))
        env._post_shard = -1
    env.run()
    assert order == tags
    runs = [shard for index, shard in enumerate(tags)
            if index == 0 or tags[index - 1] != shard]
    stats = env.shard_stats()
    assert stats["drain_rounds"] == len(runs) == 6
    assert [lane["rounds"] for lane in stats["lanes"]] == [
        runs.count(shard) for shard in range(3)]
    assert [lane["drained"] for lane in stats["lanes"]] == [
        tags.count(shard) for shard in range(3)]
    assert stats["lanes"][1]["mean_window"] == 4 / 2

    # Two shards strictly alternating: one round per event.
    env = ShardedEnvironment(2)
    for index in range(10):
        env._post_shard = index % 2
        env.timeout(float(index + 1))
        env._post_shard = -1
    env.run()
    stats = env.shard_stats()
    assert stats["drain_rounds"] == stats["events_drained"] == 10
    assert [lane["rounds"] for lane in stats["lanes"]] == [5, 5]


def test_macro_hops_stay_on_the_arming_shard():
    env = ShardedEnvironment(2)
    seen: list = []

    def hop(index):
        seen.append((index, env._active_shard))
        # A foreign-shard event between every two hops: the train must
        # come back to its own shard, not follow the interloper.
        env.timeout(1.0)

    env.timeout(0.5)  # shard 0 runs first, so shard 1 is foreign below
    env._post_shard = 1
    # Hops span the current bucket, the ring and the spill heap.
    env.schedule_train([(when, hop, index) for index, when in enumerate(
        (10.0, 20.0, 5_000.0, 700_000.0, 2_000_000.0))])
    env._post_shard = -1
    env.run()
    assert seen == [(index, 1) for index in range(5)]
    stats = env.shard_stats()
    # Shard 1 ran the five hops and the timers they armed; the train was
    # one mailbox post, its re-queued hops none.
    assert stats["lanes"][1]["drained"] == 10
    assert stats["lanes"][1]["mailbox_in"] == 1
    assert stats["lanes"][0]["drained"] == 1


def _racked_shuffle():
    """A 2:2 batched shuffle across the two racks of ``racked(2, 2)``,
    not yet run; returns the cluster and its processes."""
    cluster = Cluster.racked(2, 2, seed=5)
    dfi = DfiRuntime(cluster)
    schema = Schema(("key", "uint64"), ("pad", 24))
    pad = b"p" * 24
    endpoints = [Endpoint(n, 0) for n in range(4)]
    dfi.init_shuffle_flow("lock", endpoints[:2], endpoints[2:], schema,
                          shuffle_key="key",
                          options=FlowOptions(source_segments=4,
                                              target_segments=8,
                                              credit_threshold=4))

    def source_thread(index):
        source = yield from dfi.open_source("lock", index)
        for first in range(0, 600, 40):
            yield from source.push_batch(
                [(i * 2654435761 + index, pad)
                 for i in range(first, first + 40)])
        yield from source.close()

    def target_thread(index):
        target = yield from dfi.open_target("lock", index)
        while (yield from target.consume_batch()) is not FLOW_END:
            pass

    processes = [cluster.node(n).spawn(source_thread(n)) for n in (0, 1)]
    processes += [cluster.node(2 + n).spawn(target_thread(n))
                  for n in (0, 1)]
    return cluster, processes


def test_written_out_loop_stays_in_lockstep_with_step():
    """``run()`` takes ``_run_all``, ``run(until=...)`` takes ``step()``:
    the same scenario ends on the same clock, event count and tallies
    through either."""
    drained, processes = _racked_shuffle()
    finished = []
    for index, process in enumerate(processes):
        process.callbacks.append(lambda _event, index=index:
                                 finished.append(index))
    drained.run()
    assert len(finished) == len(processes)

    stepped, processes = _racked_shuffle()
    stepped.env.run(until=processes[finished[-1]])
    # The last process to exit leaves nothing queued behind it.
    assert stepped.env.peek() == float("inf")

    assert stepped.now == drained.now
    assert stepped.env.events_executed == drained.env.events_executed > 0
    stats = _assert_tallies_consistent(drained.env)
    assert stepped.env.shard_stats() == stats
    assert stats["mailbox_crossings"] > 0
    assert all(lane["drained"] and lane["rounds"] and lane["mailbox_in"]
               for lane in stats["lanes"])


def test_sharded_loop_recycles_pooled_timeouts():
    """The pool's users are callback timers: ``pooled_timeout`` and
    ``schedule_at``, each arming the next from its own callback."""
    pooled = []
    for env in (Environment(), ShardedEnvironment(2)):
        fired = []

        def tick(_event=None, env=env, fired=fired):
            fired.append(env.now)
            if len(fired) < 6:
                env.pooled_timeout(1.0).callbacks.append(tick)

        def at(env=env, fired=fired):
            fired.append(env.now)
            if len(fired) < 12:
                env.schedule_at(env.now + 1.0, at)

        tick()
        env.run()
        env.schedule_at(env.now + 1.0, at)
        env.run()
        assert fired == [float(t) for t in range(12)]
        pooled.append(len(env._timeout_pool))
    # A timer returns to the pool once its callbacks ran, so two objects
    # take turns serving all eleven timers — on either kernel.
    assert pooled == [2, 2]
    # Under the discrete oracle an active, idle fault plane puts every
    # write of a racked flow on the per-WQE walk, whose prefix and
    # completion timers are pooled.
    with discrete_reference.installed() as posts:
        cluster, _processes = _racked_shuffle()
        cluster.install_faults(FaultPlan(
            [link_degrade(0, at=1e9, duration=1.0, factor=2.0)]))
        cluster.run()
    assert posts["wqes"] and cluster.env._timeout_pool


@pytest.mark.parametrize("shards", [1, 2])
def test_cpu_charges_reuse_one_wake_entry_and_build_no_timeout(
        shards, monkeypatch):
    cluster = Cluster(node_count=2, shards=shards)
    env, node = cluster.env, cluster.node(1)
    built = []
    init = Timeout.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Timeout, "__init__", counting_init)
    entries = set()

    def worker():
        for _ in range(1000):
            yield node.compute(10.0)
            entries.add(env.active_process._wake)

    process = node.spawn(worker())
    cluster.run()
    assert not process.is_alive and env.now == 10_000.0
    assert built == [] and env._timeout_pool == []
    # Its start and all 1 000 charges ran on the same entry.
    assert entries == {process._wake}
    assert env.events_executed == 1 + 1000 + 1   # start, charges, exit


# -- flow-level shard invariance ---------------------------------------------

def _one_shuffle(**cluster_kwargs):
    """A 2:3 contended shuffle; returns the full simulated signature."""
    cluster = Cluster(node_count=5, seed=3, **cluster_kwargs)
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
        "bytes": cluster.total_bytes_received(),
        "unicasts": cluster.fabric.unicast_count,
        "trains": sum(get_nic(node).doorbell_trains
                      for node in cluster.nodes),
    }


def test_shuffle_invariant_across_shard_counts_and_maps():
    baseline = _one_shuffle(shards=1)
    assert baseline["bytes"] > 0
    for shards in (2, 4, 5):
        assert _one_shuffle(shards=shards) == baseline, f"shards={shards}"
    # Arbitrary (non-contiguous) node→shard maps are equally safe:
    # shard assignment is attribution, never order.
    rng = random.Random(0)
    for trial in range(4):
        shard_map = [rng.randrange(3) for _ in range(5)]
        assert _one_shuffle(shards=3, shard_map=shard_map) == baseline, (
            f"trial={trial} map={shard_map}")


def test_mesh_invariant_across_shard_counts():
    from repro.bench.flows import run_shuffle_mesh

    signatures = []
    for shards in (1, 2, 4, 8):
        result = run_shuffle_mesh(2, 4, tuples_per_source=64, shards=shards)
        cluster = result["cluster"]
        signatures.append({
            "sim_ns": result["sim_ns"],
            "events": cluster.env._sequence,
            "bytes": cluster.total_bytes_received(),
            "unicasts": cluster.fabric.unicast_count,
        })
    assert all(sig == signatures[0] for sig in signatures[1:])


def test_fabric_counts_mailbox_crossings():
    cluster = Cluster(node_count=2, shards=2)
    env = cluster.env

    def sender(node, peer, count):
        for _ in range(count):
            yield node.env.timeout(100.0)
            cluster.fabric.unicast(node, peer, 512)

    cluster.node(0).spawn(sender(cluster.node(0), cluster.node(1), 5))
    cluster.run()
    # Every switch delivery targeted the foreign lane.
    assert env.mailbox_crossings == 5
    stats = env.shard_stats()
    assert stats["mailbox_crossings"] == 5
    assert stats["lanes"][1]["mailbox_in"] >= 5
    assert stats["lanes"][1]["drained"] >= 5

    # Loopback transfers never cross: same-node delivery, same lane.
    loop = Cluster(node_count=2, shards=2)

    def self_sender(node):
        yield node.env.timeout(100.0)
        loop.fabric.unicast(node, node, 512)

    loop.node(0).spawn(self_sender(loop.node(0)))
    loop.run()
    assert loop.env.mailbox_crossings == 0


@pytest.mark.parametrize("seed,flow_type,mode", [
    (7, "shuffle", "bw"),
    (11, "replicate", "lat"),
    (13, "combiner", "bw"),
])
def test_chaos_outcomes_invariant_under_sharding(monkeypatch, seed,
                                                 flow_type, mode):
    """Fault plans + flows + sharded kernel: the chaos driver must
    produce bit-identical outcomes, counts and final clocks when every
    cluster it builds silently becomes a 4-shard one."""
    from tests.test_chaos_faults import _run_chaos

    optimization = {"bw": Optimization.BANDWIDTH,
                    "lat": Optimization.LATENCY}[mode]
    baseline = _run_chaos(seed, flow_type, optimization)
    import repro.simnet.cluster as cluster_mod
    monkeypatch.setattr(cluster_mod, "DEFAULT_SHARDS", 4)
    assert _run_chaos(seed, flow_type, optimization) == baseline


def _load_fingerprint():
    perf = Path(__file__).resolve().parent.parent / "benchmarks" / "perf"
    spec = importlib.util.spec_from_file_location(
        "_fingerprint", perf / "fingerprint.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module, json.loads((perf / "FINGERPRINT.json").read_text())


def test_fingerprint_bit_identical_at_four_shards(monkeypatch):
    """The whole committed fingerprint with every cluster rebuilt as a
    4-shard one, alone and on the observability plane: shard tags must
    not move a single simulated metric."""
    from repro import obs
    import repro.simnet.cluster as cluster_mod

    fingerprint, committed = _load_fingerprint()
    assert len(committed) == 15
    monkeypatch.setattr(cluster_mod, "DEFAULT_SHARDS", 4)
    assert Cluster(node_count=4).shard_count == 4
    assert json.loads(json.dumps(fingerprint.collect())) == committed
    obs.set_default_observability(True, trace=True, causal=True)
    try:
        with_obs = fingerprint.collect()
    finally:
        obs.set_default_observability(False)
    assert json.loads(json.dumps(with_obs)) == committed


def test_fault_transitions_land_on_victim_shard():
    cluster = Cluster(node_count=4, shards=2)
    env = cluster.env
    assert cluster.shard_of(3) == 1
    assert env.shard_stats()["lanes"][1]["mailbox_in"] == 0
    cluster.install_faults(FaultPlan([node_crash(3, at=1000.0)]))
    # The crash timer is posted from the build context (shard 0) under
    # the victim's tag — a mailbox delivery — and executes on its shard.
    assert env.shard_stats()["lanes"][1]["mailbox_in"] == 1
    cluster.run()
    assert 3 in cluster.faults.crashed
    lanes = env.shard_stats()["lanes"]
    assert lanes[1]["drained"] == 1 and lanes[0]["drained"] == 0


# -- observability -----------------------------------------------------------

def test_kernel_shard_counters_surface_through_obs():
    cluster = Cluster(node_count=4, shards=2)
    cluster.enable_observability()

    def worker(node):
        for _ in range(5):
            yield node.env.timeout(10.0)
        if node.node_id == 0:  # one cross-shard delivery for the counter
            cluster.fabric.unicast(node, cluster.node(3), 256)

    for node in cluster.nodes:
        node.spawn(worker(node))
    cluster.run()
    snapshot = cluster.metrics_snapshot()
    # Kernel section carries the full shard_stats payload.
    kernel = snapshot["kernel"]
    assert kernel == cluster.env.shard_stats()
    assert kernel["shards"] == 2
    assert kernel["events_drained"] == cluster.env._sequence
    # Each shard's home node (first node of the block) exposes that
    # shard's tallies as read-time counters; node 0 also carries the
    # global one.
    for shard, home in enumerate((0, 2)):
        counters = snapshot["nodes"][home]["counters"]
        lane = kernel["lanes"][shard]
        assert lane["drained"] > 0
        # (a snapshot omits counters that read zero)
        assert counters["kernel.shard.events_drained"] == lane["drained"]
        assert counters["kernel.shard.drain_rounds"] == lane["rounds"]
        assert counters.get("kernel.shard.mailbox_in", 0) == (
            lane["mailbox_in"])
    assert snapshot["nodes"][0]["counters"]["kernel.mailbox_crossings"] == (
        kernel["mailbox_crossings"]) == 1
    # Reading is passive: harvesting scheduled nothing.
    events_before = cluster.env._sequence
    cluster.metrics_snapshot()
    assert cluster.env._sequence == events_before


def test_unsharded_snapshot_reports_single_shard():
    cluster = Cluster(node_count=2, shards=1)
    assert cluster.metrics_snapshot()["kernel"] == {"shards": 1}


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
