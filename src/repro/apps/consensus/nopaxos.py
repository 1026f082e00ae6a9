"""NOPaxos (Li et al., OSDI '16) on DFI's ordered replicate flow.

Normal operation: clients submit requests directly through the
globally-ordered multicast (OUM) flow — DFI's tuple sequencer stamps each
request, costing one extra round trip, and every replica consumes the same
global order. The leader executes and answers with the result; followers
log and answer with an ack; a client's request is decided once it holds
the leader's response plus enough follower acks for a majority quorum.
The leader never aggregates votes, which is why NOPaxos sustains higher
throughput than Multi-Paxos once the Multi-Paxos leader saturates
(paper Fig. 15).

Gap agreement: the OUM flow runs in ``gap_notify`` mode. A replica that
times out on a missing sequence number asks the leader; the leader answers
with the request (if it received it) or a NO-OP decision (if it is missing
too), and every replica resolves the slot identically.
"""

from __future__ import annotations

from repro.apps.consensus import messages
from repro.apps.consensus.driver import (
    ConsensusResult,
    ConsensusSetup,
    LatencyTracker,
    client_submit,
)
from repro.apps.consensus.kvstore import APPLY_COST_NS, KvStore
from repro.core.flow import DfiRuntime
from repro.core.flowdef import (
    FLOW_END,
    FlowOptions,
    GapNotification,
    Optimization,
    Ordering,
)
from repro.core.nodes import Endpoint
from repro.simnet.cluster import Cluster

_HANDLE_COST = 250.0
_FLOW_OPTIONS = FlowOptions(target_segments=256, credit_threshold=64)


def run_nopaxos(cluster: Cluster,
                setup: ConsensusSetup = ConsensusSetup()) -> ConsensusResult:
    """Run NOPaxos normal operation under the Fig. 15 workload.

    Returns the achieved throughput and latency distribution; gap counters
    are attached for loss-injection experiments.
    """
    dfi = DfiRuntime(cluster)
    replicas = list(setup.replica_nodes)
    replica_count = len(replicas)
    quorum = replica_count // 2 + 1  # leader response + follower acks
    client_eps = [Endpoint(setup.client_node(i), 10 + i % 2)
                  for i in range(setup.clients)]
    dfi.init_replicate_flow(
        "nop-oum", client_eps,
        [Endpoint(node, 0) for node in replicas],
        messages.REQUEST_SCHEMA, optimization=Optimization.LATENCY,
        ordering=Ordering.GLOBAL,
        options=FlowOptions(target_segments=256, credit_threshold=64,
                            multicast=True, gap_notify=True,
                            retransmit_timeout=30_000))
    dfi.init_shuffle_flow(
        "nop-resp", [Endpoint(node, 1) for node in replicas], client_eps,
        messages.RESPONSE_SCHEMA, optimization=Optimization.LATENCY,
        options=_FLOW_OPTIONS)
    dfi.init_shuffle_flow(
        "nop-gap-req",
        [Endpoint(node, 2) for node in replicas[1:]],
        [Endpoint(replicas[0], 2)], messages.GAP_REQ_SCHEMA,
        optimization=Optimization.LATENCY, options=_FLOW_OPTIONS)
    dfi.init_replicate_flow(
        "nop-gap-resp", [Endpoint(replicas[0], 3)],
        [Endpoint(node, 3) for node in replicas[1:]],
        messages.GAP_RESP_SCHEMA, optimization=Optimization.LATENCY,
        options=FlowOptions(target_segments=64, credit_threshold=16,
                            multicast=True))

    tracker = LatencyTracker(setup)
    env = cluster.env
    stores = [KvStore() for _ in replicas]
    #: Leader log (by global sequence) and sticky gap decisions.
    leader_log: dict[int, tuple] = {}
    leader_decisions: dict[int, tuple] = {}
    #: Followers' OUM targets, registered for the gap listeners.
    oum_targets: dict[int, object] = {}
    stats = {"gaps_noop": 0, "gaps_recovered": 0}
    _NOOP_PAYLOAD = (0, 0, 0, 0, b"\x00" * messages.VALUE_BYTES)

    def replica_proc(index: int):
        """One replica: consume the global order, execute/log, respond."""
        is_leader = index == 0
        node = cluster.node(replicas[index])
        oum_target = yield from dfi.open_target("nop-oum", index)
        oum_targets[index] = oum_target
        response_source = yield from dfi.open_source("nop-resp", index)
        gap_source = None
        if not is_leader:
            gap_source = yield from dfi.open_source("nop-gap-req",
                                                    index - 1)
        log_position = 0
        while True:
            item = yield from oum_target.consume()
            if item is FLOW_END:
                yield from response_source.close()
                if gap_source is not None:
                    yield from gap_source.close()
                return
            if isinstance(item, GapNotification):
                seq = item.missing_seq
                if is_leader:
                    # The leader is missing the request itself: decide
                    # NO-OP so every replica resolves the slot identically
                    # (followers learn it when they query).
                    if seq not in leader_decisions:
                        leader_decisions[seq] = (messages.DECISION_NOOP,
                                                 _NOOP_PAYLOAD)
                        stats["gaps_noop"] += 1
                    oum_target.skip_gap(seq)
                    log_position += 1
                else:
                    yield from gap_source.push((seq, index))
                continue
            yield node.compute(_HANDLE_COST)
            reqid, client, op, key, value = item
            if is_leader:
                leader_log[log_position] = item
                yield node.compute(APPLY_COST_NS)
                result = stores[index].apply(op, key, value)
                yield from response_source.push((reqid, client, 0, result),
                                                target=client)
            else:
                stores[index].apply(op, key, value)
                yield from response_source.push(
                    (reqid, client, 1, b"\x00" * messages.VALUE_BYTES),
                    target=client)
            log_position += 1

    def leader_gap_responder(env):
        """Leader thread answering followers' gap queries."""
        node = cluster.node(replicas[0])
        gap_target = yield from dfi.open_target("nop-gap-req", 0)
        decision_source = yield from dfi.open_source("nop-gap-resp", 0)
        while True:
            query = yield from gap_target.consume()
            if query is FLOW_END:
                yield from decision_source.close()
                return
            yield node.compute(_HANDLE_COST)
            seq, _replica = query
            if seq in leader_decisions:
                decision, payload = leader_decisions[seq]
            elif seq in leader_log:
                decision, payload = messages.DECISION_OP, leader_log[seq]
                stats["gaps_recovered"] += 1
            else:
                # The leader has not reached this slot / missed it too.
                decision, payload = messages.DECISION_NOOP, _NOOP_PAYLOAD
                leader_decisions[seq] = (decision, payload)
                stats["gaps_noop"] += 1
            yield from decision_source.push((seq, decision, *payload))

    def follower_gap_listener(index: int):
        """Follower thread applying the leader's gap decisions."""
        node = cluster.node(replicas[index])
        target = yield from dfi.open_target("nop-gap-resp", index - 1)
        while True:
            item = yield from target.consume()
            if item is FLOW_END:
                return
            seq, decision, _reqid, _client, op, key, value = item
            oum_target = oum_targets.get(index)
            if oum_target is None or oum_target.next_expected_seq != seq:
                continue  # slot already resolved (duplicate decision)
            yield node.compute(_HANDLE_COST)
            if decision == messages.DECISION_OP:
                stores[index].apply(op, key, value)
            oum_target.skip_gap(seq)

    def client_receive(index: int):
        target = yield from dfi.open_target("nop-resp", index)
        acks: dict[int, int] = {}
        leader_seen: set[int] = set()
        while True:
            response = yield from target.consume()
            if response is FLOW_END:
                return
            reqid, _client, role, _value = response
            acks[reqid] = acks.get(reqid, 0) + 1
            if role == 0:
                leader_seen.add(reqid)
            if reqid in leader_seen and acks[reqid] >= quorum:
                tracker.complete(reqid, env.now)

    for i in range(replica_count):
        env.process(replica_proc(i), name=f"nop-replica-{i}")
    env.process(leader_gap_responder(env), name="nop-gap-leader")
    for i in range(1, replica_count):
        env.process(follower_gap_listener(i), name=f"nop-gap-follower-{i}")
    for i in range(setup.clients):
        env.process(client_submit(dfi, setup, tracker, "nop-oum", i),
                    name=f"nop-client-submit-{i}")
        env.process(client_receive(i), name=f"nop-client-recv-{i}")
    cluster.run()
    result = tracker.result("nopaxos")
    result.gaps_noop = stats["gaps_noop"]  # type: ignore[attr-defined]
    result.gaps_recovered = stats["gaps_recovered"]  # type: ignore[attr-defined]
    return result
