"""Multi-Paxos (normal, failure-free operation) on DFI flows.

The four-flow message pattern of the paper's Figure 3:

1. clients submit requests through an N:1 latency-optimized shuffle flow
   to the leader;
2. the leader assigns log slots and proposes through a multicast replicate
   flow to the followers;
3. followers vote back through an N:1 shuffle flow;
4. on a majority the leader executes and answers through a 1:N shuffle
   flow routed by client id.
"""

from __future__ import annotations

from collections import defaultdict

from repro.apps.consensus import messages
from repro.apps.consensus.driver import (
    ConsensusResult,
    ConsensusSetup,
    LatencyTracker,
    client_submit,
)
from repro.apps.consensus.kvstore import APPLY_COST_NS, KvStore
from repro.core.flow import DfiRuntime
from repro.core.flowdef import FLOW_END, FlowOptions, Optimization
from repro.core.nodes import Endpoint
from repro.simnet.cluster import Cluster

#: Per-message protocol processing cost on replicas (ns).
_HANDLE_COST = 250.0
#: Flow options for the latency-critical paths: deep rings absorb bursts.
_FLOW_OPTIONS = FlowOptions(target_segments=256, credit_threshold=64)


def run_multipaxos(cluster: Cluster,
                   setup: ConsensusSetup = ConsensusSetup()) -> ConsensusResult:
    """Run failure-free Multi-Paxos under the Fig. 15 workload."""
    dfi = DfiRuntime(cluster)
    leader = setup.leader_node
    followers = list(setup.follower_nodes)
    client_eps = [Endpoint(setup.client_node(i), 10 + i % 2)
                  for i in range(setup.clients)]
    dfi.init_shuffle_flow(
        "mp-req", client_eps, [Endpoint(leader, 0)],
        messages.REQUEST_SCHEMA, optimization=Optimization.LATENCY,
        options=_FLOW_OPTIONS)
    dfi.init_replicate_flow(
        "mp-prop", [Endpoint(leader, 1)],
        [Endpoint(node, 0) for node in followers],
        messages.PROPOSAL_SCHEMA, optimization=Optimization.LATENCY,
        options=FlowOptions(target_segments=256, credit_threshold=64,
                            multicast=True))
    dfi.init_shuffle_flow(
        "mp-vote", [Endpoint(node, 1) for node in followers],
        [Endpoint(leader, 2)], messages.VOTE_SCHEMA,
        optimization=Optimization.LATENCY, options=_FLOW_OPTIONS)
    dfi.init_shuffle_flow(
        "mp-resp", [Endpoint(leader, 3)], client_eps,
        messages.RESPONSE_SCHEMA, optimization=Optimization.LATENCY,
        options=_FLOW_OPTIONS)

    tracker = LatencyTracker(setup)
    store = KvStore()
    env = cluster.env
    log: dict[int, tuple] = {}
    votes: dict[int, int] = defaultdict(int)
    committed: set[int] = set()
    next_to_execute = [0]

    def leader_propose(env):
        """Leader thread 1: order client requests into log slots."""
        node = cluster.node(leader)
        request_target = yield from dfi.open_target("mp-req", 0)
        proposal_source = yield from dfi.open_source("mp-prop", 0)
        next_slot = 0
        while True:
            request = yield from request_target.consume()
            if request is FLOW_END:
                yield from proposal_source.close()
                return
            yield node.compute(_HANDLE_COST)
            slot = next_slot
            next_slot += 1
            log[slot] = request
            yield from proposal_source.push((slot, *request))

    def leader_decide(env):
        """Leader thread 2: count votes, execute, answer clients."""
        node = cluster.node(leader)
        vote_target = yield from dfi.open_target("mp-vote", 0)
        response_source = yield from dfi.open_source("mp-resp", 0)
        while True:
            vote = yield from vote_target.consume()
            if vote is FLOW_END:
                yield from response_source.close()
                return
            yield node.compute(_HANDLE_COST)
            slot, _follower = vote
            votes[slot] += 1
            if votes[slot] == setup.majority_votes:
                committed.add(slot)
                # Execute commits in slot order.
                while next_to_execute[0] in committed:
                    current = next_to_execute[0]
                    next_to_execute[0] += 1
                    reqid, client, op, key, value = log[current]
                    yield node.compute(APPLY_COST_NS)
                    result = store.apply(op, key, value)
                    yield from response_source.push(
                        (reqid, client, 0, result), target=client)

    def follower(index: int):
        node = cluster.node(followers[index])
        proposal_target = yield from dfi.open_target("mp-prop", index)
        vote_source = yield from dfi.open_source("mp-vote", index)
        follower_log = []
        while True:
            proposal = yield from proposal_target.consume()
            if proposal is FLOW_END:
                yield from vote_source.close()
                return
            yield node.compute(_HANDLE_COST)
            follower_log.append(proposal)
            yield from vote_source.push((proposal[0], index))

    def client_receive(index: int):
        target = yield from dfi.open_target("mp-resp", index)
        while True:
            response = yield from target.consume()
            if response is FLOW_END:
                return
            tracker.complete(response[0], env.now)

    env.process(leader_propose(env), name="mp-leader-propose")
    env.process(leader_decide(env), name="mp-leader-decide")
    for i in range(len(followers)):
        env.process(follower(i), name=f"mp-follower-{i}")
    for i in range(setup.clients):
        env.process(client_submit(dfi, setup, tracker, "mp-req", i),
                    name=f"mp-client-submit-{i}")
        env.process(client_receive(i), name=f"mp-client-recv-{i}")
    cluster.run()
    return tracker.result("multipaxos")
