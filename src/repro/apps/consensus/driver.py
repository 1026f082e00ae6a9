"""Shared load-generation and measurement harness for Fig. 15.

All three systems are driven identically: six clients on three nodes
generate 64-byte YCSB-B requests open-loop at a configured aggregate rate
(Poisson arrivals). Latency is measured from the request's *scheduled
arrival* to its completion, so client-side queueing — e.g. DARE's
one-outstanding-request rule — shows up in the distribution exactly as it
would for a real user.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.apps.consensus import messages
from repro.common.errors import ConfigurationError
from repro.workloads.ycsb import YcsbConfig, YcsbWorkload


@dataclass(frozen=True)
class ConsensusSetup:
    """Deployment shape of one consensus run (defaults match Fig. 15)."""

    replica_nodes: tuple = (0, 1, 2, 3, 4)
    client_nodes: tuple = (5, 6, 7)
    clients: int = 6
    #: Aggregate offered load, requests per second.
    offered_rate: float = 500_000.0
    #: Measured interval in ns (excluding warmup).
    duration: float = 10_000_000.0
    #: Warmup interval in ns (requests issued, not measured).
    warmup: float = 2_000_000.0
    seed: int = 0
    ycsb: YcsbConfig = field(default_factory=YcsbConfig)

    def __post_init__(self) -> None:
        if self.clients % len(self.client_nodes):
            raise ConfigurationError(
                "clients must spread evenly over client nodes")
        if self.offered_rate <= 0 or self.duration <= 0:
            raise ConfigurationError("rate and duration must be positive")

    @property
    def leader_node(self) -> int:
        return self.replica_nodes[0]

    @property
    def follower_nodes(self) -> tuple:
        return self.replica_nodes[1:]

    @property
    def majority_votes(self) -> int:
        """Follower votes needed for a majority including the leader."""
        return (len(self.replica_nodes) + 1) // 2 - 1 + \
            (len(self.replica_nodes) + 1) % 2

    def client_node(self, client_index: int) -> int:
        per_node = self.clients // len(self.client_nodes)
        return self.client_nodes[client_index // per_node]


@dataclass
class ConsensusResult:
    """Outcome of one consensus run at one offered load."""

    protocol: str
    offered_rate: float
    completed: int
    achieved_rate: float
    median_latency: float
    p95_latency: float
    p99_latency: float
    issued: int

    def describe(self) -> str:
        return (f"{self.protocol:<12} offered={self.offered_rate / 1e6:5.2f}M/s "
                f"achieved={self.achieved_rate / 1e6:5.2f}M/s "
                f"median={self.median_latency / 1e3:6.1f}us "
                f"p95={self.p95_latency / 1e3:6.1f}us")


class LoadGenerator:
    """Per-client Poisson arrival schedule plus YCSB operation stream."""

    def __init__(self, setup: ConsensusSetup, client_index: int) -> None:
        self._rng = random.Random(f"arrivals:{setup.seed}:{client_index}")
        self._workload = YcsbWorkload(setup.ycsb,
                                      seed=setup.seed * 101 + client_index)
        self._rate = setup.offered_rate / setup.clients  # per second
        self._horizon = setup.warmup + setup.duration
        self._next_arrival = 0.0

    def next_arrival(self) -> "float | None":
        """Scheduled time (ns) of the next request, or None past the end."""
        self._next_arrival += self._rng.expovariate(self._rate) * 1e9
        if self._next_arrival >= self._horizon:
            return None
        return self._next_arrival

    def next_operation(self):
        return self._workload.next_request()


def client_submit(dfi, setup: ConsensusSetup, tracker: LatencyTracker,
                  flow: str, index: int):
    """Generator: client ``index`` pushes its open-loop request stream
    into flow ``flow`` — each request at its scheduled arrival, tracked
    from that instant — and closes its source past the horizon."""
    env = dfi.cluster.env
    generator = LoadGenerator(setup, index)
    source = yield from dfi.open_source(flow, index)
    sequence = 0
    while True:
        arrival = generator.next_arrival()
        if arrival is None:
            yield from source.close()
            return
        if arrival > env.now:
            yield env.timeout(arrival - env.now)
        operation = generator.next_operation()
        reqid = messages.make_reqid(index, sequence)
        sequence += 1
        tracker.issue(reqid, arrival)
        value = operation.value.ljust(messages.VALUE_BYTES, b"\x00")
        yield from source.push(
            (reqid, index, operation.op.value == "update",
             operation.key, value))


class LatencyTracker:
    """Records request lifecycles and computes the Fig. 15 statistics."""

    def __init__(self, setup: ConsensusSetup) -> None:
        self._setup = setup
        self._starts: dict[int, float] = {}
        self._latencies: list[float] = []
        self.issued = 0
        self.completed = 0
        self._first_measured: "float | None" = None
        self._last_measured: "float | None" = None

    def issue(self, reqid: int, scheduled_at: float) -> None:
        self.issued += 1
        self._starts[reqid] = scheduled_at

    def complete(self, reqid: int, now: float) -> None:
        start = self._starts.pop(reqid, None)
        if start is None:
            return  # duplicate completion (e.g. extra quorum responses)
        self.completed += 1
        if start < self._setup.warmup:
            return
        self._latencies.append(now - start)
        if self._first_measured is None:
            self._first_measured = start
        self._last_measured = start

    def result(self, protocol: str) -> ConsensusResult:
        latencies = sorted(self._latencies)
        if not latencies:
            raise ConfigurationError(
                f"{protocol}: no requests completed in the measured window")

        def percentile(fraction: float) -> float:
            index = min(len(latencies) - 1,
                        int(fraction * (len(latencies) - 1)))
            return latencies[index]

        span = max(1.0, (self._last_measured or 1.0)
                   - (self._first_measured or 0.0))
        achieved = len(latencies) / (span / 1e9)
        return ConsensusResult(
            protocol=protocol,
            offered_rate=self._setup.offered_rate,
            completed=len(latencies),
            achieved_rate=achieved,
            median_latency=percentile(0.50),
            p95_latency=percentile(0.95),
            p99_latency=percentile(0.99),
            issued=self.issued)
