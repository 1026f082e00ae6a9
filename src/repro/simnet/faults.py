"""Deterministic fault injection (the fault plane).

The paper defers fault tolerance to future work (Section 7); this module
supplies the *failure side* of that story: a schedulable, bit-reproducible
way to crash nodes, take links down, partition the cluster, and degrade
link bandwidth — so the detection and recovery machinery in ``repro.rdma``
and ``repro.core`` has something real to detect.

Two pieces:

* :class:`FaultPlan` — a declarative, immutable schedule of fault entries
  (built directly, or drawn from a seeded RNG via :meth:`FaultPlan.random`
  for chaos testing). A plan is pure data: building one touches no
  simulator state.
* :class:`FaultPlane` — a plan *installed* on a cluster
  (``cluster.install_faults(plan)``). It schedules the plan's active
  transitions on the event kernel (crashes kill node processes, degrade
  windows rescale link bandwidth) and answers reachability queries from
  the RDMA layer and the fabric.

Determinism contract: everything is a pure function of (plan, seed,
install time). Random plans draw from ``derive_rng(seed, "fault-plan")``
at *build* time — never at run time — so the schedule itself is part of
the reproducible input. An **empty plan schedules zero kernel events and
every query short-circuits on** ``plane.active``, which keeps fault-free
runs bit-identical to runs without any plane installed (the
zero-overhead-when-unused guarantee ``benchmarks/perf/fingerprint.py
--check-fault-neutral`` asserts).

Scope: the plane covers the RC/UD verbs the DFI flows use. The SHARP
in-network-aggregation and MPI baselines bypass it (they exist for
performance comparison, not fault-tolerance claims).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.common.errors import ConfigurationError
from repro.common.rand import derive_rng
from repro.common.planelog import EDGE

if TYPE_CHECKING:
    from repro.simnet.cluster import Cluster
    from repro.simnet.node import Node

#: Default failure-detection bound (ns): how long the RC transport retries
#: an unreachable peer before flushing the work request in error. Plays the
#: role of the verbs retry count x retransmission timeout product.
DEFAULT_DETECTION_TIMEOUT = 100_000.0

_INF = math.inf


# -- plan entries -----------------------------------------------------------
@dataclass(frozen=True)
class LinkDown:
    """The path between nodes ``a`` and ``b`` is down during
    ``[at, at + duration)``; traffic between all other pairs is unaffected."""

    a: int
    b: int
    at: float
    duration: float

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ConfigurationError("link_down needs two distinct nodes")
        if self.at < 0 or self.duration <= 0:
            raise ConfigurationError(
                "link_down needs at >= 0 and duration > 0")


@dataclass(frozen=True)
class NodeCrash:
    """Fail-stop crash of ``node`` at time ``at``: its processes are
    killed, its memory stops accepting commits, and it is unreachable
    from every other node forever after."""

    node: int
    at: float

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ConfigurationError("node_crash needs at >= 0")


@dataclass(frozen=True)
class Partition:
    """Nodes in different ``groups`` cannot communicate during
    ``[at, heal_at)``. Nodes not listed in any group are unaffected."""

    groups: tuple[frozenset[int], ...]
    at: float
    heal_at: float

    def __post_init__(self) -> None:
        if len(self.groups) < 2:
            raise ConfigurationError("partition needs at least two groups")
        seen: set[int] = set()
        for group in self.groups:
            if seen & group:
                raise ConfigurationError(
                    "partition groups must be disjoint")
            seen |= group
        if self.at < 0 or self.heal_at <= self.at:
            raise ConfigurationError(
                "partition needs 0 <= at < heal_at")


@dataclass(frozen=True)
class LinkDegrade:
    """Both links of ``node`` run ``factor``x slower during
    ``[at, at + duration)``. Degrades compose multiplicatively, so
    overlapping windows are well-defined."""

    node: int
    at: float
    duration: float
    factor: float

    def __post_init__(self) -> None:
        if self.factor <= 1.0:
            raise ConfigurationError("degrade factor must be > 1")
        if self.at < 0 or self.duration <= 0:
            raise ConfigurationError(
                "link_degrade needs at >= 0 and duration > 0")


#: Any schedulable fault entry.
FaultEntry = "LinkDown | NodeCrash | Partition | LinkDegrade"


def link_down(a: int, b: int, at: float, duration: float) -> LinkDown:
    """Take the a<->b path down for ``duration`` ns starting at ``at``."""
    return LinkDown(a, b, float(at), float(duration))


def node_crash(node: int, at: float) -> NodeCrash:
    """Fail-stop crash ``node`` at time ``at``."""
    return NodeCrash(node, float(at))


def partition(groups: Iterable[Iterable[int]], at: float,
              heal_at: float) -> Partition:
    """Partition the listed node groups from ``at`` until ``heal_at``."""
    return Partition(tuple(frozenset(group) for group in groups),
                     float(at), float(heal_at))


def link_degrade(node: int, at: float, duration: float,
                 factor: float) -> LinkDegrade:
    """Slow ``node``'s links by ``factor`` for ``duration`` ns."""
    return LinkDegrade(node, float(at), float(duration), float(factor))


class FaultPlan:
    """An immutable schedule of fault entries.

    ``FaultPlan()`` is the empty plan (installs as a no-op plane).
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence = ()) -> None:
        for entry in entries:
            if not isinstance(entry,
                              (LinkDown, NodeCrash, Partition, LinkDegrade)):
                raise ConfigurationError(
                    f"not a fault entry: {entry!r}")
        self.entries = tuple(entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def node_ids(self) -> set[int]:
        """Every node id the plan references."""
        ids: set[int] = set()
        for entry in self.entries:
            if isinstance(entry, LinkDown):
                ids |= {entry.a, entry.b}
            elif isinstance(entry, (NodeCrash, LinkDegrade)):
                ids.add(entry.node)
            else:
                for group in entry.groups:
                    ids |= group
        return ids

    @classmethod
    def random(cls, seed: int, node_ids: Iterable[int], start: float,
               horizon: float, entry_count: int = 3,
               protected: Iterable[int] = (),
               allow_crash: bool = True) -> "FaultPlan":
        """Build a seeded random plan for chaos testing.

        All randomness is consumed here, at build time, from
        ``derive_rng(seed, "fault-plan")`` — the resulting plan (and thus
        the whole failure run) is a deterministic function of ``seed``.
        Fault times land in ``[start, horizon)``; nodes in ``protected``
        (e.g. the registry master) are never touched. At most one node is
        crashed per plan so most runs keep a quorum of live endpoints.
        """
        rng = derive_rng(seed, "fault-plan")
        candidates = sorted(set(node_ids) - set(protected))
        if len(candidates) < 2:
            raise ConfigurationError(
                "random fault plans need at least two non-protected nodes")
        if start >= horizon:
            raise ConfigurationError("random plan needs start < horizon")
        entries: list = []
        crashed = False
        kinds = ["link_down", "degrade", "partition"]
        if allow_crash:
            kinds.append("crash")
        for _ in range(entry_count):
            kind = rng.choice(kinds)
            at = rng.uniform(start, horizon)
            span = max(1.0, (horizon - at))
            if kind == "crash" and not crashed:
                crashed = True
                entries.append(NodeCrash(rng.choice(candidates), at))
            elif kind == "link_down" or kind == "crash":
                a, b = rng.sample(candidates, 2)
                entries.append(LinkDown(a, b, at,
                                        rng.uniform(0.1 * span, span)))
            elif kind == "degrade":
                entries.append(LinkDegrade(
                    rng.choice(candidates), at,
                    rng.uniform(0.1 * span, span),
                    rng.uniform(2.0, 16.0)))
            else:
                split = rng.randint(1, len(candidates) - 1)
                shuffled = list(candidates)
                rng.shuffle(shuffled)
                entries.append(Partition(
                    (frozenset(shuffled[:split]),
                     frozenset(shuffled[split:])),
                    at, at + rng.uniform(0.1 * span, span)))
        return cls(entries)


class _Block:
    """One reachability-blocking interval (a link_down or a partition)."""

    __slots__ = ("start", "end", "pair", "groups")

    def __init__(self, start: float, end: float,
                 pair: frozenset | None = None,
                 groups: tuple | None = None) -> None:
        self.start = start
        self.end = end
        self.pair = pair
        self.groups = groups

    def blocks(self, a: int, b: int) -> bool:
        if self.pair is not None:
            return a in self.pair and b in self.pair
        group_a = group_b = None
        for index, group in enumerate(self.groups):
            if a in group:
                group_a = index
            if b in group:
                group_b = index
        return (group_a is not None and group_b is not None
                and group_a != group_b)


class FaultPlane:
    """A :class:`FaultPlan` installed on a cluster.

    Reachability (link_down / partition intervals) is computed on demand
    from the static plan — no kernel events. Only *active* transitions
    are scheduled: node crashes (kill the node's processes at the crash
    instant) and degrade windows (rescale link bandwidth at each edge).
    """

    def __init__(self, cluster: "Cluster", plan: FaultPlan,
                 detection_timeout: float = DEFAULT_DETECTION_TIMEOUT
                 ) -> None:
        if not isinstance(plan, FaultPlan):
            plan = FaultPlan(plan)
        if detection_timeout <= 0:
            raise ConfigurationError("detection_timeout must be positive")
        for node_id in plan.node_ids():
            cluster.node(node_id)  # validates range
        self.cluster = cluster
        self.env = cluster.env
        self.plan = plan
        self.detection_timeout = float(detection_timeout)
        #: False for the empty plan: every hot-path guard short-circuits
        #: here, so an installed-but-empty plane is event-pattern neutral.
        self.active = bool(plan.entries)
        self._crash_at: dict[int, float] = {}
        self._blocks: list[_Block] = []
        #: Nodes whose crash transition has been applied (processes killed).
        self.crashed: set[int] = set()
        for entry in plan.entries:
            if isinstance(entry, NodeCrash):
                previous = self._crash_at.get(entry.node, _INF)
                self._crash_at[entry.node] = min(previous, entry.at)
            elif isinstance(entry, LinkDown):
                self._blocks.append(_Block(
                    entry.at, entry.at + entry.duration,
                    pair=frozenset((entry.a, entry.b))))
            elif isinstance(entry, Partition):
                self._blocks.append(_Block(entry.at, entry.heal_at,
                                           groups=entry.groups))
        if self.active:
            self._schedule_transitions()

    # -- kernel wiring ----------------------------------------------------
    def _schedule_transitions(self) -> None:
        now = self.env.now
        for node_id, at in sorted(self._crash_at.items()):
            self._at(max(0.0, at - now), self._apply_crash, node_id)
        for entry in self.plan.entries:
            if not isinstance(entry, LinkDegrade):
                continue
            self._at(max(0.0, entry.at - now),
                     self._scale_links, (entry.node, 1.0 / entry.factor))
            self._at(max(0.0, entry.at + entry.duration - now),
                     self._scale_links, (entry.node, entry.factor))

    def _at(self, delay: float, fn, arg) -> None:
        env = self.env
        env.schedule_train([(env._now + delay, fn, arg)])

    def _apply_crash(self, node_id: int) -> None:
        self.crashed.add(node_id)
        self.cluster.node(node_id).fail_stop()

    def _scale_links(self, args) -> None:
        node_id, factor = args
        # rescale (not a bare ``bandwidth *=``) re-prices the queued
        # backlog at the new rate, so a degrade landing mid-queue behaves
        # identically whether it fires just before or just after a
        # same-timestamp reserve.
        node = self.cluster.node(node_id)
        now = self.env.now
        node.uplink.rescale(factor, now)
        node.downlink.rescale(factor, now)

    # -- reachability queries ---------------------------------------------
    def _path_open_at(self, a: int, b: int,
                      at: "float | None" = None) -> float:
        """Earliest time >= ``at`` (default: now) at which a and b can
        exchange traffic (``inf`` if one of them crashes first)."""
        t = self.env.now if at is None else at
        while True:
            if (self._crash_at.get(a, _INF) <= t
                    or self._crash_at.get(b, _INF) <= t):
                return _INF
            reopen = None
            for block in self._blocks:
                if block.start <= t < block.end and block.blocks(a, b):
                    if reopen is None or block.end > reopen:
                        reopen = block.end
            if reopen is None:
                return t
            t = reopen

    def node_alive(self, node: "Node") -> bool:
        """True while the node has not reached its crash time."""
        return self._crash_at.get(node.node_id, _INF) > self.env.now

    def rc_admission(self, src: "Node", dst: "Node",
                     at: "float | None" = None) -> "float | None":
        """Admission verdict for an RC operation posted src -> dst.

        Returns the extra delay (0.0 on a clean path; the remaining
        outage when the path heals within the detection bound — modeling
        RC retransmission riding out a short blip), or ``None`` when the
        transport would give up: the peer crashed or the outage outlasts
        ``detection_timeout``, so the work request must flush in error.

        ``at`` evaluates the path as of a future instant instead of now:
        doorbell-batched trains admit each WQE at its wire-transmission
        start time, so an outage beginning mid-train delivers the prefix
        and flushes the suffix.
        """
        opens = self._path_open_at(src.node_id, dst.node_id, at)
        base = self.env.now if at is None else at
        if opens <= base:
            return 0.0
        if opens - base <= self.detection_timeout:
            if src.metrics is not None and src.metrics.causal:
                src.metrics.log((EDGE, opens, base, "fault_backoff",
                                 src.node_id,
                                 f"rc{src.node_id}->{dst.node_id}", None,
                                 dst.node_id))
            return opens - base
        return None

    def ud_deliverable(self, src: "Node", dst: "Node") -> bool:
        """True if a UD datagram sent now from src reaches dst (datagrams
        are never retried: any current block or crash drops them)."""
        return self._path_open_at(src.node_id, dst.node_id) <= self.env.now

    def peer_failed(self, me: "Node", peer: "Node") -> bool:
        """Failure-detector verdict: the peer crashed, or the path to it
        stays blocked beyond the detection bound — i.e. waiting longer
        cannot help. Distinguishes :class:`FlowPeerFailedError` from
        :class:`FlowTimeoutError` at the flow layer."""
        opens = self._path_open_at(me.node_id, peer.node_id)
        return opens == _INF or opens - self.env.now > self.detection_timeout


# -- default-plan hook (fingerprint neutrality check) -----------------------
#: When set, every newly built Cluster auto-installs this plan — lets the
#: fingerprint script prove an empty plane causes zero metric drift even
#: for clusters constructed deep inside benchmark helpers.
_default_plan: "FaultPlan | None" = None
_default_detection_timeout: float = DEFAULT_DETECTION_TIMEOUT


def set_default_plan(plan: "FaultPlan | None",
                     detection_timeout: float = DEFAULT_DETECTION_TIMEOUT
                     ) -> None:
    """Install ``plan`` on every cluster created from now on (``None``
    clears the hook). Intended for harnesses, not applications."""
    global _default_plan, _default_detection_timeout
    _default_plan = plan
    _default_detection_timeout = detection_timeout


def _install_default(cluster: "Cluster") -> None:
    if _default_plan is not None:
        cluster.install_faults(_default_plan, _default_detection_timeout)
