"""Discrete-event network simulator: the substrate replacing the paper's
InfiniBand EDR testbed (see DESIGN.md Section 2)."""

from repro.simnet.cluster import Cluster
from repro.simnet.congestion import (
    CongestionConfig,
    CongestionPlane,
    stall_is_congestion,
)
from repro.simnet.fabric import Fabric
from repro.simnet.faults import (
    FaultPlan,
    FaultPlane,
    LinkDegrade,
    LinkDown,
    NodeCrash,
    Partition,
    link_degrade,
    link_down,
    node_crash,
    partition,
)
from repro.simnet.kernel import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    PARK,
    Interrupt,
    Process,
    Timeout,
)
from repro.simnet.link import Link
from repro.simnet.node import Node
from repro.simnet.shardexec import run_partitioned
from repro.simnet.sync import Barrier, Resource, Signal, Store

__all__ = [
    "Environment",
    "run_partitioned",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "PARK",
    "AllOf",
    "AnyOf",
    "Link",
    "Node",
    "Fabric",
    "Cluster",
    "CongestionConfig",
    "CongestionPlane",
    "stall_is_congestion",
    "FaultPlan",
    "FaultPlane",
    "LinkDown",
    "NodeCrash",
    "Partition",
    "LinkDegrade",
    "link_down",
    "node_crash",
    "partition",
    "link_degrade",
    "Store",
    "Resource",
    "Barrier",
    "Signal",
]
