"""Causal edges and the offline critical-path engine (``repro.obs``).

When ``cluster.enable_observability(causal=True)`` is on, every layer
that makes a flow wait records a **causal edge** — a
``(t_child, t_parent, category, node, src_node, tid, flow)`` tuple
meaning "the event at ``t_child`` could not have happened before
``t_parent`` because of ``category``". The layers log train-, pass- and
stall-level records (``repro.obs.log``) and the fold expands them into
per-WQE edges when the recorder is read. Edges land in per-node bounded
logs (oldest overwritten, ``dropped`` counted) and obey the plane's
determinism contract verbatim: recording reads ``env.now``, schedules
zero kernel events and draws zero RNG, so the simulated timeline is
bit-identical with causal recording on or off
(``fingerprint.py --with-obs`` asserts it for all 15 scenarios).

The engine in this module is pure offline analysis. Starting from a
flow's close marker it walks edges **backward**: at cursor ``t`` it
picks the edge with the largest ``t_child <= t`` (deterministic
tie-break below), charges the gap ``t_child .. t`` to ``cpu``, charges
the edge's span to its category, and jumps to ``t_parent``. Because
every recorded edge has ``t_parent < t_child`` the cursor strictly
decreases, so the walk terminates with an **exact decomposition** of
``[t_open, t_close]`` into the six blame categories.

Tie-break (same ``t_child``): smaller ``t_parent`` first (explains more
time), then category priority (wire, nic_arb, fault_backoff,
congestion_holdoff, credit_stall), then smaller node id,
then recording order. Every key is a pure function of the simulated
run, so the critical path — and the blame JSON — is byte-identical
across reruns.

One record kind is *context*, never walked: ``seg`` spans (segment
write -> consume) feed the per-target slack ranking; walking them would
mask the finer per-WQE edges inside.
"""

from __future__ import annotations

import json
from bisect import bisect_right

from repro.obs.trace import Ring

# -- edge categories (see docs/observability.md, "Critical path & blame") ----
WIRE = "wire"                            #: link HOL + serialization + flight + ack
NIC_ARB = "nic_arb"                      #: NIC engine arbitration + processing
CPU = "cpu"                              #: walk residual: compute/poll gaps
CREDIT_STALL = "credit_stall"            #: credit waits, ring-full polls/backoffs
CONGESTION_HOLDOFF = "congestion_holdoff"  #: PFC hold-off at a bounded egress queue
FAULT_BACKOFF = "fault_backoff"          #: outage heal waits, detection-bound flushes
SEG_SPAN = "seg"                         #: segment write->consume (context)

#: Every key present in a blame breakdown, in render order.
BLAME_CATEGORIES = (WIRE, NIC_ARB, CPU, CREDIT_STALL, CONGESTION_HOLDOFF,
                    FAULT_BACKOFF)

#: Categories the backward walk may traverse.
WALK_CATEGORIES = frozenset((WIRE, NIC_ARB, CREDIT_STALL,
                             CONGESTION_HOLDOFF, FAULT_BACKOFF))

#: Tie-break order for edges sharing ``(t_child, t_parent)``.
_PRIORITY = {WIRE: 0, NIC_ARB: 1, FAULT_BACKOFF: 2, CONGESTION_HOLDOFF: 3,
             CREDIT_STALL: 4}

#: Default per-node edge-log capacity (records kept; oldest overwritten).
DEFAULT_EDGE_CAPACITY = 65536

_KNOWN_CATEGORIES = frozenset(BLAME_CATEGORIES) | {SEG_SPAN}


class CausalError(ValueError):
    """Malformed causal section or unanalyzable flow."""


class CausalRecorder:
    """Per-cluster causal-edge store (``cluster.obs.causal``).

    Filled by the plane-log fold (``repro.obs.log``) in append order with
    the simulated timestamps the records carry, so log order equals
    simulated order and per-node logs are bit-identical across reruns.
    Edges are ``(t_child, t_parent, category, node, src_node,
    tid, flow)`` tuples in one bounded :class:`Ring` per node. ``logs`` /
    ``closes`` / ``opens`` and every reading method run ``sync`` — the
    owning plane's fold — first.
    """

    __slots__ = ("capacity", "_logs", "_closes", "_opens", "_sync")

    def __init__(self, sync, capacity: int = DEFAULT_EDGE_CAPACITY) -> None:
        self.capacity = capacity
        self._logs: dict[int, Ring] = {}
        #: ``flow -> [(t, node_id), ...]`` close markers, in event order.
        self._closes: dict[str, list] = {}
        #: ``flow -> earliest endpoint-open time`` (the walk's floor).
        self._opens: dict[str, float] = {}
        self._sync = sync

    def _synced(self, store):
        self._sync()
        return store

    logs = property(lambda self: self._synced(self._logs))
    closes = property(lambda self: self._synced(self._closes))
    opens = property(lambda self: self._synced(self._opens))

    def log(self, node_id: int) -> Ring:
        """Get (or create) the edge ring of ``node_id`` (fold-side)."""
        ring = self._logs.get(node_id)
        if ring is None:
            ring = self._logs[node_id] = Ring(self.capacity)
        return ring

    # -- reading ----------------------------------------------------------
    def edges(self) -> list:
        """Every recorded edge, ordered by ``(node_id, record order)``."""
        logs = self.logs
        out: list = []
        for node_id in sorted(logs):
            out.extend(logs[node_id].items)
        return out

    def dropped(self) -> dict[int, int]:
        """Per-node dropped-edge counts (only nodes that dropped)."""
        return {node_id: ring.lost
                for node_id, ring in sorted(self.logs.items()) if ring.lost}

    def export(self) -> dict:
        """JSON-safe dict: what ``chrome_trace`` embeds as
        ``"reproCausal"`` and ``python -m repro.obs.analyze`` consumes."""
        return {
            "edges": [list(record) for record in self.edges()],
            "closes": {flow: [[t, node] for t, node in marks]
                       for flow, marks in sorted(self.closes.items())},
            "opens": dict(sorted(self.opens.items())),
            "dropped": {str(node): count
                        for node, count in self.dropped().items()},
            "capacity": self.capacity,
        }


# -- validation (the CI hard gate) -------------------------------------------
def validate_export(export: dict) -> None:
    """Raise :class:`CausalError` if ``export`` is malformed: wrong edge
    arity or types, unknown category, or a non-positive span."""
    if not isinstance(export, dict):
        raise CausalError("causal section must be an object")
    edges = export.get("edges")
    if not isinstance(edges, list):
        raise CausalError("causal section has no edge list")
    for index, edge in enumerate(edges):
        if not isinstance(edge, (list, tuple)) or len(edge) != 7:
            raise CausalError(f"edge {index}: expected 7 fields, got "
                              f"{edge!r}")
        t_child, t_parent, category, node, src_node, tid, flow = edge
        if not isinstance(t_child, (int, float)) \
                or not isinstance(t_parent, (int, float)):
            raise CausalError(f"edge {index}: non-numeric timestamps")
        if t_child <= t_parent:
            raise CausalError(
                f"edge {index}: non-positive span "
                f"(t_child={t_child} <= t_parent={t_parent})")
        if category not in _KNOWN_CATEGORIES:
            raise CausalError(f"edge {index}: unknown category "
                              f"{category!r}")
        if not isinstance(node, int) or not isinstance(src_node, int):
            raise CausalError(f"edge {index}: node ids must be ints")
        if not isinstance(tid, str):
            raise CausalError(f"edge {index}: tid must be a string")
        if flow is not None and not isinstance(flow, str):
            raise CausalError(f"edge {index}: flow must be a string or "
                              f"null")
    closes = export.get("closes")
    if not isinstance(closes, dict):
        raise CausalError("causal section has no close-marker map")
    for flow, marks in closes.items():
        for mark in marks:
            if not isinstance(mark, (list, tuple)) or len(mark) != 2:
                raise CausalError(f"close marker of {flow!r} malformed: "
                                  f"{mark!r}")


# -- the backward walk --------------------------------------------------------
def critical_path(edges, t_close: float, t_open: float = 0.0) -> list:
    """Exact critical path of ``[t_open, t_close]``: a chronological list
    of ``{"category", "start", "end", "node", "src_node", "tid"}`` steps
    covering the interval with no overlap (gaps are ``cpu`` steps)."""
    walkable = []
    for index, edge in enumerate(edges):
        t_child, t_parent, category = edge[0], edge[1], edge[2]
        if category not in WALK_CATEGORIES:
            continue
        if t_child <= t_open or t_child > t_close:
            continue
        node = edge[3]
        # Sort key: larger t_child wins; ties prefer the edge explaining
        # more time, then category priority, then node id, then order.
        walkable.append((t_child, -t_parent, -_PRIORITY[category],
                         -node, -index, edge))
    walkable.sort()
    t_childs = [entry[0] for entry in walkable]
    steps: list = []
    cursor = t_close
    last_node = -1
    position = bisect_right(t_childs, cursor)
    while cursor > t_open and position > 0:
        edge = walkable[position - 1][5]
        t_child, t_parent, category, node, src_node, tid, _flow = edge
        if t_child <= t_open:
            break
        if t_child < cursor:
            steps.append({"category": CPU, "start": t_child, "end": cursor,
                          "node": node if last_node < 0 else last_node,
                          "src_node": node, "tid": tid})
        start = t_parent if t_parent > t_open else t_open
        steps.append({"category": category, "start": start, "end": t_child,
                      "node": node, "src_node": src_node, "tid": tid})
        last_node = src_node
        cursor = start
        position = bisect_right(t_childs, cursor)
    if cursor > t_open:
        steps.append({"category": CPU, "start": t_open, "end": cursor,
                      "node": last_node if last_node >= 0 else 0,
                      "src_node": last_node if last_node >= 0 else 0,
                      "tid": "open"})
    steps.reverse()
    return steps


def blame_breakdown(steps) -> dict:
    """Sum the critical-path steps per category (all six keys
    present)."""
    blame = {category: 0.0 for category in BLAME_CATEGORIES}
    for step in steps:
        blame[step["category"]] += step["end"] - step["start"]
    return blame


def _seg_spans(edges, flow: str) -> list:
    return [edge for edge in edges
            if edge[2] == SEG_SPAN and edge[6] == flow]


def straggler_ranking(edges, flow: str, t_close: float) -> list:
    """Per-target slack ranking from the flow's segment spans: for each
    consuming node, its last consume time and the slack to flow close.
    The straggler — the target that finished last — sorts first
    (tie-break: smaller node id)."""
    per_node: dict[int, dict] = {}
    for t_child, t_parent, _cat, node, _src, _tid, _flow in \
            _seg_spans(edges, flow):
        entry = per_node.get(node)
        if entry is None:
            entry = per_node[node] = {
                "node": node, "segments": 0, "span_ns": 0.0,
                "last_finish_ns": 0.0}
        entry["segments"] += 1
        entry["span_ns"] += t_child - t_parent
        if t_child > entry["last_finish_ns"]:
            entry["last_finish_ns"] = t_child
    ranking = []
    for node in sorted(per_node):
        entry = per_node[node]
        entry["slack_ns"] = t_close - entry["last_finish_ns"]
        ranking.append(entry)
    ranking.sort(key=lambda entry: (entry["slack_ns"], entry["node"]))
    return ranking


def hot_targets(edges) -> list:
    """Nodes ranked by total congestion hold-off charged against their
    downlink (largest first; tie-break: smaller node id)."""
    per_node: dict[int, float] = {}
    for t_child, t_parent, category, node, _src, _tid, _flow in edges:
        if category == CONGESTION_HOLDOFF:
            per_node[node] = per_node.get(node, 0.0) + (t_child - t_parent)
    ranking = [{"node": node, "holdoff_ns": total}
               for node, total in sorted(per_node.items())]
    ranking.sort(key=lambda entry: (-entry["holdoff_ns"], entry["node"]))
    return ranking


# -- flow reports -------------------------------------------------------------
def flows(export: dict) -> list:
    """Flows with at least one close marker, sorted by name."""
    return sorted(export.get("closes", {}))


def default_flow(export: dict) -> str:
    """The flow that closed last (tie-break: smaller name)."""
    closes = export.get("closes", {})
    if not closes:
        raise CausalError("no FLOW_CLOSE markers recorded — did the flow "
                          "run with enable_observability(causal=True)?")
    best = None
    for flow in sorted(closes):
        t_close = max(t for t, _node in closes[flow])
        if best is None or t_close > best[0]:
            best = (t_close, flow)
    return best[1]


def flow_report(export: dict, flow: "str | None" = None,
                ring_dropped: "dict | None" = None) -> dict:
    """Blame report for one flow from a causal export.

    ``ring_dropped`` optionally maps flow name -> dropped trace-ring
    event count (from ``chrome_trace`` metadata) so the report can warn
    when the analyzed flow's trace ring truncated.
    """
    if flow is None:
        flow = default_flow(export)
    closes = export.get("closes", {})
    if flow not in closes:
        raise CausalError(f"flow {flow!r} recorded no close marker "
                          f"(known flows: {flows(export)})")
    t_close = max(t for t, _node in closes[flow])
    t_open = export.get("opens", {}).get(flow, 0.0)
    edges = [tuple(edge) for edge in export.get("edges", ())
             if edge[6] is None or edge[6] == flow]
    steps = critical_path(edges, t_close, t_open)
    blame = blame_breakdown(steps)
    warnings = []
    dropped = export.get("dropped", {})
    if dropped:
        path_nodes = sorted({step["node"] for step in steps})
        truncated = [node for node in path_nodes
                     if dropped.get(str(node), 0) or dropped.get(node, 0)]
        if truncated:
            warnings.append(
                f"critical path crosses truncated edge logs on nodes "
                f"{truncated} — oldest edges were overwritten; "
                f"early-path blame may be understated")
    if ring_dropped:
        lost = ring_dropped.get(flow, 0)
        if lost:
            warnings.append(
                f"trace ring of flow {flow!r} dropped {lost} events — "
                f"raise trace_capacity for a complete event timeline")
    return {
        "flow": flow,
        "t_open_ns": t_open,
        "t_close_ns": t_close,
        "total_ns": t_close - t_open,
        "blame": blame,
        "path_steps": len(steps),
        "stragglers": straggler_ranking(edges, flow, t_close),
        "hot_targets": hot_targets(edges),
        "warnings": warnings,
    }


def blame_json(report: dict) -> str:
    """Canonical JSON for a flow report — byte-identical across reruns
    for the same seed (the determinism tests compare this string)."""
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def analyze_cluster(cluster, flow: "str | None" = None) -> dict:
    """In-process :func:`flow_report` for a cluster whose observability
    plane ran with ``causal=True``."""
    plane = getattr(cluster, "obs", None)
    recorder = plane.causal if plane is not None else None
    if recorder is None:
        raise CausalError(
            "causal recording is off — call "
            "cluster.enable_observability(causal=True) before the run")
    ring_dropped = {tracer.flow: tracer.dropped
                    for tracer in plane.tracers.values()}
    return flow_report(recorder.export(), flow, ring_dropped=ring_dropped)


def render_blame(report: dict) -> str:
    """Human-readable blame table + top-5 straggler report."""
    lines = [f"=== critical path: flow {report['flow']!r} ===",
             f"window: {report['t_open_ns']:.1f} .. "
             f"{report['t_close_ns']:.1f} ns "
             f"(total {report['total_ns']:.1f} ns, "
             f"{report['path_steps']} steps)"]
    total = report["total_ns"] or 1.0
    lines.append(f"{'category':<20} {'ns':>16} {'share':>8}")
    for category in BLAME_CATEGORIES:
        value = report["blame"][category]
        lines.append(f"{category:<20} {value:>16.1f} "
                     f"{100.0 * value / total:>7.1f}%")
    stragglers = report["stragglers"][:5]
    if stragglers:
        lines.append("top targets by slack (straggler first):")
        for entry in stragglers:
            lines.append(
                f"  node{entry['node']}: last_finish="
                f"{entry['last_finish_ns']:.1f}ns "
                f"slack={entry['slack_ns']:.1f}ns "
                f"segments={entry['segments']}")
    hot = report["hot_targets"][:5]
    if hot:
        lines.append("hot targets by congestion hold-off:")
        for entry in hot:
            lines.append(f"  node{entry['node']}: "
                         f"holdoff={entry['holdoff_ns']:.1f}ns")
    for warning in report["warnings"]:
        lines.append(f"WARNING: {warning}")
    return "\n".join(lines)
