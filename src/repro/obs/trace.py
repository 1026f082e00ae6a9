"""Per-flow event tracing with a Chrome ``trace_event`` exporter.

A :class:`FlowTracer` is a bounded ring of typed events, one per traced
flow. Channels log train- and pass-level records (``repro.obs.log``) and
the fold derives the events, with the simulated timestamps the records
carry, whenever the ring is read — so ring order equals simulated order
and nothing about tracing touches the kernel, which is how
``fingerprint.py --with-obs`` can demand a bit-identical timeline.

The exporter writes the Chrome ``trace_event`` JSON array format
(`ph: "i"` instant events with explicit ``ts`` microseconds, ``pid`` =
node id, ``tid`` = channel label) — load the file at ``chrome://tracing``
or https://ui.perfetto.dev. Fault *injections* are synthesized at export
time straight from the installed ``FaultPlan``; fault *detections* are
logged by the flow layer when it diagnoses a peer failure.
"""

from __future__ import annotations

import json

# -- event taxonomy (see docs/observability.md) ------------------------------
SEG_WRITE = "SEG_WRITE"          #: source flushed a segment to the wire
SEG_CONSUME = "SEG_CONSUME"      #: target drained a consumable segment
FOOTER_POLL = "FOOTER_POLL"      #: writer polled a remote footer (window read)
PREREAD = "PREREAD"              #: pipelined footer pre-read hit or miss
CREDIT = "CREDIT"                #: credit refresh round-trip completed
BACKOFF = "BACKOFF"              #: ring-full backoff round slept
RETRANSMIT = "RETRANSMIT"        #: replicate source retransmitted a segment
REROUTE = "REROUTE"              #: source rerouted around failed targets
FAULT_INJECT = "FAULT_INJECT"    #: fault plan entry fires (synthesized)
FAULT_DETECT = "FAULT_DETECT"    #: flow layer diagnosed a peer failure
FLOW_CLOSE = "FLOW_CLOSE"        #: endpoint closed or tore down

#: Default per-flow ring capacity (events kept; oldest overwritten).
DEFAULT_TRACE_CAPACITY = 65536


class Ring:
    """The most recent ``capacity`` items of an append-only sequence.

    The fold (``repro.obs.log``) appends to ``items`` directly and calls
    :meth:`trim` once per chunk, so between trims the list overshoots by
    at most one chunk's derivations."""

    __slots__ = ("capacity", "items", "lost")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.items: list = []
        #: Items trimmed away because the ring was full.
        self.lost = 0

    def trim(self) -> None:
        excess = len(self.items) - self.capacity
        if excess > 0:
            del self.items[:excess]
            self.lost += excess


class FlowTracer(Ring):
    """Bounded per-flow trace ring.

    Holds the most recent ``capacity`` events (``dropped`` counts the
    older ones). Events are ``(ts, kind, node_id, tid, detail)`` tuples
    with ``ts`` in simulated nanoseconds and ``detail`` a small dict or
    ``None``. Every read runs ``sync`` — the owning plane's fold — first,
    so the ring reflects the whole plane log.
    """

    __slots__ = ("flow", "_sync")

    def __init__(self, flow: str, capacity: int, sync) -> None:
        super().__init__(capacity)
        self.flow = flow
        self._sync = sync

    def events(self) -> list:
        """Events in emission (= simulated-time) order."""
        self._sync()
        return list(self.items)

    def __len__(self) -> int:
        self._sync()
        return len(self.items)

    @property
    def dropped(self) -> int:
        """Events dropped because the ring was full."""
        self._sync()
        return self.lost

    @property
    def emitted(self) -> int:
        """Total events ever derived (kept + dropped)."""
        return len(self) + self.lost

    def stats(self) -> dict:
        """The ring's ``kept`` / ``dropped`` / ``emitted`` / ``capacity``."""
        return {"kept": len(self), "dropped": self.lost,
                "emitted": self.emitted, "capacity": self.capacity}

    def __repr__(self) -> str:
        return (f"<FlowTracer {self.flow!r} kept={len(self.items)} "
                f"dropped={self.lost}>")


def _fault_plan_events(cluster) -> list[dict]:
    """Synthesize Chrome instant events for every installed fault entry
    at its *planned* simulated time (injection is part of the immutable
    plan, so the trace can state it exactly without live emission)."""
    plane = getattr(cluster, "faults", None)
    if plane is None or not plane.plan.entries:
        return []
    from repro.simnet.faults import (
        LinkDegrade,
        LinkDown,
        NodeCrash,
        Partition,
    )
    events = []

    def instant(at, pid, detail):
        events.append({
            "name": FAULT_INJECT, "cat": "faults", "ph": "i", "s": "g",
            "ts": at / 1000.0, "pid": pid, "tid": "faults",
            "args": detail,
        })

    for entry in plane.plan.entries:
        if isinstance(entry, NodeCrash):
            instant(entry.at, entry.node,
                    {"kind": "node_crash", "at_ns": entry.at})
        elif isinstance(entry, LinkDown):
            detail = {"kind": "link_down", "at_ns": entry.at,
                      "peer": entry.b, "duration_ns": entry.duration}
            instant(entry.at, entry.a, detail)
        elif isinstance(entry, LinkDegrade):
            instant(entry.at, entry.node,
                    {"kind": "link_degrade", "at_ns": entry.at,
                     "duration_ns": entry.duration,
                     "factor": entry.factor})
        elif isinstance(entry, Partition):
            groups = [sorted(group) for group in entry.groups]
            instant(entry.at, groups[0][0],
                    {"kind": "partition", "at_ns": entry.at,
                     "heal_at_ns": entry.heal_at, "groups": groups})
    return events


def _flow_arrow_events(plane) -> list[dict]:
    """Perfetto flow arrows (``ph:"s"/"f"``) binding cause -> effect
    across pids: one arrow per cross-node step of each closed flow's
    critical path. Pure post-processing of the causal export."""
    recorder = plane.causal
    if recorder is None or not recorder.closes:
        return []
    from repro.obs.causal import critical_path
    events: list[dict] = []
    arrow_id = 0
    all_edges = recorder.edges()
    for flow in sorted(recorder.closes):
        t_close = max(t for t, _node in recorder.closes[flow])
        t_open = recorder.opens.get(flow, 0.0)
        edges = [edge for edge in all_edges
                 if edge[6] is None or edge[6] == flow]
        for step in critical_path(edges, t_close, t_open):
            if step["src_node"] == step["node"]:
                continue
            arrow_id += 1
            common = {"name": "critical_path", "cat": flow,
                      "id": arrow_id, "tid": step["tid"]}
            events.append({**common, "ph": "s",
                           "ts": step["start"] / 1000.0,
                           "pid": step["src_node"]})
            events.append({**common, "ph": "f", "bp": "e",
                           "ts": step["end"] / 1000.0,
                           "pid": step["node"]})
    return events


def chrome_trace(cluster) -> dict:
    """Build the Chrome ``trace_event`` document for a cluster's traced
    flows (plus synthesized fault-injection events). Returns the JSON
    object; use :func:`export_chrome_trace` to write it to disk.

    Beyond ``traceEvents`` the document carries two repro-specific
    top-level keys (Perfetto ignores unknown keys): ``"reproObs"`` with
    per-ring kept/dropped stats and ``"reproCausal"`` with the causal
    edge export when ``enable_observability(causal=True)`` was on —
    which is what lets ``python -m repro.obs.analyze`` work offline from
    the trace file alone. Cross-node critical-path steps additionally
    become ``ph:"s"/"f"`` flow arrows."""
    trace_events: list[dict] = []
    plane = getattr(cluster, "obs", None)
    tracers = plane.tracers.values() if plane is not None else ()
    named_pids = set()
    ring_stats: dict[str, dict] = {}
    for tracer in tracers:
        for ts, kind, node_id, tid, detail in tracer.events():
            event = {
                "name": kind, "cat": tracer.flow, "ph": "i", "s": "t",
                "ts": ts / 1000.0, "pid": node_id, "tid": tid,
            }
            if detail:
                event["args"] = detail
            trace_events.append(event)
            named_pids.add(node_id)
        ring_stats[tracer.flow] = tracer.stats()
    fault_events = _fault_plan_events(cluster)
    for event in fault_events:
        named_pids.add(event["pid"])
    trace_events.extend(fault_events)
    if plane is not None:
        trace_events.extend(_flow_arrow_events(plane))
    metadata = [
        {"name": "process_name", "ph": "M", "pid": pid, "tid": "meta",
         "args": {"name": f"node{pid}"}}
        for pid in sorted(named_pids)
    ]
    metadata.extend(
        {"name": "trace_ring", "ph": "M", "pid": 0, "tid": flow,
         "args": dict(stats, flow=flow)}
        for flow, stats in sorted(ring_stats.items())
    )
    document = {"traceEvents": metadata + trace_events,
                "displayTimeUnit": "ns",
                "reproObs": {"rings": ring_stats}}
    if plane is not None and plane.causal is not None:
        document["reproCausal"] = plane.causal.export()
    return document


def export_chrome_trace(cluster, path: str) -> dict:
    """Write the cluster's trace to ``path`` (Perfetto-loadable JSON);
    returns the document that was written."""
    document = chrome_trace(cluster)
    with open(path, "w") as fh:
        json.dump(document, fh, indent=1)
    return document
