"""``repro.obs`` — the observability plane: counters, sim-time
histograms and per-flow event tracing across simnet/rdma/core.

Usage::

    cluster = Cluster(node_count=4)
    cluster.enable_observability()          # before opening endpoints
    ... run the flow ...
    print(render_report(cluster.metrics_snapshot()))
    export_chrome_trace(cluster, "run.trace.json")   # if tracing was on

Determinism contract (see ``docs/observability.md``): enabling the plane
schedules zero kernel events and draws from zero RNG streams — it only
reads ``env.now`` and appends to a Python list — so the simulated
timeline of any run is bit-identical with observability on or off
(``benchmarks/perf/fingerprint.py --with-obs`` asserts this for all 15
fingerprint scenarios). Hot paths pay one attribute check when the plane
is off: endpoints cache ``node.metrics`` (default ``None``) at
construction, which is also why the plane must be enabled *before*
opening flow endpoints or creating queue pairs. With the plane on they
log one record per doorbell train / drain pass / rare event; histograms,
trace events and causal edges are derived on read (``repro.obs.log``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common import planelog
from repro.obs import log
from repro.obs.causal import (
    BLAME_CATEGORIES,
    DEFAULT_EDGE_CAPACITY,
    CausalError,
    CausalRecorder,
    analyze_cluster,
    blame_json,
    critical_path,
    flow_report,
    render_blame,
)
from repro.obs.metrics import Histogram, MetricsRegistry, render_report
from repro.obs.trace import (
    BACKOFF,
    CREDIT,
    DEFAULT_TRACE_CAPACITY,
    ECN_MARK,
    FAULT_DETECT,
    FAULT_INJECT,
    FLOW_CLOSE,
    FOOTER_POLL,
    PREREAD,
    RATE_CHANGE,
    REROUTE,
    RETRANSMIT,
    SEG_CONSUME,
    SEG_WRITE,
    FlowTracer,
    chrome_trace,
    export_chrome_trace,
)

if TYPE_CHECKING:
    from repro.simnet.cluster import Cluster


class ObsPlane:
    """Observability state for one cluster: the record log the data path
    appends to, and the stores :meth:`fold` derives from it — per-node
    registries, per-flow trace rings, the causal recorder."""

    __slots__ = ("cluster", "registries", "tracers", "trace_all",
                 "trace_capacity", "records", "stamps", "samples", "resolved",
                 "causal")

    def __init__(self, cluster: "Cluster", trace: bool = False,
                 trace_capacity: int = DEFAULT_TRACE_CAPACITY,
                 causal: bool = False) -> None:
        self.cluster = cluster
        #: Trace every flow, regardless of its ``FlowOptions.trace`` knob
        #: (harness mode — what ``fingerprint.py --with-obs`` uses).
        self.trace_all = bool(trace)
        self.trace_capacity = trace_capacity
        #: The plane log (``repro.obs.log``), cleared in place by every
        #: fold: the bound ``append`` the registries hand out stays valid.
        self.records: list = []
        #: Fold-time state of the write->consume latency join: per target
        #: ring ``(node_id, rkey)`` the write time of each ring slot.
        self.stamps: dict[tuple, list] = {}
        #: Fold-time batches: ``(registry, histogram name) -> samples`` of
        #: the chunk being folded (emptied into the histogram at its end).
        self.samples: dict[tuple, list] = {}
        #: Fold-time cache: what a queue pair's or flow endpoint's records
        #: resolve to (ids, labels, the ``append`` of its rings/batches).
        self.resolved: dict = {}
        #: Causal-edge recorder (``None`` unless ``causal=True``).
        self.causal = CausalRecorder(self.fold) if causal else None
        self.registries: dict[int, MetricsRegistry] = {}
        self.tracers: dict[str, FlowTracer] = {}

    #: Derive everything logged so far into the stores. Every reading
    #: accessor calls this.
    fold = log.fold

    def enable_causal(self) -> None:
        """Derive causal edges from the records logged from now on."""
        if self.causal is None:
            self.fold()
            self.causal = CausalRecorder(self.fold)
            self.resolved.clear()  # entries resolved "no edge ring"
            for registry in self.registries.values():
                registry.causal = True

    def registry(self, node_id: int) -> MetricsRegistry:
        """Get (or create) the registry of ``node_id``."""
        registry = self.registries.get(node_id)
        if registry is None:
            registry = self.registries[node_id] = MetricsRegistry(node_id,
                                                                  self)
        return registry

    def tracer(self, flow: str, requested) -> "FlowTracer | None":
        """Resolve the tracer for ``flow``: ``requested`` is the flow's
        ``FlowOptions.trace`` value (``None``/``False`` off, ``True`` on
        at the plane capacity, an ``int`` on with that capacity). The
        plane's ``trace_all`` overrides an un-requested flow."""
        if not requested and not self.trace_all:
            return None
        tracer = self.tracers.get(flow)
        if tracer is None:
            capacity = (requested if isinstance(requested, int)
                        and not isinstance(requested, bool) and requested > 0
                        else self.trace_capacity)
            self.fold()  # what was logged so far predates the ring
            tracer = self.tracers[flow] = FlowTracer(flow, capacity,
                                                     self.fold)
            self.resolved.clear()  # entries resolved "flow not traced"
        return tracer

    def snapshot(self) -> dict:
        """Per-node registry snapshots (the ``"nodes"`` section of
        ``Cluster.metrics_snapshot()``)."""
        return {node_id: registry.snapshot()
                for node_id, registry in sorted(self.registries.items())}


def endpoint_obs(node, flow: str, options, endpoint):
    """Resolve the observability handle of ``endpoint``, opening on
    ``node`` — the node's registry, or ``None`` when observability is
    off — creating the flow's trace ring if the flow is traced,
    registering the endpoint's counter harvest and logging the open. A
    ``FlowOptions(trace=...)`` request auto-enables the plane so opt-in
    tracing needs no ``enable_observability()`` call."""
    cluster = node.cluster
    plane = cluster.obs
    requested = getattr(options, "trace", None)
    if plane is None:
        if not requested:
            return None
        plane = cluster.enable_observability()
    plane.tracer(flow, requested)
    obs = node.metrics
    obs.add_collector(endpoint._collect_obs)
    obs.log((planelog.OPEN, node.env.now, flow))
    return obs


def log_event(endpoint, kind: str, detail) -> None:
    """Log one rare trace event of ``endpoint`` (its ``_obs`` is on)."""
    endpoint._obs.log((planelog.EVENT, endpoint.node.env.now, kind,
                       endpoint._flow, endpoint.node.node_id,
                       endpoint._tid, detail))


def log_stall(endpoint, since: float) -> None:
    """Log the ``credit_stall`` edge of a wait from ``since`` to now."""
    obs = endpoint._obs
    if obs.causal:
        obs.log((planelog.EDGE, endpoint.node.env.now, since, "credit_stall",
                 endpoint.node.node_id, endpoint._tid, endpoint._flow, None))


def log_close(endpoint, detail=None) -> None:
    """Log a source's close marker: the ``FLOW_CLOSE`` trace event plus
    the causal close stamp."""
    endpoint._obs.log((planelog.CLOSE, endpoint.node.env.now, endpoint._flow,
                       endpoint.node.node_id, endpoint._tid, detail))


# -- default-observability hook (fingerprint --with-obs) ---------------------
#: When enabled, every newly built Cluster turns observability on in its
#: constructor — lets the fingerprint harness prove counters+tracing cause
#: zero timeline drift even for clusters built deep inside bench helpers.
_default: "dict | None" = None


def set_default_observability(enabled: bool, trace: bool = False,
                              causal: bool = False) -> None:
    """Enable (or clear) observability on every cluster created from now
    on. Intended for harnesses, not applications."""
    global _default
    _default = ({"trace": bool(trace), "causal": bool(causal)}
                if enabled else None)


def _install_default(cluster: "Cluster") -> None:
    if _default is not None:
        cluster.enable_observability(**_default)


__all__ = [
    "ObsPlane",
    "MetricsRegistry",
    "Histogram",
    "FlowTracer",
    "CausalRecorder",
    "CausalError",
    "analyze_cluster",
    "blame_json",
    "critical_path",
    "flow_report",
    "render_blame",
    "BLAME_CATEGORIES",
    "DEFAULT_EDGE_CAPACITY",
    "render_report",
    "chrome_trace",
    "export_chrome_trace",
    "endpoint_obs",
    "log_event",
    "log_close",
    "log_stall",
    "set_default_observability",
    "DEFAULT_TRACE_CAPACITY",
    "SEG_WRITE", "SEG_CONSUME", "FOOTER_POLL", "PREREAD", "CREDIT",
    "BACKOFF", "RETRANSMIT", "REROUTE", "FAULT_INJECT", "FAULT_DETECT",
    "FLOW_CLOSE", "ECN_MARK", "RATE_CHANGE",
]
