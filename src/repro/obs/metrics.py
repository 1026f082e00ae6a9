"""Counters and sim-time histograms (the metrics half of ``repro.obs``).

Design constraints, in priority order:

1. **Determinism** — recording a metric never schedules a kernel event,
   never draws from an RNG, and never reads the wall clock. Histograms
   are driven off ``env.now`` differences, which are pure functions of
   the simulated run, so two same-seed runs produce bit-identical
   snapshots (``fingerprint.py --with-obs`` asserts the stronger claim:
   the simulated timeline itself does not move).
2. **Near-zero overhead when disabled** — nothing in this module runs
   unless observability was enabled on the cluster. Hot paths cache the
   registry at construction (``self._obs = node.metrics``, default
   ``None``) and guard every instrumentation point with one attribute
   check.
3. **Cheap when enabled** — instrumented code does no metric arithmetic.
   Counters that mirror an always-on tally the hot path maintains anyway
   (``tuples_sent``, ``segments_sent``, ``CompletionQueue.pushed``, …)
   are not bumped per event at all: the owner registers a **collector**
   and the registry harvests the absolute value at read time. Histogram
   samples go to the plane log (``repro.obs.log``) as raw values and are
   folded into :class:`Histogram` state when somebody reads. Only rare
   events (backoff rounds, failures, CQ errors) pay a live :meth:`inc`.
"""

from __future__ import annotations

from repro.common.planelog import OBSERVE

#: Raw records the plane log may hold before :meth:`MetricsRegistry.bound`
#: folds them: the log's memory bound, and the size of one fold chunk.
FOLD_RECORDS = 256


class Histogram:
    """Fixed-bucket power-of-two histogram with count/sum/min/max.

    Bucket ``i`` holds values ``v`` with ``int(v).bit_length() == i``,
    i.e. ``v == 0`` lands in bucket 0, ``1`` in bucket 1, ``2-3`` in
    bucket 2, ``4-7`` in bucket 3, and so on. Power-of-two buckets keep
    recording branch-free and make snapshots seed-stable: the bucket of
    a latency is a pure function of the simulated value.
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0
        self.min: "int | None" = None
        self.max: "int | None" = None
        self.buckets: dict[int, int] = {}

    def record(self, value: float) -> None:
        """Record one sample (negative samples clamp to zero)."""
        self.record_many((value,))

    def record_many(self, values) -> None:
        """Record a non-empty batch of samples (what the fold calls, once
        per histogram and chunk)."""
        samples = [int(v) if v > 0 else 0 for v in values]
        self.count += len(samples)
        self.total += sum(samples)
        low, high = min(samples), max(samples)
        if self.min is None or low < self.min:
            self.min = low
        if self.max is None or high > self.max:
            self.max = high
        buckets = self.buckets
        for bucket in map(int.bit_length, samples):
            buckets[bucket] = buckets.get(bucket, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> int:
        """Deterministic percentile estimate from the power-of-two
        buckets, **upper-bound convention**: the estimate is the largest
        value of the smallest bucket whose cumulative count reaches
        ``ceil(p * count)`` — i.e. ``2**bucket - 1`` (bucket 0 -> 0),
        clamped to the observed ``max``. The true percentile is never
        above the estimate. Pure integer arithmetic on the bucket
        counts, so same-seed runs report bit-identical percentiles."""
        if not self.count:
            return 0
        if p <= 0.0:
            return self.min or 0
        need = -((-int(p * self.count * 1000000)) // 1000000)  # ceil
        if need > self.count:
            need = self.count
        cumulative = 0
        for bucket in sorted(self.buckets):
            cumulative += self.buckets[bucket]
            if cumulative >= need:
                upper = (1 << bucket) - 1 if bucket else 0
                return min(upper, self.max)
        return self.max or 0

    def percentiles(self) -> dict:
        """The p50/p90/p99 trio shown in reports."""
        return {"p50": self.percentile(0.50),
                "p90": self.percentile(0.90),
                "p99": self.percentile(0.99)}

    def snapshot(self) -> dict:
        """JSON-friendly dict view (buckets keyed by bit length)."""
        snap = {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": dict(sorted(self.buckets.items())),
        }
        snap.update(self.percentiles())
        return snap

    def __repr__(self) -> str:
        return (f"<Histogram n={self.count} mean={self.mean:.1f} "
                f"min={self.min} max={self.max}>")


class MetricsRegistry:
    """Per-node registry of named counters and histograms.

    Metric names are dot-namespaced strings (``core.tuples_pushed``,
    ``rdma.doorbell_trains``, …) — see ``docs/observability.md`` for the
    full catalog. Counters are created on first increment; reading an
    absent counter via :meth:`get` returns 0.

    Counter values come from two places, merged at read time:

    - ``counters`` — live increments via :meth:`inc` (cold/rare events:
      backoff rounds, failures, CQ errors, …).
    - ``collectors`` — zero-argument callables returning
      ``(name, absolute_value)`` pairs harvested from always-on tallies
      the hot path maintains regardless of observability (channel
      ``tuples_sent``/``segments_sent``, QP WQE tallies, CQ ``pushed``).
      Registering a collector instead of calling :meth:`inc` per event
      makes those names free on the hot path; contributions for the
      same name (e.g. several channels on one node) are summed.
    """

    __slots__ = ("node_id", "counters", "_histograms", "collectors",
                 "plane", "log", "causal")

    def __init__(self, node_id: int, plane) -> None:
        self.node_id = node_id
        self.counters: dict[str, int] = {}
        self._histograms: dict[str, Histogram] = {}
        self.collectors: list = []
        #: The owning ``ObsPlane`` and its record log's bound ``append``:
        #: the registry is the one handle instrumented code caches,
        #: ``log`` is what it calls.
        self.plane = plane
        self.log = plane.records.append
        #: Whether the plane derives causal edges: sites that log nothing
        #: but a span (``WQE`` / ``EDGE`` records) skip it when false.
        self.causal = plane.causal is not None

    def bound(self) -> None:
        """The plane log's memory bound: fold it once it holds a full
        chunk. ``log`` is a bare ``list.append``; queue pairs call this
        every 16th post — whatever logs at volume posts in proportion."""
        if len(self.plane.records) >= FOLD_RECORDS:
            self.plane.fold()

    @property
    def histograms(self) -> dict:
        """Histograms by name, with every logged sample folded in."""
        self.plane.fold()
        return self._histograms

    # -- recording --------------------------------------------------------
    def inc(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (created at 0)."""
        try:
            self.counters[name] += amount
        except KeyError:
            self.counters[name] = amount

    def histogram(self, name: str) -> Histogram:
        """Get (or create) the histogram called ``name``."""
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram()
        return hist

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into histogram ``name`` (via the plane log)."""
        self.log((OBSERVE, self, name, value))

    def add_collector(self, collector) -> None:
        """Register a read-time counter source: a zero-argument callable
        returning an iterable of ``(name, absolute_value)`` pairs. Called
        on every read (:meth:`get`/:meth:`snapshot`/:meth:`report`), so
        collectors must be cheap, pure reads of always-on tallies."""
        self.collectors.append(collector)

    # -- reading ----------------------------------------------------------
    def _merged_counters(self) -> dict:
        """Live counters plus every collector's harvest, summed by name.
        Zero-valued harvested names are dropped so idle sources do not
        clutter snapshots with rows that never fired."""
        merged = dict(self.counters)
        for collector in self.collectors:
            for name, value in collector():
                if value:
                    merged[name] = merged.get(name, 0) + value
        return merged

    def get(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented),
        including harvested collector contributions."""
        return self._merged_counters().get(name, 0)

    def snapshot(self) -> dict:
        """JSON-friendly dict of every counter and histogram."""
        return {
            "counters": dict(sorted(self._merged_counters().items())),
            "histograms": {name: hist.snapshot() for name, hist
                           in sorted(self.histograms.items())},
        }

    def report(self) -> str:
        """Compact text table of this registry's metrics."""
        lines = [f"node {self.node_id}"]
        for name, value in sorted(self._merged_counters().items()):
            lines.append(f"  {name:<40} {value:>14}")
        for name, hist in sorted(self.histograms.items()):
            pct = hist.percentiles()
            lines.append(
                f"  {name:<40} {hist.count:>14}  "
                f"mean={hist.mean:.0f} min={hist.min} max={hist.max} "
                f"p50<={pct['p50']} p90<={pct['p90']} p99<={pct['p99']}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"<MetricsRegistry node={self.node_id} "
                f"counters={len(self.counters)} "
                f"histograms={len(self._histograms)}>")


def render_report(snapshot: dict) -> str:
    """Render ``Cluster.metrics_snapshot()`` output as one text table.

    Sections: per-node flow/RDMA metrics (only nodes that recorded
    anything), then the always-on infrastructure tallies (NICs, links,
    fabric) harvested from the simulator's built-in counters.
    """
    lines = ["=== metrics report ==="]
    nodes = snapshot.get("nodes", {})
    if not nodes:
        lines.append("(observability disabled: no per-node registries)")
    for node_id in sorted(nodes):
        entry = nodes[node_id]
        lines.append(f"node {node_id}")
        for name, value in sorted(entry.get("counters", {}).items()):
            lines.append(f"  {name:<40} {value:>14}")
        for name, hist in sorted(entry.get("histograms", {}).items()):
            count, total = hist["count"], hist["sum"]
            mean = total / count if count else 0.0
            line = (f"  {name:<40} {count:>14}  mean={mean:.0f} "
                    f"min={hist['min']} max={hist['max']}")
            if "p50" in hist:
                line += (f" p50<={hist['p50']} p90<={hist['p90']} "
                         f"p99<={hist['p99']}")
            lines.append(line)
    nics = snapshot.get("nics", {})
    if nics:
        lines.append("nics")
        for node_id in sorted(nics):
            stats = nics[node_id]
            lines.append(
                f"  node{node_id}: wqes={stats['wqes_processed']} "
                f"bytes_posted={stats['bytes_posted']} "
                f"doorbell_trains={stats['doorbell_trains']} "
                f"rx_dropped={stats['rx_dropped_no_recv']} "
                f"engine_wait={stats.get('engine_wait_ns', 0)}ns")
    links = snapshot.get("links", {})
    if links:
        lines.append("links")
        for name in sorted(links):
            stats = links[name]
            lines.append(
                f"  {name}: bytes={stats['bytes_carried']} "
                f"messages={stats['messages_carried']} "
                f"trains={stats['trains_carried']} "
                f"hol_wait={stats.get('hol_wait_ns', 0)}ns")
    fabric = snapshot.get("fabric")
    if fabric:
        lines.append("fabric")
        lines.append(
            f"  unicast={fabric['unicast_count']} "
            f"trains={fabric['unicast_trains']} "
            f"multicast={fabric['multicast_count']} "
            f"multicast_drops={fabric['multicast_drops']} "
            f"fault_drops={fabric['fault_drops']}")
    rings = snapshot.get("trace_rings", {})
    if rings:
        lines.append("trace rings")
        for flow in sorted(rings):
            stats = rings[flow]
            line = (f"  {flow}: kept={stats['kept']} "
                    f"dropped={stats['dropped']} "
                    f"capacity={stats['capacity']}")
            if stats["dropped"]:
                line += "  (TRUNCATED: oldest events overwritten)"
            lines.append(line)
    causal = snapshot.get("causal")
    if causal:
        lines.append("causal edge logs")
        lines.append(f"  edges={causal['edges']} flows_closed="
                     f"{causal['flows_closed']}")
        for node, dropped in sorted(causal.get("dropped", {}).items()):
            lines.append(f"  node{node}: dropped={dropped} "
                         f"(TRUNCATED edge log)")
    return "\n".join(lines)
