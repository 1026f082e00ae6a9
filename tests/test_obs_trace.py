"""Tests for the per-flow trace ring and the Chrome trace exporter.

Covers the ring-bound contract (most recent ``capacity`` events kept,
``dropped`` counts the rest), the ``trace_event`` JSON schema of the
exporter, and the chaos integration: a seeded ``FaultPlan.random`` run
must export fault-injection instants at their *planned* simulated times
plus live ``FAULT_DETECT`` events from the flow layer.

The last two classes pin the plane-log design (``repro.obs.log``):
everything an export contains is derived at read time from train- and
pass-level records, and must be byte-identical to what per-event live
recording produced — for unbounded rings (sha256 of the exports of four
scenarios, captured before the data path stopped recording per WQE) and
for rings that wrap, however the reads interleave with the run.
"""

import hashlib
import json

import pytest

from repro.common import HardwareProfile
from repro.common.planelog import EVENT
from repro.common.errors import (
    FlowAbortedError,
    FlowPeerFailedError,
    FlowTimeoutError,
)
from repro.core import (
    FLOW_END,
    DfiRuntime,
    Endpoint,
    FlowOptions,
    Optimization,
    Schema,
)
from repro.obs import (
    BACKOFF,
    CREDIT,
    FAULT_DETECT,
    FAULT_INJECT,
    FLOW_CLOSE,
    FOOTER_POLL,
    PREREAD,
    SEG_CONSUME,
    SEG_WRITE,
    chrome_trace,
    export_chrome_trace,
)
from repro.simnet import Cluster, CongestionConfig, FaultPlan

SCHEMA = Schema(("key", "uint64"), ("value", "uint64"))
_FLOW_ERRORS = (FlowPeerFailedError, FlowTimeoutError, FlowAbortedError)


class TestTraceRing:
    @staticmethod
    def _traced(capacity):
        """A plane, and the ring its fold fills for flow ``f``."""
        plane = Cluster(node_count=1).enable_observability()
        return plane.records.append, plane.tracer("f", capacity)

    def test_ring_keeps_most_recent_events(self):
        log, tracer = self._traced(4)
        for i in range(10):
            log((EVENT, float(i), SEG_WRITE, "f", 0, "s0", {"seq": i}))
        assert len(tracer) == 4
        assert tracer.dropped == 6
        assert tracer.emitted == 10
        kept = [event[4]["seq"] for event in tracer.events()]
        assert kept == [6, 7, 8, 9]  # oldest overwritten, order preserved

    def test_ring_under_capacity(self):
        log, tracer = self._traced(8)
        log((EVENT, 1.0, SEG_WRITE, "f", 0, "s0", None))
        log((EVENT, 2.0, SEG_CONSUME, "f", 1, "t0", {"seq": 0}))
        assert len(tracer) == 2 and tracer.dropped == 0
        assert [event[1] for event in tracer.events()] == [SEG_WRITE,
                                                           SEG_CONSUME]

    def test_flow_options_capacity_respected(self):
        cluster = Cluster(node_count=2)
        dfi = DfiRuntime(cluster)
        dfi.init_shuffle_flow(
            "tiny", [Endpoint(0, 0)], [Endpoint(1, 0)], SCHEMA,
            shuffle_key="key",
            options=FlowOptions(segment_size=128, trace=4))

        def src():
            source = yield from dfi.open_source("tiny", 0)
            for i in range(64):
                yield from source.push((i, i))
            yield from source.close()

        def tgt():
            target = yield from dfi.open_target("tiny", 0)
            while (yield from target.consume()) is not FLOW_END:
                pass

        cluster.env.process(src())
        cluster.env.process(tgt())
        cluster.run()
        tracer = cluster.obs.tracers["tiny"]
        assert tracer.capacity == 4
        assert len(tracer) == 4
        assert tracer.emitted > 4 and tracer.dropped == tracer.emitted - 4


class TestChromeExport:
    def _traced_run(self):
        cluster = Cluster(node_count=2)
        cluster.enable_observability(trace=True)
        dfi = DfiRuntime(cluster)
        dfi.init_shuffle_flow("flow", [Endpoint(0, 0)], [Endpoint(1, 0)],
                              SCHEMA, shuffle_key="key",
                              options=FlowOptions(segment_size=128))

        def src():
            source = yield from dfi.open_source("flow", 0)
            for i in range(16):
                yield from source.push((i, i))
            yield from source.close()

        def tgt():
            target = yield from dfi.open_target("flow", 0)
            while (yield from target.consume()) is not FLOW_END:
                pass

        cluster.env.process(src())
        cluster.env.process(tgt())
        cluster.run()
        return cluster

    def test_document_schema(self):
        document = chrome_trace(self._traced_run())
        assert set(document) == {"traceEvents", "displayTimeUnit", "reproObs"}
        events = document["traceEvents"]
        assert events
        for event in events:
            assert {"name", "ph", "pid", "tid"} <= set(event)
            assert event["ph"] in ("i", "M")
            if event["ph"] == "i":
                assert event["ts"] >= 0
                assert isinstance(event["pid"], int)
        # json round-trip: the document must be plain-JSON serializable.
        assert json.loads(json.dumps(document)) == document

    def test_instants_cover_both_sides(self):
        document = chrome_trace(self._traced_run())
        names = {event["name"] for event in document["traceEvents"]}
        assert SEG_WRITE in names and SEG_CONSUME in names
        pids = {event["pid"] for event in document["traceEvents"]
                if event["ph"] == "i"}
        assert pids == {0, 1}  # source node and target node

    def test_export_writes_loadable_json(self, tmp_path):
        path = tmp_path / "run.trace.json"
        document = export_chrome_trace(self._traced_run(), str(path))
        assert json.loads(path.read_text()) == document

    def test_timestamps_are_microseconds(self):
        cluster = self._traced_run()
        tracer = cluster.obs.tracers["flow"]
        first_ns = tracer.events()[0][0]
        document = chrome_trace(cluster)
        instants = [event for event in document["traceEvents"]
                    if event["ph"] == "i"]
        assert instants[0]["ts"] == first_ns / 1000.0


class TestChaosTrace:
    def _chaos_run(self, seed=3):
        """Seeded chaos shuffle (the test_chaos_faults harness shape)
        with tracing on: faults get injected and the flow layer detects
        peer failures at simulated times the plan pins exactly. Pushes
        enough tuples (6000, ~380 us simulated) that the flow is still
        live when the plan window (50-800 us) starts firing."""
        cluster = Cluster(node_count=5, seed=seed)
        plan = FaultPlan.random(seed, node_ids=range(5), start=50_000.0,
                                horizon=800_000.0, entry_count=3,
                                protected=(0,))
        cluster.install_faults(plan, detection_timeout=60_000.0)
        cluster.enable_observability(trace=True)
        dfi = DfiRuntime(cluster)
        options = FlowOptions(
            segment_size=256, source_segments=4, target_segments=8,
            credit_threshold=2, peer_timeout=200_000.0,
            max_backoff_retries=32, max_retransmits=8)
        dfi.init_shuffle_flow("chaos", ["node1|0", "node2|0"],
                              ["node3|0", "node4|0"], SCHEMA,
                              shuffle_key="key", options=options)

        def source_thread(index):
            try:
                source = yield from dfi.open_source("chaos", index)
                for i in range(6000):
                    yield from source.push((i, 1))
                yield from source.close()
            except _FLOW_ERRORS:
                pass

        def target_thread(index):
            try:
                target = yield from dfi.open_target("chaos", index)
                while (yield from target.consume()) is not FLOW_END:
                    pass
            except _FLOW_ERRORS:
                pass

        for node_id, index in ((1, 0), (2, 1)):
            cluster.node(node_id).spawn(source_thread(index))
        for node_id, index in ((3, 0), (4, 1)):
            cluster.node(node_id).spawn(target_thread(index))
        cluster.run(until=8_000_000.0)
        return cluster, plan

    def test_fault_plan_instants_at_planned_times(self):
        cluster, plan = self._chaos_run()
        document = chrome_trace(cluster)
        injected = [event for event in document["traceEvents"]
                    if event["name"] == FAULT_INJECT]
        assert len(injected) == len(plan.entries)
        planned_ts = sorted(entry.at / 1000.0 for entry in plan.entries)
        assert sorted(event["ts"] for event in injected) == planned_ts
        for event in injected:
            assert event["cat"] == "faults"
            assert "kind" in event["args"]

    def test_chaos_seed_emits_fault_detection(self):
        # Seed 3 crashes flow peers (same plan test_chaos_faults runs);
        # the surviving endpoints must diagnose it as FAULT_DETECT.
        cluster, _plan = self._chaos_run(seed=3)
        names = [event[1]
                 for tracer in cluster.obs.tracers.values()
                 for event in tracer.events()]
        assert FAULT_DETECT in names
        detected = sum(registry.get("core.peer_failures_detected")
                       for registry in cluster.obs.registries.values())
        assert detected > 0

    def test_chaos_trace_exports_clean_json(self, tmp_path):
        cluster, _plan = self._chaos_run()
        path = tmp_path / "chaos.trace.json"
        document = export_chrome_trace(cluster, str(path))
        reloaded = json.loads(path.read_text())
        assert reloaded == document
        assert any(event["name"] == FAULT_INJECT
                   for event in reloaded["traceEvents"])


class TestFlowCloseEvents:
    """Every source flavour must emit FLOW_CLOSE on close *and* abort
    with tracing on (regression: the replicate sources once referenced
    a nonexistent ``self.env`` on these cold paths, which only trips
    when a traced flow actually closes)."""

    def _run_flow(self, kind, finish):
        cluster = Cluster(node_count=3)
        cluster.enable_observability(trace=True)
        dfi = DfiRuntime(cluster)
        if kind in ("replicate", "multicast"):
            dfi.init_replicate_flow(
                "f", [Endpoint(0, 0)], [Endpoint(1, 0), Endpoint(2, 0)],
                SCHEMA, options=FlowOptions(
                    segment_size=128, multicast=(kind == "multicast")))
        else:
            dfi.init_shuffle_flow(
                "f", [Endpoint(0, 0)], [Endpoint(1, 0), Endpoint(2, 0)],
                SCHEMA, shuffle_key="key",
                optimization=Optimization(kind),
                options=FlowOptions(segment_size=128))
        target_count = 2

        def src():
            source = yield from dfi.open_source("f", 0)
            for i in range(8):
                yield from source.push((i, i))
            if finish == "close":
                yield from source.close()
            else:
                yield from source.abort()

        def tgt(index):
            try:
                target = yield from dfi.open_target("f", index)
                while (yield from target.consume()) is not FLOW_END:
                    pass
            except FlowAbortedError:
                pass

        cluster.env.process(src())
        for index in range(target_count):
            cluster.env.process(tgt(index))
        cluster.run()
        return cluster

    @pytest.mark.parametrize("finish", ["close", "abort"])
    @pytest.mark.parametrize(
        "kind", ["bandwidth", "latency", "replicate", "multicast"])
    def test_flow_close_traced(self, kind, finish):
        cluster = self._run_flow(kind, finish)
        closes = [event for tracer in cluster.obs.tracers.values()
                  for event in tracer.events() if event[1] == FLOW_CLOSE]
        assert closes, f"no FLOW_CLOSE from {kind} {finish}"
        aborted = any((event[4] or {}).get("aborted") for event in closes)
        assert aborted == (finish == "abort")


# -- export identity & ring capacity (the plane-log contract) ----------------

def _drain(dfi, flow, index, batch=False):
    target = yield from dfi.open_target(flow, index)
    while True:
        got = yield from (target.consume_batch() if batch
                          else target.consume())
        if got is FLOW_END:
            return


def _observed_cluster(node_count, capacity=None, **kwargs):
    """Cluster with tracing and causal recording on; ``capacity`` bounds
    every trace ring and every per-node edge log."""
    cluster = Cluster(node_count=node_count, **kwargs)
    cluster.enable_observability(trace=True, causal=True,
                                 trace_capacity=capacity)
    if capacity is not None:
        cluster.obs.causal.capacity = capacity
    return cluster


def _batched_shuffle(capacity=None, mid_run=None, tuples=2048):
    """1:4 bandwidth shuffle, ``push_batch`` trains plus a per-tuple
    tail. ``mid_run(cluster)`` is called from the source process half
    way through the batches."""
    cluster = _observed_cluster(5, capacity)
    dfi = DfiRuntime(cluster)
    dfi.init_shuffle_flow(
        "flow", [Endpoint(0, 0)], [Endpoint(1 + n, 0) for n in range(4)],
        SCHEMA, shuffle_key="key",
        options=FlowOptions(segment_size=256, source_segments=4,
                            target_segments=8))
    rows = [(i * 2654435761 % 2 ** 32, i) for i in range(tuples)]

    def source():
        src = yield from dfi.open_source("flow", 0)
        for start in range(0, len(rows), 256):
            if mid_run is not None and start == tuples // 2:
                mid_run(cluster)
            yield from src.push_batch(rows[start:start + 256])
        for row in rows[:37]:
            yield from src.push(row)
        yield from src.close()

    cluster.env.process(source())
    for index in range(4):
        cluster.env.process(_drain(dfi, "flow", index, batch=True))
    cluster.run()
    return cluster


def _latency_pingpong():
    cluster = _observed_cluster(3)
    dfi = DfiRuntime(cluster)
    options = FlowOptions(target_segments=8, credit_threshold=2)
    client, servers = [Endpoint(0, 0)], [Endpoint(1, 0), Endpoint(2, 0)]
    for name, sources, targets in (("ping", client, servers),
                                   ("pong", servers, client)):
        dfi.init_shuffle_flow(name, sources, targets, SCHEMA,
                              shuffle_key="key",
                              optimization=Optimization.LATENCY,
                              options=options)

    def client_proc():
        ping = yield from dfi.open_source("ping", 0)
        pong = yield from dfi.open_target("pong", 0)
        for i in range(60):
            yield from ping.push((i * 7919, i))
            yield from pong.consume()
        yield from ping.close()
        while (yield from pong.consume()) is not FLOW_END:
            pass

    def server_proc(index):
        ping = yield from dfi.open_target("ping", index)
        pong = yield from dfi.open_source("pong", index)
        while True:
            request = yield from ping.consume()
            if request is FLOW_END:
                yield from pong.close()
                return
            yield from pong.push(request)

    cluster.env.process(client_proc())
    for index in range(2):
        cluster.env.process(server_proc(index))
    cluster.run()
    return cluster


def _lossy_multicast():
    cluster = _observed_cluster(
        4, seed=7, profile=HardwareProfile(multicast_loss_probability=0.05))
    dfi = DfiRuntime(cluster)
    dfi.init_replicate_flow(
        "rep", [Endpoint(0, 0)], [Endpoint(1 + n, 0) for n in range(3)],
        SCHEMA, options=FlowOptions(segment_size=256, source_segments=4,
                                    target_segments=16, credit_threshold=8,
                                    multicast=True))
    rows = [(i, i * i) for i in range(1200)]

    def source():
        src = yield from dfi.open_source("rep", 0)
        for start in range(0, len(rows), 200):
            yield from src.push_batch(rows[start:start + 200])
        yield from src.close()

    cluster.env.process(source())
    for index in range(3):
        cluster.env.process(_drain(dfi, "rep", index))
    cluster.run()
    return cluster


def _congested_incast():
    senders = 6
    cluster = _observed_cluster(1 + senders)
    dfi = DfiRuntime(cluster)
    dfi.init_shuffle_flow(
        "incast", [Endpoint(1 + n, 0) for n in range(senders)],
        [Endpoint(0, 0)], SCHEMA, shuffle_key="key",
        options=FlowOptions(congestion=CongestionConfig.datacenter()))
    rows = [(i, i) for i in range(1024)]

    def source(index):
        src = yield from dfi.open_source("incast", index)
        for _ in range(24):
            yield from src.push_batch(rows, target=0)
        yield from src.close()

    for index in range(senders):
        cluster.node(1 + index).spawn(source(index))
    cluster.node(0).spawn(_drain(dfi, "incast", 0, batch=True))
    cluster.run()
    return cluster


def _sha(document) -> str:
    return hashlib.sha256(
        json.dumps(document, sort_keys=True).encode()).hexdigest()


class TestExportIdentity:
    """sha256 of ``json.dumps(..., sort_keys=True)`` of the three export
    surfaces — ``metrics_snapshot()["nodes"]``, ``chrome_trace(cluster)``,
    ``cluster.obs.causal.export()`` — captured on the commit that still
    recorded every trace event and causal edge live, call by call."""

    @pytest.mark.parametrize("build, nodes, trace, causal", [
        (_batched_shuffle,
         "94441e9fe84b337a3030259c5bf0923c993b15775d151759b31a072d72392c89",
         "e77415cb2eff25075f37a21c0d3d3284d3ee7369d6d640b7fcd4187609ccbe1c",
         "cdfb37dd86bcbecf617048a9585a37b8b670cc308ea3b9d23f98377265e1520d"),
        (_latency_pingpong,
         "5155336b32d7b4b71edc889ca08cbb6af66d8c33889eafa05d6e0b36eec17089",
         "da75c0c0b373969e4712a8ea2828df2bf20f33eccd68aa04dc2c34e8ea300b65",
         "e38417b0daef2423e6ccb778c6cef3e7e31cb577696cac46129aba83a191a119"),
        # Re-based when the multicast source got its one credit wait: the
        # waits in close() count as core.credit_stalls, guard timers a
        # credit write beat leave the kernel queue (1135 -> 1094 events),
        # and the close marker's first resend comes at its round's end,
        # 1.28 ns earlier. Same 12 retransmissions, same deliveries.
        (_lossy_multicast,
         "c2840092eeb608e21aab02894fb12deb488064be3ec288cbd61a666b7523165e",
         "65a5e814bf77835b03ca72016c578861e3b62be4fc7c8e5acd41aa69530ef145",
         "37aa0f048b66ffe7650e8093f4c3a3095d4d4c920b998efe4bde5fd08ddbab2f"),
        # Re-based when the plane lost its rate control: a mark no longer
        # slows its sender, so the 6:1 incast ends at 334.9 us instead of
        # 1049.6 us, with 49 marks instead of 28 and no RATE_CHANGE.
        # Re-based again when the plane stopped marking: the node metrics
        # lose the net.ecn_marks counter and net.mark_occupancy histogram,
        # the trace loses the "congestion" ring of 49 ECN_MARK events;
        # with those taken out of the old exports the hashes match, and
        # the causal export did not move.
        (_congested_incast,
         "719abc622c36dab17475e098725aaf45dd7321955faa5cf9d524dbd288e0b634",
         "05e3010267eefcafc9429506d9fd1eafbb735d2bcee0c0f1fea41197be65f3e8",
         "cbfa38467a7366e7b19e828333f200e38c79fa5c3f7f77b764a38a23902e91be"),
    ], ids=["batched-shuffle", "latency-pingpong", "lossy-multicast",
            "congested-incast"])
    def test_exports_match_live_recording(self, build, nodes, trace, causal):
        cluster = build()
        assert _sha(cluster.metrics_snapshot()["nodes"]) == nodes
        assert _sha(chrome_trace(cluster)) == trace
        assert _sha(cluster.obs.causal.export()) == causal


class TestBoundedRings:
    """A ring that wraps keeps the last-``capacity`` suffix of what an
    unbounded ring holds, whenever the plane log gets folded."""

    def _read(self, cluster):
        tracer = cluster.obs.tracers["flow"]
        recorder = cluster.obs.causal
        return {"events": tracer.events(), "kept": len(tracer),
                "dropped": tracer.dropped, "emitted": tracer.emitted,
                "edges": {node: list(ring.items)
                          for node, ring in recorder.logs.items()},
                "edges_dropped": recorder.dropped(),
                "nodes": cluster.metrics_snapshot()["nodes"]}

    def test_wrapped_rings_are_the_suffix_of_an_unbounded_run(self):
        full = self._read(_batched_shuffle())
        capped = self._read(_batched_shuffle(capacity=64))
        assert full["dropped"] == 0 and not full["edges_dropped"]
        assert capped["events"] == full["events"][-64:]
        assert capped["kept"] == 64
        assert capped["emitted"] == full["emitted"] == len(full["events"])
        assert capped["dropped"] == full["emitted"] - 64
        assert set(capped["edges"]) == set(full["edges"])
        for node, edges in full["edges"].items():
            assert capped["edges"][node] == edges[-64:]
            assert (capped["edges_dropped"].get(node, 0)
                    == max(0, len(edges) - 64))
        assert capped["nodes"] == full["nodes"]  # histograms see it all

    def test_mid_run_read_changes_nothing(self):
        """Folding half way (a ``metrics_snapshot()`` from inside the
        run) and again at the end equals reading once at the end."""
        seen = []
        once = self._read(_batched_shuffle(capacity=64))
        twice = self._read(_batched_shuffle(
            capacity=64, mid_run=lambda cluster: seen.append(
                cluster.metrics_snapshot()["trace_rings"]["flow"]["kept"])))
        assert seen and 0 < seen[0] <= 64
        assert twice == once

    def test_hot_path_folds_full_chunks(self, monkeypatch):
        """A run nobody reads does not grow the log without bound: queue
        pairs let the plane fold it in chunks (``MetricsRegistry.bound``,
        every 16th post), with the same result as one fold at the end."""
        monkeypatch.setattr("repro.obs.metrics.FOLD_RECORDS", 10 ** 9)
        unread = _batched_shuffle(tuples=16384)
        total = len(unread.obs.records)
        whole = self._read(unread)
        monkeypatch.setattr("repro.obs.metrics.FOLD_RECORDS", 16)
        backlog = []
        chunked = _batched_shuffle(
            tuples=16384,
            mid_run=lambda cluster: backlog.append(len(cluster.obs.records)))
        backlog.append(len(chunked.obs.records))
        assert total > 1500 and max(backlog) < 200
        assert chunked.obs.tracers["flow"].items  # derived during the run
        assert self._read(chunked) == whole


class TestStalledFlowsAreVisible:
    """Every stall the counters count is an event in the flow's trace,
    whoever holds the window: a shuffle channel or a replicate writer
    (whose stalls once counted and logged nothing)."""

    @pytest.mark.parametrize("mode", list(Optimization),
                             ids=lambda mode: mode.name)
    @pytest.mark.parametrize("kind", ["shuffle", "replicate"])
    def test_trace_events_equal_counters(self, kind, mode):
        cluster = Cluster(node_count=3)
        cluster.enable_observability(trace=True)
        dfi = DfiRuntime(cluster)
        options = FlowOptions(segment_size=128, source_segments=4,
                              target_segments=4, credit_threshold=1)
        targets = [Endpoint(1, 0), Endpoint(2, 0)]
        if kind == "shuffle":
            dfi.init_shuffle_flow("flow", [Endpoint(0, 0)], targets, SCHEMA,
                                  shuffle_key="key", optimization=mode,
                                  options=options)
        else:
            dfi.init_replicate_flow("flow", [Endpoint(0, 0)], targets,
                                    SCHEMA, optimization=mode,
                                    options=options)

        def src():
            source = yield from dfi.open_source("flow", 0)
            for i in range(200):
                yield from source.push((i, i))
            yield from source.close()

        def tgt(index):
            # A consumer slower than a footer or credit read round trip:
            # re-reads find nothing new and the source backs off.
            target = yield from dfi.open_target("flow", index)
            while (yield from target.consume()) is not FLOW_END:
                yield cluster.env.timeout(4000.0)

        cluster.env.process(src())
        for index in range(2):
            cluster.env.process(tgt(index))
        cluster.run()
        tracer = cluster.obs.tracers["flow"]
        assert not tracer.dropped
        events = {}
        for event in tracer.events():
            events[event[1]] = events.get(event[1], 0) + 1
        counters = cluster.metrics_snapshot()["nodes"][0]["counters"]
        rounds = counters["core.backoff_rounds"]
        assert rounds > 0
        assert events[BACKOFF] == rounds
        if mode is Optimization.LATENCY:
            assert events[CREDIT] == counters["core.credit_stalls"] > 0
        else:
            # One re-poll per backoff round, whatever the window.
            assert events[FOOTER_POLL] == rounds
            assert events[PREREAD] == (counters["core.preread_hits"]
                                       + counters["core.preread_misses"])
