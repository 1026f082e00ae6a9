"""Tests for the causal-edge recorder and the critical-path engine.

Covers the backward walk (exact decomposition, gap-to-cpu residual,
deterministic tie-breaks, context categories never walked), the bounded
edge log, ``Histogram`` percentile conventions, the end-to-end blame
report on a real shuffle, truncation warnings, the 32:1 incast
acceptance bar (>=50% of completion-time inflation attributed to
congestion hold-off + ECN pacing), fault-plan attribution, byte-exact
blame JSON across shard counts, and the ``repro.obs.analyze`` CLI
(golden output + exit-code contract).
"""

import json
import os
import subprocess
import sys

import pytest

from repro import obs
from repro.common.planelog import CLOSE, EDGE, OPEN
from repro.bench.flows import measure_incast
from repro.core import FLOW_END, DfiRuntime, Endpoint, FlowOptions, Schema
from repro.obs import (
    CausalError,
    Histogram,
    analyze_cluster,
    blame_json,
    chrome_trace,
    critical_path,
    export_chrome_trace,
    flow_report,
    render_blame,
)
from repro.obs.analyze import _ring_dropped
from repro.obs.causal import (
    BLAME_CATEGORIES,
    blame_breakdown,
    validate_export,
)
from repro.simnet import Cluster, CongestionConfig, FaultPlan, congestion
from repro.simnet.faults import LinkDown

SCHEMA = Schema(("key", "uint64"), ("value", "uint64"))
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                   os.pardir, "src")


def _edge(t_child, t_parent, category, node=0, src=None, tid="t",
          flow="f"):
    return (t_child, t_parent, category, node,
            node if src is None else src, tid, flow)


def _blame_sum(report):
    return sum(report["blame"].values())


class TestBackwardWalk:
    def test_exact_decomposition(self):
        edges = [_edge(10.0, 0.0, "wire"), _edge(15.0, 10.0, "nic_arb")]
        steps = critical_path(edges, t_close=20.0, t_open=0.0)
        blame = blame_breakdown(steps)
        assert blame["wire"] == 10.0
        assert blame["nic_arb"] == 5.0
        assert blame["cpu"] == 5.0  # 15..20 residual
        assert sum(blame.values()) == 20.0
        # Chronological, gap-free cover of the window.
        assert steps[0]["start"] == 0.0 and steps[-1]["end"] == 20.0
        for before, after in zip(steps, steps[1:]):
            assert before["end"] == after["start"]

    def test_gaps_become_cpu(self):
        steps = critical_path([_edge(5.0, 2.0, "wire")], t_close=10.0)
        blame = blame_breakdown(steps)
        assert blame["wire"] == 3.0
        assert blame["cpu"] == 7.0  # 0..2 head gap + 5..10 tail gap

    def test_tie_break_prefers_wire(self):
        # Same (t_child, t_parent): the category priority decides, and
        # the loser contributes nothing (its span is already covered).
        edges = [_edge(10.0, 2.0, "credit_stall"), _edge(10.0, 2.0, "wire")]
        blame = blame_breakdown(critical_path(edges, t_close=10.0))
        assert blame["wire"] == 8.0
        assert blame["credit_stall"] == 0.0

    def test_tie_break_prefers_longer_span(self):
        # Same t_child: the smaller t_parent explains more time.
        edges = [_edge(10.0, 6.0, "wire"), _edge(10.0, 1.0, "wire")]
        steps = critical_path(edges, t_close=10.0)
        wire = [s for s in steps if s["category"] == "wire"]
        assert len(wire) == 1 and wire[0]["start"] == 1.0

    def test_input_order_does_not_matter(self):
        edges = [_edge(4.0, 0.0, "wire"), _edge(9.0, 4.0, "credit_stall"),
                 _edge(9.0, 4.0, "nic_arb"), _edge(12.0, 9.0, "ecn_pacing")]
        forward = critical_path(list(edges), t_close=12.0)
        backward = critical_path(list(reversed(edges)), t_close=12.0)
        assert forward == backward

    def test_context_categories_never_walked(self):
        edges = [_edge(10.0, 0.0, "seg"), _edge(8.0, 2.0, "shard_crossing")]
        blame = blame_breakdown(critical_path(edges, t_close=10.0))
        assert blame["cpu"] == 10.0
        assert blame["shard_crossing"] == 0.0
        assert set(blame) == set(BLAME_CATEGORIES)


class TestHistogramPercentiles:
    def test_upper_bound_convention(self):
        hist = Histogram()
        for _ in range(90):
            hist.record(1)
        for _ in range(10):
            hist.record(1000)
        assert hist.percentile(0.50) == 1
        assert hist.percentile(0.90) == 1
        assert hist.percentile(0.99) == 1000  # 1023 clamped to max
        assert hist.percentiles() == {"p50": 1, "p90": 1, "p99": 1000}

    def test_estimate_never_below_true_percentile(self):
        hist = Histogram()
        for value in (4, 5, 6, 7):  # one power-of-two bucket
            hist.record(value)
        assert hist.percentile(0.50) == 7  # bucket upper bound = max

    def test_empty_and_edge_cases(self):
        hist = Histogram()
        assert hist.percentile(0.99) == 0
        hist.record(5)
        assert hist.percentile(0.0) == 5  # p<=0 -> min
        assert hist.percentile(1.0) == 5

    def test_insertion_order_invariant(self):
        values = [3, 900, 17, 3, 64, 900, 1]
        first, second = Histogram(), Histogram()
        for v in values:
            first.record(v)
        for v in reversed(values):
            second.record(v)
        assert first.percentiles() == second.percentiles()


class TestRecorderAndValidation:
    @staticmethod
    def _recording(capacity=None):
        """A plane's log, and the recorder its fold fills."""
        plane = Cluster(node_count=1).enable_observability(causal=True)
        if capacity is not None:
            plane.causal.capacity = capacity
        return plane.records.append, plane.causal

    def test_zero_span_edges_skipped(self):
        log, recorder = self._recording()
        log((EDGE, 5.0, 5.0, "wire", 0, "t", None, None))
        log((EDGE, 4.0, 5.0, "wire", 0, "t", None, None))
        assert recorder.edges() == []

    def test_bounded_log_counts_drops(self):
        log, recorder = self._recording(capacity=4)
        for i in range(10):
            log((EDGE, float(i + 1), float(i), "wire", 0, "t", None, None))
        records = recorder.edges()
        assert len(records) == 4
        assert recorder.dropped() == {0: 6}
        # Oldest overwritten, simulated order preserved.
        assert [r[0] for r in records] == [7.0, 8.0, 9.0, 10.0]

    def test_export_is_json_safe_and_valid(self):
        log, recorder = self._recording()
        log((OPEN, 0.0, "f"))
        log((EDGE, 3.0, 1.0, "wire", 0, "t", "f", None))
        log((CLOSE, 0.0, "f", 0, None, None))
        export = recorder.export()
        assert json.loads(json.dumps(export)) == export
        validate_export(export)  # must not raise

    @pytest.mark.parametrize("mutate", [
        lambda e: e[:6],                       # wrong arity
        lambda e: ["x"] + e[1:],               # non-numeric timestamp
        lambda e: [e[1], e[0]] + e[2:],        # non-positive span
        lambda e: e[:2] + ["bogus"] + e[3:],   # unknown category
        lambda e: e[:5] + [7, e[6]],           # tid not a string
    ])
    def test_validate_rejects_malformed_edges(self, mutate):
        export = {"edges": [mutate([3.0, 1.0, "wire", 0, 0, "t", "f"])],
                  "closes": {"f": [[3.0, 0]]}, "opens": {}, "dropped": {}}
        with pytest.raises(CausalError):
            validate_export(export)

    def test_flow_report_requires_close_marker(self):
        with pytest.raises(CausalError):
            flow_report({"edges": [], "closes": {}, "opens": {}})


def _run_shuffle(seed=0, tuples=256, trace_capacity=None,
                 edge_capacity=None):
    """One traced 1:2 shuffle with causal recording on."""
    cluster = Cluster(node_count=3, seed=seed)
    cluster.enable_observability(trace=True, causal=True)
    if edge_capacity is not None:
        cluster.obs.causal.capacity = edge_capacity
    options = (FlowOptions(segment_size=128) if trace_capacity is None
               else FlowOptions(segment_size=128, trace=trace_capacity))
    dfi = DfiRuntime(cluster)
    dfi.init_shuffle_flow("flow", [Endpoint(0, 0)],
                          [Endpoint(1, 0), Endpoint(2, 0)],
                          SCHEMA, shuffle_key="key", options=options)

    def src():
        source = yield from dfi.open_source("flow", 0)
        for i in range(tuples):
            yield from source.push((i, i))
        yield from source.close()

    def tgt(index):
        target = yield from dfi.open_target("flow", index)
        while (yield from target.consume()) is not FLOW_END:
            pass

    cluster.env.process(src())
    for index in range(2):
        cluster.env.process(tgt(index))
    cluster.run()
    return cluster


class TestEndToEndBlame:
    def test_blame_sums_to_window(self):
        report = analyze_cluster(_run_shuffle())
        assert report["flow"] == "flow"
        assert report["total_ns"] > 0
        assert _blame_sum(report) == pytest.approx(
            report["total_ns"], rel=1e-9, abs=1e-6)
        assert report["blame"]["shard_crossing"] == 0.0
        assert report["blame"]["wire"] > 0  # data crossed links
        assert report["stragglers"]  # both targets ranked
        assert not report["warnings"]

    def test_trace_embeds_and_flow_arrows(self):
        document = chrome_trace(_run_shuffle())
        assert "reproObs" in document and "reproCausal" in document
        validate_export(document["reproCausal"])
        phases = {event["ph"] for event in document["traceEvents"]}
        assert {"s", "f"} <= phases  # cross-node critical-path arrows
        arrows = [event for event in document["traceEvents"]
                  if event["ph"] in ("s", "f")]
        assert all(event["name"] == "critical_path" for event in arrows)
        assert json.loads(json.dumps(document)) == document

    def test_same_seed_reruns_byte_identical(self):
        first = blame_json(analyze_cluster(_run_shuffle(seed=11)))
        second = blame_json(analyze_cluster(_run_shuffle(seed=11)))
        assert first == second

    def test_truncated_rings_warn(self):
        cluster = _run_shuffle(tuples=1024, trace_capacity=4,
                               edge_capacity=16)
        report = analyze_cluster(cluster)
        assert cluster.obs.causal.dropped()  # edge logs overflowed
        text = "\n".join(report["warnings"])
        assert "truncated edge logs" in text
        assert "trace ring" in text
        rendered = render_blame(report)
        assert "WARNING" in rendered


class TestIncastBlame:
    def test_congestion_explains_incast_inflation(self):
        """ISSUE acceptance: on a 32:1 incast under the datacenter
        congestion profile, >=50% of the completion-time inflation over
        an uncontended 1:1 run of the same per-sender payload must be
        blamed on congestion_holdoff + ecn_pacing."""
        obs.set_default_observability(True, trace=True, causal=True)
        congestion.set_default_config(CongestionConfig.datacenter())
        try:
            solo = measure_incast(1, bytes_per_sender=64 << 10)
            fan = measure_incast(32, bytes_per_sender=64 << 10)
        finally:
            congestion.set_default_config(None)
            obs.set_default_observability(False)
        inflation = fan["elapsed_ns"] - solo["elapsed_ns"]
        assert inflation > 0
        report = analyze_cluster(fan["cluster"])
        assert _blame_sum(report) == pytest.approx(
            report["total_ns"], rel=1e-9, abs=1e-6)
        explained = (report["blame"]["congestion_holdoff"]
                     + report["blame"]["ecn_pacing"])
        assert explained >= 0.5 * inflation, (explained, inflation)
        # The fan-in target tops the hold-off ranking.
        assert report["hot_targets"][0]["node"] == 0


class TestFaultAttribution:
    def test_outage_tail_is_captured(self):
        cluster = Cluster(node_count=2, seed=1)
        plan = FaultPlan(entries=[
            LinkDown(a=0, b=1, at=20_000.0, duration=150_000.0)])
        cluster.install_faults(plan, detection_timeout=2_000_000.0)
        cluster.enable_observability(trace=True, causal=True)
        dfi = DfiRuntime(cluster)
        options = FlowOptions(segment_size=256, source_segments=4,
                              target_segments=8, credit_threshold=2,
                              peer_timeout=4_000_000.0,
                              max_backoff_retries=64, max_retransmits=64)
        dfi.init_shuffle_flow("ft", [Endpoint(0, 0)], [Endpoint(1, 0)],
                              SCHEMA, shuffle_key="key", options=options)

        def src():
            source = yield from dfi.open_source("ft", 0)
            for i in range(3000):
                yield from source.push((i, 1))
            yield from source.close()

        def tgt():
            target = yield from dfi.open_target("ft", 0)
            while (yield from target.consume()) is not FLOW_END:
                pass

        cluster.env.process(src())
        cluster.env.process(tgt())
        cluster.run(until=20_000_000.0)
        report = analyze_cluster(cluster)
        # The run rode through a 150 us outage; the window must dwarf
        # the fault-free run and decompose exactly.
        assert report["total_ns"] > 150_000.0
        assert _blame_sum(report) == pytest.approx(
            report["total_ns"], rel=1e-9, abs=1e-6)
        # Backoff edges during the outage are recorded, and the blocked
        # sender's stall dominates the inflated window.
        recorded = {edge[2] for edge in cluster.obs.causal.edges()}
        assert "fault_backoff" in recorded
        stalled = (report["blame"]["credit_stall"]
                   + report["blame"]["fault_backoff"])
        assert stalled >= 0.5 * report["total_ns"]


class TestShardDeterminism:
    def _blame(self, shards):
        cluster = Cluster(node_count=5, seed=7, shards=shards)
        plan = FaultPlan.random(7, node_ids=range(5), start=50_000.0,
                                horizon=800_000.0, entry_count=2,
                                protected=(0, 1, 3))
        cluster.install_faults(plan, detection_timeout=60_000.0)
        cluster.install_congestion(CongestionConfig.datacenter())
        cluster.enable_observability(trace=True, causal=True)
        dfi = DfiRuntime(cluster)
        options = FlowOptions(segment_size=256, source_segments=4,
                              target_segments=8, credit_threshold=2,
                              peer_timeout=200_000.0,
                              max_backoff_retries=32, max_retransmits=8)
        dfi.init_shuffle_flow("det", ["node1|0", "node2|0"],
                              ["node3|0", "node4|0"], SCHEMA,
                              shuffle_key="key", options=options)

        def source_thread(index):
            source = yield from dfi.open_source("det", index)
            for i in range(2000):
                yield from source.push((i, 1))
            yield from source.close()

        def target_thread(index):
            target = yield from dfi.open_target("det", index)
            while (yield from target.consume()) is not FLOW_END:
                pass

        for node_id, index in ((1, 0), (2, 1)):
            cluster.node(node_id).spawn(source_thread(index))
        for node_id, index in ((3, 0), (4, 1)):
            cluster.node(node_id).spawn(target_thread(index))
        cluster.run(until=8_000_000.0)
        return blame_json(analyze_cluster(cluster))

    def test_blame_json_shard_invariant(self):
        """Same seed, faults + congestion stacked: the canonical blame
        JSON must be byte-identical for shards=1 and shards=4."""
        assert self._blame(None) == self._blame(4)


class TestAnalyzeCli:
    def _export(self, tmp_path, mangle=None):
        cluster = _run_shuffle(seed=5)
        path = tmp_path / "run.trace.json"
        document = export_chrome_trace(cluster, str(path))
        if mangle is not None:
            mangle(document)
            path.write_text(json.dumps(document))
        return cluster, path, document

    def _run_cli(self, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "repro.obs.analyze", *args],
            capture_output=True, text=True, env=env)

    def test_json_output_matches_in_process_report(self, tmp_path):
        _cluster, path, document = self._export(tmp_path)
        expected = blame_json(flow_report(
            document["reproCausal"],
            ring_dropped=_ring_dropped(document)))
        proc = self._run_cli(str(path), "--json")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == expected + "\n"

    def test_table_output_matches_render_blame(self, tmp_path):
        _cluster, path, document = self._export(tmp_path)
        report = flow_report(document["reproCausal"],
                             ring_dropped=_ring_dropped(document))
        proc = self._run_cli(str(path), "--flow", "flow")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == render_blame(report) + "\n"

    def test_malformed_edge_exits_2(self, tmp_path):
        def corrupt(document):
            document["reproCausal"]["edges"][0][2] = "bogus"
        _cluster, path, _document = self._export(tmp_path, corrupt)
        proc = self._run_cli(str(path), "--json")
        assert proc.returncode == 2
        assert "unknown category" in proc.stderr

    def test_missing_causal_section_exits_2(self, tmp_path):
        def strip(document):
            del document["reproCausal"]
        _cluster, path, _document = self._export(tmp_path, strip)
        proc = self._run_cli(str(path))
        assert proc.returncode == 2
        assert "reproCausal" in proc.stderr

    def test_unknown_flow_exits_2(self, tmp_path):
        _cluster, path, _document = self._export(tmp_path)
        proc = self._run_cli(str(path), "--flow", "nope")
        assert proc.returncode == 2

    def test_unreadable_trace_exits_2(self, tmp_path):
        proc = self._run_cli(str(tmp_path / "missing.json"))
        assert proc.returncode == 2
