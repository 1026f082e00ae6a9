"""Self-test of the perf ledger (not part of tier-1; about 25 s):

    python -m pytest benchmarks/ledger/test_ledger.py -q

Runs the real command at ``--quick`` sizes and checks the document it
emits, the exact metrics' repeatability, the verifier, the environment
scrub and the layer map.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO, "src")
for path in (HERE, SRC):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402
import stats  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def quick(tmp_path_factory, *args, env=None) -> dict:
    out = tmp_path_factory.mktemp("ledger") / "out.json"
    subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick",
         "--out", str(out), *args],
        check=True, env=env, stdout=subprocess.DEVNULL, timeout=120)
    with open(out) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def full(tmp_path_factory):
    """All seven workloads, seed 1."""
    return quick(tmp_path_factory, "--seed", "1")


@pytest.fixture(scope="module")
def leaked(tmp_path_factory):
    """``shuffle_batched`` again, seed 1, from a shell that has the
    fast-path kill switch set."""
    env = dict(os.environ, REPRO_NO_FASTPATH="1")
    return quick(tmp_path_factory, "--seed", "1", "--workload",
                 "shuffle_batched", env=env)


def values(document, workload) -> dict:
    return {name: cell["value"] for name, cell
            in document["workloads"][workload]["metrics"].items()}


def test_document_schema(full):
    assert set(full) == {"ledger", "host", "workloads"}
    assert set(full["host"]) == {"python", "nproc", "git_sha", "seed",
                                 "quick"}
    assert tuple(full["workloads"]) == run.WORKLOADS
    always = {m.name for m in spec.END_TO_END + spec.PER_LAYER}
    extra = {m.name for m in spec.WORKLOAD_SPECIFIC}
    for name, result in full["workloads"].items():
        assert result["correct"] and result["failed"] == 0, name
        assert result["attempted"] >= 1
        metrics = result["metrics"]
        assert always <= set(metrics) <= always | extra, name
        assert metrics["fail_rate"]["value"] == 0
        for metric, cell in metrics.items():
            assert NAME.match(metric), metric
            assert set(cell) == {"value", "unit"}
            assert cell["unit"] == spec.BY_NAME[metric].unit
            assert UNIT.match(cell["unit"]), cell["unit"]
            assert isinstance(cell["value"], (int, float))
    assert "sim.rtt_p99_ns" in full["workloads"]["pingpong_latency"]["metrics"]
    assert ("obs.overhead_ratio"
            in full["workloads"]["shuffle_batched_obs"]["metrics"])


def test_layer_shares_sum_to_one_and_are_not_vacuous(full):
    for name in run.WORKLOADS:
        got = values(full, name)
        shares = [got[f"{layer}.self_share"] for layer in layers.LAYERS]
        assert abs(sum(shares) - 1.0) <= 1e-9, name
        assert got["bench.self_share"] <= 0.25, name
        if name != "mesh_8x8":
            assert got["simnet.shard.self_share"] < 0.001, name
    assert values(full, "shuffle_batched")["core.schema.self_share"] >= 0.25
    assert values(full, "shuffle_batched")["obs.self_share"] < 0.001
    assert values(full, "shuffle_pertuple")["core.shuffle.self_share"] >= 0.35
    assert values(full, "replicate_mcast")["core.replicate.self_share"] >= 0.2
    assert (values(full, "incast_congested")["simnet.congestion.self_share"]
            >= 0.08)
    assert values(full, "shuffle_batched_obs")["obs.self_share"] >= 0.04
    assert values(full, "mesh_8x8")["simnet.shard.self_share"] >= 0.12
    ping = values(full, "pingpong_latency")
    assert (ping["simnet.kernel.self_share"] + ping["rdma.qp.self_share"]
            + ping["rdma.other.self_share"]) >= 0.45


def test_exact_metrics_repeat_and_ignore_a_leaked_kill_switch(full, leaked):
    first = values(full, "shuffle_batched")
    again = values(leaked, "shuffle_batched")
    assert (again["simnet.kernel.events_per_op"]
            == first["simnet.kernel.events_per_op"])
    for name, value in first.items():
        if spec.BY_NAME[name].exact:
            assert again[name] == value, name
    only = {"ledger": 1, "host": full["host"], "workloads": {
        "shuffle_batched": full["workloads"]["shuffle_batched"]}}
    again_doc = json.loads(json.dumps(only))
    assert run.sets_agree(only, again_doc)
    again_doc["workloads"]["shuffle_batched"]["metrics"][
        "rdma.qp.wqes_per_op"]["value"] += 1e-9
    assert not run.sets_agree(only, again_doc)


def test_sim_ns_depends_on_the_seed(full, tmp_path_factory):
    other = quick(tmp_path_factory, "--seed", "2", "--workload",
                  "shuffle_batched")
    assert other["host"]["seed"] == 2
    assert (values(other, "shuffle_batched")["sim_ns"]
            != values(full, "shuffle_batched")["sim_ns"])


def test_wrong_expected_checksum_fails_ops(monkeypatch):
    import harness
    import workloads

    honest = workloads.Inputs.expect

    def off_by_one(self, first, batches):
        counts, key_sum = honest(self, first, batches)
        return counts, (key_sum + 1) & workloads.MASK64

    monkeypatch.setattr(workloads.Inputs, "expect", off_by_one)
    result = harness.assemble([harness.measure(
        "shuffle_batched", seed=1, slices=1, scale=run.QUICK_SCALE)])
    assert result["metrics"]["fail_rate"] > 0
    assert result["failed"] > 0 and not result["correct"]


def test_verifier_counts_losses_duplicates_and_misroutes():
    from workloads import Group

    def verified(cells):
        return Group([3, 2], 50, cells).verified()

    assert verified([[3, 30], [2, 20]]) == 5
    assert verified([[2, 25], [2, 25]]) == 4          # one lost
    assert verified([[4, 30], [2, 20]]) == 4          # one duplicated
    assert verified([[4, 30], [1, 20]]) == 3          # one misrouted
    assert verified([[3, 30], [2, 21]]) == 0          # checksum off


def test_every_source_file_has_a_layer():
    package = os.path.join(SRC, "repro")
    seen = set()
    for folder, _dirs, files in os.walk(package):
        for name in files:
            if name.endswith(".py"):
                layer = layers.layer_of(os.path.join(folder, name), package)
                assert layer in layers.LAYERS
                seen.add(layer)
    assert seen == set(layers.LAYERS), "a layer no source file maps to"

    def at(relative):
        return layers.layer_of(os.path.join(package, relative), package)

    assert at("simnet/shardexec.py") == "simnet.shard"
    assert at("simnet/link.py") == "simnet.fabric"
    assert at("core/flow.py") == "core.other"
    assert at("core/schema/kernels.py") == "core.schema"
    assert at("rdma/a_module_of_a_later_pr.py") == "rdma.other"
    assert at("bench/flows.py") == "bench"
    assert layers.layer_of("<schema-router 'Q56s'[0]>", package) == (
        "core.schema")
    assert layers.layer_of(os.path.join(HERE, "workloads.py"), package) == (
        "bench")
    assert layers.layer_of(package + "_other/core/schema.py", package) == (
        "bench")


def test_verdicts():
    def reading(median, spread=0.0):
        return {"median": median, "spread": spread}

    assert stats.verdict(reading(1.0), reading(1.05), 0.10, "lower") == "same"
    assert stats.verdict(reading(1.0), reading(1.2), 0.10, "lower") == "worse"
    assert stats.verdict(reading(1.0), reading(0.8), 0.10, "lower") == "better"
    assert stats.verdict(reading(1.0), reading(0.8), 0.10,
                         "higher") == "worse"
    assert stats.verdict(reading(1.0, 0.2), reading(1.5), 0.10,
                         "lower") == "unresolved"
    assert stats.verdict(reading(5.0), reading(5.0), 0.0, "lower") == "same"
    assert stats.verdict(reading(5.0), reading(5.1), 0.0, "lower") == "worse"
    assert stats.calibrated([2.0], [0.5, 1.5]) == [2.0 * stats.CAL_REF_S]


def test_compare_reports_a_model_change_as_worse(full, capsys):
    moved = json.loads(json.dumps(full))
    moved["workloads"]["mesh_8x8"]["metrics"]["sim_ns"]["value"] += 1.0
    assert run.compare(full, full)
    assert not run.compare(full, moved)
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert ["mesh_8x8", "sim_ns"] in [row[:2] for row in rows
                                      if row[-1] == "worse"]


def test_benchmark_json_matches_the_spec():
    import workloads

    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert contract["paths"] == ["benchmarks/ledger"]
    assert contract["command"] == ["python3", "benchmarks/ledger/run.py"]
    assert tuple(workloads.WORKLOADS) == run.WORKLOADS
    assert contract["workloads"] == [
        {"name": name, "why": workload.why}
        for name, workload in workloads.WORKLOADS.items()]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in contract["workloads"])
    assert contract["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in spec.DRIVER_END_TO_END]
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])
    assert contract["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in spec.DRIVER_PER_LAYER]
    assert len(contract["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in contract[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
