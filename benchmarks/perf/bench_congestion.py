"""Congestion pathology benchmark: incast, fairness, victim-behind-elephant.

Runs the three congestion scenarios from ``repro.bench.flows`` with the
plane off and on (``CongestionConfig.datacenter()``) and records the
*simulated* outcomes: completion times, ECN mark counts, PFC stalls,
peak virtual-queue depth, Jain's fairness index, and the on/off
completion-time inflation per cell. Everything reported is simulated
metrics — bit-reproducible per seed — so ``--check`` is a hard gate:
any drift from the committed ``BENCH_congestion.json`` exits non-zero.

The run itself asserts the headline acceptance invariants:

* the 32:1 incast cell shows measurable queue buildup and marking
  (peak at the configured capacity, marks > 0);
* the virtual queue never exceeds its byte capacity in any cell;
* completion-time inflation (congestion on vs off) stays bounded;
* the 32:1 congested cell is bit-reproducible run-to-run.

Run with::

    PYTHONPATH=src python benchmarks/perf/bench_congestion.py
    PYTHONPATH=src python benchmarks/perf/bench_congestion.py \
        --check benchmarks/perf/BENCH_congestion.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, os.pardir, "src"))

from repro.bench.flows import (  # noqa: E402
    measure_fairness,
    measure_incast,
    measure_victim,
)
from repro.core import FlowOptions  # noqa: E402
from repro.simnet import CongestionConfig  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUTPUT = os.path.join(HERE, "BENCH_congestion.json")

INCAST_FANINS = (8, 16, 32)
SEED = 3
#: On/off completion-time inflation ceiling per cell (the rate floor and
#: the tuned datacenter() recovery constants keep the real ratios near 1).
MAX_INFLATION = 3.0


def _options(congestion: bool) -> FlowOptions:
    if congestion:
        return FlowOptions(congestion=CongestionConfig.datacenter())
    return FlowOptions()


def _congestion_summary(cluster, link_name: str) -> dict:
    stats = cluster.congestion.stats()
    link = stats["links"].get(link_name, {})
    return {
        "ecn_marks": stats["ecn_marks"],
        "cnps_delivered": stats["cnps_delivered"],
        "pfc_stalls": stats["pfc_stalls"],
        "peak_queue_bytes": link.get("peak_queue_bytes", 0),
        "mark_rate": link.get("mark_rate", 0.0),
    }


def _incast_cells() -> list:
    config = CongestionConfig.datacenter()
    cells = []
    for senders in INCAST_FANINS:
        off = measure_incast(senders, seed=SEED)
        on = measure_incast(senders, options=_options(True), seed=SEED)
        summary = _congestion_summary(on["cluster"], "node0.down")
        inflation = on["elapsed_ns"] / off["elapsed_ns"]
        cell = {
            "senders": senders,
            "elapsed_off_ns": off["elapsed_ns"],
            "elapsed_on_ns": on["elapsed_ns"],
            "inflation": inflation,
            **summary,
        }
        cells.append(cell)
        assert summary["peak_queue_bytes"] <= config.queue_capacity, (
            f"{senders}:1 virtual queue exceeded capacity: {summary}")
        assert inflation <= MAX_INFLATION, (
            f"{senders}:1 completion-time inflation {inflation:.2f} "
            f"exceeds {MAX_INFLATION}")
    # Headline acceptance: the 32:1 cell must really congest and mark.
    top = cells[-1]
    assert top["ecn_marks"] > 0 and top["peak_queue_bytes"] > 0, top
    # And must be bit-reproducible.
    again = measure_incast(32, options=_options(True), seed=SEED)
    assert again["elapsed_ns"] == top["elapsed_on_ns"], "incast drifted"
    return cells


def _fairness_cell() -> dict:
    off = measure_fairness(4, seed=7)
    on = measure_fairness(4, options=_options(True), seed=7)
    return {
        "tenants": 4,
        "jain_off": off["jain_index"],
        "jain_on": on["jain_index"],
        "makespan_off_ns": off["makespan_ns"],
        "makespan_on_ns": on["makespan_ns"],
    }


def _victim_cell() -> dict:
    off = measure_victim(seed=5)
    on = measure_victim(options=_options(True), seed=5)
    summary = _congestion_summary(on["cluster"], "node0.down")
    return {
        "victim_off_ns": off["victim_elapsed_ns"],
        "victim_on_ns": on["victim_elapsed_ns"],
        "elephant_off_ns": off["elephant_elapsed_ns"],
        "elephant_on_ns": on["elephant_elapsed_ns"],
        "ecn_marks": summary["ecn_marks"],
    }


def run_bench() -> dict:
    return {
        "bench": "congestion",
        "seed": SEED,
        "config": "datacenter",
        "incast": _incast_cells(),
        "fairness": _fairness_cell(),
        "victim": _victim_cell(),
    }


def _print_report(report: dict) -> None:
    for cell in report["incast"]:
        print(f"incast {cell['senders']:>2}:1  "
              f"off={cell['elapsed_off_ns']:>10.0f}ns "
              f"on={cell['elapsed_on_ns']:>10.0f}ns "
              f"x{cell['inflation']:.2f}  marks={cell['ecn_marks']} "
              f"pfc={cell['pfc_stalls']} "
              f"peak={cell['peak_queue_bytes']}B "
              f"mark_rate={cell['mark_rate']:.3f}")
    fair = report["fairness"]
    print(f"fairness 4-tenant  jain off={fair['jain_off']:.4f} "
          f"on={fair['jain_on']:.4f}  makespan "
          f"off={fair['makespan_off_ns']:.0f}ns "
          f"on={fair['makespan_on_ns']:.0f}ns")
    victim = report["victim"]
    print(f"victim  off={victim['victim_off_ns']:.0f}ns "
          f"on={victim['victim_on_ns']:.0f}ns  elephant "
          f"off={victim['elephant_off_ns']:.0f}ns "
          f"on={victim['elephant_on_ns']:.0f}ns")


def _check(report: dict, baseline_path: str) -> int:
    """Hard gate: every simulated metric must match the committed
    baseline exactly (the scenarios are deterministic by contract)."""
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    drift = []

    def compare(path, fresh, committed):
        if isinstance(committed, dict):
            for key in committed:
                compare(f"{path}.{key}", fresh.get(key), committed[key])
        elif isinstance(committed, list):
            for i, item in enumerate(committed):
                compare(f"{path}[{i}]", fresh[i], item)
        elif fresh != committed:
            drift.append(f"{path}: {committed!r} -> {fresh!r}")

    compare("congestion", report, baseline)
    if drift:
        print(f"DRIFT vs {os.path.basename(baseline_path)}:")
        for line in drift:
            print(f"  {line}")
        return 1
    print(f"check OK: all simulated metrics match "
          f"{os.path.basename(baseline_path)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", metavar="BASELINE",
                        help="compare a fresh run against a committed "
                             "BENCH_congestion.json; exit non-zero on "
                             "any simulated-metric drift")
    parser.add_argument("--json", metavar="PATH", default=OUTPUT,
                        help=f"output path (default {OUTPUT})")
    args = parser.parse_args(argv)
    report = run_bench()
    _print_report(report)
    if args.check:
        return _check(report, args.check)
    with open(args.json, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
