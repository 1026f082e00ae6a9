"""One workload, measured in one process: set-up, the calibrated timed
slices and one traced slice — and the metrics made from the readings of
several such processes.

Run as a script it is one of the child processes ``run.py`` starts per
workload; it prints its raw readings as one JSON object on its last
line and ``run.py`` pools them with :func:`assemble`. ``repro`` is
imported inside :func:`timed_setup`, never at module import, so that importing
it is part of the set-up time.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import resource
import signal
import sys
import time
import traceback

from calib import calibrate
from layers import LAYERS, bucket
from stats import calibrated, keep_slicing, summary

#: Wall seconds after which a slice counts as hung. A normal slice takes
#: under a second and its traced twin under five.
SLICE_TIMEOUT_S = 40
GIB = 2 ** 30


class SliceTimeout(Exception):
    pass


def _on_alarm(_signum, _frame):
    raise SliceTimeout(f"slice still running after {SLICE_TIMEOUT_S} s")


def run_slice(workload, inputs, scale, profiler=None):
    """Build a fresh scenario, collect garbage, time ``cluster.run()``.
    Returns ``(scenario, wall_seconds)``."""
    scenario = workload.build(inputs, scale)
    gc.collect()
    signal.alarm(SLICE_TIMEOUT_S)
    try:
        start = time.perf_counter()
        if profiler is None:
            scenario.cluster.run()
        else:
            profiler.runcall(scenario.cluster.run)
        wall = time.perf_counter() - start
    finally:
        signal.alarm(0)
    return scenario, wall


def timed_setup(name, seed, scale):
    """Everything a user pays before the first timed slice, between two
    calibration slices: import ``repro``, generate the inputs, build the
    scenario once and run one warm-up slice (lazy code generation and
    caches fill here). Errors propagate: a benchmark that cannot set up
    has no result. Returns the workload, its inputs, the warm-up
    scenario, the set-up's wall seconds and the two calibration walls."""
    cal_before = calibrate()
    start = time.perf_counter()
    from workloads import WORKLOADS, Inputs
    workload = WORKLOADS[name]
    inputs = Inputs(seed, workload.batch, workload.targets, workload.pool)
    warm, _wall = run_slice(workload, inputs, scale)
    wall = time.perf_counter() - start
    return workload, inputs, warm, wall, [cal_before, calibrate()]


def _tallies(scenario) -> dict:
    """Exact counts from the always-on public tallies of one finished
    scenario."""
    cluster = scenario.cluster
    snapshot = cluster.metrics_snapshot()
    ops = scenario.ops
    nics = snapshot["nics"].values()
    fabric = snapshot["fabric"]
    wire_bytes = sum(node.uplink.bytes_carried for node in cluster.nodes)
    rings = snapshot.get("trace_rings", {}).values()
    return {
        "simnet.kernel.events_per_op": cluster.env.events_executed / ops,
        "rdma.qp.wqes_per_op": sum(n["wqes_processed"] for n in nics) / ops,
        "rdma.qp.trains_per_op": sum(n["doorbell_trains"] for n in nics) / ops,
        "simnet.fabric.msgs_per_op":
            (fabric["unicast_count"] + fabric["multicast_count"]) / ops,
        "simnet.fabric.wire_bytes_per_payload_byte":
            wire_bytes / scenario.payload_bytes,
        "simnet.congestion.ecn_marks":
            snapshot.get("congestion", {}).get("ecn_marks", 0),
        "simnet.shard.mailbox_crossings":
            snapshot["kernel"].get("mailbox_crossings", 0),
        "obs.trace_events_kept": sum(ring["kept"] for ring in rings),
        "sim.gib_per_s":
            scenario.payload_bytes / GIB / (cluster.now * 1e-9),
    }


def measure(name, seed, seconds=None, slices=None, scale=1,
            trace=True) -> dict:
    """One process's share of a workload's measurement: set-up, timed
    slices for ``seconds`` (extended while they spread too wide, see
    stats.py) or exactly ``slices`` of them, and with ``trace`` one
    profiled slice. Returns raw readings; :func:`assemble` turns the
    readings of several processes into metrics."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        return _measure(name, seed, seconds, slices, scale, trace)
    finally:
        signal.signal(signal.SIGALRM, previous)


def _measure(name, seed, seconds, slices, scale, trace):
    workload, inputs, warm, setup_wall, cals = timed_setup(name, seed, scale)
    ops = warm.ops
    sim_ns = warm.cluster.now
    attempted = verified = 0
    model_moved = False
    walls = []

    def account(scenario):
        nonlocal attempted, verified, model_moved
        attempted += ops
        if scenario is not None:
            verified += scenario.verified_ops()
            model_moved |= scenario.cluster.now != sim_ns

    def guarded_slice(profiler=None):
        """A failing or hung slice is a measurement (every op of it
        failed), not a reason to lose the run."""
        start = time.perf_counter()
        try:
            return run_slice(workload, inputs, scale, profiler)
        except Exception:
            traceback.print_exc()
            return None, time.perf_counter() - start

    account(warm)
    loop_start = time.perf_counter()
    while True:
        scenario, wall = guarded_slice()
        account(scenario)
        walls.append(wall)
        cals.append(calibrate())
        if slices is not None:
            if len(walls) >= slices:
                break
        elif not keep_slicing(calibrated(walls, cals[1:]),
                              time.perf_counter() - loop_start, seconds):
            break
    # Read before the traced slice: the profiler's tables are not the
    # simulator's memory.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    traced = None
    if trace:
        profiler = cProfile.Profile()
        scenario, traced_wall = guarded_slice(profiler)
        account(scenario)
        if scenario is None:
            raise RuntimeError("the traced slice failed; no layer numbers")
        import repro
        rtts = sorted(scenario.rtts)
        traced = {
            "overhead_ratio": traced_wall / summary(walls)["median"],
            "layers": bucket(profiler.getstats(),
                             os.path.dirname(repro.__file__)),
            "tallies": _tallies(scenario),
            "rtt_p50_p99": ([rtts[len(rtts) // 2],
                             rtts[len(rtts) * 99 // 100]] if rtts else None),
        }
    return {
        "workload": name, "seed": seed, "ops_per_slice": ops,
        "attempted": attempted, "failed": attempted - verified,
        "model_moved": model_moved, "sim_ns": sim_ns, "setup_wall": setup_wall,
        "peak_rss_mb": peak_rss_mb, "walls": walls, "cals": cals,
        "traced": traced,
    }


def assemble(parts: list) -> dict:
    """Metrics of one workload from the readings of the processes that
    measured it (exactly one of them traced). Slices are pooled: every
    process has its own memory layout and with it its own bias of a few
    percent, which one process can never see."""
    ops = parts[0]["ops_per_slice"]
    sim_ns = parts[0]["sim_ns"]
    attempted = sum(part["attempted"] for part in parts)
    failed = sum(part["failed"] for part in parts)
    moved = any(part["model_moved"] or part["sim_ns"] != sim_ns
                for part in parts)
    (traced,) = [part["traced"] for part in parts if part["traced"]]
    # cals[0] and cals[1] bracket the set-up, cals[1:] the timed slices.
    setups = [calibrated([part["setup_wall"]], part["cals"][:2])[0]
              for part in parts]
    run = summary(ratio for part in parts for ratio
                  in calibrated(part["walls"], part["cals"][1:]))
    wall = summary(w for part in parts for w in part["walls"])["median"]
    layers = traced["layers"]
    traced_self = sum(cell[0] for cell in layers.values())

    metrics = {
        "setup_s": summary(setups)["median"],
        "run_s": run["median"],
        "calls_per_op": sum(cell[1] for cell in layers.values()) / ops,
        "sim_ns": sim_ns,
        "peak_rss_mb": max(part["peak_rss_mb"] for part in parts),
        "fail_rate": failed / attempted,
        "run_s.q1": run["q1"],
        "run_s.q3": run["q3"],
        "run_s.slices": run["n"],
        "trace.overhead_ratio": traced["overhead_ratio"],
        "calib.slice_s":
            summary(c for part in parts for c in part["cals"])["median"],
        "host.wall_s": wall,
        "host.ops_per_s": ops / wall,
    }
    for layer in LAYERS:
        self_s, calls = layers[layer]
        share = self_s / traced_self
        metrics[f"{layer}.self_share"] = share
        metrics[f"{layer}.self_cost"] = share * run["median"]
        metrics[f"{layer}.calls_per_op"] = calls / ops
    metrics.update(traced["tallies"])
    if traced["rtt_p50_p99"]:
        metrics["sim.rtt_p50_ns"], metrics["sim.rtt_p99_ns"] = (
            traced["rtt_p50_p99"])
    return {
        "workload": parts[0]["workload"], "seed": parts[0]["seed"],
        "ops_per_slice": ops, "attempted": attempted, "failed": failed,
        "correct": failed == 0 and not moved,
        "run_s_spread": run["spread"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--slices", type=int)
    parser.add_argument("--scale", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    args = parser.parse_args(argv)
    print(json.dumps(measure(args.workload, args.seed, args.seconds,
                             args.slices, args.scale, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
