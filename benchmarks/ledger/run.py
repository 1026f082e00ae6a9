#!/usr/bin/env python3
"""The perf ledger: one calibrated end-to-end benchmark of the DFI stack.

    python3 benchmarks/ledger/run.py [--seed N] [--workload W] [--out FILE]
    python3 benchmarks/ledger/run.py --quick            # smoke: 3 slices, 1/4 sizes
    python3 benchmarks/ledger/run.py --sets 2           # same code twice, must agree
    python3 benchmarks/ledger/run.py --compare A.json B.json

Prints every metric of every workload by name with its unit, then one
JSON document (to ``--out`` when given, else as the last line).

With ``--trace 0|1`` it speaks the PR driver's protocol instead: one
workload, and a last line ``{"correct", "attempted", "failed",
"metrics"}`` holding the end-to-end metrics (0) or the per-layer ones (1)
that ``BENCHMARK.json`` lists. The measurement is the same either way.

See README.md beside this file for what the numbers mean.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True      # a run leaves no file behind

import harness  # noqa: E402
import spec  # noqa: E402
from stats import verdict, worse_by  # noqa: E402

#: Must match ``workloads.WORKLOADS`` (checked by test_ledger.py); listed
#: here so that this process never imports ``repro``.
WORKLOADS = ("shuffle_batched", "shuffle_pertuple", "pingpong_latency",
             "replicate_mcast", "incast_congested", "shuffle_batched_obs",
             "mesh_8x8")
#: Switches that select another code path; a ledger number is only
#: comparable when none of them leaked in from the caller's shell.
SCRUBBED = ("REPRO_NO_FASTPATH", "REPRO_NO_CODEGEN", "REPRO_SHARDS")
DEFAULT_SECONDS = 12
QUICK_SLICES = 3
QUICK_SCALE = 4
#: Child processes per workload. Each sets up afresh (``setup_s`` is the
#: median of their set-up times) and contributes its slices to ``run_s``.
PROCESSES = 3
CHILD_TIMEOUT_S = 150


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED}
    env["PYTHONHASHSEED"] = "0"
    # Every child compiles the sources it imports: set-up time must not
    # depend on whether an earlier run left a bytecode cache behind.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    src = os.path.join(REPO, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def run_child(args) -> dict:
    """Run ``harness.py`` to completion; its last stdout line is the
    result. Raises ``CalledProcessError`` / ``TimeoutExpired``."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "harness.py")] + args,
        env=child_env(), stdout=subprocess.PIPE, text=True, check=True,
        timeout=CHILD_TIMEOUT_S)
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure_workload(name, seed, seconds, quick) -> dict:
    """Split the time budget over ``PROCESSES`` children run one after
    another; the last one also runs the traced slice."""
    common = ["--workload", name, "--seed", str(seed)]
    if quick:
        plans = [common + ["--scale", str(QUICK_SCALE),
                           "--slices", str(QUICK_SLICES)]]
    else:
        share = ["--seconds", str(seconds / PROCESSES)]
        plans = [common + share + ["--trace", "0"]] * (PROCESSES - 1)
        plans.append(common + share)
    return harness.assemble([run_child(plan) for plan in plans])


def with_units(metrics: dict, wanted=None) -> dict:
    names = [m.name for m in wanted] if wanted else list(metrics)
    return {name: {"value": metrics[name], "unit": spec.BY_NAME[name].unit}
            for name in names}


def git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "-C", REPO, "rev-parse", "HEAD"], check=True, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_set(names, seed, seconds, quick) -> dict:
    """Measure ``names`` one after another; returns the ledger document.
    A workload whose child dies or hangs is recorded with ``fail_rate``
    1.0 and no other metric."""
    workloads = {}
    for name in names:
        try:
            result = measure_workload(name, seed, seconds, quick)
        except (subprocess.CalledProcessError,
                subprocess.TimeoutExpired) as exc:
            print(f"{name}: child failed: {exc}", file=sys.stderr)
            result = {"workload": name, "seed": seed, "attempted": 1,
                      "failed": 1, "correct": False, "run_s_spread": 0.0,
                      "metrics": {"fail_rate": 1.0}}
        workloads[name] = result
    both = [workloads.get(n, {}).get("metrics", {}).get("run_s")
            for n in ("shuffle_batched_obs", "shuffle_batched")]
    if all(both):
        workloads["shuffle_batched_obs"]["metrics"]["obs.overhead_ratio"] = (
            both[0] / both[1])
    for result in workloads.values():
        result["metrics"] = with_units(result["metrics"])
    return {
        "ledger": 1,
        "host": {"python": platform.python_version(),
                 "nproc": os.cpu_count(), "git_sha": git_sha(),
                 "seed": seed, "quick": quick},
        "workloads": workloads,
    }


def print_set(document) -> None:
    for name, result in document["workloads"].items():
        print(f"== {name}: attempted {result['attempted']} ops, "
              f"failed {result['failed']}, "
              f"{'correct' if result['correct'] else 'INCORRECT'}")
        for metric, cell in result["metrics"].items():
            print(f"  {metric:46s} {cell['value']:>18.6f} {cell['unit']}")


def _summary(result, name) -> dict:
    """stats.summary-shaped view of one metric of one workload. Only
    ``run_s`` has a spread of its own; the rest are single readings."""
    value = result["metrics"][name]["value"]
    spread = result["run_s_spread"] if name == "run_s" else 0.0
    return {"median": value, "spread": spread}


def compare(base_doc, new_doc) -> bool:
    """One row per workload x end-to-end metric. Returns True when no row
    is ``worse`` and no exact metric (end-to-end or per-layer) differs."""
    ok = True
    print(f"{'workload':20s} {'metric':13s} {'base':>14s} {'new':>14s} "
          f"{'new/base':>9s} {'bound':>6s} verdict")
    for name, base in base_doc["workloads"].items():
        new = new_doc["workloads"].get(name)
        if new is None:
            continue
        for metric in spec.END_TO_END:
            if not (metric.name in base["metrics"]
                    and metric.name in new["metrics"]):
                print(f"{name:20s} {metric.name:13s} missing")
                ok = False
                continue
            b, n = _summary(base, metric.name), _summary(new, metric.name)
            result = verdict(b, n, metric.bound, metric.better)
            ratio = n["median"] / b["median"] if b["median"] else float("nan")
            print(f"{name:20s} {metric.name:13s} {b['median']:14.6f} "
                  f"{n['median']:14.6f} {ratio:9.4f} {metric.bound:6.2f} "
                  f"{result}")
            ok &= result != "worse"
        for metric_name in base["metrics"]:
            metric = spec.BY_NAME[metric_name]
            if metric.exact and metric.bound is None:
                b = base["metrics"][metric_name]["value"]
                n = new["metrics"].get(metric_name, {}).get("value")
                if b != n:
                    print(f"{name:20s} exact metric {metric_name} differs: "
                          f"{b!r} -> {n!r}")
                    ok = False
    return ok


def sets_agree(first, second) -> bool:
    """The --sets rule: the same code measured twice. Every end-to-end
    metric within its bound in either direction, every exact metric
    identical."""
    ok = True
    for name, a in first["workloads"].items():
        b = second["workloads"][name]
        for metric_name, cell in a["metrics"].items():
            metric = spec.BY_NAME[metric_name]
            x = cell["value"]
            y = b["metrics"].get(metric_name, {}).get("value")
            if y is None or metric.exact:
                bad = x != y
            elif metric.bound is not None:
                bad = abs(worse_by(x, y, metric.better)) > metric.bound
            else:
                continue
            if bad:
                print(f"{name}: {metric_name} disagrees between sets: "
                      f"{x!r} vs {y!r} {metric.unit}")
                ok = False
    return ok


def driver_line(result, trace: int) -> str:
    wanted = spec.DRIVER_PER_LAYER if trace else spec.DRIVER_END_TO_END
    return json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": with_units(result["metrics"], wanted)})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="time budget of the timed slices per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="PR-driver protocol: needs --workload")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)

    if args.compare:
        docs = []
        for path in args.compare:
            with open(path) as handle:
                docs.append(json.load(handle))
        return 0 if compare(*docs) else 1

    if not os.path.isdir(os.path.join(REPO, "src", "repro")):
        sys.exit(f"run.py: no src/repro under {REPO}: nothing to measure")

    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        result = measure_workload(args.workload, args.seed, args.seconds,
                                  args.quick)
        print(driver_line(result, args.trace))
        return 0

    names = [args.workload] if args.workload else list(WORKLOADS)
    documents = []
    for index in range(args.sets):
        if args.sets > 1:
            print(f"#### set {index + 1} of {args.sets}")
        document = run_set(names, args.seed, args.seconds, args.quick)
        print_set(document)
        documents.append(document)
    agree = all(sets_agree(a, b) for a, b in zip(documents, documents[1:]))
    final = documents[-1] if args.sets == 1 else {"sets": documents}
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(final, handle, indent=1)
            handle.write("\n")
    else:
        print(json.dumps(final))
    failed = any(not r["correct"] for d in documents
                 for r in d["workloads"].values())
    return 0 if agree and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
