"""Farm independent simulator runs across host cores.

Two suites, both built on :mod:`repro.bench.parallel`:

* ``chaos`` — the 5-seed x 3-flow-type x 2-mode x {plain, congested}
  chaos matrix, every cell run twice in its own process; the merged
  report asserts the no-hang and bit-reproducibility invariants per seed
  and exits non-zero on any violation. Congested cells run the same
  fault plans with an active congestion plane (tight ECN band + DCQCN)
  so throttling composes with crashes, outages, and degrades. Pure
  simulated-time work: parallelism changes nothing but wall clock.
* ``perf``  — the standalone hot-path bench scripts, one subprocess
  each. With ``--check`` every script that has a committed baseline is
  compared against it (report-only, same contract as running them by
  hand). Wall-clock numbers from concurrent benches share cores — use
  ``--processes 1`` when the tuples/s matter, the parallel mode when
  only the determinism guards and ±20% drift checks do.

Run with::

    PYTHONPATH=src python benchmarks/perf/run_parallel.py chaos
    PYTHONPATH=src python benchmarks/perf/run_parallel.py perf --check
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, os.pardir, "src"))

from repro.bench.parallel import (  # noqa: E402
    chaos_cases,
    fan_out,
    run_bench_script,
    run_chaos_case,
)

HERE = os.path.dirname(os.path.abspath(__file__))

#: Perf-suite scripts and the committed baseline each ``--check`` run
#: compares against (``None``: the script has no --check mode).
PERF_SCRIPTS = (
    ("bench_push_path.py", None),
    ("bench_consume_path.py", "BENCH_consume_path.json"),
    ("bench_congestion.py", "BENCH_congestion.json"),
)


def _run_chaos(args) -> int:
    seeds = range(args.seeds)
    cases = chaos_cases(seeds=seeds)
    start = time.perf_counter()
    results = fan_out(run_chaos_case, cases, processes=args.processes)
    wall = time.perf_counter() - start
    bad = [r for r in results
           if not (r["legible"] and r["deterministic"])]
    report = {
        "suite": "chaos",
        "cases": len(results),
        "wall_seconds": wall,
        "violations": len(bad),
        "results": results,
    }
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2)
    for r in results:
        tally: dict = {}
        for outcome in r["outcomes"].values():
            tally[outcome] = tally.get(outcome, 0) + 1
        flags = "" if r["legible"] and r["deterministic"] else "  <-- FAIL"
        cc = " cc" if r["congested"] else "   "
        print(f"chaos seed={r['seed']} flow={r['flow']:<9} "
              f"mode={r['mode']}{cc} {tally}{flags}")
    print(f"chaos matrix: {len(results)} cells x 2 runs in {wall:.1f}s "
          f"({len(bad)} violations)")
    return 1 if bad else 0


def _run_perf(args) -> int:
    cases = []
    for script, baseline in PERF_SCRIPTS:
        path = os.path.join(HERE, script)
        if not os.path.exists(path):
            continue
        argv = (["--check", os.path.join(HERE, baseline)]
                if args.check and baseline else [])
        cases.append((path, argv, {"PYTHONPATH": os.path.join(
            HERE, os.pardir, os.pardir, "src")}))
    start = time.perf_counter()
    results = fan_out(run_bench_script, cases, processes=args.processes)
    wall = time.perf_counter() - start
    failed = [r for r in results if r["returncode"] != 0]
    for r in results:
        status = "ok" if r["returncode"] == 0 else f"EXIT {r['returncode']}"
        print(f"perf {r['script']:<28} {status}")
        for line in r["output_tail"][-4:]:
            print(f"    {line}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"suite": "perf", "wall_seconds": wall,
                       "results": results}, fh, indent=2)
    print(f"perf suite: {len(results)} benches in {wall:.1f}s "
          f"({len(failed)} failed)")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("suite", choices=("chaos", "perf"))
    parser.add_argument("--processes", type=int, default=None,
                        help="worker count (default: one per case, "
                             "capped at host cores)")
    parser.add_argument("--seeds", type=int, default=5,
                        help="chaos suite: sweep seeds 0..N-1 (default 5)")
    parser.add_argument("--check", action="store_true",
                        help="perf suite: compare against committed "
                             "BENCH_*.json baselines")
    parser.add_argument("--json", metavar="PATH",
                        help="write the merged report as JSON")
    args = parser.parse_args(argv)
    if args.suite == "chaos":
        return _run_chaos(args)
    return _run_perf(args)


if __name__ == "__main__":
    raise SystemExit(main())
