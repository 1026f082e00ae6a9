#!/usr/bin/env bash
# The repo's gates, one home per kind of evidence. CI (.github/workflows/
# ci.yml) runs one job per gate by calling this script, so the local
# command *is* the CI gate:
#
#   ci/gates.sh tests        behaviour: tier-1 pytest (chaos no-hang and
#                            bit-reproducibility, obs budget, the obs-on
#                            fingerprint leg, ...) and the 20 figure tables,
#                            regenerated and diffed against the committed ones
#   ci/gates.sh determinism  simulated numbers, exact: the fingerprint in its
#                            four modes and the congestion pathology scenarios
#   ci/gates.sh ledger       wall-clock and call counts: the perf ledger at
#                            quarter size plus its self-tests; leaves
#                            ledger-quick.json, perftest-stats.txt,
#                            obs-shuffle.trace.json and obs-shuffle.blame.json
#                            in the repo root (git-ignored; CI uploads them)
#   ci/gates.sh all          the three in that order
#
# No test file is named in more than one gate (tests/test_gates.py).
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

gate_tests() {
    python -m pytest -x -q
    # Simulated numbers only, so the diff is exact. A PR that means to move
    # a table commits the regenerated file and says why next to its
    # EXPERIMENTS.md row. --durations=0 puts every figure's wall in the
    # log, so the suite's per-figure cost is read without a rerun.
    python -m pytest -q benchmarks --ignore=benchmarks/ledger --durations=0
    if ! git diff --quiet benchmarks/results/; then
        # Name the moved figures first (one line per table, with its count
        # of changed lines), then the numbers.
        echo "figure tables moved:" >&2
        git diff --stat=120 benchmarks/results/ >&2
        git diff benchmarks/results/
        return 1
    fi
}

gate_determinism() {
    # Each mode exits 1 with a per-metric diff on any drift. A PR that means
    # to move the model regenerates FINGERPRINT.json / BENCH_congestion.json
    # and says so.
    python benchmarks/perf/fingerprint.py --check benchmarks/perf/FINGERPRINT.json
    python benchmarks/perf/fingerprint.py --check-fault-neutral
    python benchmarks/perf/fingerprint.py --check-congestion-neutral
    python benchmarks/perf/fingerprint.py --with-obs
    python benchmarks/perf/bench_congestion.py --check benchmarks/perf/BENCH_congestion.json
}

gate_ledger() {
    # --quick checks that every workload builds from the public API, delivers
    # every tuple and prints every metric; the wall numbers of a 3-slice run
    # gate nothing. The document is kept so peak_rss_mb, calls_per_op and the
    # layer shares of every PR can be read without a rerun.
    python benchmarks/ledger/run.py --quick --out ledger-quick.json
    # The ledger self-test decides the gate, but the steps after it run
    # whatever it says, so a red self-test still leaves the stats and the
    # trace to read; the gate exits with the self-test's status.
    local self_test=0
    python -m pytest benchmarks/ledger/test_ledger.py -q || self_test=$?
    {
        python -m repro.apps.perftest lat --size 64 --stats
        python -m repro.apps.perftest bw --size 4096 --stats
    } | tee perftest-stats.txt
    # One causal-on run of the 64 B batched 1:8 shuffle, exported as Chrome
    # trace_event JSON (open at https://ui.perfetto.dev); the example asserts
    # that the plane left simulated time untouched, and the offline analyzer
    # must parse what it wrote (exit 2 on a malformed edge).
    python examples/observe_shuffle.py --bytes 262144 --trace-out obs-shuffle.trace.json
    python -m repro.obs.analyze obs-shuffle.trace.json
    python -m repro.obs.analyze obs-shuffle.trace.json --json > obs-shuffle.blame.json
    return "$self_test"
}

case "${1:-}" in
    tests) gate_tests ;;
    determinism) gate_determinism ;;
    ledger) gate_ledger ;;
    all) gate_tests; gate_determinism; gate_ledger ;;
    *) echo "usage: ci/gates.sh {tests|determinism|ledger|all}" >&2; exit 2 ;;
esac
