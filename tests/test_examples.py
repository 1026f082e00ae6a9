"""Smoke tests: every shipped example runs to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, *args, timeout=240):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True, text=True, timeout=timeout)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_quickstart_example():
    out = run_example("quickstart.py")
    assert "FLOW_END" in out
    assert "consumed" in out


def test_flow_types_tour_example():
    out = run_example("flow_types_tour.py")
    assert "identical global order: True" in out
    assert "{0: 225, 1: 225, 2: 225, 3: 225}" in out


def test_distributed_join_example():
    out = run_example("distributed_join.py", "--size", "20000",
                      "--nodes", "2", "--workers-per-node", "2")
    assert "20,000 matches" in out
    assert "speedup" in out


def test_replicated_kvstore_example():
    out = run_example("replicated_kvstore.py", "--rate", "150000",
                      "--duration-ms", "1.5")
    for protocol in ("multipaxos", "nopaxos", "dare"):
        assert protocol in out


def test_observe_shuffle_example(tmp_path):
    trace = tmp_path / "shuffle.trace.json"
    out = run_example("observe_shuffle.py", "--bytes", "262144",
                      "--trace-out", str(trace))
    assert "with the plane on and off alike" in out
    assert "core.tuples_pushed" in out and "4096" in out
    assert "critical path: flow 'shuffle'" in out
    analyzed = subprocess.run(
        [sys.executable, "-m", "repro.obs.analyze", str(trace), "--json"],
        capture_output=True, text=True, timeout=60)
    assert analyzed.returncode == 0, analyzed.stderr
    assert '"flow":"shuffle"' in analyzed.stdout


def test_in_network_aggregation_example():
    out = run_example("in_network_aggregation.py")
    assert "in-network (SHARP)" in out
    assert "less inbound traffic" in out
