"""Tests for the benchmark harness itself (fast, reduced workloads)."""

import os

import pytest

from repro.bench.flows import (
    flow_memory_per_node,
    measure_combiner_bandwidth,
    measure_replicate_bandwidth,
    measure_shuffle_bandwidth,
    measure_shuffle_rtt,
)
from repro.bench.mpi_compare import (
    dfi_p2p_runtime,
    dfi_shuffle_straggler_runtime,
    mpi_alltoall_batched_runtime,
    mpi_p2p_runtime,
)
from repro.bench.reporting import Table
from repro.common.units import gbps_to_bytes_per_ns

LINK = gbps_to_bytes_per_ns(100.0)


def test_shuffle_bandwidth_measurement_sane():
    m = measure_shuffle_bandwidth(256, 2, total_bytes=512 << 10)
    assert 0 < m.bytes_per_ns <= LINK * 1.05
    assert m.payload_bytes > 0 and m.elapsed_ns > 0


def test_shuffle_rtt_measurement_sane():
    rtts = measure_shuffle_rtt(64, 2, iterations=20)
    assert len(rtts) == 20
    assert all(rtt > 0 for rtt in rtts)


def test_shuffle_rtt_flat_in_target_count_is_deliberate():
    """Fig. 7b's RTT does not grow with the target count, element for
    element: EXPERIMENTS.md lists this as a known model deviation (the
    paper shows a slight rise from internal routing; the router's
    per-push cost does not grow with target count). A change that
    charges routing per target must fail here and re-base Fig. 7b."""
    one = measure_shuffle_rtt(64, 1)
    assert len(one) == 200
    assert measure_shuffle_rtt(64, 4) == one
    assert measure_shuffle_rtt(64, 8) == one


def test_replicate_bandwidth_multicast_beats_naive():
    naive = measure_replicate_bandwidth(1024, 1, multicast=False,
                                        total_bytes=256 << 10)
    mcast = measure_replicate_bandwidth(1024, 1, multicast=True,
                                        total_bytes=256 << 10)
    assert mcast.bytes_per_ns > 1.5 * naive.bytes_per_ns


def test_combiner_bandwidth_capped_by_target_link():
    m = measure_combiner_bandwidth(256, 2, total_bytes=512 << 10)
    assert m.bytes_per_ns <= LINK * 1.05


def test_combiner_requires_key_value_tuple():
    with pytest.raises(ValueError):
        measure_combiner_bandwidth(8, 1)


def test_flow_memory_formula_matches_paper():
    assert flow_memory_per_node(2, 4) == 2 * 4 * 8 * 32 * (8192 + 16)
    mib = flow_memory_per_node(8, 14) / (1 << 20)
    assert abs(mib - 785.5) < 4  # the paper's Section 6.1.4 headline


def test_p2p_runtimes_ordering():
    mpi = mpi_p2p_runtime(64, 256 << 10)
    dfi = dfi_p2p_runtime(64, 256 << 10)
    assert dfi < mpi


def test_straggler_runtimes_scale():
    base = mpi_alltoall_batched_runtime(4 << 20, straggler_scale=1.0)
    slow = mpi_alltoall_batched_runtime(4 << 20, straggler_scale=0.5)
    assert slow > 1.3 * base
    dfi_base = dfi_shuffle_straggler_runtime(4 << 20, segment_size=4096)
    dfi_slow = dfi_shuffle_straggler_runtime(4 << 20, straggler_scale=0.5,
                                             segment_size=4096)
    assert dfi_slow > dfi_base
    assert dfi_base < base  # DFI wins without the straggler too


# -- reporting ----------------------------------------------------------------

def test_table_render_and_row_validation():
    table = Table("unit", "A title", ["col_a", "col_b"])
    table.add_row("x", 1)
    table.add_row("longer-value", 22)
    rendered = table.render()
    assert "== unit: A title ==" in rendered
    assert "longer-value" in rendered
    with pytest.raises(ValueError):
        table.add_row("only-one-cell")


def test_table_save_writes_results_file(tmp_path, monkeypatch):
    import repro.bench.reporting as reporting
    monkeypatch.setattr(reporting, "RESULTS_DIR", str(tmp_path))
    table = Table("unit_save", "t", ["a"])
    table.add_row("v")
    path = table.save()
    assert os.path.exists(path)
    with open(path, encoding="utf-8") as handle:
        assert "unit_save" in handle.read()
