"""A routed ``push_batch`` charges the CPU once per flush boundary, and
that moves no simulated instant.

``ShuffleSource.push_batch`` adds the delays of the channel groups that
only stage rows to one absolute deadline and sleeps once, before the next
flush or at the end of the batch. ``tests/discrete_reference.py`` keeps
the walk it replaced: a sleep per group, then its staging. Staged rows
are invisible until a flush, and the deadline is built one group at a
time as the kernel adds separate sleeps, so both must post every write
at the same float: the same plane-log ``WRITE`` records, the same rows
delivered, the same final clock. A deadline summed before it is added to
``now`` lands an ulp off at a CPU scale other than 1, and the records
show it.

One source: the merged wake draws its sequence number at the batch's
first charge, not at its last group's, so sources in lockstep (equal
CPUs, equal batches) can swap writes due at one float instant against
the per-group walk.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import DEFAULT_HARDWARE
from repro.common.errors import FlowError
from repro.common.planelog import WRITE
from repro.core import FLOW_END, DfiRuntime, FlowOptions, Schema
from repro.simnet import Cluster
from tests import discrete_reference

SCHEMA = Schema(("key", "uint64"), ("value", "uint64"))


def _run(targets, batches, options, scale, seed):
    """One source on a CPU ``scale`` times nominal pushes ``batches``
    (row counts), key-hashed over ``targets`` targets; returns (WRITE
    records, rows delivered per target, final clock)."""
    cluster = Cluster(node_count=1 + targets,
                      profile=DEFAULT_HARDWARE.with_straggler(0, scale))
    plane = cluster.enable_observability()
    dfi = DfiRuntime(cluster)
    dfi.init_shuffle_flow(
        "f", ["node0|0"], [f"node{1 + n}|0" for n in range(targets)],
        SCHEMA, shuffle_key="key", options=options)
    rng = random.Random(seed)
    delivered = {index: [] for index in range(targets)}

    def source():
        src = yield from dfi.open_source("f", 0)
        for count in batches:
            yield from src.push_batch(
                [(rng.getrandbits(64), 0) for _ in range(count)])
        yield from src.close()

    def target(index):
        tgt = yield from dfi.open_target("f", index)
        while (batch := (yield from tgt.consume_batch())) is not FLOW_END:
            delivered[index].extend(batch)

    cluster.node(0).spawn(source())
    for index in range(targets):
        cluster.node(1 + index).spawn(target(index))
    cluster.run()
    writes = [(record[1], record[2]._tid, record[4], record[5], record[6])
              for record in plane.records if record[0] == WRITE]
    return writes, delivered, cluster.now


@settings(max_examples=400, deadline=None)
@given(targets=st.integers(1, 8),
       batches=st.lists(st.integers(1, 300), min_size=1, max_size=5),
       source_segments=st.integers(2, 8), target_segments=st.integers(2, 16),
       segment_size=st.sampled_from([256, 528, 2048]),
       scale=st.sampled_from([0.37, 0.7, 1.3, 2.9]),
       seed=st.integers(0, 2 ** 16))
def test_one_charge_per_flush_boundary_matches_the_per_group_walk(
        targets, batches, source_segments, target_segments, segment_size,
        scale, seed):
    options = FlowOptions(
        segment_size=segment_size, source_segments=source_segments,
        target_segments=target_segments,
        credit_threshold=min(2, target_segments))
    args = (targets, batches, options, scale, seed)
    with pytest.MonkeyPatch.context() as patch:
        # No in-run chunk folds: every record stays in the plane log.
        patch.setattr("repro.obs.metrics.FOLD_RECORDS", 10 ** 9)
        product = _run(*args)
        with discrete_reference.installed():
            reference = _run(*args)
    assert product[0], "no segment was written"
    assert product == reference


def _rejected_row_instant():
    """The instant a routed batch whose last row the schema rejects
    raises, and what the error says."""
    cluster = Cluster(node_count=5, profile=DEFAULT_HARDWARE.with_straggler(
        0, 0.7))
    dfi = DfiRuntime(cluster)
    dfi.init_shuffle_flow("f", ["node0|0"],
                          [f"node{n}|0" for n in range(1, 5)], SCHEMA,
                          shuffle_key="key")
    seen = []

    def source():
        src = yield from dfi.open_source("f", 0)
        rows = [(key, key) for key in range(40)] + [(40, -1)]
        try:
            yield from src.push_batch(rows)
        except FlowError as exc:
            seen.append((cluster.now, type(exc).__name__))

    def target(index):
        yield from dfi.open_target("f", index)

    cluster.node(0).spawn(source())
    for index in range(4):
        cluster.node(1 + index).spawn(target(index))
    cluster.run()
    return seen


def test_a_rejected_row_surfaces_behind_the_charged_cpu():
    """Groups staged before the one holding the bad row were charged:
    the error surfaces after their CPU, where the per-group walk raises
    it."""
    product = _rejected_row_instant()
    with discrete_reference.installed():
        reference = _rejected_row_instant()
    assert product and product[0][1] == "SchemaError"
    assert product == reference
