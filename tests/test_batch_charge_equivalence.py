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
from repro.core import (
    FLOW_END,
    DfiRuntime,
    FlowOptions,
    Schema,
    key_hash_router,
)
from repro.simnet import Cluster
from tests import discrete_reference

SCHEMA = Schema(("key", "uint64"), ("value", "uint64"))


def _run(targets, batches, options, scale, seed, schema=SCHEMA,
         row=lambda rng: (rng.getrandbits(64), 0)):
    """One source on a CPU ``scale`` times nominal pushes ``batches``
    (row counts) of ``schema`` rows, ``row(rng)`` each, key-hashed over
    ``targets`` targets; returns (WRITE records, rows delivered per
    target, final clock)."""
    cluster = Cluster(node_count=1 + targets,
                      profile=DEFAULT_HARDWARE.with_straggler(0, scale))
    plane = cluster.enable_observability()
    dfi = DfiRuntime(cluster)
    dfi.init_shuffle_flow(
        "f", ["node0|0"], [f"node{1 + n}|0" for n in range(targets)],
        schema, shuffle_key="key", options=options)
    rng = random.Random(seed)
    delivered = {index: [] for index in range(targets)}

    def source():
        src = yield from dfi.open_source("f", 0)
        for count in batches:
            yield from src.push_batch([row(rng) for _ in range(count)])
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


def _rejected_row_instant(count=41):
    """The instant a routed batch of ``count`` rows whose last row the
    schema rejects raises, and what the error says."""
    cluster = Cluster(node_count=5, profile=DEFAULT_HARDWARE.with_straggler(
        0, 0.7))
    dfi = DfiRuntime(cluster)
    dfi.init_shuffle_flow("f", ["node0|0"],
                          [f"node{n}|0" for n in range(1, 5)], SCHEMA,
                          shuffle_key="key")
    seen = []

    def source():
        src = yield from dfi.open_source("f", 0)
        rows = ([(key, key) for key in range(count - 1)]
                + [(count - 1, -1)])
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


def test_a_rejected_row_in_a_packed_size_batch_surfaces_behind_the_cpu():
    """300 rows reach the pack-then-partition pass: the batch does not
    pack, so it is routed and packed group by group as below the
    threshold, and the error surfaces at the per-group walk's instant."""
    product = _rejected_row_instant(300)
    with discrete_reference.installed():
        reference = _rejected_row_instant(300)
    assert product and product[0][1] == "SchemaError"
    assert product == reference


def _rejected_after_a_seal(bad_target, full_target=1):
    """A routed two-row batch over four targets whose first row fills
    ``full_target``'s open slot, pushed one row short of full by
    per-tuple pushes, and whose second row, routed to ``bad_target``,
    the schema rejects; the source then closes. Returns the instant and
    the error of the batch, the rows each target received and the final
    clock."""
    route = key_hash_router(SCHEMA, "key")
    keys = iter(range(10 ** 6))

    def row_to(target, value=0):
        return next((key, value) for key in keys
                    if route((key, value), 4) == target)

    short = [row_to(full_target) for _ in range(15)]
    batch = [row_to(full_target), row_to(bad_target, -1)]
    cluster = Cluster(node_count=5, profile=DEFAULT_HARDWARE.with_straggler(
        0, 0.7))
    dfi = DfiRuntime(cluster)
    dfi.init_shuffle_flow(
        "f", ["node0|0"], [f"node{n}|0" for n in range(1, 5)], SCHEMA,
        shuffle_key="key",
        options=FlowOptions(segment_size=16 * SCHEMA.tuple_size,
                            source_segments=2, target_segments=4,
                            credit_threshold=2))
    seen = []
    delivered = {index: [] for index in range(4)}

    def source():
        src = yield from dfi.open_source("f", 0)
        for values in short:
            yield from src.push(values)
        try:
            yield from src.push_batch(batch)
        except FlowError as exc:
            seen.append((cluster.now, type(exc).__name__, str(exc)))
        yield from src.close()

    def target(index):
        tgt = yield from dfi.open_target("f", index)
        while (rows := (yield from tgt.consume_batch())) is not FLOW_END:
            delivered[index].extend(rows)

    cluster.node(0).spawn(source())
    for index in range(4):
        cluster.node(1 + index).spawn(target(index))
    cluster.run()
    return seen, delivered, cluster.now


@pytest.mark.parametrize("bad_target", range(4))
def test_a_rejected_row_behind_a_seal_surfaces_behind_the_charged_cpu(
        bad_target):
    """A batch small enough for the row loop seals a slot before it meets
    a row the schema rejects: the seal is taken back and the batch goes
    the per-group walk, which raises at the oracle's instant — after the
    sealed slot's post when the rejected row's group comes later in slot
    order (or is the sealing group itself), before it otherwise — and
    the close that follows sends what the oracle's close sends."""
    product = _rejected_after_a_seal(bad_target)
    with discrete_reference.installed():
        reference = _rejected_after_a_seal(bad_target)
    assert product[0] and product[0][0][1] == "SchemaError"
    assert product == reference


#: Key layouts of the packed partition: the key column at offset 0, and
#: behind three pad bytes (unaligned for every dtype wider than a byte).
LAYOUTS = {
    "offset0": lambda key: Schema(("key", key), ("value", "uint64")),
    "unaligned": lambda key: Schema(("pad", 3), ("key", key),
                                    ("value", "uint32")),
}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("key", ["uint8", "uint16", "uint32", "uint64"])
@settings(max_examples=40, deadline=None)
@given(targets=st.sampled_from([2, 3, 8, 9]),
       batches=st.lists(st.sampled_from([255, 256, 257, 1024, 3000]),
                        min_size=1, max_size=3),
       segment_size=st.sampled_from([256, 528, 2048]),
       scale=st.sampled_from([0.37, 1.3]),
       seed=st.integers(0, 2 ** 16))
def test_packed_partition_key_layouts_match_the_per_group_walk(
        layout, key, targets, batches, segment_size, scale, seed):
    """Batches of ``_ROUTE_NP_MIN`` rows and more are packed once and
    split by target from the key column read out of the packed rows;
    the oracle routes the tuples and packs each group. Same ``WRITE``
    records, same rows per target, same final clock, for every unsigned
    key width, aligned or not."""
    schema = LAYOUTS[layout](key)
    bits = 8 * schema.fields[schema.field_index("key")].dtype.size
    if layout == "offset0":
        def row(rng):
            return rng.getrandbits(bits), rng.getrandbits(64)
    else:
        def row(rng):
            return b"pad", rng.getrandbits(bits), rng.getrandbits(32)
    options = FlowOptions(segment_size=segment_size, source_segments=4,
                          target_segments=8, credit_threshold=2)
    args = (targets, batches, options, scale, seed, schema, row)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.obs.metrics.FOLD_RECORDS", 10 ** 9)
        product = _run(*args)
        with discrete_reference.installed():
            reference = _run(*args)
    assert product[0], "no segment was written"
    assert product == reference
