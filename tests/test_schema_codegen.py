"""Compiled-vs-generic equivalence for the schema codegen layer.

The contract under test: every generated kernel (route, fold) is a
*wall-clock* accelerator only — identical partitions and aggregates to
the generic ``struct`` path, across every dtype, field offset, batch
size, and combiner operator. Batch pack/unpack has no generated twin:
its byte layout and ``SchemaError`` cases are checked directly. Plus
the determinism capstone: a full
simulated flow lands on bit-identical simulated time and results with
codegen on and off (the in-process equivalent of running the fingerprint
under ``REPRO_NO_CODEGEN=1``).
"""

import importlib.util
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import config
from repro.common.errors import SchemaError
from repro.core import Schema
from repro.core import schema as schema_module
from repro.core.routing import key_hash_router
from repro.core.types import BUILTIN_TYPES, fixed_bytes

#: Exercise values per dtype (chosen to round-trip exactly, including
#: negative, zero, and near-boundary encodings).
_VALUES = {
    "int8": (-128, -1, 0, 127),
    "uint8": (0, 1, 200, 255),
    "int16": (-32768, -7, 0, 32767),
    "uint16": (0, 9, 65535, 4096),
    "int32": (-2**31, -42, 0, 2**31 - 1),
    "uint32": (0, 13, 2**32 - 1, 7),
    "int64": (-2**63, -1, 0, 2**63 - 1),
    "uint64": (0, 1, 2**64 - 1, 0x9E3779B97F4A7C15),
    "float": (0.0, 1.5, -2.25, 1024.0),
    "double": (0.0, 3.141592653589793, -1e300, 2.0**-52),
    "char": (b"a", b"\x00", b"\xff", b"z"),
}

BATCH_SIZES = (0, 1, 2, 7, 64, 100, 1024)


def _schemas(*fields):
    """The same layout built twice: with generated kernels and without.

    Both legs are forced explicitly so this suite tests the same
    contract whether or not the host set ``REPRO_NO_CODEGEN``.
    """
    saved = config.CODEGEN_ENABLED
    try:
        config.CODEGEN_ENABLED = True
        compiled = Schema(*fields)
        config.CODEGEN_ENABLED = False
        generic = Schema(*fields)
    finally:
        config.CODEGEN_ENABLED = saved
    assert compiled.codegen_active and not generic.codegen_active
    return compiled, generic


def _rows(schema, count):
    values = []
    for i in range(count):
        row = []
        for field in schema.fields:
            name = field.dtype.name
            if name in _VALUES:
                pool = _VALUES[name]
                row.append(pool[i % len(pool)])
            else:  # fixed_bytes payload
                row.append(bytes([65 + i % 26]) * field.dtype.size)
        values.append(tuple(row))
    return values


def _packed_one_by_one(schema, rows) -> bytes:
    """Reference layout: each row through the single-tuple packer."""
    return b"".join(schema.pack(row) for row in rows)


@pytest.mark.parametrize("dtype", sorted(BUILTIN_TYPES))
@pytest.mark.parametrize("count", BATCH_SIZES)
def test_pack_many_into_byte_layout(dtype, count):
    schema = Schema(("head", "uint8"), ("x", dtype), ("tail", 3))
    rows = _rows(schema, count)
    offset = 5  # non-zero: the offset must thread through the batch call
    buf = bytearray(offset + schema.tuple_size * count + 2)
    schema.pack_many_into(buf, offset, rows)
    assert buf == (bytes(offset) + _packed_one_by_one(schema, rows)
                   + bytes(2))


@pytest.mark.parametrize("dtype", sorted(BUILTIN_TYPES))
def test_unpack_rows_round_trips(dtype):
    schema = Schema(("x", dtype), ("blob", 5))
    rows = _rows(schema, 100)
    buf = bytearray(schema.tuple_size * 100)
    schema.pack_many_into(buf, 0, rows)
    assert schema.unpack_rows(bytes(buf)) == rows


def test_uncached_batch_counts_pack_byte_layout():
    """A count the row budget cannot take — larger than the whole
    budget, or arriving after it is spent — is neither compiled nor
    cached: it packs through power-of-two chunk structs, to the same
    bytes as packing row by row."""
    budget = schema_module._BATCH_CACHE_ROWS
    schema = Schema(("k", "uint64"), ("pad", 8))

    def packs_like_row_by_row(count):
        rows = _rows(schema, count)
        buf = bytearray(schema.tuple_size * count)
        schema.pack_many_into(buf, 0, rows)
        assert buf == _packed_one_by_one(schema, rows), count

    packs_like_row_by_row(budget + 1)
    assert not schema._batch_structs
    assert sorted(schema._pow2_structs) == [1, budget]
    # Spend the budget on one count; the chunk path takes what follows.
    packs_like_row_by_row(budget)
    assert list(schema._batch_structs) == [budget]
    for count in (65, 127, 1000, 1025):
        packs_like_row_by_row(count)
    assert list(schema._batch_structs) == [budget]
    assert sorted(schema._pow2_structs) == [
        1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, budget]
    packs_like_row_by_row(budget)       # the cached count still hits


def test_every_count_of_a_segment_packs_with_one_struct_call():
    """The steady state of a 1:8 shuffle of 128-tuple segments (ledger
    ``shuffle_batched`` asks for all of them): every count 1..128
    on one schema is cached, so each batch is one ``struct`` call and
    the chunk path never runs."""
    schema = Schema(("key", "uint64"), ("pad", 56))
    buf = bytearray(schema.tuple_size * 128)
    for count in range(1, 129):
        schema.pack_many_into(buf, 0, _rows(schema, count))
    assert sorted(schema._batch_structs) == list(range(2, 129))
    assert not schema._pow2_structs

    spies = {count: mock.Mock(wraps=compiled)
             for count, compiled in schema._batch_structs.items()}
    schema._batch_structs = spies
    for count in range(2, 129):
        rows = _rows(schema, count)
        schema.pack_many_into(buf, 0, rows)
        assert buf[:count * 64] == _packed_one_by_one(schema, rows)
    assert all(len(spy.mock_calls) == 1 and spy.pack_into.call_count == 1
               for spy in spies.values())
    assert not schema._pow2_structs


def test_pack_mismatch_raises_schema_error():
    schema = Schema(("k", "uint64"), ("v", "uint32"))
    bad_batches = (
        [("not-an-int", 1)],
        [(1, 2), (3,)],           # arity mismatch mid-batch
        [(1, 2), (4, -1)],        # range error
    )
    for batch in bad_batches:
        buf = bytearray(schema.tuple_size * len(batch))
        with pytest.raises(SchemaError, match="does not match schema"):
            schema.pack_many_into(buf, 0, batch)


def test_unpack_torn_buffer_raises_schema_error():
    schema = Schema(("k", "uint64"), ("v", "uint64"))
    torn = b"\x01" * 19  # not a multiple of the 16-byte tuple
    with pytest.raises(SchemaError, match="cannot unpack 19 bytes"):
        schema.unpack_rows(torn)


# -- router ------------------------------------------------------------------

@pytest.mark.parametrize("dtype", ("int8", "uint16", "int32", "uint64"))
@pytest.mark.parametrize("targets", (1, 2, 3, 7, 8, 16))
def test_route_many_partitions_identical(dtype, targets):
    compiled, generic = _schemas(("key", dtype), ("pad", 4))
    assert compiled.compiled_route_many(0, None) is not None
    assert generic.compiled_route_many(0, None) is None
    route_c = key_hash_router(compiled, "key").route_many
    route_g = key_hash_router(generic, "key").route_many
    for count in BATCH_SIZES:
        rows = _rows(compiled, count)
        assert route_c(rows, targets) == route_g(rows, targets)


def test_route_many_non_int_dtype_declines():
    """Float/char/bytes keys cannot use the static-int fused hash."""
    for dtype in ("float", "double", "char"):
        compiled, _ = _schemas(("key", dtype))
        assert compiled.compiled_route_many(0, None) is None
    compiled, _ = _schemas(("key", 8))  # fixed_bytes
    assert compiled.compiled_route_many(0, None) is None


def test_route_many_mistyped_batch_replays_through_generic():
    """A batch whose key values violate the declared int dtype must
    produce exactly the generic partitions (whole-batch replay)."""
    compiled, generic = _schemas(("key", "uint64"), ("pad", 4))
    route_c = key_hash_router(compiled, "key").route_many
    route_g = key_hash_router(generic, "key").route_many
    pad = b"ppXX"
    liars = [("zebra", pad), ("ant", pad), (3.5, pad), ("zebra", pad)]
    for targets in (4, 5):
        assert route_c(liars, targets) == route_g(liars, targets)


_NP_MIN = schema_module._ROUTE_NP_MIN

#: Keys the declared ``uint64`` dtype does not admit: the vector pass
#: hands negative and >= 2**64 keys to the scalar kernel and everything
#: ``operator.index`` rejects to the generic router.
_ODD_KEYS = (-1, -2 ** 63, 2 ** 64, 2 ** 64 + 5, 2 ** 70, 1.5, -0.0, 3e30)


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.sampled_from((0, 1, _NP_MIN - 1, _NP_MIN,
                                       _NP_MIN + 1, 2 * _NP_MIN))
                      | st.integers(0, 2 * _NP_MIN),
                      min_size=1, max_size=6),
       odd=st.lists(st.tuples(st.integers(0, 5),
                              st.integers(0, 2 * _NP_MIN),
                              st.sampled_from(_ODD_KEYS)), max_size=4),
       targets=st.integers(1, 9), seed=st.integers(0, 2 ** 32))
def test_vector_scalar_and_generic_routers_agree_across_the_binding(
        sizes, odd, targets, seed):
    """One router fed batches on both sides of ``_ROUTE_NP_MIN``: numpy
    is bound into the kernel namespace by the first batch that reaches
    the vector branch, mid-stream, and the partitions are those of the
    scalar kernel and of the generic router before, at and after it."""
    rng = random.Random(seed)
    batches = [[(rng.getrandbits(64), b"pad!") for _ in range(size)]
               for size in sizes]
    for batch, position, key in odd:
        if batch < len(batches) and position < len(batches[batch]):
            batches[batch][position] = (key, b"pad!")
    # A fresh kernel set, as the first schema of this layout in a
    # process gets: its vector kernel has not bound numpy yet.
    with mock.patch.dict(schema_module._KERNEL_CACHE, clear=True):
        compiled, generic = _schemas(("key", "uint64"), ("pad", 4))
        vector = key_hash_router(compiled, "key").route_many
    namespace = compiled._kernels._namespace
    assert vector is namespace["_route_many_k0"]
    scalar = namespace["_route_many_k0_py"]
    reference = key_hash_router(generic, "key").route_many
    have_numpy = importlib.util.find_spec("numpy") is not None
    reached = False
    for rows in batches:
        assert (namespace["_np_fromiter"] is not None) == (
            reached and have_numpy)
        groups = vector(rows, targets)
        assert groups == scalar(rows, targets) == reference(rows, targets)
        reached |= len(rows) >= _NP_MIN


# -- combiner folds ----------------------------------------------------------

def _generic_fold(schema, chunks, group_index, value_index, op):
    table = {}
    for chunk in chunks:
        for row in schema.unpack_rows(chunk):
            group = row[group_index]
            current = table.get(group)
            if op == "sum":
                value = row[value_index]
                table[group] = (value if current is None
                                else current + value)
            elif op == "count":
                table[group] = 1 if current is None else current + 1
            elif op == "min":
                value = row[value_index]
                if current is None or value < current:
                    table[group] = value
            else:
                value = row[value_index]
                if current is None or value > current:
                    table[group] = value
    return table


@pytest.mark.parametrize("op", ("sum", "count", "min", "max"))
@pytest.mark.parametrize("layout", (
    # (fields, group_index, value_index): group before value, value
    # before group, group == value, wide tuple with skipped columns.
    ((("g", "uint32"), ("v", "int64")), 0, 1),
    ((("v", "double"), ("g", "uint16")), 1, 0),
    ((("g", "uint64"), ("pad", 8)), 0, 0),
    ((("a", 8), ("g", "int16"), ("b", "uint64"), ("v", "double"),
      ("c", 4)), 1, 3),
))
def test_fold_kernel_matches_generic(op, layout):
    fields, group_index, value_index = layout
    compiled, generic = _schemas(*fields)
    factory = compiled.fold_kernel(group_index, value_index, op)
    assert factory is not None
    assert generic.fold_kernel(group_index, value_index, op) is None
    rows = _rows(compiled, 257)
    size = compiled.tuple_size
    buf = bytearray(size * len(rows))
    compiled.pack_many_into(buf, 0, rows)
    packed = bytes(buf)
    # Uneven chunk boundaries (always whole rows, as segments guarantee).
    cut = size * 101
    chunks = [packed[:cut], packed[cut:cut], packed[cut:]]
    table = {}
    folded = factory(table.get, table.__setitem__)(chunks)
    assert folded == len(rows)
    assert table == _generic_fold(
        generic, chunks, group_index, value_index, op)


def test_fold_kernel_unknown_op_declines():
    compiled, _ = _schemas(("g", "uint64"), ("v", "uint64"))
    assert compiled.fold_kernel(0, 1, "median") is None


# -- determinism capstone ----------------------------------------------------

def _run_flow(codegen: bool):
    """One small 2:2 shuffle + fold; returns every simulated observable."""
    from repro.core import (
        FLOW_END,
        AggregationSpec,
        DfiRuntime,
        FlowOptions,
        Optimization,
    )
    from repro.simnet import Cluster

    saved = config.CODEGEN_ENABLED
    config.CODEGEN_ENABLED = codegen
    try:
        schema = Schema(("key", "uint64"), ("value", "uint64"))
        cluster = Cluster(node_count=4)
        dfi = DfiRuntime(cluster)
        dfi.init_combiner_flow(
            "agg", ["node0|0", "node1|0"], "node3|0", schema,
            aggregation=AggregationSpec("sum", "key", "value"),
            optimization=Optimization.BANDWIDTH, options=FlowOptions())
        out = {}

        def source_thread(index):
            source = yield from dfi.open_source("agg", index)
            yield from source.push_batch(
                [(i % 97, i) for i in range(index, 1500 + index)])
            yield from source.close()

        def target_thread():
            target = yield from dfi.open_target("agg", 0)
            while (yield from target.consume_step()) is not FLOW_END:
                pass
            out["aggregated"] = target.tuples_aggregated
            out["at"] = cluster.now

        cluster.node(0).spawn(source_thread(0))
        cluster.node(1).spawn(source_thread(1))
        cluster.node(3).spawn(target_thread())
        cluster.run()
        out["final"] = cluster.now
        return out
    finally:
        config.CODEGEN_ENABLED = saved


def test_flow_bit_identical_with_codegen_off():
    """The in-process REPRO_NO_CODEGEN fingerprint: simulated completion
    times and aggregate counts must be bit-identical across the toggle."""
    assert _run_flow(codegen=True) == _run_flow(codegen=False)
