"""Batch pack/unpack, batch routing and the combiner fold against references.

The contract under test: a routed ``push_batch`` (its routing pass, and
the packed split ``route.partition``) and the columnar combiner fold
(``Schema.column_decoder`` + ``combiner._row_fold``) are *wall-clock*
accelerators only — every row lands where per-tuple ``route`` puts it,
and the fold gives the aggregates of a row-by-row fold, across every
dtype, field offset, batch size, routing path and combiner operator.
Batch pack/unpack is checked directly: byte layout and ``SchemaError``
cases.

(The module keeps the name it had when these kernels were generated
source with a switched-off leg beside them: the suite's floor identifies
tests by module name.)
"""

import importlib.util
import random
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import FlowError, SchemaError
from repro.core import (
    FLOW_END,
    DfiRuntime,
    Endpoint,
    FlowOptions,
    Schema,
)
from repro.core import routing
from repro.core import schema as schema_module
from repro.core.combiner import _row_fold
from repro.core.routing import key_hash_router
from repro.simnet import Cluster
from repro.core.types import BUILTIN_TYPES

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
#
# The key hash routes a batch in one of two ways: ``push_batch``'s routing
# pass (every row as ``route`` puts it; small batches then stage row by
# row, longer ones are grouped) or, on an unsigned key from
# ``_ROUTE_NP_MIN`` rows, ``route.partition``'s packed numpy split. The
# tests below keep the names they had when the router carried batch loops
# of its own (``route_many``): the suite's floor identifies tests by name.

_NP_MIN = routing._ROUTE_NP_MIN

#: Segments of 64 rows: a routed batch of up to 64 rows takes the row
#: loop, 100 rows the routing pass grouped, 1024 rows the packed
#: partition on an unsigned key (the routing pass on any other).
_SEGMENT_ROWS = 64


def _keyed_rows(schema, count):
    """``_rows`` with the key column spread over the key dtype's range
    (``_VALUES`` alone holds four keys a dtype): every fifth row keeps its
    boundary value."""
    rows = _rows(schema, count)
    dtype = schema.fields[0].dtype
    span = 2 ** (8 * dtype.size)
    for i in range(count):
        if i % 5:
            spread = (i * 0x9E3779B1 + 7) % span
            if dtype.name.startswith("uint"):
                key = spread
            elif dtype.name.startswith("int"):
                key = spread - span // 2
            elif dtype.name in ("float", "double"):
                key = i * 0.5
            else:
                key = spread.to_bytes(dtype.size, "little")
            rows[i] = (key, *rows[i][1:])
    return rows


def _via_route(route, rows, targets):
    """Reference partitions: per-tuple ``route`` on every row."""
    return [[row for row in rows if route(row, targets) == target]
            for target in range(targets)]


def _packs(schema, row) -> bool:
    try:
        schema.pack(row)
    except SchemaError:
        return False
    return True


def _landed(schema, batches, targets):
    """Push ``batches`` one ``push_batch`` each into a 1:``targets``
    bandwidth shuffle keyed on ``key``; returns what each target received
    and the error the source's last batch raised (or ``None``)."""
    cluster = Cluster(node_count=targets + 1)
    dfi = DfiRuntime(cluster)
    dfi.init_shuffle_flow(
        "f", [Endpoint(0, 0)], [Endpoint(1 + n, 0) for n in range(targets)],
        schema, shuffle_key="key",
        options=FlowOptions(segment_size=_SEGMENT_ROWS * schema.tuple_size))
    received = [[] for _ in range(targets)]
    raised = []

    def source():
        src = yield from dfi.open_source("f", 0)
        try:
            for rows in batches:
                yield from src.push_batch(rows)
        except SchemaError as exc:
            raised.append(exc)
        yield from src.close()

    def target(index):
        tgt = yield from dfi.open_target("f", index)
        while (batch := (yield from tgt.consume_batch())) is not FLOW_END:
            received[index].extend(batch)

    cluster.env.process(source())
    for index in range(targets):
        cluster.env.process(target(index))
    cluster.run()
    return received, (raised[0] if raised else None)


def _expected(schema, batches, targets):
    """What each target must receive: every row where ``route`` puts it,
    in push order, as the wire carries it."""
    route = key_hash_router(schema, "key")
    expected = [[] for _ in range(targets)]
    for rows in batches:
        for row in rows:
            expected[route(row, targets)].append(
                schema.unpack(schema.pack(row)))
    return expected


@pytest.mark.parametrize("dtype", ("int8", "uint16", "int32", "uint64"))
@pytest.mark.parametrize("targets", (1, 2, 3, 7, 8, 16))
def test_route_many_partitions_identical(dtype, targets):
    """Every batch size lands every row where per-tuple ``route`` puts
    it: the row loop, the routing pass grouped, and the 1024-row batch —
    packed and split by ``route.partition`` on the unsigned dtypes, which
    alone carry one — on the power-of-two mask and the modulo branch."""
    schema = Schema(("key", dtype), ("pad", 4))
    assert ((key_hash_router(schema, "key").partition is None)
            == dtype.startswith("int"))
    batches = [_keyed_rows(schema, count) for count in BATCH_SIZES]
    assert _landed(schema, batches, targets) == (
        _expected(schema, batches, targets), None)


def test_route_many_non_int_dtype_declines():
    """Float/char/bytes keys have no packed split (``route.partition`` is
    ``None``): their batches take the routing pass, which ``hash()``es
    them through ``route``."""
    for dtype in ("float", "double", "char", 8):  # 8: fixed_bytes
        schema = Schema(("key", dtype), ("pad", 4))
        assert key_hash_router(schema, "key").partition is None
        batches = [_keyed_rows(schema, count) for count in BATCH_SIZES]
        for targets in (3, 8):
            assert _landed(schema, batches, targets) == (
                _expected(schema, batches, targets), None)


def test_route_many_mistyped_batch_replays_through_generic():
    """A batch whose keys defy the declared int dtype: ``partition``
    declines it, however long, and the routing pass routes each key as
    ``route`` does (a ``str`` by ``hash()``). The batch then fails where
    the group walk packs the first live slot holding a bad row: the
    slots before it deliver their rows, that slot and the rest none."""
    schema = Schema(("key", "uint64"), ("pad", 4))
    route = key_hash_router(schema, "key")
    pad = b"ppXX"
    liars = [("zebra", pad), ("ant", pad), (3.5, pad), ("zebra", pad)]
    late = [(7, pad), (11, pad), ("zebra", pad), (13, pad), (None, pad)]
    for batch in (liars, late, late * 100):
        for targets in (4, 5):
            assert route.partition(batch, targets) is None
            groups = _via_route(route, batch, targets)
            cut = min(slot for slot, group in enumerate(groups)
                      if not all(_packs(schema, row) for row in group))
            received, error = _landed(schema, [batch], targets)
            assert "does not match schema" in str(error)
            assert received == [
                [schema.unpack(schema.pack(row)) for row in group]
                if slot < cut else [] for slot, group in enumerate(groups)]


@pytest.mark.parametrize("count", (10, 300))
@pytest.mark.parametrize("dtype", ("uint64", "int64"))
def test_numpy_scalar_keys_route_silently(dtype, count):
    """Keys a caller lifts out of a numpy column: the routing pass hands
    them to ``route``, which hashes ``operator.index`` of them, and the
    packed split reads them out of the packed rows, so no numpy
    arithmetic runs on them (``overflow encountered in scalar multiply``
    would abort under ``-W error``). They land where the plain-``int``
    batch does and where per-tuple ``route`` says."""
    scalar = getattr(pytest.importorskip("numpy"), dtype)
    schema = Schema(("key", dtype), ("pad", 4))
    plain = [(i * 0x9E3779B1 + 5, b"pad!") for i in range(count)]
    rows = [(scalar(key), pad) for key, pad in plain]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for targets in (3, 8):
            landed = _landed(schema, [rows, []], targets)
            assert landed == (_expected(schema, [rows], targets), None)
            assert landed == _landed(schema, [plain], targets)


#: Keys the declared ``uint64`` dtype does not admit: none of them packs,
#: so ``partition`` declines a batch holding one.
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
    is bound by the first batch that reaches the packed split,
    mid-stream. ``partition`` declines every shorter batch and every
    batch holding a key a ``uint64`` column cannot (negative, ``>=
    2**64``, a float); every other batch it splits into the packed
    groups of per-tuple ``route``. A signed key of the same layout has
    no packed split."""
    rng = random.Random(seed)
    batches = [[(rng.getrandbits(64), b"pad!") for _ in range(size)]
               for size in sizes]
    for batch, position, key in odd:
        if batch < len(batches) and position < len(batches[batch]):
            batches[batch][position] = (key, b"pad!")
    have_numpy = importlib.util.find_spec("numpy") is not None
    schema = Schema(("key", "uint64"), ("pad", 4))
    # As in a fresh process: nothing has asked for numpy yet.
    with mock.patch.object(routing, "_NUMPY", None):
        route = key_hash_router(schema, "key")
        assert key_hash_router(
            Schema(("key", "int64"), ("pad", 4)), "key").partition is None
        reached = False
        for rows in batches:
            assert bool(routing._NUMPY) == (reached and have_numpy)
            split = route.partition(rows, targets)
            reached |= len(rows) >= _NP_MIN
            if (not reached or len(rows) < _NP_MIN or not have_numpy
                    or not all(_packs(schema, row) for row in rows)):
                assert split is None
                continue
            groups, order = split
            assert [bytes(group) for group in groups] == [
                b"".join(map(schema.pack, group))
                for group in _via_route(route, rows, targets)]
            assert [rows[index] for index in order.tolist()] == [
                row for group in _via_route(route, rows, targets)
                for row in group]


def test_numpy_planted_absent_routes_through_the_integer_loop():
    """A process where ``import numpy`` fails: ``partition`` declines
    every batch, large ones included, and ``push_batch`` routes them
    through its routing pass — where ``route`` says."""
    schema = Schema(("key", "uint64"), ("pad", 4))
    rows = [(i * 7919 + 3, b"pad!") for i in range(2 * _NP_MIN)]
    with mock.patch.object(routing, "_NUMPY", None), \
            mock.patch.dict("sys.modules", {"numpy": None}):
        route = key_hash_router(schema, "key")
        for targets in (3, 8):
            assert route.partition(rows, targets) is None
            assert _landed(schema, [rows], targets) == (
                _expected(schema, [rows], targets), None)
        assert routing._NUMPY == ()


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
    """The columnar fold as ``CombinerTarget`` assembles it — selective
    decoder of the folded columns, one operator body — against a fold of
    fully unpacked rows."""
    fields, group_index, value_index = layout
    schema = Schema(*fields)
    columns = ((group_index,) if op == "count"
               else (group_index, value_index))
    decode = schema.column_decoder(*columns)
    rows = _rows(schema, 257)
    size = schema.tuple_size
    buf = bytearray(size * len(rows))
    schema.pack_many_into(buf, 0, rows)
    packed = bytes(buf)
    assert list(decode(packed)) == [
        tuple(row[index] for index in columns) for row in rows]
    # Uneven chunk boundaries (always whole rows, as segments guarantee).
    cut = size * 101
    chunks = [packed[:cut], packed[cut:cut], packed[cut:]]
    table = {}
    fold = _row_fold(op, table)
    for chunk in chunks:
        fold(decode(chunk))
    assert table == _generic_fold(
        schema, chunks, group_index, value_index, op)


def test_fold_kernel_unknown_op_declines():
    with pytest.raises(FlowError, match="unknown aggregation op 'median'"):
        _row_fold("median", {})
