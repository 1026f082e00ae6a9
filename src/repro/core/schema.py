"""Flow schemas: named, fixed-offset tuple layouts.

A :class:`Schema` is declared once at flow initialization (mirroring
``DFI_Schema({"key", int}, {"value", int})`` from the paper's Figure 1) and
compiled to a ``struct.Struct`` — packing, unpacking and key extraction all
run on precomputed offsets with zero per-tuple type interpretation.

Batch kernels (the columnar hot path)
-------------------------------------
Because the layout is declared, the two per-tuple jobs of a batched flow
are specialised when the router or the target is built, as plain closures
over the schema's fields:

* :meth:`Schema.route_kernel` — the batched hash partitioner of
  :func:`repro.core.routing.key_hash_router`, picked from the key dtype
  and the batch length: a loop over per-tuple ``route``, an integer loop
  that skips the per-tuple ``int`` probe (the dtype proves it), and a
  numpy bucket pass for large unsigned-keyed batches — which a bandwidth
  ``push_batch`` takes as ``partition``: pack once, split the packed rows;
* :meth:`Schema.column_decoder` — a selective ``struct`` that decodes
  only the columns a combiner folds (every other field is pad bytes).

Both are wall-clock accelerators only: they produce the partitions of
per-tuple ``route`` and the values of a full unpack, and neither is ever
consulted for a simulated-time decision.
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass
from itertools import chain

from repro.common.errors import SchemaError
from repro.core.types import DataType, resolve_type

#: struct codes whose values are always Python ints (lets the integer
#: route loop drop the per-tuple integer probe).
_INT_CODES = frozenset("bBhHiIqQ")

#: Unsigned subset: key dtypes whose in-range values fit a C uint64,
#: making the numpy bucket pass applicable.
_UNSIGNED_CODES = frozenset("BHIQ")

#: Fibonacci-hash constants of :func:`repro.core.routing.key_hash_router`
#: (defined here because the batch loops below hash with them too, and
#: ``routing`` imports this module).
_HASH_MULT = 0x9E3779B97F4A7C15
_HASH_MASK = (1 << 64) - 1

#: Batches below this size stay on the integer loop — the numpy pass has
#: per-call conversion overhead that only pays off once the batch
#: amortizes it (a pure wall-clock knob: both produce the same
#: partitions).
_ROUTE_NP_MIN = 256

#: The numpy module, for the bucket pass — ``None`` until a batch first
#: asks, ``()`` when numpy cannot be imported. The pass is an optional
#: accelerator only: the stdlib loops stay the reference and the
#: fallback, and nothing else in the simulator touches numpy.
_NUMPY = None


def _numpy():
    """Bind numpy for the bucket pass. The pass itself calls this, on its
    first batch of ``_ROUTE_NP_MIN`` rows, so a process that never routes
    one never pays the import (~0.11 s and ~12 MiB, the largest single
    cold-start cost of a flow). Returns ``()`` when numpy is unavailable —
    that batch and every later one then take the integer loop."""
    global _NUMPY
    if _NUMPY is None:
        try:
            import numpy as _NUMPY
        except ImportError:
            _NUMPY = ()
    return _NUMPY


#: Rows a schema's count-keyed batch structs may hold between them (the
#: sum of the cached counts; a compiled struct costs memory per row).
#: Every count a segment of up to 255 tuples can ask for fits at once —
#: a 1:8 shuffle of 128-tuple segments asks for all 128 — while a count
#: the budget cannot take packs in power-of-two chunks instead of
#: compiling a fresh ``struct.Struct`` per call.
_BATCH_CACHE_ROWS = 1 << 15


@dataclass(frozen=True)
class Field:
    """One schema column: a name, a type, and its byte offset."""

    name: str
    dtype: DataType
    offset: int


class Schema:
    """An ordered set of typed fields defining the wire layout of a tuple.

    Example::

        schema = Schema(("key", "uint64"), ("value", "uint64"))
        raw = schema.pack((1, 20))
        assert schema.unpack(raw) == (1, 20)
    """

    def __init__(self, *fields: tuple[str, "DataType | str | int"]) -> None:
        if not fields:
            raise SchemaError("a schema needs at least one field")
        resolved: list[Field] = []
        seen: set[str] = set()
        offset = 0
        for entry in fields:
            try:
                name, spec = entry
            except (TypeError, ValueError):
                raise SchemaError(
                    f"schema field must be a (name, type) pair, got {entry!r}"
                ) from None
            if not isinstance(name, str) or not name:
                raise SchemaError(f"field name must be a non-empty string, "
                                  f"got {name!r}")
            if name in seen:
                raise SchemaError(f"duplicate field name {name!r}")
            seen.add(name)
            dtype = resolve_type(spec)
            resolved.append(Field(name, dtype, offset))
            offset += dtype.size
        self._fields = tuple(resolved)
        self._index = {field.name: i for i, field in enumerate(resolved)}
        self._codes = "".join(field.dtype.code for field in resolved)
        self._struct = struct.Struct("<" + self._codes)
        if self._struct.size != offset:
            raise AssertionError("packed size does not match field offsets")
        #: Packed size of one tuple in bytes (plain attributes: the push
        #: hot path reads them per tuple).
        self.tuple_size = offset
        self.arity = len(resolved)
        #: The tuple struct's bound ``pack_into(buffer, offset, *values)``
        #: for per-tuple push paths that cannot afford the
        #: :meth:`pack_into` frame; callers turn its ``struct.error``
        #: into :meth:`mismatch`.
        self.raw_pack_into = self._struct.pack_into
        #: Bound method cache: ``unpack_rows`` runs once per drained
        #: segment on the target hot path.
        self._iter_unpack = self._struct.iter_unpack
        #: Compiled batch structs, keyed by tuple count (push_batch packs a
        #: whole segment with a single struct call). Bounded: a count that
        #: no longer fits ``_batch_rows_left`` packs through power-of-two
        #: chunks instead of compiling per call.
        self._batch_structs: dict[int, struct.Struct] = {}
        self._batch_rows_left = _BATCH_CACHE_ROWS
        #: Power-of-two chunk structs used by counts that miss the full
        #: cache (bounded by the count's bit length, so ~60 entries max).
        self._pow2_structs: dict[int, struct.Struct] = {}

    # -- introspection -----------------------------------------------------
    @property
    def fields(self) -> tuple[Field, ...]:
        return self._fields

    def field_index(self, name_or_index: "str | int") -> int:
        """Resolve a field reference (name or positional index)."""
        if isinstance(name_or_index, int):
            if not 0 <= name_or_index < len(self._fields):
                raise SchemaError(
                    f"field index {name_or_index} out of range "
                    f"[0, {len(self._fields)})")
            return name_or_index
        try:
            return self._index[name_or_index]
        except KeyError:
            raise SchemaError(
                f"unknown field {name_or_index!r}; fields: "
                f"{[f.name for f in self._fields]}") from None

    def offset_of(self, name_or_index: "str | int") -> int:
        """Byte offset of a field inside the packed tuple."""
        return self._fields[self.field_index(name_or_index)].offset

    # -- (de)serialization -----------------------------------------------
    def pack(self, values: tuple) -> bytes:
        """Pack a Python tuple into its wire representation."""
        try:
            return self._struct.pack(*values)
        except struct.error as exc:
            raise SchemaError(
                f"tuple {values!r} does not match schema "
                f"{[f.name for f in self._fields]}: {exc}") from None

    def pack_into(self, buffer: bytearray, offset: int,
                  values: tuple) -> None:
        """Pack a tuple directly into ``buffer`` at ``offset``."""
        try:
            self.raw_pack_into(buffer, offset, *values)
        except struct.error as exc:
            raise self.mismatch(values, exc) from None

    @staticmethod
    def mismatch(values: tuple, exc: struct.error) -> SchemaError:
        """The error a tuple that fails to pack is reported with."""
        return SchemaError(f"tuple {values!r} does not match schema: {exc}")

    def _batch_struct(self, count: int) -> "struct.Struct | None":
        """Compile and cache the batch struct for an uncached ``count``
        of tuples, or ``None`` when ``count`` is larger than what is left
        of the row budget — callers then take the power-of-two chunked
        path instead of compiling a throwaway ``struct.Struct`` on every
        call."""
        if count > self._batch_rows_left:
            return None
        self._batch_rows_left -= count
        compiled = self._batch_structs[count] = struct.Struct(
            "<" + self._codes * count)
        return compiled

    def _pow2_struct(self, count: int) -> struct.Struct:
        """Batch struct for a power-of-two chunk (never evicted; at most
        one entry per bit of the largest chunked count)."""
        compiled = self._pow2_structs.get(count)
        if compiled is None:
            compiled = self._pow2_structs[count] = struct.Struct(
                "<" + self._codes * count)
        return compiled

    def pack_many_into(self, buffer: bytearray, offset: int,
                       tuples) -> None:
        """Pack a sequence of tuples contiguously into ``buffer`` with one
        ``struct`` call — the amortization behind the batched push path.

        Counts the batch-struct cache cannot take pack in power-of-two
        chunks (identical bytes, no per-call compile).
        """
        count = len(tuples)
        if count == 1:
            self.pack_into(buffer, offset, tuples[0])
            return
        # A cached count is one dict probe, not a frame.
        compiled = self._batch_structs.get(count)
        if compiled is None:
            compiled = self._batch_struct(count)
        try:
            if compiled is not None:
                compiled.pack_into(
                    buffer, offset, *chain.from_iterable(tuples))
                return
            size = self._struct.size
            index = 0
            while index < count:
                chunk = 1 << ((count - index).bit_length() - 1)
                self._pow2_struct(chunk).pack_into(
                    buffer, offset + index * size,
                    *chain.from_iterable(tuples[index:index + chunk]))
                index += chunk
        except struct.error as exc:
            raise SchemaError(
                f"batch of {count} tuples does not match schema: "
                f"{exc}") from None

    def unpack(self, data: "bytes | bytearray | memoryview") -> tuple:
        """Unpack one tuple from exactly ``tuple_size`` bytes."""
        try:
            return self._struct.unpack(data)
        except struct.error as exc:
            raise SchemaError(f"cannot unpack tuple: {exc}") from None

    def unpack_from(self, buffer, offset: int = 0) -> tuple:
        """Unpack one tuple from ``buffer`` starting at ``offset``."""
        try:
            return self._struct.unpack_from(buffer, offset)
        except struct.error as exc:
            raise SchemaError(f"cannot unpack tuple: {exc}") from None

    def unpack_many(self, buffer, count: int, offset: int = 0) -> list[tuple]:
        """Unpack ``count`` consecutive tuples (a segment payload)."""
        size = self._struct.size
        span = count * size
        if offset or len(buffer) != span:
            buffer = memoryview(buffer)[offset:offset + span]
        # iter_unpack walks the whole payload in C, one call per segment.
        return list(self._iter_unpack(buffer))

    def unpack_rows(self, buffer) -> list[tuple]:
        """Unpack every tuple in ``buffer`` — the target-side drain hot
        path. ``buffer`` must hold a whole number of packed tuples (a
        segment's used payload always does); unlike :meth:`unpack_many`
        there is no count bookkeeping or slicing, just one C call."""
        try:
            return list(self._iter_unpack(buffer))
        except struct.error as exc:
            raise SchemaError(
                f"cannot unpack {len(buffer)} bytes as "
                f"{self.tuple_size}-byte tuples: {exc}") from None

    def row_views(self, buffer) -> list[memoryview]:
        """Split ``buffer`` into one zero-copy memoryview per packed tuple.

        The views alias ``buffer``'s memory — for views handed out by
        ``consume_bytes`` the ring-segment lifetime rules apply (valid
        only until the consuming process yields back to the simulator).
        """
        size = self._struct.size
        view = buffer if isinstance(buffer, memoryview) else memoryview(buffer)
        span = len(view)
        if span % size:
            raise SchemaError(
                f"cannot split {span} bytes into {size}-byte rows")
        return [view[offset:offset + size]
                for offset in range(0, span, size)]

    # -- batch kernels ------------------------------------------------------
    def route_kernel(self, key_index: int, route):
        """``(route_many, partition)`` for ``key_hash_router``'s per-tuple
        ``route`` on field ``key_index``. ``route_many(tuples,
        target_count) -> groups``: the partitions of calling ``route`` on
        every tuple, in batch order, computed by the cheapest loop the key
        dtype and the batch length admit.

        * A non-integer dtype loops over ``route``.
        * An integer dtype hashes inline without the per-tuple ``int``
          probe. A batch that defies the declared dtype (``TypeError``,
          or ``OverflowError`` from a ``str`` key) is replayed whole
          through the ``route`` loop, partial groups discarded.
        * An unsigned dtype adds the numpy bucket pass for batches of
          ``_ROUTE_NP_MIN`` rows and more; numpy is imported by the first
          such batch, never by building the router.

        ``partition(tuples, target_count) -> (groups, order)``, ``None``
        unless the dtype is unsigned, packs a batch the numpy pass takes:
        ``groups`` are then byte runs, one per target, and ``order`` the
        batch index of every row they hold; any other batch comes back as
        ``route_many`` partitions it, with ``order`` ``None``.
        """
        code = self._fields[key_index].dtype.code
        via_route = _route_loop(route)
        if code not in _INT_CODES:
            return via_route, None
        int_route = _int_route(key_index, via_route)
        if code not in _UNSIGNED_CODES:
            return int_route, None
        return _uint_route(self, key_index, int_route, via_route)

    def column_decoder(self, *indices: int):
        """``decode(buffer)`` iterating the columns ``indices`` of every
        packed row in ``buffer``, one tuple per row in the order asked —
        the combiner's fold reads its group and value columns through
        one. Only the asked columns are decoded (every other field is
        ``struct`` pad bytes). Columns asked in field order come straight
        out of ``iter_unpack``; any other order, or a column asked twice,
        is rearranged per row by an ``itemgetter``."""
        wanted = sorted(set(indices))
        iter_unpack = struct.Struct(
            _selective_format(self._fields, wanted)).iter_unpack
        if list(indices) == wanted:
            return iter_unpack
        arrange = operator.itemgetter(*map(wanted.index, indices))
        return lambda buffer: map(arrange, iter_unpack(buffer))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._fields == other._fields

    def __hash__(self) -> int:
        return hash(self._fields)

    def __repr__(self) -> str:
        cols = ", ".join(f"{f.name}:{f.dtype.name}" for f in self._fields)
        return f"<Schema [{cols}] size={self.tuple_size}>"


def _selective_format(fields, wanted) -> str:
    """Little-endian struct format decoding only the fields ``wanted``
    (ascending indices) of a packed row; every other byte is padding.
    One row in, one tuple out (field order), so ``iter_unpack`` walks a
    segment of rows directly."""
    parts = ["<"]
    position = 0
    for index in wanted:
        field = fields[index]
        if field.offset > position:
            parts.append(f"{field.offset - position}x")
        parts.append(field.dtype.code)
        position = field.offset + field.dtype.size
    total = fields[-1].offset + fields[-1].dtype.size
    if total > position:
        parts.append(f"{total - position}x")
    return "".join(parts)


def _route_loop(route):
    """The reference batch partitioner of :meth:`Schema.route_kernel`:
    per-tuple ``route`` on every tuple. Serves key dtypes that are not
    integers and every batch the loops below hand back."""
    def route_many(tuples, target_count: int) -> list[list]:
        groups: list[list] = [[] for _ in range(target_count)]
        appends = [group.append for group in groups]
        for values in tuples:
            appends[route(values, target_count)](values)
        return groups

    return route_many


def _int_route(index: int, via_route):
    """Partition loop for a declared-integer key: the Fibonacci hash of
    ``route`` inlined, the per-group ``append`` pre-bound, no call and no
    type probe per tuple."""
    mult = _HASH_MULT
    mask = _HASH_MASK

    def route_many(tuples, target_count: int) -> list[list]:
        """Keys of another class than ``int`` — numpy scalars from a
        caller's column wrap, and warn, in the product below — go
        through ``via_route``, which hashes ``operator.index`` of them.
        Only the first key's class is looked at: a mixed batch is still
        partitioned correctly, either here (the product's bits 32..63
        are those of the wrapped one) or by the replay."""
        if tuples and tuples[0][index].__class__ is not int:
            return via_route(tuples, target_count)
        groups: list[list] = [[] for _ in range(target_count)]
        try:
            if target_count & (target_count - 1) == 0:
                low = target_count - 1
                appends = tuple(group.append for group in groups)
                # ``>> 32 & low`` reads bits 32..32+b-1 of the product,
                # all below bit 64 — identical with or without the
                # ``& mask`` truncation (Python's infinite two's
                # complement agrees with the masked value on every bit
                # position < 64), so the mask is dropped from this branch
                # for speed. The modulo branch folds *all* bits and must
                # keep it.
                for values in tuples:
                    appends[values[index] * mult >> 32 & low](values)
            else:
                appends = [group.append for group in groups]
                for values in tuples:
                    appends[((values[index] * mult & mask) >> 32)
                            % target_count](values)
        except (TypeError, OverflowError):
            # A value defied its declared integer dtype (str keys raise
            # OverflowError from sequence repetition, most others
            # TypeError): replay the whole batch (partial groups
            # discarded) with ``route``'s probe of every key.
            return via_route(tuples, target_count)
        return groups

    return route_many


def _uint_route(schema: Schema, index: int, int_route, via_route):
    """Numpy bucket pass over ``int_route`` for a declared-unsigned key,
    as ``route_many`` and as ``partition``.

    The bucket arithmetic wraps the key*multiplier product mod 2**64
    exactly as the integer loop's mask does, and both branches read only
    bits 32..63 of that product — the partitions are therefore identical
    for every in-range key, and the out-of-band cases land where the
    integer loop puts them. ``partition`` packs the batch once, buckets
    the key column read out of the packed rows (a strided view, aligned
    or not) and gathers the rows in stable bucket order; a batch that
    does not pack goes to ``route_many``, so its bad row raises when its
    group is packed, as it always has.
    """
    as_index = operator.index
    key_of = operator.itemgetter(index)
    key = schema._fields[index]
    key_dtype, offset = f"<u{key.dtype.size}", key.offset
    size, pack_many_into = schema.tuple_size, schema.pack_many_into

    def route_many(tuples, target_count: int) -> list[list]:
        if len(tuples) < _ROUTE_NP_MIN or not (_NUMPY or _numpy()):
            return int_route(tuples, target_count)
        try:
            keys = _NUMPY.fromiter(map(as_index, map(key_of, tuples)),
                                   _NUMPY.uint64, len(tuples))
        except TypeError:
            # A key defied the declared integer dtype (``operator.index``
            # rejects floats, strings, None): same destination as the
            # integer loop's mistyped-batch path.
            return via_route(tuples, target_count)
        except OverflowError:
            # Negative or >= 2**64 keys fall outside the C-uint64 pass,
            # but the integer loop routes them by full-precision product
            # bits without erroring — replay through it.
            return int_route(tuples, target_count)
        groups: list[list] = [[] for _ in range(target_count)]
        appends = tuple(group.append for group in groups)
        for bucket, values in zip(_buckets(keys, target_count).tolist(),
                                  tuples):
            appends[bucket](values)
        return groups

    def partition(tuples, target_count: int):
        count = len(tuples)
        if count < _ROUTE_NP_MIN or not (_NUMPY or _numpy()):
            return int_route(tuples, target_count), None
        packed = bytearray(count * size)
        try:
            pack_many_into(packed, 0, tuples)
        except SchemaError:
            return route_many(tuples, target_count), None
        numpy = _NUMPY
        buckets = _buckets(numpy.ndarray(count, key_dtype, packed, offset,
                                         (size,)).astype(numpy.uint64),
                           target_count)
        order = buckets.argsort(kind="stable")
        ends = (numpy.bincount(buckets.view(numpy.int64),
                               minlength=target_count).cumsum()
                * size).tolist()
        rows = memoryview(numpy.ndarray((count, size), numpy.uint8,
                                        packed)[order]).cast("B")
        return [rows[start:end]
                for start, end in zip([0, *ends], ends)], order

    return route_many, partition


def _buckets(keys, target_count: int):
    """The target slot of every key of ``keys`` (a uint64 array), as the
    integer loop computes it: bits 32..63 of ``key * _HASH_MULT`` wrapped
    mod 2**64, masked for a power-of-two ``target_count``, else modulo.
    Operators only, no method call: the slots stay uint64."""
    buckets = (keys * _HASH_MULT) >> 32
    if target_count & (target_count - 1) == 0:
        buckets &= target_count - 1
    else:
        buckets %= target_count
    return buckets
