"""Flow schemas: named, fixed-offset tuple layouts.

A :class:`Schema` is declared once at flow initialization (mirroring
``DFI_Schema({"key", int}, {"value", int})`` from the paper's Figure 1) and
compiled to a ``struct.Struct`` — packing, unpacking and key extraction all
run on precomputed offsets with zero per-tuple type interpretation.

The combiner's column decoder
-----------------------------
Because the layout is declared, :meth:`Schema.column_decoder` builds a
selective ``struct`` that decodes only the columns a combiner folds
(every other field is pad bytes) — a wall-clock accelerator only: it
produces the values of a full unpack. (The key hash and its batch split
live in :mod:`repro.core.routing`.)
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass
from itertools import chain, starmap

from repro.common.errors import SchemaError
from repro.core.types import DataType, resolve_type

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
        #: The row struct's bound ``iter_unpack(buffer)``: every row of a
        #: buffer holding a whole number of them, one C call per segment
        #: (``unpack_rows`` wraps it; a receive pass that has proven the
        #: whole-row rule itself calls it directly).
        self.iter_unpack = self._struct.iter_unpack
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
        except TypeError:
            raise self.not_a_row(values) from None

    @staticmethod
    def mismatch(values: tuple, exc: "struct.error | str") -> SchemaError:
        """The error a tuple that fails to pack is reported with."""
        return SchemaError(f"tuple {values!r} does not match schema: {exc}")

    def not_a_row(self, values) -> SchemaError:
        """The error a row that is not a sequence (say ``5``) is reported
        with, by every push door: the ``TypeError`` of indexing or
        unpacking it would name the door, not the row."""
        return self.mismatch(values, f"not a sequence of {self.arity} fields")

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
        chunks (identical bytes, no per-call compile). A row whose length
        is not the schema's arity raises, before any byte is written, the
        :class:`SchemaError` :meth:`pack_into` raises for it.
        """
        count = len(tuples)
        if count == 1:
            self.pack_into(buffer, offset, tuples[0])
            return
        # Flattened, ragged rows whose field total fits would pack as
        # shifted fields: one C pass over the row lengths first.
        try:
            ragged = operator.countOf(map(len, tuples), self.arity) != count
        except TypeError:
            ragged = True  # a row without a length
        if ragged:
            self._reject(tuples)
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

    def pack_rows(self, tuples) -> bytes:
        """Every tuple of ``tuples`` packed contiguously into one
        ``bytes``: the row struct packs each row, driven from C, so a row
        of the wrong arity raises the :class:`SchemaError`
        :meth:`pack_into` raises for it, at no extra pass."""
        try:
            return b"".join(starmap(self._struct.pack, tuples))
        except (struct.error, TypeError):
            self._reject(tuples)
            raise

    def _reject(self, tuples) -> None:
        """Raise what :meth:`pack_into` raises for the first row of
        ``tuples`` that does not pack."""
        scratch = bytearray(self.tuple_size)
        for values in tuples:
            self.pack_into(scratch, 0, values)

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
        return list(self.iter_unpack(buffer))

    def unpack_rows(self, buffer) -> list[tuple]:
        """Unpack every tuple in ``buffer`` — the target-side drain hot
        path. ``buffer`` must hold a whole number of packed tuples (a
        segment's used payload always does); unlike :meth:`unpack_many`
        there is no count bookkeeping or slicing, just one C call."""
        try:
            return list(self.iter_unpack(buffer))
        except struct.error as exc:
            raise SchemaError(
                f"cannot unpack {len(buffer)} bytes as "
                f"{self.tuple_size}-byte tuples: {exc}") from None

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

