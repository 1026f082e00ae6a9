"""Flow schemas: named, fixed-offset tuple layouts.

A :class:`Schema` is declared once at flow initialization (mirroring
``DFI_Schema({"key", int}, {"value", int})`` from the paper's Figure 1) and
compiled to a ``struct.Struct`` — packing, unpacking and key extraction all
run on precomputed offsets with zero per-tuple type interpretation.

Schema specialization (the columnar hot path)
---------------------------------------------
On top of the generic ``struct`` machinery, each schema compiles a small
set of *specialized kernels* from generated source (``exec``-cached per
dtype-code string, so two schemas with the same wire layout share one
kernel set):

* hash-partition kernels for the shuffle router (integer keys skip the
  per-tuple ``int`` probe entirely — the dtype proves it);
* columnar combiner folds that aggregate straight out of packed segment
  bytes, decoding only the group/value columns (every other field becomes
  ``struct`` pad bytes).

The kernels are wall-clock accelerators only: they emit bit-identical
bytes, partitions and aggregates to the generic path, and none of them is
ever consulted for a simulated-time decision. ``REPRO_NO_CODEGEN=1``
(see :mod:`repro.common.config`) disables generation and leaves every
call on the generic pure-``struct`` fallback.
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass
from itertools import chain

from repro.common.config import codegen_enabled
from repro.common.errors import SchemaError
from repro.core.types import DataType, resolve_type

#: struct codes whose values are always Python ints (lets the router
#: kernel drop the per-tuple integer probe).
_INT_CODES = frozenset("bBhHiIqQ")

#: Unsigned subset: key dtypes whose in-range values fit a C uint64,
#: making the vectorized router bucket pass applicable.
_UNSIGNED_CODES = frozenset("BHIQ")

#: Fibonacci-hash constants of :func:`repro.core.routing.key_hash_router`
#: (defined here because they are also inlined into generated router
#: source, and ``routing`` imports this module).
_HASH_MULT = 0x9E3779B97F4A7C15
_HASH_MASK = (1 << 64) - 1

#: Batches below this size stay on the scalar router loop — the
#: vectorized pass has per-call conversion overhead that only pays
#: off once the batch amortizes it (threshold is a pure wall-clock
#: knob: both passes produce bit-identical partitions).
_ROUTE_NP_MIN = 256

#: numpy's names as the vector route kernels call them: ``None`` until a
#: kernel first asks, ``{}`` when numpy cannot be imported. The
#: vectorized router pass is an optional accelerator only — the stdlib
#: router stays the reference and the fallback, and nothing else in the
#: simulator touches numpy.
_NUMPY = None


def _numpy(namespace: dict):
    """Bind numpy into a route kernel's ``namespace``. The kernel itself
    calls this, on its first batch of ``_ROUTE_NP_MIN`` rows, so a
    process that never routes one never pays the import (~0.11 s and
    ~12 MiB, the largest single cold-start cost of a flow). Returns the
    bound ``fromiter``, or ``None`` when numpy is unavailable — that
    batch and every later one then take the scalar kernel."""
    global _NUMPY
    if _NUMPY is None:
        try:
            import numpy
        except ImportError:
            _NUMPY = {}
        else:
            _NUMPY = {
                "_np_fromiter": numpy.fromiter, "_np_uint64": numpy.uint64,
                "_np_int64": numpy.int64, "_np_s32": numpy.uint64(32),
                "_np_mult": numpy.uint64(_HASH_MULT),
            }
    namespace.update(_NUMPY)
    return namespace["_np_fromiter"]


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
        #: Generated kernel set (``None`` under ``REPRO_NO_CODEGEN``).
        self._kernels = None
        if codegen_enabled():
            self._kernels = _kernels_for(self._codes)

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
        """Batch struct for ``count`` tuples, or ``None`` when ``count``
        is uncached and larger than what is left of the row budget —
        callers then take the power-of-two chunked path instead of
        compiling a throwaway ``struct.Struct`` on every call."""
        compiled = self._batch_structs.get(count)
        if compiled is None and count <= self._batch_rows_left:
            self._batch_rows_left -= count
            compiled = struct.Struct("<" + self._codes * count)
            self._batch_structs[count] = compiled
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

    # -- specialized kernels ----------------------------------------------
    def compiled_route_many(self, key_index: int, generic_route_many):
        """Generated hash-partition kernel for shuffling on field
        ``key_index``, or ``None`` when codegen is off or the key dtype
        is not a statically-known integer. Unsigned keys get a vector
        pass for batches of ``_ROUTE_NP_MIN`` rows and more; numpy is
        imported by the first such batch, never by building the router.

        The kernel produces exactly the partitions of
        ``generic_route_many`` (same Fibonacci hash, same power-of-two
        mask folding); on any ``TypeError`` — a value that does not match
        the declared dtype — it discards its partial groups and replays
        the whole batch through ``generic_route_many``, so even the
        mistyped-batch behaviour is bit-identical to the fallback.
        """
        if self._kernels is None:
            return None
        code = self._fields[key_index].dtype.code
        if code not in _INT_CODES:
            return None
        return self._kernels.route_many(key_index, generic_route_many,
                                        code in _UNSIGNED_CODES)

    def fold_kernel(self, group_index: int, value_index: int, op: str):
        """Columnar combiner-fold factory for this schema, or ``None``
        when codegen is off or ``op`` is unknown.

        The factory is called as ``factory(get, put)`` with the aggregate
        table's bound ``dict.get``/``dict.__setitem__`` and returns
        ``fold_chunks(chunks) -> folded_tuple_count``: it aggregates
        straight out of packed segment bytes, decoding only the group and
        value columns (all other fields are ``struct`` pad bytes in the
        generated format), and folds in exactly the order the generic
        row-tuple loop would have.
        """
        if self._kernels is None or op not in ("sum", "count", "min",
                                               "max"):
            return None
        return self._kernels.fold_factory(self._fields, group_index,
                                          value_index, op)

    @property
    def codegen_active(self) -> bool:
        """True when this schema carries generated kernels."""
        return self._kernels is not None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._fields == other._fields

    def __hash__(self) -> int:
        return hash(self._fields)

    def __repr__(self) -> str:
        cols = ", ".join(f"{f.name}:{f.dtype.name}" for f in self._fields)
        return f"<Schema [{cols}] size={self.tuple_size}>"


# ---------------------------------------------------------------------------
# Generated kernels (the columnar hot path)
# ---------------------------------------------------------------------------
#
# One kernel set per dtype-code string, built by exec-ing specialized
# source with the layout constants inlined. The cache below makes kernel
# construction O(1) after the first schema of a given layout — flow setup
# creates many short-lived Schema objects in tests.

#: codes -> _SchemaKernels (process-global; kernels are stateless apart
#: from their struct caches, so sharing across schemas is safe).
_KERNEL_CACHE: dict = {}


def _kernels_for(codes: str) -> "_SchemaKernels":
    kernels = _KERNEL_CACHE.get(codes)
    if kernels is None:
        kernels = _KERNEL_CACHE[codes] = _SchemaKernels(codes)
    return kernels


_ROUTE_TEMPLATE = '''\
def %(pyname)s(tuples, target_count):
    """Generated hash partitioner (key field %(key_index)d, int dtype)."""
    groups = [[] for _ in range(target_count)]
    try:
        if target_count & (target_count - 1) == 0:
            low = target_count - 1
            appends = tuple(group.append for group in groups)
            # ``>> 32 & low`` reads bits 32..32+b-1 of the product, all
            # below bit 64 — identical with or without the ``& %(mask)d``
            # truncation (Python's infinite two's complement agrees with
            # the masked value on every bit position < 64), so the mask
            # is dropped from this branch for speed. The modulo branch
            # folds *all* bits and must keep it.
            for values in tuples:
                appends[values[%(key_index)d] * %(mult)d
                        >> 32 & low](values)
        else:
            appends = [group.append for group in groups]
            for values in tuples:
                appends[((values[%(key_index)d] * %(mult)d
                          & %(mask)d) >> 32) %% target_count](values)
    except (TypeError, OverflowError):
        # A value defied its declared integer dtype (str keys raise
        # OverflowError from sequence repetition, most others TypeError):
        # replay the whole batch through the generic router (partial
        # groups discarded), reproducing its isinstance semantics.
        return %(generic)s(tuples, target_count)
    return groups
%(np_block)s'''

_ROUTE_NP_TEMPLATE = '''\


def %(name)s(tuples, target_count):
    """Vectorized bucket pass over %(pyname)s (identical partitions).

    The bucket arithmetic wraps the key*multiplier product mod 2**64
    exactly as the scalar kernel's mask does, and both branches read
    only bits 32..63 of that product — the partitions are therefore
    bit-identical for every in-range key, and the out-of-band cases
    land on the same code paths the scalar kernel uses.
    """
    if len(tuples) < %(np_min)d or not (
            _np_fromiter or _numpy(globals())):
        return %(pyname)s(tuples, target_count)
    try:
        keys = _np_fromiter(map(_op_index, map(_ig%(key_index)d, tuples)),
                            _np_uint64, len(tuples))
    except TypeError:
        # A key defied the declared integer dtype (``operator.index``
        # rejects floats, strings, None): same destination as the
        # scalar kernel's mistyped-batch path.
        return %(generic)s(tuples, target_count)
    except OverflowError:
        # Negative or >= 2**64 keys fall outside the C-uint64 pass,
        # but the scalar kernel routes them by full-precision product
        # bits without erroring — replay through it, not the generic.
        return %(pyname)s(tuples, target_count)
    buckets = ((keys * _np_mult) >> _np_s32).astype(_np_int64)
    if target_count & (target_count - 1) == 0:
        buckets &= target_count - 1
    else:
        buckets %%= target_count
    groups = [[] for _ in range(target_count)]
    appends = tuple(group.append for group in groups)
    for bucket, values in zip(buckets.tolist(), tuples):
        appends[bucket](values)
    return groups
'''

_FOLD_TEMPLATE = '''\
def %(name)s(get, put):
    """Generated columnar fold factory (%(op)s) for layout %(codes)r."""
    _iter_pairs = _Struct(%(fmt)r).iter_unpack

    def fold_chunks(chunks):
        folded = 0
        for chunk in chunks:
            folded += len(chunk)
%(body)s
        return folded // %(size)d

    return fold_chunks
'''

#: Inner loop bodies per (op, column order). ``%(head)s`` is the loop
#: header unpacking the selective struct's yield into group/value.
_FOLD_BODIES = {
    "sum": """\
            for {head} in _iter_pairs(chunk):
                current = get(group)
                put(group, value if current is None else current + value)""",
    "count": """\
            for (group,) in _iter_pairs(chunk):
                current = get(group)
                put(group, 1 if current is None else current + 1)""",
    "min": """\
            for {head} in _iter_pairs(chunk):
                current = get(group)
                if current is None or value < current:
                    put(group, value)""",
    "max": """\
            for {head} in _iter_pairs(chunk):
                current = get(group)
                if current is None or value > current:
                    put(group, value)""",
}


def _selective_format(fields, indices) -> str:
    """Little-endian struct format decoding only ``indices`` of a packed
    row; every other byte is padding. One row in, one tuple out (field
    order), so ``iter_unpack`` walks a segment of rows directly."""
    wanted = sorted(set(indices))
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


class _SchemaKernels:
    """Kernel set generated for one dtype-code string."""

    __slots__ = ("codes", "_namespace", "_route_cache", "_fold_cache")

    def __init__(self, codes: str) -> None:
        self.codes = codes
        #: Globals the generated route/fold sources are exec'd into.
        #: ``_np_fromiter`` stays ``None`` until a vector route kernel
        #: runs :func:`_numpy` on this namespace.
        self._namespace: dict = {
            "_Struct": struct.Struct, "_op_index": operator.index,
            "_numpy": _numpy, "_np_fromiter": None,
        }
        self._route_cache: dict = {}
        self._fold_cache: dict = {}

    def route_many(self, key_index: int, generic_route_many,
                   unsigned: bool = False):
        """Hash-partition kernel for ``key_index`` (see
        :meth:`Schema.compiled_route_many`). The generic fallback is
        rebound per call site — kernels are shared across schemas, but
        every generated router of a given key index shares one body.
        Unsigned key dtypes additionally get the vectorized bucket
        pass, which binds numpy on its first large batch (identical
        partitions either way, so availability never changes results)."""
        kernel = self._route_cache.get(key_index)
        if kernel is None:
            name = f"_route_many_k{key_index}"
            generic_name = f"_generic_route_k{key_index}"
            fields = {
                "name": name, "pyname": name + "_py" if unsigned else name,
                "key_index": key_index, "mult": _HASH_MULT,
                "mask": _HASH_MASK, "generic": generic_name,
                "np_min": _ROUTE_NP_MIN, "np_block": "",
            }
            if unsigned:
                self._namespace[f"_ig{key_index}"] = operator.itemgetter(
                    key_index)
                fields["np_block"] = _ROUTE_NP_TEMPLATE % fields
            source = _ROUTE_TEMPLATE % fields
            exec(compile(source,
                         f"<schema-router {self.codes!r}[{key_index}]>",
                         "exec"), self._namespace)
            kernel = self._route_cache[key_index] = (
                self._namespace[name], generic_name)
        route, generic_name = kernel
        # The TypeError fallback dispatches through the namespace so the
        # kernel body stays shared; the latest generic is always correct
        # because every generic router of (codes, key) behaves alike.
        self._namespace[generic_name] = generic_route_many
        return route

    def fold_factory(self, fields, group_index: int, value_index: int,
                     op: str):
        """Columnar fold factory (see :meth:`Schema.fold_kernel`)."""
        key = (group_index, value_index, op)
        factory = self._fold_cache.get(key)
        if factory is None:
            if op == "count" or group_index == value_index:
                fmt = _selective_format(fields, (group_index,))
            else:
                fmt = _selective_format(fields,
                                        (group_index, value_index))
            if op == "count":
                head = "(group,)"
            elif group_index == value_index:
                head = "(group,)"
            elif group_index < value_index:
                head = "(group, value)"
            else:
                head = "(value, group)"
            body = _FOLD_BODIES[op].format(head=head)
            if op != "count" and group_index == value_index:
                # Single decoded column doubles as group and value.
                body = body.replace("_iter_pairs(chunk):",
                                    "_iter_pairs(chunk):\n"
                                    "                value = group",
                                    1)
            name = f"_fold_{group_index}_{value_index}_{op}"
            size = fields[-1].offset + fields[-1].dtype.size
            source = _FOLD_TEMPLATE % {
                "name": name, "op": op, "codes": self.codes,
                "fmt": fmt, "body": body, "size": size,
            }
            exec(compile(source,
                         f"<schema-fold {self.codes!r} {op}>", "exec"),
                 self._namespace)
            factory = self._fold_cache[key] = self._namespace[name]
        return factory
