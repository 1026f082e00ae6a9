"""Tests for memory regions and completion queues."""

import mmap
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import MemoryRegionError
from repro.core import FLOW_END, DfiRuntime, Endpoint, Schema
from repro.rdma import Completion, CompletionQueue, Opcode, get_nic, memory
from repro.rdma.memory import MAP_MIN, zeroed
from repro.simnet import Cluster


@pytest.fixture
def nic():
    return get_nic(Cluster(node_count=1).node(0))


def test_register_and_resolve(nic):
    region = nic.register_memory(1024)
    assert nic.region(region.rkey) is region
    assert region.size == 1024


def test_rkeys_are_unique(nic):
    keys = {nic.register_memory(64).rkey for _ in range(10)}
    assert len(keys) == 10


def test_unknown_rkey_rejected(nic):
    with pytest.raises(MemoryRegionError, match="unknown rkey"):
        nic.region(9999)


def test_zero_size_region_rejected(nic):
    with pytest.raises(MemoryRegionError):
        nic.register_memory(0)


def test_write_read_roundtrip(nic):
    region = nic.register_memory(64)
    region.write(10, b"hello")
    assert region.read(10, 5) == b"hello"
    assert region.read(0, 10) == b"\x00" * 10


def test_out_of_bounds_write_rejected(nic):
    region = nic.register_memory(16)
    with pytest.raises(MemoryRegionError):
        region.write(12, b"too long")
    with pytest.raises(MemoryRegionError):
        region.write(-1, b"x")


def test_out_of_bounds_read_rejected(nic):
    region = nic.register_memory(16)
    with pytest.raises(MemoryRegionError):
        region.read(8, 16)


def test_view_is_zero_copy(nic):
    region = nic.register_memory(32)
    view = region.view(4, 8)
    region.write(4, b"ABCDEFGH")
    assert bytes(view) == b"ABCDEFGH"


def test_u64_helpers(nic):
    region = nic.register_memory(16)
    region.write_u64(8, 123456789)
    assert region.read_u64(8) == 123456789


def test_u64_wraps_at_64_bits(nic):
    region = nic.register_memory(8)
    region.write_u64(0, 2 ** 64 - 1)
    assert region.fetch_add_u64(0, 2) == 2 ** 64 - 1
    assert region.read_u64(0) == 1


def test_fetch_add_returns_old_value(nic):
    region = nic.register_memory(8)
    assert region.fetch_add_u64(0, 5) == 0
    assert region.fetch_add_u64(0, 5) == 5
    assert region.read_u64(0) == 10


def test_compare_swap_success_and_failure(nic):
    region = nic.register_memory(8)
    region.write_u64(0, 7)
    assert region.compare_swap_u64(0, 7, 99) == 7
    assert region.read_u64(0) == 99
    assert region.compare_swap_u64(0, 7, 123) == 99
    assert region.read_u64(0) == 99  # swap did not happen


def test_registered_bytes_accounting(nic):
    nic.register_memory(100)
    nic.register_memory(200)
    assert nic.registered_bytes() == 300


# -- both buffer kinds are one behaviour ------------------------------------
# A region is a bytearray below MAP_MIN and a private anonymous mapping from
# there up; nothing above ``zeroed`` may be able to tell.

#: One size on each side of the choice.
_KINDS = pytest.mark.parametrize("size", [MAP_MIN - 1, MAP_MIN],
                                 ids=["heap", "mapped"])


@_KINDS
def test_kind_follows_size_and_fresh_memory_is_zero(nic, size):
    region = nic.register_memory(size)
    assert type(region.mem) is (mmap.mmap if size >= MAP_MIN else bytearray)
    assert len(region.mem) == size
    # BLANK_FOOTER relies on it: an unwritten slot reads "not consumable".
    assert region.read(0, size) == bytes(size)
    assert region.mem[0] == region.mem[size - 1] == 0


@pytest.mark.parametrize("case", [
    test_register_and_resolve, test_write_read_roundtrip,
    test_out_of_bounds_write_rejected, test_out_of_bounds_read_rejected,
    test_view_is_zero_copy, test_u64_helpers, test_u64_wraps_at_64_bits,
    test_fetch_add_returns_old_value, test_compare_swap_success_and_failure,
    test_registered_bytes_accounting], ids=lambda case: case.__name__)
def test_region_tests_pass_on_mapped_buffers(case, nic, monkeypatch):
    """The region tests above, whose few-byte regions are bytearrays, once
    more with every region mapped."""
    monkeypatch.setattr(memory, "MAP_MIN", 1)
    case(nic)
    assert nic._regions
    assert all(isinstance(region.mem, mmap.mmap)
               for region in nic._regions.values())


def _offsets(size):
    """Offsets around both ends of a region, a few of them outside."""
    return st.one_of(st.integers(-4, 40), st.integers(size - 40, size + 4))


def _ops(size):
    offset, u64 = _offsets(size), st.integers(0, 2 ** 64 - 1)
    return st.lists(st.one_of(
        st.tuples(st.just("write"), offset, st.binary(max_size=24)),
        st.tuples(st.just("read"), offset, st.integers(-1, 24)),
        st.tuples(st.just("view"), offset, st.integers(-1, 24)),
        st.tuples(st.just("write_u64"), offset, u64),
        st.tuples(st.just("fetch_add_u64"), offset, u64),
        st.tuples(st.just("compare_swap_u64"), offset, st.integers(0, 3),
                  u64),
        st.tuples(st.just("slice"), st.integers(0, size - 24),
                  st.binary(max_size=24)),
        st.tuples(st.just("index"), st.integers(0, size - 1)),
    ), max_size=24)


def _model(model: bytearray, op: tuple):
    """What ``op`` returns on a region holding ``model``'s bytes (applied
    to ``model``), or ``MemoryRegionError`` when it must be refused."""
    name, offset = op[:2]
    if name == "slice":
        model[offset:offset + len(op[2])] = op[2]
        return None
    if name == "index":
        return model[offset]
    length = (len(op[2]) if name == "write"
              else op[2] if name in ("read", "view") else 8)
    if offset < 0 or length < 0 or offset + length > len(model):
        return MemoryRegionError
    old = int.from_bytes(model[offset:offset + 8], "little")
    if name == "write":
        model[offset:offset + length] = op[2]
        return None
    if name in ("read", "view"):
        return bytes(model[offset:offset + length])
    if name == "write_u64":
        new, old = op[2], None
    elif name == "fetch_add_u64":
        new = (old + op[2]) % 2 ** 64
    else:
        new = op[3] if old == op[2] else old
    model[offset:offset + 8] = new.to_bytes(8, "little")
    return old


def _apply(region, op: tuple):
    name, offset = op[:2]
    if name == "slice":
        region.mem[offset:offset + len(op[2])] = op[2]
        return None
    if name == "index":
        return region.mem[offset]
    try:
        return getattr(region, name)(*op[1:])
    except MemoryRegionError:
        return MemoryRegionError


@_KINDS
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_op_sequences_match_a_bytearray_model(size, data):
    """Any sequence of region operations and direct ``mem`` accesses
    leaves the same bytes, returns the same values and refuses the same
    accesses as a plain bytearray of that size, and every view handed
    out along the way stays live."""
    region = get_nic(Cluster(node_count=1).node(0)).register_memory(size)
    model = bytearray(size)
    views = []
    for op in data.draw(_ops(size)):
        expected = _model(model, op)
        got = _apply(region, op)
        if op[0] == "view" and expected is not MemoryRegionError:
            views.append((got, op[1]))
            got = bytes(got)
        assert got == expected, op
        for view, offset in views:
            assert view == model[offset:offset + len(view)], op
    assert len(region.mem) == size
    assert bytes(region.mem) == model


@_KINDS
def test_view_is_live_and_zero_copy(nic, size):
    region = nic.register_memory(size)
    view = region.view(size - 8, 8)
    region.write_u64(size - 8, 0x0807060504030201)
    assert bytes(view) == bytes(range(1, 9))
    view[0] = 0xFF  # and writable: consumers may patch a tuple in place
    assert region.mem[size - 8] == 0xFF
    assert view.obj is region.mem


@_KINDS
def test_region_length_is_fixed(nic, size):
    """No access may grow or shrink a region: offsets into it are what
    remote keys address."""
    region = nic.register_memory(size)
    for longer in (b"12345", memoryview(b"12345678").cast("H")):
        with pytest.raises((BufferError, IndexError, ValueError)):
            region.mem[0:2] = longer
    with pytest.raises((BufferError, IndexError, ValueError)):
        region.mem[0:4] = b""
    with pytest.raises((BufferError, IndexError, ValueError, TypeError)):
        del region.mem[0:4]
    with pytest.raises((BufferError, IndexError, ValueError)):
        # Three 8-byte items announce themselves as ``len() == 3``.
        region.write(0, memoryview(bytes(24)).cast("Q"))
    assert len(region.mem) == size
    assert region.read(0, 32) == bytes(32)


def test_forked_child_writes_stay_private(nic):
    """``run_partitioned`` forks workers that each run their own
    simulation: a mapping must be copy-on-write, not the ``MAP_SHARED``
    Python defaults to."""
    region = nic.register_memory(MAP_MIN)
    assert isinstance(region.mem, mmap.mmap)
    region.write(0, b"parent")
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        try:
            region.write(0, b"child!")
            region.write(MAP_MIN - 6, b"child!")
            os.write(write_end, region.read(0, 6))
        finally:
            os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        assert pipe.read() == b"child!"
    assert os.waitpid(pid, 0) == (pid, 0)
    assert region.read(0, 6) == b"parent"
    assert region.read(MAP_MIN - 6, 6) == bytes(6)


def test_mapping_failure_degrades_to_bytearray(monkeypatch):
    """``vm.max_map_count`` exhausted (or no anonymous mappings at all):
    buffers come from the heap and the flow still delivers."""
    def refuse(*args, **kwargs):
        raise OSError(12, "Cannot allocate memory")

    monkeypatch.setattr(mmap, "mmap", refuse)
    assert type(zeroed(MAP_MIN)) is bytearray
    cluster = Cluster(node_count=2)
    dfi = DfiRuntime(cluster)
    schema = Schema(("key", "uint64"), ("value", "uint64"))
    dfi.init_shuffle_flow("flow", [Endpoint(0, 0)], [Endpoint(1, 0)], schema,
                          shuffle_key="key")
    rows = [(i, i * i) for i in range(2000)]
    received = []

    def source_proc():
        source = yield from dfi.open_source("flow", 0)
        assert type(source._channels[0]._staging) is bytearray
        yield from source.push_batch(rows)
        yield from source.close()

    def target_proc():
        target = yield from dfi.open_target("flow", 0)
        while (batch := (yield from target.consume_batch())) is not FLOW_END:
            received.extend(batch)

    cluster.node(0).spawn(source_proc())
    cluster.node(1).spawn(target_proc())
    cluster.run()
    assert received == rows
    regions = list(get_nic(cluster.node(1))._regions.values())
    assert max(region.size for region in regions) >= MAP_MIN
    assert all(type(region.mem) is bytearray for region in regions)


# -- CompletionQueue ---------------------------------------------------------

def test_cq_poll_fifo():
    cluster = Cluster(node_count=1)
    cq = CompletionQueue(cluster.env)
    cq.push(Completion(wr_id=1, opcode=Opcode.WRITE))
    cq.push(Completion(wr_id=2, opcode=Opcode.READ))
    entries = cq.poll()
    assert [e.wr_id for e in entries] == [1, 2]
    assert cq.poll() == []


def test_cq_poll_respects_max_entries():
    cluster = Cluster(node_count=1)
    cq = CompletionQueue(cluster.env)
    for i in range(5):
        cq.push(Completion(wr_id=i, opcode=Opcode.SEND))
    assert len(cq.poll(max_entries=3)) == 3
    assert len(cq.poll(max_entries=3)) == 2


def test_cq_wait_blocks_until_push():
    cluster = Cluster(node_count=1)
    env = cluster.env
    cq = CompletionQueue(env)
    got = []

    def waiter(env):
        completion = yield cq.wait()
        got.append((completion.wr_id, env.now))

    def pusher(env):
        yield env.timeout(25)
        cq.push(Completion(wr_id="late", opcode=Opcode.RECV))

    env.process(waiter(env))
    env.process(pusher(env))
    env.run()
    assert got == [("late", 25)]


def test_cq_wait_immediate_when_entries_exist():
    cluster = Cluster(node_count=1)
    env = cluster.env
    cq = CompletionQueue(env)
    cq.push(Completion(wr_id="ready", opcode=Opcode.RECV))
    got = []

    def waiter(env):
        completion = yield cq.wait()
        got.append(completion.wr_id)

    env.process(waiter(env))
    env.run()
    assert got == ["ready"]
