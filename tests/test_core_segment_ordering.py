"""Tests for segment rings, footers, the reorder buffer and SeqTracker."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import FlowError
from repro.core.ordering import ReorderBuffer
from repro.core.replicate import SeqTracker
from repro.core.segment import (
    FLAG_CLOSED,
    FLAG_CONSUMABLE,
    FOOTER_SIZE,
    SegmentRing,
    pack_footer,
    unpack_footer,
)
from repro.rdma import get_nic
from repro.simnet import Cluster


# -- footers -----------------------------------------------------------------

def test_footer_roundtrip():
    footer = unpack_footer(pack_footer(4096, FLAG_CONSUMABLE, 17))
    assert footer.used == 4096
    assert footer.consumable and not footer.closed
    assert footer.seq == 17
    assert footer.source_index == 0


def test_footer_source_index_encoding():
    footer = unpack_footer(
        pack_footer(8, FLAG_CONSUMABLE | FLAG_CLOSED, 3, source_index=12))
    assert footer.source_index == 12
    assert footer.consumable and footer.closed
    assert footer.used == 8


def test_footer_is_16_bytes():
    assert FOOTER_SIZE == 16
    assert len(pack_footer(0, 0, 0)) == 16


@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 3),
       st.integers(0, 2 ** 64 - 1), st.integers(0, 2 ** 15 - 1))
def test_footer_roundtrip_property(used, flags, seq, source):
    footer = unpack_footer(pack_footer(used, flags, seq, source))
    assert footer.used == used
    assert footer.seq == seq
    assert footer.source_index == source
    assert footer.consumable == bool(flags & FLAG_CONSUMABLE)
    assert footer.closed == bool(flags & FLAG_CLOSED)


# -- segment rings ------------------------------------------------------------

@pytest.fixture
def nic():
    return get_nic(Cluster(node_count=1).node(0))


def test_ring_layout(nic):
    ring = SegmentRing.allocate(nic, segment_count=4, segment_size=100)
    assert ring.slot_size == 116
    assert ring.payload_offset(2) == 232
    assert ring.footer_offset(2) == 332
    assert ring.total_bytes == 464


def test_ring_footer_roundtrip_in_memory(nic):
    ring = SegmentRing.allocate(nic, 4, 64)
    ring.write_footer(1, used=48, flags=FLAG_CONSUMABLE, seq=9)
    footer = ring.read_footer(1)
    assert footer.used == 48 and footer.seq == 9 and footer.consumable


def test_ring_starts_writable(nic):
    ring = SegmentRing.allocate(nic, 4, 64)
    for i in range(4):
        assert not ring.read_footer(i).consumable


def test_ring_index_wraps(nic):
    ring = SegmentRing.allocate(nic, 3, 64)
    assert ring.next_index(2) == 0


def test_ring_bounds(nic):
    ring = SegmentRing.allocate(nic, 3, 64)
    with pytest.raises(FlowError):
        ring.payload_offset(3)
    with pytest.raises(FlowError):
        ring.footer_offset(-1)


def test_ring_too_few_segments(nic):
    with pytest.raises(FlowError):
        SegmentRing.allocate(nic, 1, 64)


def test_ring_region_too_small(nic):
    region = nic.register_memory(100)
    with pytest.raises(FlowError, match="too small"):
        SegmentRing(region, 4, 64)


# -- ReorderBuffer (paper Fig. 6) -----------------------------------------------

def test_reorder_delivers_in_sequence():
    buf = ReorderBuffer()
    buf.insert(3, "c")
    buf.insert(1, "b")
    assert buf.pop_ready() is None  # 0 is missing
    buf.insert(0, "a")
    assert buf.pop_ready() == (0, "a")
    assert buf.pop_ready() == (1, "b")
    assert buf.pop_ready() is None  # 2 missing
    buf.insert(2, "x")
    assert buf.pop_ready() == (2, "x")
    assert buf.pop_ready() == (3, "c")


def test_reorder_figure6_example():
    """The exact scenario of the paper's Figure 6: arrivals 3, 1 then 2."""
    buf = ReorderBuffer()
    buf.insert(3, "s3")
    buf.insert(1, "s1")
    assert buf.pop_ready() is None
    buf.insert(0, "s0")
    assert buf.pop_ready() == (0, "s0")
    assert buf.pop_ready() == (1, "s1")
    buf.insert(2, "s2")
    assert buf.pop_ready() == (2, "s2")
    assert buf.pop_ready() == (3, "s3")
    assert buf.pending == 0


def test_reorder_duplicate_filtering():
    buf = ReorderBuffer()
    assert buf.insert(0, "a")
    assert not buf.insert(0, "a-again")
    assert buf.pop_ready() == (0, "a")
    assert not buf.insert(0, "late-retransmit")
    assert buf.duplicates_dropped == 2


def test_reorder_missing_seq_detection():
    buf = ReorderBuffer()
    assert buf.missing_seq() is None
    buf.insert(5, "later")
    assert buf.missing_seq() == 0
    buf.insert(0, "now")
    buf.pop_ready()
    assert buf.missing_seq() == 1


def test_reorder_skip_gap():
    buf = ReorderBuffer()
    buf.insert(1, "b")
    assert buf.pop_ready() is None
    buf.skip(0)
    assert buf.pop_ready() == (1, "b")
    with pytest.raises(FlowError):
        buf.skip(5)


@given(st.permutations(list(range(30))))
def test_reorder_any_permutation_delivers_in_order(order):
    buf = ReorderBuffer()
    delivered = []
    for seq in order:
        buf.insert(seq, seq)
        while True:
            ready = buf.pop_ready()
            if ready is None:
                break
            delivered.append(ready[0])
    assert delivered == list(range(30))
    assert buf.pending == 0


# -- SeqTracker ---------------------------------------------------------------

def test_seq_tracker_contiguous_advance():
    tracker = SeqTracker()
    assert tracker.add(0) and tracker.add(1)
    assert tracker.contiguous == 2
    assert tracker.missing() is None


def test_seq_tracker_gap_and_fill():
    tracker = SeqTracker()
    tracker.add(0)
    tracker.add(2)
    assert tracker.missing() == 1
    assert tracker.delivered == 2
    tracker.add(1)
    assert tracker.contiguous == 3
    assert tracker.missing() is None


def test_seq_tracker_duplicates():
    tracker = SeqTracker()
    tracker.add(0)
    assert not tracker.add(0)
    tracker.add(2)
    assert not tracker.add(2)
    assert tracker.duplicates_dropped == 2


def test_seq_tracker_skip():
    tracker = SeqTracker()
    tracker.add(1)
    tracker.skip(0)
    assert tracker.contiguous == 2
    with pytest.raises(FlowError):
        tracker.skip(7)


@given(st.permutations(list(range(40))))
def test_seq_tracker_permutation_property(order):
    tracker = SeqTracker()
    for seq in order:
        assert tracker.add(seq)
    assert tracker.contiguous == 40
    assert tracker.missing() is None
