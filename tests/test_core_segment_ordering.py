"""Tests for segment rings, footers and the sequence window."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import FlowError
from repro.core.replicate import SeqWindow
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


# -- SeqWindow: the ordered flow's use (paper Fig. 6) --------------------------

def test_reorder_delivers_in_sequence():
    window = SeqWindow()
    window.add(3, "c")
    window.add(1, "b")
    assert window.release() == []  # 0 is missing
    window.add(0, "a")
    assert window.release() == ["a", "b"]  # 2 is missing
    window.add(2, "x")
    assert window.release() == ["x", "c"]


def test_reorder_figure6_example():
    """The exact scenario of the paper's Figure 6: arrivals 3, 1 then 2."""
    window = SeqWindow()
    window.add(3, "s3")
    window.add(1, "s1")
    assert window.release() == []
    window.add(0, "s0")
    assert window.release() == ["s0", "s1"]
    window.add(2, "s2")
    assert window.release() == ["s2", "s3"]
    assert not window.held


def test_reorder_duplicate_filtering():
    window = SeqWindow()
    assert window.add(0, "a")
    assert not window.add(0, "a-again")
    assert window.release() == ["a"]
    assert not window.add(0, "late-retransmit")


def test_reorder_missing_seq_detection():
    """After a release, ``next`` is the lowest missing number exactly
    while something is held."""
    window = SeqWindow()
    assert not window.held
    window.add(5, "later")
    assert window.release() == [] and window.held and window.next == 0
    window.add(0, "now")
    window.release()
    assert window.held and window.next == 1


def test_reorder_skip_gap():
    window = SeqWindow()
    window.add(1, "b")
    assert window.release() == []
    window.skip(0)
    assert window.release() == ["b"]
    with pytest.raises(FlowError):
        window.skip(5)


@st.composite
def _arrivals(draw):
    """A flow of ``count`` sequence numbers of which ``lost`` never
    arrive, and the arrival order of the rest with duplicates mixed in."""
    count = draw(st.integers(1, 30))
    lost = draw(st.sets(st.integers(0, count - 1), max_size=count // 3))
    present = [seq for seq in range(count) if seq not in lost]
    duplicates = draw(st.lists(st.sampled_from(present), max_size=10))
    return count, lost, draw(st.permutations(present + duplicates))


@given(_arrivals())
def test_reorder_any_permutation_delivers_in_order(arrivals):
    """Any arrival order, with duplicates and lost numbers: every number
    that arrives is released once, in order; every second copy is
    refused; skipping a lost number releases what was held behind it."""
    count, lost, order = arrivals
    window = SeqWindow()
    delivered = []
    seen = set()

    def skip_lost():
        gap = window.next
        behind = []
        while gap + 1 + len(behind) in window.held:
            behind.append(gap + 1 + len(behind))
        window.skip(gap)
        assert window.release() == behind
        delivered.extend(behind)

    for seq in order:
        assert window.add(seq, seq) == (seq not in seen)
        seen.add(seq)
        delivered.extend(window.release())
        while window.held and window.next in lost:
            skip_lost()
    while window.next < count:  # lost at the tail: no later one arrived
        assert window.next in lost and not window.held
        skip_lost()
    assert delivered == sorted(seen)
    assert not window.held


# -- SeqWindow: the unordered flow's use, one per source ----------------------

def test_seq_tracker_contiguous_advance():
    window = SeqWindow()
    assert window.add(0) and window.add(1)
    window.release()
    assert window.next == 2
    assert not window.held


def test_seq_tracker_gap_and_fill():
    window = SeqWindow()
    window.add(0)
    window.add(2)
    window.release()
    assert window.held and window.next == 1
    assert window.next + len(window.held) == 2
    window.add(1)
    window.release()
    assert window.next == 3
    assert not window.held


def test_seq_tracker_duplicates():
    window = SeqWindow()
    window.add(0)
    window.release()
    assert not window.add(0)
    window.add(2)
    assert not window.add(2)


def test_seq_tracker_skip():
    window = SeqWindow()
    window.add(1)
    window.skip(0)
    window.release()
    assert window.next == 2
    with pytest.raises(FlowError):
        window.skip(7)


@given(st.permutations(list(range(40))))
def test_seq_tracker_permutation_property(order):
    window = SeqWindow()
    for seq in order:
        assert window.add(seq)
        window.release()
    assert window.next == 40
    assert not window.held
