"""The ring-write protocol's stall behaviour, tested where it is written.

A source that finds the remote ring full (``FooterWindow.acquire``) or
its credits spent (``CreditWindow.acquire``) spins in a seeded
random-backoff loop. The protocol tests drive the windows through the
replicate writers against deliberately-full rings: the event trace is
bit-identical across two same-seed runs — the property the figure
benches (and the wall-clock fast paths) rely on — the retry budget
raises after exactly ``max_retries`` rounds unless congestion grace
forgives, and no footer proof ever covers a slot the consumer has not
freed. Each owner (shuffle channel, replicate writer) then only needs a
reachability test: given the same RNG state it stalls to the same
instant.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import FlowError, FlowTimeoutError
from repro.common.rand import derive_rng
from repro.core import DfiRuntime, FlowOptions, Optimization, Schema
from repro.core import writers
from repro.core.backoff import FULL_RING_BACKOFF_BASE, full_ring_backoff
from repro.core.registry import RingHandle
from repro.core.segment import (
    BLANK_FOOTER,
    FLAG_CONSUMABLE,
    FOOTER_SIZE,
    footer_consumable,
    pack_footer,
    unpack_footer,
)
from repro.core.shuffle import BandwidthSourceChannel, LatencySourceChannel
from repro.core.writers import (
    CreditRingWriter,
    FooterRingWriter,
    FooterWindow,
)
from repro.rdma.nic import get_nic
from repro.simnet import Cluster

SEGMENTS = 4
SEGMENT_SIZE = 256
SLOT = SEGMENT_SIZE + FOOTER_SIZE


def _run_footer_backoff(seed):
    cluster = Cluster(node_count=2, seed=seed)
    env = cluster.env
    region = get_nic(cluster.node(1)).register_memory(SEGMENTS * SLOT)
    # Every slot still marked consumable: the remote ring is full, so the
    # first write must poll-and-back-off until the consumer frees slots.
    for i in range(SEGMENTS):
        region.write(i * SLOT + SEGMENT_SIZE,
                     pack_footer(SEGMENT_SIZE, FLAG_CONSUMABLE, seq=1))
    handle = RingHandle(node_id=1, rkey=region.rkey,
                        segment_count=SEGMENTS, segment_size=SEGMENT_SIZE)
    writer = FooterRingWriter(cluster.node(0), handle, tag=("t",))
    trace = []

    def writer_thread():
        payload = b"\xab" * SEGMENT_SIZE
        for seq in range(SEGMENTS + 2):
            yield from writer.write_segment(payload, FLAG_CONSUMABLE, seq)
            trace.append((seq, env.now))

    def consumer_thread():
        # Free one slot every 2 µs (ring order, wrapping) — late enough
        # that the writer's backoff loop spins several times per slot.
        for i in range(SEGMENTS + 2):
            yield env.timeout(2000.0)
            region.write((i % SEGMENTS) * SLOT + SEGMENT_SIZE,
                         pack_footer(0, 0))

    env.process(writer_thread())
    env.process(consumer_thread())
    cluster.run()
    assert len(trace) == SEGMENTS + 2
    return trace


def _run_credit_backoff(seed):
    cluster = Cluster(node_count=2, seed=seed)
    env = cluster.env
    nic = get_nic(cluster.node(1))
    ring_region = nic.register_memory(SEGMENTS * SLOT)
    credit_region = nic.register_memory(8)
    handle = RingHandle(node_id=1, rkey=ring_region.rkey,
                        segment_count=SEGMENTS, segment_size=SEGMENT_SIZE,
                        credit_rkey=credit_region.rkey, credit_offset=0)
    writer = CreditRingWriter(cluster.node(0), handle, tag=("c",),
                              credit_threshold=1)
    trace = []

    def writer_thread():
        payload = b"\xcd" * SEGMENT_SIZE
        for seq in range(2 * SEGMENTS):
            yield from writer.write_segment(payload, FLAG_CONSUMABLE, seq)
            trace.append((seq, env.now))

    def consumer_thread():
        # Bump the consumed counter one segment every 3 µs: the writer
        # exhausts its initial credits instantly, then spins in
        # CreditWindow.acquire (async counter read + random backoff).
        for consumed in range(1, 2 * SEGMENTS + 1):
            yield env.timeout(3000.0)
            credit_region.write_u64(0, consumed)

    env.process(writer_thread())
    env.process(consumer_thread())
    cluster.run()
    assert len(trace) == 2 * SEGMENTS
    return trace


def test_footer_writer_backoff_trace_is_deterministic():
    first = _run_footer_backoff(seed=5)
    second = _run_footer_backoff(seed=5)
    assert first == second
    # The ring really was full: nothing completed before the consumer
    # freed the first slot at t=2000.
    assert first[0][1] > 2000.0


def test_footer_writer_backoff_depends_on_seed():
    assert _run_footer_backoff(seed=1) != _run_footer_backoff(seed=2)


def test_credit_writer_backoff_trace_is_deterministic():
    first = _run_credit_backoff(seed=5)
    second = _run_credit_backoff(seed=5)
    assert first == second
    # The first ring's worth of writes needs no credit wait; the next
    # write must stall until the consumer advanced the counter.
    assert first[SEGMENTS][1] > 3000.0


def test_credit_writer_backoff_depends_on_seed():
    assert _run_credit_backoff(seed=1) != _run_credit_backoff(seed=2)


# -- exponential backoff policy (repro.core.backoff) --------------------------

def test_full_ring_backoff_is_exponential_with_bounded_jitter():
    rng = derive_rng(0, "test-backoff")
    for attempt in range(12):
        base = FULL_RING_BACKOFF_BASE * (1 << min(attempt, 6))
        delays = [full_ring_backoff(rng, attempt) for _ in range(50)]
        # Jitter multiplies the exponential base by [1, 2).
        assert all(base <= d < 2 * base for d in delays)
    # The exponential caps at 2**6: attempts 6 and 60 share a base.
    capped = FULL_RING_BACKOFF_BASE * (1 << 6)
    assert capped <= full_ring_backoff(rng, 60) < 2 * capped


def test_backoff_schedule_is_identical_across_identical_runs():
    """The whole jittered schedule — not just its statistics — replays
    bit-identically from the same per-node stream."""
    first = [full_ring_backoff(derive_rng(7, "node-backoff", 3), a)
             for a in range(20)]
    second = [full_ring_backoff(derive_rng(7, "node-backoff", 3), a)
              for a in range(20)]
    assert first == second
    # Different node id => different stream.
    other = [full_ring_backoff(derive_rng(7, "node-backoff", 4), a)
             for a in range(20)]
    assert first != other


# -- retry budget -------------------------------------------------------------

def _full_footer_ring(cluster):
    region = get_nic(cluster.node(1)).register_memory(SEGMENTS * SLOT)
    for i in range(SEGMENTS):
        region.write(i * SLOT + SEGMENT_SIZE,
                     pack_footer(SEGMENT_SIZE, FLAG_CONSUMABLE, seq=1))
    return RingHandle(node_id=1, rkey=region.rkey,
                      segment_count=SEGMENTS, segment_size=SEGMENT_SIZE)


def test_footer_writer_retry_budget_raises_flow_timeout():
    cluster = Cluster(node_count=2)
    writer = FooterRingWriter(cluster.node(0), _full_footer_ring(cluster),
                              tag=("t",), max_retries=5)
    errors = []

    def writer_thread():
        try:
            yield from writer.write_segment(b"\xab" * SEGMENT_SIZE,
                                            FLAG_CONSUMABLE, 0)
        except FlowTimeoutError as exc:
            errors.append((exc, cluster.now))

    cluster.env.process(writer_thread())
    cluster.run()
    assert len(errors) == 1
    exc, at = errors[0]
    assert "5 backoff rounds" in str(exc)
    # The budget bounds the stall: five capped rounds at most.
    assert at < 5 * 2 * 400.0 * (1 << 6) + 100_000.0


def test_credit_writer_retry_budget_raises_flow_timeout():
    cluster = Cluster(node_count=2)
    nic = get_nic(cluster.node(1))
    ring_region = nic.register_memory(SEGMENTS * SLOT)
    credit_region = nic.register_memory(8)  # stays 0: no credit, ever
    handle = RingHandle(node_id=1, rkey=ring_region.rkey,
                        segment_count=SEGMENTS, segment_size=SEGMENT_SIZE,
                        credit_rkey=credit_region.rkey, credit_offset=0)
    writer = CreditRingWriter(cluster.node(0), handle, tag=("c",),
                              credit_threshold=1, max_retries=4)
    errors = []

    def writer_thread():
        payload = b"\xcd" * SEGMENT_SIZE
        try:
            for seq in range(2 * SEGMENTS):
                yield from writer.write_segment(payload, FLAG_CONSUMABLE,
                                                seq)
        except FlowTimeoutError as exc:
            errors.append(exc)

    cluster.env.process(writer_thread())
    cluster.run()
    assert len(errors) == 1
    assert "4 backoff rounds" in str(errors[0])
    # The initial ring's worth of credits was spent before the stall.
    assert writer.segments_written == SEGMENTS


def test_retry_budget_unset_retries_forever():
    """Without a budget the writer keeps polling — backstop for the
    default (pre-fault-plane) behaviour."""
    cluster = Cluster(node_count=2)
    writer = FooterRingWriter(cluster.node(0), _full_footer_ring(cluster),
                              tag=("t",))
    done = []

    def writer_thread():
        yield from writer.write_segment(b"\xab" * SEGMENT_SIZE,
                                        FLAG_CONSUMABLE, 0)
        done.append(cluster.now)

    cluster.env.process(writer_thread())
    with pytest.raises(RuntimeError):
        # Bounded run: the writer is still politely backing off when the
        # horizon hits — no FlowTimeoutError, no completion.
        cluster.run(until=10_000_000.0)
        raise RuntimeError("horizon reached")
    assert not done


# -- the budget is exact; congestion grace extends it -------------------------

def _stall_to_timeout(cluster, acquire):
    """Drive the window generator ``acquire()`` until it gives up;
    returns ``(message, time, backoff rounds, grace grants)``."""
    outcome = []

    def thread():
        try:
            yield from acquire()
        except FlowTimeoutError as exc:
            outcome.append((str(exc), cluster.now))

    cluster.env.process(thread())
    cluster.run()
    (message, at), = outcome
    counters = cluster.metrics_snapshot()["nodes"][0]["counters"]
    return (message, at, counters.get("core.backoff_rounds", 0),
            counters.get("core.congestion_grace", 0))


def _credit_handle(cluster):
    """A ring whose consumed counter stays 0: no credit, ever."""
    nic = get_nic(cluster.node(1))
    ring_region = nic.register_memory(SEGMENTS * SLOT)
    return RingHandle(node_id=1, rkey=ring_region.rkey,
                      segment_count=SEGMENTS, segment_size=SEGMENT_SIZE,
                      credit_rkey=nic.register_memory(8).rkey,
                      credit_offset=0)


def _footer_stall(budget, seed=0):
    cluster = Cluster(node_count=2, seed=seed)
    cluster.enable_observability()
    writer = FooterRingWriter(cluster.node(0), _full_footer_ring(cluster),
                              tag=("t",), max_retries=budget)
    return cluster, lambda: writer.window.acquire(1)


def _credit_stall(budget, seed=0):
    cluster = Cluster(node_count=2, seed=seed)
    cluster.enable_observability()
    writer = CreditRingWriter(cluster.node(0), _credit_handle(cluster),
                              tag=("c",), credit_threshold=1,
                              max_retries=budget)
    writer.window.sent = SEGMENTS  # the ring's worth of credits is spent
    return cluster, writer.window.acquire


@pytest.mark.parametrize("stall", [_footer_stall, _credit_stall])
@pytest.mark.parametrize("budget", [0, 1, 5])
def test_retry_budget_is_exactly_max_retries_rounds(stall, budget):
    message, _at, rounds, grants = _stall_to_timeout(*stall(budget))
    assert rounds == budget and grants == 0
    assert message.endswith(f"after {budget} backoff rounds")


@pytest.mark.parametrize("stall", [_footer_stall, _credit_stall])
def test_congestion_grace_forgives_an_exhausted_budget(stall, monkeypatch):
    """While the path reads as congestion-throttled an exhausted budget
    keeps polling; the first exhausted round on a healthy path raises."""
    verdicts = [True, True, False]
    monkeypatch.setattr(writers, "stall_is_congestion",
                        lambda node, remote: verdicts.pop(0))
    message, _at, rounds, grants = _stall_to_timeout(*stall(3))
    assert grants == 2 and rounds == 3 + 2 and not verdicts
    assert message.endswith("after 5 backoff rounds")


# -- each owner reaches the same protocol -------------------------------------

_SCHEMA = Schema(("key", "uint64"), ("value", "uint64"))


def _channel_stall(channel_cls, handle_of, budget, seed):
    """The stall of ``_footer_stall``/``_credit_stall``, from a shuffle
    source channel holding the window instead of a replicate writer."""
    cluster = Cluster(node_count=2, seed=seed)
    cluster.enable_observability()
    dfi = DfiRuntime(cluster)
    latency = channel_cls is LatencySourceChannel
    descriptor = dfi.init_shuffle_flow(
        "f", ["node0|0"], ["node1|0"], _SCHEMA, shuffle_key="key",
        optimization=(Optimization.LATENCY if latency
                      else Optimization.BANDWIDTH),
        options=FlowOptions(segment_size=SEGMENT_SIZE,
                            target_segments=SEGMENTS, credit_threshold=1,
                            max_backoff_retries=budget))
    channel = channel_cls(cluster.node(0), descriptor, handle_of(cluster),
                          ("f", 0, 0))
    if latency:
        channel._credit.sent = SEGMENTS
        return cluster, channel._credit.acquire
    return cluster, lambda: channel._window.acquire(1)


@pytest.mark.parametrize("writer_stall, channel_cls, handle_of", [
    (_footer_stall, BandwidthSourceChannel, _full_footer_ring),
    (_credit_stall, LatencySourceChannel, _credit_handle),
], ids=["footer", "credit"])
def test_channel_and_writer_back_off_identically(writer_stall, channel_cls,
                                                 handle_of):
    """Same node, same seed, so the same backoff RNG state: a channel and
    a writer give up at the same instant, to the bit — and at another
    one under another seed."""
    by_writer = _stall_to_timeout(*writer_stall(6, seed=5))
    by_channel = _stall_to_timeout(
        *_channel_stall(channel_cls, handle_of, 6, seed=5))
    assert by_channel == by_writer
    assert by_writer == _stall_to_timeout(*writer_stall(6, seed=5))
    assert by_writer[1] != _stall_to_timeout(*writer_stall(6, seed=6))[1]


def test_owners_refuse_a_handle_without_a_credit_counter():
    cluster = Cluster(node_count=2)
    dfi = DfiRuntime(cluster)
    descriptor = dfi.init_shuffle_flow(
        "f", ["node0|0"], ["node1|0"], _SCHEMA, shuffle_key="key",
        optimization=Optimization.LATENCY)
    handle = _full_footer_ring(cluster)  # no credit_rkey
    with pytest.raises(ValueError, match="credit counter"):
        CreditRingWriter(cluster.node(0), handle, tag=("c",),
                         credit_threshold=1)
    with pytest.raises(FlowError, match="credit counter"):
        LatencySourceChannel(cluster.node(0), descriptor, handle,
                             ("f", 0, 0))


# -- a proof never covers a slot the consumer has not freed -------------------

class _CheckedWindow(FooterWindow):
    """A ``FooterWindow`` that audits itself: every footer read remembers
    the index it was posted at, ``acquire`` refuses to start from a read
    the cursor has since moved past, and whatever it proves is compared
    with the remote ring's memory at the instant of proof."""

    __slots__ = ("ring", "posted_at", "proofs")

    def read_ahead(self, window):
        wr = super().read_ahead(window)
        self.posted_at[id(wr)] = self.index
        return wr

    def acquire(self, want):
        for pending in (self.pending_window, self.pending_slot):
            assert pending is None or self.posted_at[id(pending)] == self.index
        yield from super().acquire(want)
        slots = self.handle.segment_count
        writable = 0
        while writable < slots and not footer_consumable(self.ring.read(
                ((self.index + writable) % slots) * SLOT + SEGMENT_SIZE,
                FOOTER_SIZE)):
            writable += 1
        assert 1 <= self.left <= writable
        self.proofs.append((want, self.left))


@settings(max_examples=60, deadline=None)
@given(slots=st.integers(2, 9),
       steps=st.lists(st.integers(0, 7), min_size=1, max_size=12),
       pauses=st.lists(st.floats(0.0, 6000.0), min_size=1, max_size=8),
       seed=st.integers(0, 3))
def test_footer_proofs_cover_only_freed_slots(slots, steps, pauses, seed):
    """Any mix of per-segment writes (step 0: ``acquire(1)``) and trains
    of ``k`` segments (``acquire(train)``) against a consumer of any
    pace: ``left`` never exceeds the run of non-consumable footers ahead
    of the cursor, no stale read is used, and the consumer finds every
    segment once, in order — nothing was overwritten unread."""
    cluster = Cluster(node_count=2, seed=seed)
    env = cluster.env
    region = get_nic(cluster.node(1)).register_memory(slots * SLOT)
    handle = RingHandle(node_id=1, rkey=region.rkey, segment_count=slots,
                        segment_size=SEGMENT_SIZE)
    writer = FooterRingWriter(cluster.node(0), handle, tag=("t",))
    writer.window.release()
    window = writer.window = _CheckedWindow(
        writer, handle, writer.window.train, None)
    window.ring, window.posted_at, window.proofs = region, {}, []
    total = sum(step or 1 for step in steps)
    payload = b"\x5a" * SEGMENT_SIZE
    consumed = []

    def writer_thread():
        seq = 0
        for step in steps:
            if step:
                yield from writer.write_segments(
                    [(payload, FLAG_CONSUMABLE, seq + i)
                     for i in range(step)])
            else:
                yield from writer.write_segment(payload, FLAG_CONSUMABLE,
                                                seq)
            seq += step or 1

    def consumer_thread():
        for count in range(total):
            offset = (count % slots) * SLOT + SEGMENT_SIZE
            while not footer_consumable(region.read(offset, FOOTER_SIZE)):
                yield env.timeout(150.0)
            yield env.timeout(pauses[count % len(pauses)])
            consumed.append(unpack_footer(
                region.read(offset, FOOTER_SIZE)).seq)
            region.write(offset, BLANK_FOOTER)

    env.process(writer_thread())
    env.process(consumer_thread())
    cluster.run()
    assert consumed == list(range(total))
    assert window.proofs and window.left <= slots
