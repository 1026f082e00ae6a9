"""Point-to-point link model with serialization-time bookkeeping.

A link is a unidirectional pipe with a fixed bandwidth. Instead of running a
process per link we track a single ``busy_until`` timestamp: a message of
``size`` bytes occupies the link for ``size / bandwidth`` ns starting at
``max(requested_start, busy_until)``. This O(1) model yields exact FIFO
queueing behaviour (head-of-line blocking, incast congestion) with no event
overhead per queued message.
"""

from __future__ import annotations

from repro.common.errors import SimulationError


class Link:
    """One direction of a network port (e.g. a node's uplink to the switch)."""

    __slots__ = ("name", "bandwidth", "_busy_until", "_busy_time",
                 "bytes_carried", "messages_carried", "_hol_wait")

    def __init__(self, name: str, bandwidth: float) -> None:
        if bandwidth <= 0:
            raise SimulationError(f"link bandwidth must be positive: {bandwidth}")
        self.name = name
        self.bandwidth = bandwidth
        self._busy_until = 0.0
        #: Accumulated transmission time (for utilization accounting).
        self._busy_time = 0.0
        #: Total payload bytes that have been scheduled onto this link.
        self.bytes_carried = 0
        #: Total messages scheduled onto this link.
        self.messages_carried = 0
        #: Accumulated head-of-line wait (reservations pushed past their
        #: requested start by queued traffic) — exact float internally,
        #: truncated at the read like ``busy_until_ns``.
        self._hol_wait = 0.0

    @property
    def busy_until(self) -> float:
        """Time at which the link finishes its last scheduled transmission."""
        return self._busy_until

    @property
    def busy_until_ns(self) -> int:
        """Integer-ns busy horizon for snapshots/histograms: truncating at
        the read keeps long-run observability sums drift-free while the
        scheduling arithmetic stays exact float."""
        return int(self._busy_until)

    @property
    def hol_wait_ns(self) -> int:
        """Integer-ns total head-of-line blocking this link imposed: how
        long messages sat behind earlier traffic before their slot
        started. Always-on (harvested at snapshot time)."""
        return int(self._hol_wait)

    def backlog_ns(self, now: float) -> float:
        """Remaining serialization time queued on the link at ``now``."""
        remaining = self._busy_until - now
        return remaining if remaining > 0.0 else 0.0

    def backlog_bytes(self, now: float) -> int:
        """Bytes queued but not yet clocked onto the wire at ``now`` (the
        congestion plane reports it as ``horizon_backlog_bytes``).
        Integer (floor) so occupancy histograms are drift-free."""
        remaining = self._busy_until - now
        if remaining <= 0.0:
            return 0
        return int(remaining * self.bandwidth)

    def rescale(self, factor: float, now: float) -> None:
        """Change the link bandwidth by ``factor`` at ``now``, re-pricing
        the queued-but-unserialized backlog at the new rate.

        The bytes already scheduled past ``now`` still have to cross the
        wire, so the busy horizon stretches (or shrinks) by ``1/factor``:
        degrade-then-reserve and reserve-then-degrade at the same
        timestamp land on identical completion times. Transmissions whose
        arrival events were already committed keep their original
        timestamps — the re-pricing governs the queue, not the past.
        """
        if factor <= 0:
            raise SimulationError(f"link rescale factor must be positive: {factor}")
        self.bandwidth *= factor
        if self._busy_until > now:
            self._busy_until = now + (self._busy_until - now) / factor

    def serialization_time(self, size: int) -> float:
        """Wire time needed to clock ``size`` bytes onto the link."""
        if size < 0:
            raise SimulationError(f"negative message size: {size}")
        return size / self.bandwidth

    def reserve(self, size: int, earliest: float) -> tuple[float, float]:
        """Schedule a ``size``-byte transmission no earlier than ``earliest``.

        Returns ``(start, end)`` of the reserved transmission slot and
        advances the link's busy horizon to ``end`` — the link's one FIFO
        booking, a doorbell train's messages included.
        """
        if size < 0:
            raise SimulationError(f"negative message size: {size}")
        busy = self._busy_until
        start = busy if busy > earliest else earliest
        end = start + size / self.bandwidth
        self._busy_until = end
        self._busy_time += end - start
        self._hol_wait += start - earliest
        self.bytes_carried += size
        self.messages_carried += 1
        return start, end

    def reserve_priority(self, size: int, earliest: float) -> tuple[float, float]:
        """Schedule a tiny *control* message (footer/credit reads, atomics)
        that interleaves with queued bulk traffic instead of waiting behind
        it.

        Real RNICs schedule work-queue elements round-robin across queue
        pairs at packet granularity, so a 16-byte read response never waits
        behind megabytes of a neighbour QP's send queue. The FIFO
        ``busy_until`` model would impose exactly that wait, so control
        messages bypass the queue; their serialization time is charged but
        the busy horizon is not advanced (their bandwidth share is
        negligible by construction).
        """
        start = earliest
        end = start + self.serialization_time(size)
        self._busy_time += end - start
        self.bytes_carried += size
        self.messages_carried += 1
        return start, end

    def utilization(self, now: float) -> float:
        """Fraction of time the link has spent transmitting up to
        ``now`` (transmissions scheduled beyond ``now`` count in full —
        a bookkeeping approximation, exact once the queue drained)."""
        if now <= 0:
            return 0.0
        return min(1.0, self._busy_time / now)

    def __repr__(self) -> str:
        return (f"<Link {self.name} bw={self.bandwidth:.3f} B/ns "
                f"busy_until={self._busy_until:.0f}>")
