"""Shared ring-full backoff policy for flow writers and channels.

Exponential backoff with jitter: retry round ``attempt`` sleeps
``BASE * 2**min(attempt, MAX_EXPONENT) * (1 + U[0, 1))`` nanoseconds.
The jitter draw comes from the caller's RNG; flow code passes the
*per-node* deterministic stream (``Node.backoff_rng``), so two identical
runs schedule bit-identical backoff events no matter how many channels
on the node share the stream — the draws interleave in event order,
which the kernel makes deterministic.
"""

from __future__ import annotations

import random

from repro.obs import BACKOFF, log_event
from repro.common.planelog import EDGE

#: First-round backoff delay (ns) when a remote ring polls full.
FULL_RING_BACKOFF_BASE = 400.0
#: Cap the exponential at BASE * 2**_MAX_EXPONENT (25.6 us): beyond that,
#: longer sleeps only delay failure detection without relieving pressure.
_MAX_EXPONENT = 6


def full_ring_backoff(rng: random.Random, attempt: int) -> float:
    """Delay (ns) to sleep before re-polling a full remote ring."""
    return (FULL_RING_BACKOFF_BASE * (1 << min(attempt, _MAX_EXPONENT))
            * (1.0 + rng.random()))


def traced_backoff(writer, attempt: int) -> float:
    """One ring-full backoff round of a ring writer or source channel:
    :func:`full_ring_backoff`, counted and logged (the ``BACKOFF`` trace
    event, plus a ``credit_stall`` causal edge for the sleep) when its
    observability handle ``writer._obs`` is on. The RNG draw is the
    untraced path's — same stream, same order — so recording leaves the
    simulated timeline unchanged."""
    delay = full_ring_backoff(writer._rng, attempt)
    obs = writer._obs
    if obs is not None:
        obs.inc("core.backoff_rounds")
        log_event(writer, BACKOFF, {"attempt": attempt})
        if obs.causal:
            now = writer.env.now
            obs.log((EDGE, now + delay, now, "credit_stall",
                     writer.node.node_id, writer._tid, writer._flow, None))
    return delay
