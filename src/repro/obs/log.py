"""The fold: everything the exporters read, derived from the plane log.

With observability on, ``repro.core`` / ``repro.rdma`` / ``repro.simnet``
record by appending one compact tuple (``repro.common.planelog``) to
``ObsPlane.records`` — one per doorbell train, per drain pass, per rare
event — through the bound ``list.append`` every per-node registry carries
as ``log``. The tuples hold values the caller already has (clock,
endpoint, first sequence number, NIC delays, wire arrivals): no dict,
string or histogram arithmetic happens on the data path.

:func:`fold` replays the log, in append (= program) order, into the
bounded stores the exporters read — ``FlowTracer`` rings, the causal
recorder's per-node edge rings, the registries' histograms — so every
store sees the sequence live recording would have produced and exports
are byte-identical. It is one loop that resolves names once per queue
pair / endpoint (``ObsPlane.resolved``), appends events and edges
straight to the ring lists and hands each histogram its samples as one
batch. Every read accessor folds first; the data path folds a full chunk
(``MetricsRegistry.bound``), so memory stays <= one chunk + the rings.
"""

from __future__ import annotations

from repro.common.planelog import (CONSUME, EDGE, EVENT, OBSERVE, OPEN, TRAIN,
                                   WQE, WRITE)
from repro.obs.trace import FLOW_CLOSE, SEG_CONSUME, SEG_WRITE


def fold(plane) -> None:
    """Replay ``plane.records`` into the plane's stores and clear it."""
    records = plane.records
    if not records:
        return
    tracers = plane.tracers
    causal = plane.causal
    stamps = plane.stamps
    samples = plane.samples
    # QueuePair / flow endpoint -> what its records resolve to.
    qps = endpoints = plane.resolved

    def sampler(registry, name):
        """``append`` of this chunk's samples of one histogram."""
        return samples.setdefault((registry, name), []).append

    def edges_of(node_id):
        """``append`` of a node's edge ring (``None`` with causal off)."""
        if causal is not None:
            return causal.log(node_id).items.append

    def resolve_qp(qp):
        node_id = qp.node.node_id
        remote_id = qp.remote_node.node_id
        info = qps[qp] = (sampler(qp._obs, "rdma.train_len"), f"qp{qp.qpn}",
                          node_id, remote_id, edges_of(node_id),
                          edges_of(remote_id), qp._ack_delta)
        return info

    def resolve_endpoint(endpoint):
        node_id = endpoint.node.node_id
        tracer = tracers.get(endpoint._flow)
        info = endpoints[endpoint] = (
            node_id, endpoint._tid, endpoint._flow,
            tracer.items.append if tracer is not None else None,
            edges_of(node_id),
            sampler(endpoint._obs, "core.seg_latency"),
            sampler(endpoint._obs, "core.drain_segments"))
        return info

    def wqe_edges(info, arb_from, arb_to, issued, arrival):
        # One WQE's causal chain: arbitration, wire out, the ack back.
        # Zero spans carry no blame and would stall the backward walk.
        _train_len, tid, node_id, remote_id, local, remote, ack_delta = info
        if arb_to > arb_from:
            local((arb_to, arb_from, "nic_arb", node_id, node_id, tid, None))
        if arrival > issued:
            remote((arrival, issued, "wire", remote_id, node_id, tid, None))
        acked = arrival + ack_delta
        if acked > arrival:
            local((acked, arrival, "wire", node_id, remote_id, tid, None))

    for record in records:
        kind = record[0]
        if kind == TRAIN:
            _kind, now, qp, count, delays, arrivals = record
            info = qps.get(qp) or resolve_qp(qp)
            info[0](count)
            if causal is not None:
                # Each arbitration slot follows the previous wire handoff.
                arb_parent = now
                for delay, arrival in zip(delays, arrivals):
                    issued = now + delay
                    wqe_edges(info, arb_parent, issued, issued, arrival)
                    arb_parent = issued
        elif kind == CONSUME:
            _kind, now, endpoint, ring, seq, counts, drain, closed = record
            node_id, tid, flow, trace, edge, latency, drained = (
                endpoints.get(endpoint) or resolve_endpoint(endpoint))
            key = (node_id, ring.region.rkey) if ring is not None else None
            slots = stamps.get(key)
            if slots is not None:
                size = ring.segment_count
                for slot in range(seq, seq + len(counts)):
                    slot %= size
                    stamp = slots[slot]
                    if stamp is not None:
                        slots[slot] = None
                        latency(now - stamp)
                        if edge is not None and now > stamp:
                            # Context span (not walked): write -> consume.
                            edge((now, stamp, "seg", node_id, node_id, tid,
                                  flow))
            if trace is not None:
                for tuples in counts:
                    trace((now, SEG_CONSUME, node_id, tid,
                           {"seq": seq, "tuples": tuples}))
                    seq += 1
            if drain:
                drained(len(counts))
            if closed:
                stamps.pop(key, None)
                if causal is not None:
                    causal._closes.setdefault(flow, []).append((now, node_id))
        elif kind == WRITE:
            _kind, now, endpoint, ring, seq, count, nbytes = record
            info = endpoints.get(endpoint) or resolve_endpoint(endpoint)
            numbers = range(seq, seq + count)
            if ring is not None:
                key = (ring.node_id, ring.rkey)
                slots = stamps.get(key)
                size = ring.segment_count
                if slots is None:
                    slots = stamps[key] = [None] * size
                for number in numbers:
                    slots[number % size] = now
            trace = info[3]
            if trace is not None:
                node_id, tid = info[:2]
                for number in numbers:
                    trace((now, SEG_WRITE, node_id, tid,
                           {"seq": number, "train": True} if nbytes is None
                           else {"seq": number, "bytes": nbytes}))
        elif kind == WQE:
            if causal is not None:
                qp = record[1]
                wqe_edges(qps.get(qp) or resolve_qp(qp), *record[2:])
        elif kind == EVENT:
            tracer = tracers.get(record[3])
            if tracer is not None:
                tracer.items.append((record[1], record[2], *record[4:]))
        elif kind == EDGE:
            _kind, child, parent, category, node_id, tid, flow, src = record
            if causal is not None and child > parent:
                causal.log(node_id).items.append(
                    (child, parent, category, node_id,
                     node_id if src is None else src, tid, flow))
        elif kind == OBSERVE:
            sampler(record[1], record[2])(record[3])
        elif kind == OPEN:
            if causal is not None:
                _kind, now, flow = record
                earliest = causal._opens.get(flow)
                if earliest is None or now < earliest:
                    causal._opens[flow] = now
        else:  # CLOSE
            _kind, now, flow, node_id, tid, detail = record
            tracer = tracers.get(flow)
            if tid is not None and tracer is not None:
                tracer.items.append((now, FLOW_CLOSE, node_id, tid, detail))
            if causal is not None:
                causal._closes.setdefault(flow, []).append((now, node_id))
    del records[:]
    for (registry, name), values in samples.items():
        if values:
            registry.histogram(name).record_many(values)
            del values[:]
    for tracer in tracers.values():
        tracer.trim()
    if causal is not None:
        for ring in causal._logs.values():
            ring.trim()
