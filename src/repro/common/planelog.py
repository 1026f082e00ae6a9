"""Record kinds of the observability plane log (``record[0]``).

A leaf module: ``repro.simnet`` / ``repro.rdma`` / ``repro.core`` build
these tuples on their data paths without importing the ``repro.obs``
package; ``repro.obs.log`` folds them.
"""

#: ``(TRAIN, now, qp, count, delays, arrivals)`` — one ``post_train`` call.
#: ``delays`` are the NIC issue offsets from ``now``, ``arrivals`` absolute;
#: both empty when the train went WQE by WQE (a fault or a congestion
#: plane is active): each WQE logs its own record.
TRAIN = 0
#: ``(WQE, qp, arb_from, arb_to, issued, arrival)`` — one lone WQE or one
#: of a train walked WQE by WQE, absolute times: NIC arbitration span,
#: wire handoff, arrival.
WQE = 1
#: ``(WRITE, now, endpoint, ring, seq, count, nbytes)`` — a source flushed
#: ``count`` segments numbered from ``seq``. ``ring``: the remote
#: ``RingHandle`` if its target joins write->consume latency, else ``None``;
#: ``nbytes``: ``None`` for a doorbell train.
WRITE = 2
#: ``(CONSUME, now, endpoint, ring, seq, tuple_counts, drain, closed)`` — a
#: target consumed ``len(tuple_counts)`` segments numbered from ``seq``.
#: ``ring``: its ``SegmentRing`` (latency join) or ``None``; ``drain``: a
#: whole drain pass (one ``core.drain_segments`` sample); ``closed``: the
#: pass consumed the channel's close marker.
CONSUME = 3
#: ``(EVENT, ts, kind, flow, node_id, tid, detail)`` — one rare trace event.
EVENT = 4
#: ``(EDGE, t_child, t_parent, category, node_id, tid, flow, src_node_id)``.
EDGE = 5
#: ``(OBSERVE, registry, name, value)`` — one histogram sample.
OBSERVE = 6
#: ``(OPEN, now, flow)`` — a flow endpoint opened.
OPEN = 7
#: ``(CLOSE, now, flow, node_id, tid, detail)`` — close marker; ``tid`` is
#: ``None`` when no ``FLOW_CLOSE`` trace event goes with it (target side).
CLOSE = 8
