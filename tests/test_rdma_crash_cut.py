"""A peer crash between post and ack, on the macro walk and the oracle.

A fault plane fixes its crash instants when it is installed, so an RC
write decides at post time what the discrete walk's liveness checks
decide when each event fires: a commit at or after the peer's crash is
voided, and a WQE whose ack would return at or after it fails in flight
with ``WR_FLUSH_ERR`` at its ack instant (``QueuePair._post_cut_at_crash``).
Each case crashes the target at one instant of a fault-free run's
timeline and compares the remote bytes, every CQ entry with its instant,
and each work request's outcome against the discrete per-WQE oracle
(``tests/discrete_reference.py``).
"""

from contextlib import nullcontext

import pytest

from repro.rdma import WcStatus, get_nic
from repro.rdma.completion import Opcode, WorkRequest
from repro.simnet import Cluster, FaultPlan
from repro.simnet.faults import node_crash
from tests import discrete_reference
from tests.commits import watch_commits


def _lone(qp, region):
    """One signaled 1 KiB write: its prefix commits one
    tail-serialization before the ordered tail arrives."""
    return [qp.post_write(bytes(range(256)) * 4, region.rkey, 0,
                          signaled=True, wr_id="lone")]


def _train(qp, region):
    """A 4-WQE train: signaled, unsignaled, ``None``, signaled."""
    env = qp.env
    wrs = [WorkRequest(env, "first", Opcode.WRITE, True),
           WorkRequest(env, "unsignaled", Opcode.WRITE, False),
           None,
           WorkRequest(env, "last", Opcode.WRITE, True)]
    qp.post_train([(wr, 512, ((0, bytes([index + 1]) * 512),), region,
                    index * 512) for index, wr in enumerate(wrs)])
    return [wr for wr in wrs if wr is not None]


def _run(shape, crash_at=None, oracle=False):
    """Post ``shape`` from node 0 into node 1 (crashing at ``crash_at``)
    and return the commit instants, the remote bytes, the CQ entries as
    ``(instant, wr_id, status, byte_len)`` and each work request's
    ``(wr_id, done triggered, failed)`` long after the run."""
    cluster = Cluster(node_count=2)
    if crash_at is not None:
        cluster.install_faults(FaultPlan([node_crash(1, at=crash_at)]))
    env = cluster.env
    region = get_nic(cluster.node(1)).register_memory(2048)
    commits = []
    qp = get_nic(cluster.node(0)).create_qp(cluster.node(1))
    completions = []
    posted = []

    def poster():
        posted.extend(shape(qp, region))
        while True:  # parked on the CQ once the last entry arrived
            wc = yield qp.send_cq.wait()
            completions.append((env.now, wc.wr_id, wc.status, wc.byte_len))

    with (discrete_reference.installed() if oracle
          else nullcontext({"wqes": 0})) as posts, \
            pytest.MonkeyPatch.context() as monkeypatch:
        watch_commits(monkeypatch, region,
                      lambda offset, length: commits.append(env.now))
        cluster.node(0).spawn(poster())
        cluster.run()
    assert bool(posts["wqes"]) == oracle
    outcomes = [(wr.wr_id, wr.done.triggered, wr.error is not None)
                for wr in posted]
    return {"commits": commits, "memory": bytes(region.mem),
            "cq": completions, "wrs": outcomes}


def _crash_instants(shape):
    """The crash points of ``shape``'s fault-free timeline: between its
    first commit and the next arrival, exactly at that arrival, between
    the last arrival and the last ack, and exactly at that ack."""
    plain = _run(shape)
    commits = plain["commits"]
    ack = plain["cq"][-1][0]
    return plain, {"prefix_to_tail": (commits[0] + commits[1]) / 2,
                   "at_arrival": commits[1],
                   "arrival_to_ack": (commits[-1] + ack) / 2,
                   "at_ack": ack}


@pytest.mark.parametrize("point", ["prefix_to_tail", "at_arrival",
                                   "arrival_to_ack", "at_ack"])
@pytest.mark.parametrize("shape", [_lone, _train], ids=["lone", "train"])
def test_crash_in_flight_matches_discrete_reference(shape, point):
    """Remote bytes, CQ statuses and instants, and every work request's
    outcome equal the discrete walk's for a crash at ``point``."""
    plain, instants = _crash_instants(shape)
    crash_at = instants[point]
    product = _run(shape, crash_at)
    reference = _run(shape, crash_at, oracle=True)
    assert product == reference
    # Non-vacuity: a WQE failed in flight, every commit that landed did
    # so strictly before the crash, and a crash before the last arrival
    # voided at least one commit.
    assert any(status is WcStatus.WR_FLUSH_ERR
               for _at, _id, status, _len in product["cq"])
    assert all(at < crash_at for at in product["commits"])
    voided = point in ("prefix_to_tail", "at_arrival")
    assert (len(product["commits"]) < len(plain["commits"])) == voided
