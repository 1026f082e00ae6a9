"""Cold start pays only for what the flow uses.

numpy is the one optional accelerator in the data path (the bucket pass
of ``core/routing.py``'s packed partition) and by far the most expensive thing a
flow can import: ~0.11 s and ~12 MiB. It must be bound by the first
routed batch of ``_ROUTE_NP_MIN`` rows and by nothing before it — not by
importing ``repro``, not by building a router, not by flows that never
reach the vector branch. Every case runs in a subprocess: pytest's own
process already holds numpy (other test modules import it).
"""

import functools
import json
import os
import subprocess
import sys

import pytest

import repro

_CHILD = '''
import json, sys
PLANT
import repro, repro.core, repro.simnet, repro.obs
from repro.core import FLOW_END, DfiRuntime, Endpoint, Optimization, Schema
from repro.core.routing import key_hash_router
from repro.core.routing import _ROUTE_NP_MIN
from repro.simnet import Cluster

SCHEMA = Schema(("key", "uint64"), ("value", "uint64"))
ROWS = [(i * 7919 + 3, i) for i in range(2 * _ROUTE_NP_MIN)]


def run_flow(sources, targets, push):
    """One keyed shuffle flow, ``sources`` x ``targets`` endpoints on their
    own nodes; ``push(source)`` is each source's body. Returns what every
    target received."""
    cluster = Cluster(node_count=sources + targets)
    dfi = DfiRuntime(cluster)
    dfi.init_shuffle_flow(
        "flow", [Endpoint(n, 0) for n in range(sources)],
        [Endpoint(sources + n, 0) for n in range(targets)], SCHEMA,
        shuffle_key="key")
    received = [[] for _ in range(targets)]

    def source_proc(index):
        source = yield from dfi.open_source("flow", index)
        yield from push(source)
        yield from source.close()

    def target_proc(index):
        target = yield from dfi.open_target("flow", index)
        while True:
            batch = yield from target.consume_batch()
            if batch is FLOW_END:
                return
            received[index].extend(batch)

    for index in range(sources):
        cluster.env.process(source_proc(index))
    for index in range(targets):
        cluster.env.process(target_proc(index))
    cluster.run()
    return received


def expected(rows, targets):
    route = key_hash_router(SCHEMA, "key")
    return [[row for row in rows if route(row, targets) == target]
            for target in range(targets)]


def imports_only():
    return None


def pingpong():
    """The ledger's latency workload in small: 9 nodes, a keyed 1:8
    request flow and an 8:1 response flow, one segment per tuple."""
    cluster = Cluster(node_count=9)
    dfi = DfiRuntime(cluster)
    client, servers = [Endpoint(0, 0)], [Endpoint(1 + n, 0) for n in range(8)]
    for name, sources, targets in (("ping", client, servers),
                                   ("pong", servers, client)):
        dfi.init_shuffle_flow(name, sources, targets, SCHEMA,
                              shuffle_key="key",
                              optimization=Optimization.LATENCY)
    echoed = []

    def client_proc():
        ping = yield from dfi.open_source("ping", 0)
        pong = yield from dfi.open_target("pong", 0)
        for request in ROWS[:64]:
            yield from ping.push(request)
            echoed.append((yield from pong.consume()))
        yield from ping.close()

    def server_proc(index):
        ping = yield from dfi.open_target("ping", index)
        pong = yield from dfi.open_source("pong", index)
        while True:
            request = yield from ping.consume()
            if request is FLOW_END:
                yield from pong.close()
                return
            yield from pong.push(request)

    cluster.env.process(client_proc())
    for index in range(8):
        cluster.env.process(server_proc(index))
    cluster.run()
    assert echoed == ROWS[:64]


def pertuple():
    def push(source):
        for row in ROWS:
            yield from source.push(row)
    assert run_flow(1, 8, push) == expected(ROWS, 8)


def incast():
    """Explicit ``target=`` never routes, whatever the batch size."""
    def push(source):
        yield from source.push_batch(ROWS, target=0)
    (received,) = run_flow(4, 1, push)
    assert sorted(received) == sorted(ROWS * 4)


def routed(count):
    rows = ROWS[:count]
    received = run_flow(1, 8, lambda source: source.push_batch(rows))
    assert received == expected(rows, 8)
    return received


def below_threshold():
    routed(_ROUTE_NP_MIN - 1)


def at_threshold():
    return routed(_ROUTE_NP_MIN)


result = CASE()
numpy = sys.modules.get("numpy", "absent")
print(json.dumps({"numpy": numpy if numpy in ("absent", None) else "loaded",
                  "result": result}))
'''


@functools.cache
def _child(case, plant=""):
    """Run one case in a fresh interpreter; returns its JSON report.
    ``numpy`` is ``"absent"`` (never imported), ``"loaded"`` or ``None``
    (the planted import blocker is still in place)."""
    source = _CHILD.replace("PLANT", plant).replace("CASE", case)
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-c", source], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("case", ("imports_only", "pingpong", "pertuple",
                                  "incast", "below_threshold"))
def test_numpy_stays_unloaded(case):
    assert _child(case)["numpy"] == "absent"


def test_first_vector_routed_batch_binds_numpy():
    assert _child("at_threshold")["numpy"] == "loaded"


def test_numpy_unavailable_routes_through_the_scalar_kernel():
    """With the import blocked the batch that would have bound numpy is
    routed by ``push_batch``'s routing pass: same partitions, no error."""
    blocked = _child("at_threshold", plant='sys.modules["numpy"] = None')
    assert blocked["numpy"] is None
    assert blocked["result"] == _child("at_threshold")["result"]
