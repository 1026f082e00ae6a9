"""Tests for endpoint parsing and tuple routing."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import ConfigurationError, FlowError
from repro.core import Endpoint, Schema, endpoints_on, parse_endpoints
from repro.core.routing import (
    key_hash_router,
    radix_router,
    range_router,
    round_robin_router,
)


# -- endpoints ----------------------------------------------------------------

def test_parse_endpoint_formats():
    assert Endpoint.parse("node3|1") == Endpoint(3, 1)
    assert Endpoint.parse("3|1") == Endpoint(3, 1)
    assert Endpoint.parse((2, 0)) == Endpoint(2, 0)
    assert Endpoint.parse(Endpoint(1, 1)) == Endpoint(1, 1)


def test_parse_endpoint_rejects_garbage():
    for bad in ("node3", "a|b", 17, (1, 2, 3)):
        with pytest.raises(ConfigurationError):
            Endpoint.parse(bad)


def test_endpoint_rejects_negative_ids():
    with pytest.raises(ConfigurationError):
        Endpoint(-1, 0)


def test_parse_endpoints_rejects_duplicates():
    with pytest.raises(ConfigurationError, match="duplicate"):
        parse_endpoints(["node0|0", "0|0"])


def test_endpoints_on_builder():
    endpoints = endpoints_on(node_count=3, threads_per_node=2)
    assert len(endpoints) == 6
    assert endpoints[0] == Endpoint(0, 0)
    assert endpoints[-1] == Endpoint(2, 1)
    subset = endpoints_on(node_count=8, threads_per_node=1, nodes=[5, 7])
    assert subset == [Endpoint(5, 0), Endpoint(7, 0)]


def test_endpoint_str_roundtrip():
    endpoint = Endpoint(4, 2)
    assert Endpoint.parse(str(endpoint)) == endpoint


# -- routing -----------------------------------------------------------------

SCHEMA = Schema(("key", "uint64"), ("value", "uint64"))


def test_key_hash_router_in_range_and_deterministic():
    route = key_hash_router(SCHEMA, "key")
    targets = [route((k, 0), 7) for k in range(1000)]
    assert all(0 <= t < 7 for t in targets)
    assert targets == [route((k, 0), 7) for k in range(1000)]


def test_key_hash_router_spreads_keys():
    route = key_hash_router(SCHEMA, "key")
    counts = [0] * 8
    for k in range(4000):
        counts[route((k, 0), 8)] += 1
    assert min(counts) > 4000 / 8 * 0.5  # roughly balanced


def test_radix_router_uses_low_bits():
    route = radix_router(SCHEMA, "key", bits=3)
    for k in range(64):
        assert route((k, 0), 8) == k % 8


def test_radix_router_with_shift():
    route = radix_router(SCHEMA, "key", bits=2, shift=4)
    assert route((0b110000, 0), 4) == 0b11


def test_radix_router_rejects_zero_bits():
    with pytest.raises(FlowError):
        radix_router(SCHEMA, "key", bits=0)


def test_range_router_boundaries():
    route = range_router(SCHEMA, "key", boundaries=[100, 200])
    assert route((5, 0), 3) == 0
    assert route((150, 0), 3) == 1
    assert route((99999, 0), 3) == 2


def test_range_router_validations():
    with pytest.raises(FlowError):
        range_router(SCHEMA, "key", boundaries=[200, 100])
    route = range_router(SCHEMA, "key", boundaries=[10])
    with pytest.raises(FlowError, match="built for"):
        route((1, 0), 5)


def test_round_robin_router_cycles():
    route = round_robin_router()
    assert [route((0, 0), 3) for _ in range(7)] == [0, 1, 2, 0, 1, 2, 0]


def test_round_robin_cursor_is_per_source():
    """Two sources pushing in lockstep through one ``round_robin_router``
    each spray both targets. With one cursor shared by the flow's
    sources, source 0 drew every even turn and source 1 every odd one:
    target 0 received only source 0's tuples."""
    from repro.core import FLOW_END, DfiRuntime
    from repro.simnet import Cluster

    cluster = Cluster(node_count=4)
    dfi = DfiRuntime(cluster)
    shared = round_robin_router()
    dfi.init_shuffle_flow("rr", ["node0|0", "node1|0"],
                          ["node2|0", "node3|0"], SCHEMA, routing=shared)
    received = [[], []]

    def source_thread(index):
        source = yield from dfi.open_source("rr", index)
        for n in range(8):
            yield from source.push((index, n))
            yield cluster.env.timeout(1_000.0)  # lockstep: 0, 1, 0, 1, …
        yield from source.close()

    def target_thread(index):
        target = yield from dfi.open_target("rr", index)
        while True:
            values = yield from target.consume()
            if values is FLOW_END:
                return
            received[index].append(values)

    for index in range(2):
        cluster.env.process(source_thread(index))
        cluster.env.process(target_thread(index))
    cluster.run()
    for target, parity in enumerate((0, 1)):
        assert sorted(received[target]) == [
            (source, n) for source in range(2) for n in range(parity, 8, 2)]
    # The descriptor's router was a template only: its cursor never moved.
    assert shared((0, 0), 2) == 0


@given(st.integers(0, 2 ** 64 - 1), st.integers(1, 64))
def test_key_hash_router_property(key, target_count):
    route = key_hash_router(SCHEMA, "key")
    assert 0 <= route((key, 0), target_count) < target_count
