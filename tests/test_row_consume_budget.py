"""A buffered row costs its consumer one frame and no C call.

A drain pass or a multicast pump takes in every row that has arrived,
and the consume calls behind the first hand them out one by one. Each
target keeps them in a row list with a count of rows taken, so such a
``consume()`` returns ``rows[taken]`` and enters no frame but its own:
one frame, zero C calls (a ``deque.popleft`` per row was one C call).
Counted for every target class and ordering a per-tuple loop can read.
"""

import pytest

from repro.core import (FLOW_END, DfiRuntime, Endpoint, FlowOptions,
                        Ordering, Schema)
from repro.simnet import Cluster
from tests.callcount import count_calls, grown

SCHEMA = Schema(("key", "uint64"), ("value", "uint64"))
ROWS = [(i, i * i) for i in range(8)]

#: (flow kind, ordering): the target class each opens is in the id.
CASES = {
    "ShuffleTarget": ("shuffle", Ordering.NONE),
    "NaiveReplicateTarget-unordered": ("naive", Ordering.NONE),
    "NaiveReplicateTarget-ordered": ("naive", Ordering.GLOBAL),
    "MulticastReplicateTarget-unordered": ("multicast", Ordering.NONE),
    "MulticastReplicateTarget-ordered": ("multicast", Ordering.GLOBAL),
}


def _take(step, got: list) -> None:
    """Drive one ``consume()`` that must return without waiting."""
    try:
        next(step)
    except StopIteration as stop:
        got.append(stop.value)
    else:
        raise AssertionError("a consume with rows buffered waited")


def _buffered_consumes(kind: str, ordering: Ordering) -> list:
    """One source sends the eight rows in one segment and closes; the
    target's first ``consume()`` takes the segment in, and the calls of
    each of the seven behind it are counted."""
    cluster = Cluster(node_count=2)
    dfi = DfiRuntime(cluster)
    if kind == "shuffle":
        dfi.init_shuffle_flow("f", [Endpoint(0, 0)], [Endpoint(1, 0)],
                              SCHEMA, shuffle_key="key")
    else:
        dfi.init_replicate_flow(
            "f", [Endpoint(0, 0)], [Endpoint(1, 0)], SCHEMA,
            ordering=ordering,
            options=FlowOptions(multicast=kind == "multicast"))
    counted = []

    def source():
        endpoint = yield from dfi.open_source("f", 0)
        yield from endpoint.push_batch(ROWS)
        yield from endpoint.close()

    def target():
        endpoint = yield from dfi.open_target("f", 0)
        got = [(yield from endpoint.consume())]
        for _row in ROWS[1:]:
            step = endpoint.consume()
            counted.append(count_calls(lambda: _take(step, got),
                                       tally=True))
        assert got == ROWS
        assert (yield from endpoint.consume()) is FLOW_END

    cluster.env.process(source())
    cluster.env.process(target())
    cluster.run()
    return counted


@pytest.mark.parametrize("case", sorted(CASES))
def test_buffered_row_is_one_frame_and_no_c_call(case):
    counted = _buffered_consumes(*CASES[case])
    assert len(counted) == len(ROWS) - 1
    for calls in counted:
        assert (calls.frames, calls.c_calls) == (1, 0), grown(calls)
