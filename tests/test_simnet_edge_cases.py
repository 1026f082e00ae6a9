"""Edge-case tests for the kernel and sync primitives."""

import pytest

from repro.common.errors import SimulationError
from repro.simnet import Cluster, Environment
from repro.simnet.link import Link


# -- conditions with pre-triggered children -----------------------------------

def test_all_of_with_already_processed_children():
    env = Environment()
    early = env.timeout(1, value="a")
    env.run(until=5)  # early is processed now

    def proc(env):
        values = yield env.all_of([early, env.timeout(2, value="b")])
        return values

    p = env.process(proc(env))
    env.run()
    assert p.value == ["a", "b"]


def test_any_of_with_already_processed_child():
    env = Environment()
    early = env.timeout(1, value="ready")
    env.run(until=5)

    def proc(env):
        index, value = yield env.any_of([env.timeout(100), early])
        return index, value

    p = env.process(proc(env))
    env.run(p)
    assert p.value == (1, "ready")


def test_all_of_failure_propagates():
    env = Environment()
    gate = env.event()

    def proc(env):
        try:
            yield env.all_of([env.timeout(10), gate])
        except ValueError:
            return "caught"

    p = env.process(proc(env))
    gate.fail(ValueError("child failed"))
    env.run()
    assert p.value == "caught"


def test_condition_rejects_cross_kernel_events():
    env_a = Environment()
    env_b = Environment()
    with pytest.raises(SimulationError, match="different kernels"):
        env_a.all_of([env_a.timeout(1), env_b.timeout(1)])


# -- process edge cases -------------------------------------------------------

def test_process_requires_generator():
    env = Environment()
    with pytest.raises(SimulationError, match="generator"):
        env.process(lambda: None)  # type: ignore[arg-type]


def test_event_value_before_trigger_rejected():
    env = Environment()
    event = env.event()
    with pytest.raises(SimulationError):
        _ = event.value
    with pytest.raises(SimulationError):
        _ = event.ok


def test_fail_requires_exception():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")  # type: ignore[arg-type]


def test_chained_immediate_events_no_recursion():
    """A long chain of already-triggered events resumes iteratively."""
    env = Environment()

    def proc(env):
        total = 0
        for i in range(5000):
            done = env.event()
            done.succeed(i)
            # An event that is triggered but not yet processed.
            total += yield done
        return total

    p = env.process(proc(env))
    env.run()
    assert p.value == sum(range(5000))


# -- link utilization accounting ------------------------------------------

def test_link_utilization_counts_transmission_time_only():
    link = Link("l", bandwidth=1.0)
    link.reserve(100, earliest=0)
    link.reserve(100, earliest=500)  # gap from 100 to 500 is idle
    assert link.utilization(600) == pytest.approx(200 / 600)


def test_priority_reservation_does_not_block_bulk():
    link = Link("l", bandwidth=1.0)
    link.reserve(1000, earliest=0)
    start, end = link.reserve_priority(16, earliest=100)
    assert (start, end) == (100, 116)  # interleaves with the bulk
    bulk_start, _bulk_end = link.reserve(100, earliest=0)
    assert bulk_start == 1000  # bulk queue position unaffected


# -- fabric control-message priority -------------------------------------------

def test_control_unicast_bypasses_bulk_queue():
    cluster = Cluster(node_count=2)
    times = {}

    def sender(cluster):
        # Fill the uplink with ~80 us of bulk traffic.
        for _ in range(10):
            cluster.fabric.unicast(cluster.node(0), cluster.node(1),
                                   100_000)
        control = cluster.fabric.unicast(cluster.node(0), cluster.node(1),
                                         16, control=True)
        yield control
        times["control"] = cluster.env.now

    cluster.env.process(sender(cluster))
    cluster.run()
    bulk_drain = 10 * 100_000 / cluster.profile.link_bandwidth
    assert times["control"] < bulk_drain / 2  # did not wait for the queue
