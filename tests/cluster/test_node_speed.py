"""A node's speed is its engine's speed ceiling, owned by DEGRADE alone.

Each fault kind moves one node variable: CRASH and RECOVER move health,
DEGRADE moves speed.  So:

* a degrade ended by ``DEGRADE factor=1.0`` lifts the slowdown on the
  work already running;
* a degraded node that crashes and recovers while its degrade window is
  still open comes back degraded;
* work a slow node starts from its own queue after an exit runs at the
  node's speed from its first instant.
"""

import pytest

from repro.cluster import ClusterDispatcher, ClusterNode, FaultEvent, FaultKind, make_policy
from repro.engine.query import QueryState
from repro.engine.simulator import Simulator
from repro.scenarios import ChaosSpec

from tests.conftest import make_query


def _speeds(node):
    engine = node.manager.engine
    return [engine.speed_of(q.query_id) for q in engine.running_queries()]


def _degraded_node_with_work(sim):
    node = ClusterNode(sim, name="n0", mpl=2)
    # 50 cpu-seconds on a 4-core node: one query, alone, runs at 1/50
    node.submit(make_query(cpu=50.0, io=0.0, sql="bi:q"))
    assert _speeds(node) == [pytest.approx(1 / 50)]
    node.degrade(0.5)
    assert _speeds(node) == [pytest.approx(0.5 / 50)]
    return node


def test_restore_speed_lifts_the_throttle_on_running_work():
    # restoring speed is ``degrade(1.0)``; the slowdown it lifts is the
    # node's speed ceiling, which no throttle carries any more
    node = _degraded_node_with_work(Simulator(seed=3))
    node.degrade(1.0)
    assert node.speed_factor == 1.0 and _speeds(node) == [pytest.approx(1 / 50)]


def test_recover_after_a_degrade_lifts_the_throttle_on_running_work():
    # a degrade window's end as the scenario language schedules it; the
    # "throttle" is the node's speed, and no throttle is set any more
    sim = Simulator(seed=3)
    node = ClusterNode(sim, name="n0", mpl=2)
    dispatcher = ClusterDispatcher(sim, [node], placement=make_policy("least"))
    dispatcher.arm_faults(
        ChaosSpec(degrade=((0.0, 0, 0.5),), degrade_recovery=0.1).build_plan(1, 10.0)
    )
    node.submit(make_query(cpu=50.0, io=0.0, sql="bi:q"))
    sim.run_until(0.5)
    assert _speeds(node) == [pytest.approx(0.5 / 50)]
    sim.run_until(1.5)
    assert node.speed_factor == 1.0
    assert _speeds(node) == [pytest.approx(1 / 50)]


def test_crash_recovery_inside_a_degrade_window_stays_degraded():
    # the cluster_256 spec's shape: degraded at t=0, a crash wave takes
    # the node and revives it, and the degrade window ends last
    sim = Simulator(seed=3)
    nodes = [ClusterNode(sim, name=f"n{i}", mpl=2) for i in range(2)]
    dispatcher = ClusterDispatcher(sim, nodes, placement=make_policy("least"))
    dispatcher.arm_faults(
        (
            FaultEvent(0.0, "n0", FaultKind.DEGRADE, factor=0.4),
            FaultEvent(1.0, "n0", FaultKind.CRASH),
            FaultEvent(2.0, "n0", FaultKind.RECOVER),
            FaultEvent(5.0, "n0", FaultKind.DEGRADE, factor=1.0),
        )
    )
    sim.run_until(3.0)
    assert nodes[0].accepting
    assert nodes[0].speed_factor == 0.4
    query = make_query(cpu=50.0, io=0.0, sql="bi:q")
    nodes[0].submit(query)
    assert _speeds(nodes[0]) == [pytest.approx(0.4 / 50)]


def test_work_a_slow_node_starts_after_an_exit_runs_at_its_speed():
    # MPL 1 at speed 0.4: the second query waits in the node's own queue
    # and starts when the first exits at t=2.5, between two heartbeats
    sim = Simulator(seed=3)
    node = ClusterNode(sim, name="n0", mpl=1, speed_factor=0.4)
    first = make_query(cpu=1.0, io=0.0, sql="bi:q")
    second = make_query(cpu=3.0, io=0.0, sql="bi:q")
    node.submit(first)
    node.submit(second)
    assert node.running == 1 and node.queued == 1
    sim.run_until(100.0)
    assert first.state is QueryState.COMPLETED and second.state is QueryState.COMPLETED
    assert first.end_time == pytest.approx(1.0 / 0.4)
    assert second.end_time == pytest.approx(first.end_time + 3.0 / 0.4)
