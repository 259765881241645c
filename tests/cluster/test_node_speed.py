"""A node's speed across RECOVER: the intended behaviour, not yet met.

``FaultKind.RECOVER`` calls :meth:`ClusterNode.activate`, which resets
``speed_factor`` to ``base_speed_factor`` and re-throttles running work
only when the new factor is below 1.  Two consequences, pinned here as
strict xfails so the repair flips them (ROADMAP item 9 names the ledger
and gate rows that repair moves):

* (a) a degraded node that crashes and recovers while its degrade
  window is still open comes back at full speed;
* (b) a degrade's own RECOVER on a full-speed node leaves the queries
  already running throttled at the degraded factor until they finish,
  while ``speed_factor`` already reads 1.0.
"""

import pytest

from repro.cluster import ClusterDispatcher, ClusterNode, FaultInjector, make_policy
from repro.cluster.failover import FaultEvent, FaultKind, FaultPlan
from repro.engine.simulator import Simulator

from tests.conftest import make_query


def _throttles(node):
    engine = node.manager.engine
    return [engine.throttle_of(qid) for qid in engine.running_ids()]


def _degraded_node_with_work(sim):
    node = ClusterNode(sim, name="n0", mpl=2)
    node.submit(make_query(cpu=50.0, io=0.0, sql="bi:q"))
    node.degrade(0.5)
    assert _throttles(node) == [0.5]
    return node


def test_restore_speed_lifts_the_throttle_on_running_work():
    # the path RECOVER should match: restore re-enforces at any factor
    node = _degraded_node_with_work(Simulator(seed=3))
    node.restore_speed()
    assert node.speed_factor == 1.0 and _throttles(node) == [1.0]


@pytest.mark.xfail(
    strict=True, reason="activate() re-throttles running work only below speed 1"
)
def test_recover_after_a_degrade_lifts_the_throttle_on_running_work():
    node = _degraded_node_with_work(Simulator(seed=3))
    node.activate()  # what a degrade's own FaultKind.RECOVER calls
    assert node.speed_factor == 1.0
    assert _throttles(node) == [1.0]


@pytest.mark.xfail(
    strict=True, reason="activate() resets speed while the degrade window is open"
)
def test_crash_recovery_inside_a_degrade_window_stays_degraded():
    # the cluster_256 spec's shape: degraded at t=0, a crash wave takes
    # the node and revives it, and the degrade's own RECOVER comes last
    sim = Simulator(seed=3)
    nodes = [ClusterNode(sim, name=f"n{i}", mpl=2) for i in range(2)]
    dispatcher = ClusterDispatcher(sim, nodes, placement=make_policy("least"))
    FaultInjector(dispatcher).arm(
        FaultPlan(
            (
                FaultEvent(0.0, "n0", FaultKind.DEGRADE, factor=0.4),
                FaultEvent(1.0, "n0", FaultKind.CRASH),
                FaultEvent(2.0, "n0", FaultKind.RECOVER),
                FaultEvent(5.0, "n0", FaultKind.RECOVER),
            )
        )
    )
    sim.run_until(3.0)
    assert nodes[0].accepting
    assert nodes[0].speed_factor == 0.4
