"""Hot-path layout: cluster nodes run on the cluster's one simulator,
each drawing its own lock stream, a deep copy of nodes keeps them on
one copied clock, and an engine and a node stay within their
instance-attribute budgets."""

from __future__ import annotations

import copy

from repro.cluster.node import ClusterNode
from repro.engine.executor import ExecutionEngine
from repro.engine.simulator import Simulator


#: Each engine and node is built 256 times on the 256-node cluster rows:
#: at 30 attributes CPython 3.11 stops sharing the instance dict's keys,
#: which costs +1.3 KB and ~1 us per object built and +0.8 % peak RSS.
#: The bounds are the counts today, so any new attribute is a decision.
ENGINE_ATTRIBUTES = 15
NODE_ATTRIBUTES = 14


def test_engine_stays_within_its_instance_attribute_budget():
    attributes = len(vars(ExecutionEngine(Simulator(0))))
    assert attributes <= ENGINE_ATTRIBUTES, (
        f"ExecutionEngine has {attributes} instance attributes, more than "
        f"{ENGINE_ATTRIBUTES}: keep per-engine state on the RunStore (a "
        "__slots__ object) or hand values between methods by return value"
    )


def test_node_stays_within_its_instance_attribute_budget():
    attributes = len(vars(ClusterNode(Simulator(0), "n0")))
    assert attributes <= NODE_ATTRIBUTES, (
        f"ClusterNode has {attributes} instance attributes, more than "
        f"{NODE_ATTRIBUTES}: a view of node state belongs in an index fed "
        "by on_change, not in a field the node keeps current"
    )


class TestNodeLockStreams:
    def test_two_nodes_draw_independent_seed_stable_lock_streams(self):
        sim = Simulator(seed=42)
        a, b = ClusterNode(sim, "n0"), ClusterNode(sim, "n1")
        draws = [node.manager.engine.lock_manager._rng.random() for node in (a, b)]
        assert draws == [
            Simulator(seed=42).rng(f"node:{name}/locks").random()
            for name in ("n0", "n1")
        ]
        assert draws[0] != draws[1]

    def test_a_deep_copy_keeps_its_nodes_on_one_copied_clock(self):
        # a forked cluster run copies its simulator through every node
        sim = Simulator(seed=1)
        a, b = copy.deepcopy((ClusterNode(sim, "a"), ClusterNode(sim, "b")))
        assert a.sim is b.sim is a.manager.sim is b.manager.engine.sim
        assert a.sim is not sim
        a.sim.schedule(0.5, lambda: None)
        b.sim.run_until(0.9)
        assert a.sim.now == 0.9 and sim.now == 0.0
        assert a.sim.events_fired == 1 and sim.events_fired == 0

    def test_nodes_share_the_cluster_clock(self):
        sim = Simulator(seed=1)
        a, b = ClusterNode(sim, "a"), ClusterNode(sim, "b")
        assert a.manager.sim is b.manager.sim is sim
