"""Matcher + pull-binding tests: late binding, recovery, determinism."""

import pytest

from repro.cluster import ClusterDispatcher, ClusterNode, PullBinding, PushBinding
from repro.cluster.matcher import Matcher
from repro.engine.query import QueryState
from repro.engine.simulator import Simulator
from repro.errors import ConfigurationError
from repro.scenarios import PolicyConfig

from tests.conftest import make_query


def _pull_cluster(seed=5, count=3, mpl=1, max_outstanding=None, **kwargs):
    sim = Simulator(seed=seed)
    nodes = [
        ClusterNode(sim, name=f"n{i}", mpl=mpl, max_outstanding=max_outstanding)
        for i in range(count)
    ]
    dispatcher = ClusterDispatcher(sim, nodes, binding=PullBinding(), **kwargs)
    return sim, dispatcher


class TestBindingChoice:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="teleport"):
            PolicyConfig(name="x", dispatch="teleport")

    def test_binding_is_the_one_passed_and_defaults_to_push(self):
        sim, dispatcher = _pull_cluster()
        assert isinstance(dispatcher.binding, PullBinding)
        default = ClusterDispatcher(sim, [ClusterNode(sim, name="solo")])
        assert isinstance(default.binding, PushBinding)


class TestLateBinding:
    def test_arrival_binds_to_free_slot_immediately(self):
        sim, dispatcher = _pull_cluster(count=2)
        query = make_query(cpu=0.5, io=0.0, sql="oltp:q")
        dispatcher.submit(query)
        assert query.state is QueryState.RUNNING
        assert dispatcher.cluster_queue_depth == 0

    def test_backlog_waits_in_task_queue_not_on_nodes(self):
        sim, dispatcher = _pull_cluster(count=2, mpl=1)
        queries = [make_query(cpu=2.0, io=0.0, sql="oltp:q") for _ in range(6)]
        for query in queries:
            dispatcher.submit(query)
        # one per execution slot; the rest wait unbound at the cluster
        assert sum(n.running for n in dispatcher.nodes) == 2
        assert all(n.manager.queued_count == 0 for n in dispatcher.nodes)
        assert dispatcher.cluster_queue_depth == 4
        dispatcher.run(1.0, drain=60.0)
        assert dispatcher.completions == 6
        assert dispatcher.outstanding_work() == 0

    def test_exit_pulls_next_entry(self):
        sim, dispatcher = _pull_cluster(count=1, mpl=1)
        first = make_query(cpu=1.0, io=0.0, sql="oltp:q")
        second = make_query(cpu=1.0, io=0.0, sql="oltp:q")
        dispatcher.submit(first)
        dispatcher.submit(second)
        assert second.state is QueryState.SUBMITTED  # parked, unbound
        sim.run_until(1.5)  # first finishes at ~1.0 -> slot frees -> pull
        assert first.state is QueryState.COMPLETED
        assert second.state in (QueryState.RUNNING, QueryState.COMPLETED)

    def test_fastest_idle_node_pulls_first(self):
        sim = Simulator(seed=5)
        slow = ClusterNode(sim, name="slow", mpl=1, speed_factor=0.5)
        fast = ClusterNode(sim, name="fast", mpl=1)
        dispatcher = ClusterDispatcher(sim, [slow, fast], binding=PullBinding())
        query = make_query(cpu=1.0, io=0.0, sql="oltp:q")
        dispatcher.submit(query)
        assert fast.running == 1
        assert slow.running == 0

    def test_down_and_saturated_nodes_do_not_pull(self):
        sim = Simulator(seed=5)
        nodes = [
            ClusterNode(sim, name="n0", mpl=1),
            ClusterNode(sim, name="n1", mpl=1, max_outstanding=0),  # always saturated
            ClusterNode(sim, name="n2", mpl=1),
        ]
        dispatcher = ClusterDispatcher(sim, nodes, binding=PullBinding())
        dispatcher.crash_node(dispatcher.node("n0"))
        for _ in range(4):
            dispatcher.submit(make_query(cpu=1.0, io=0.0, sql="oltp:q"))
        assert dispatcher.node("n0").running == 0
        assert dispatcher.node("n1").running == 0
        assert dispatcher.node("n2").running == 1
        assert dispatcher.cluster_queue_depth == 3


class TestBoundedTaskQueue:
    def test_overflow_rejects_the_arriving_query(self):
        sim, dispatcher = _pull_cluster(count=1, mpl=1, max_queue_depth=1)
        queries = [make_query(cpu=5.0, io=0.0, sql="oltp:q") for _ in range(4)]
        for query in queries:
            dispatcher.submit(query)
        # 1 running + 1 queued; arrivals 3 and 4 are turned away
        assert dispatcher.rejections == 2
        assert [q.state for q in queries[2:]] == [QueryState.REJECTED] * 2
        assert queries[1].state is QueryState.SUBMITTED
        dispatcher.run(1.0, drain=60.0)
        assert dispatcher.completions + dispatcher.rejections == dispatcher.arrivals


class TestRecovery:
    def test_crash_evacuates_and_resubmits(self):
        sim, dispatcher = _pull_cluster(count=2, mpl=1)
        queries = [make_query(cpu=3.0, io=0.0, sql="oltp:q") for _ in range(4)]
        for query in queries:
            dispatcher.submit(query)
        victim = dispatcher.node("n0")
        assert victim.running == 1
        reclaimed = dispatcher.crash_node(victim)
        assert reclaimed == 1  # in-flight only; backlog was never bound
        dispatcher.run(1.0, drain=120.0)
        assert dispatcher.completions == 4
        assert dispatcher.resubmissions == 1
        assert dispatcher.outstanding_work() == 0


class TestMatcherUnit:
    def test_has_slot_requires_free_execution_slot(self):
        sim = Simulator(seed=5)
        node = ClusterNode(sim, name="n0", mpl=1)
        assert Matcher.has_slot(node)
        node.submit(make_query(cpu=5.0, io=0.0))
        assert not Matcher.has_slot(node)  # running == mpl

    def test_serving_order_is_speed_load_name(self):
        sim = Simulator(seed=5)
        nodes = [
            ClusterNode(sim, name="b", mpl=2),
            ClusterNode(sim, name="a", mpl=2),
            ClusterNode(sim, name="c", mpl=2, speed_factor=0.5),
        ]
        dispatcher = ClusterDispatcher(sim, nodes, binding=PullBinding())
        order = [n.name for n in dispatcher.binding.matcher.hungry_nodes()]
        assert order == ["a", "b", "c"]


class TestPullDeterminism:
    def _digest(self, seed):
        from repro.parallel.digest import dispatcher_digest

        sim, dispatcher = _pull_cluster(seed=seed, count=3, mpl=2)
        rng = sim.rng("test:costs")
        for _ in range(40):
            dispatcher.submit(
                make_query(
                    cpu=float(rng.exponential(0.3)), io=0.2, sql="oltp:q"
                )
            )
        dispatcher.run(2.0, drain=60.0)
        return dispatcher_digest(dispatcher)

    def test_same_seed_same_digest(self):
        assert self._digest(9) == self._digest(9)

    def test_different_seed_different_digest(self):
        assert self._digest(9) != self._digest(10)
