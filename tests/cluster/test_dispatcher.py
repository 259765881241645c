"""ClusterDispatcher unit tests: routing, queueing, node rejections."""

import pytest

from repro.admission.threshold import ThresholdAdmission
from repro.cluster import ClusterDispatcher, ClusterNode, PullBinding, PushBinding, make_policy
from repro.core.interfaces import (
    AdmissionController,
    AdmissionDecision,
    ControlEvent,
    decisions_by,
)
from repro.core.policy import AdmissionPolicy
from repro.engine.query import QueryState
from repro.engine.simulator import Simulator
from repro.errors import ConfigurationError
from repro.scenarios import get_scenario
from repro.scenarios.runner import scenario_slas

from tests.conftest import make_query

SLAS = scenario_slas(get_scenario("cluster_overload"))
BINDINGS = {"push": PushBinding, "pull": PullBinding}


def _cluster(seed=5, count=3, policy="least", mpl=2, max_outstanding=2, **kwargs):
    sim = Simulator(seed=seed)
    nodes = [
        ClusterNode(sim, name=f"n{i}", mpl=mpl, max_outstanding=max_outstanding)
        for i in range(count)
    ]
    dispatcher = ClusterDispatcher(
        sim, nodes, placement=make_policy(policy, slas=SLAS), **kwargs
    )
    return sim, dispatcher


class TestConstruction:
    def test_rejects_empty_cluster(self):
        with pytest.raises(ConfigurationError):
            ClusterDispatcher(Simulator(seed=1), [])

    def test_rejects_duplicate_names(self):
        sim = Simulator(seed=1)
        nodes = [ClusterNode(sim, name="n0"), ClusterNode(sim, name="n0")]
        with pytest.raises(ConfigurationError):
            ClusterDispatcher(sim, nodes)

    def test_rejects_negative_queue_depth(self):
        sim = Simulator(seed=1)
        with pytest.raises(ConfigurationError):
            ClusterDispatcher(
                sim, [ClusterNode(sim, name="n0")], max_queue_depth=-1
            )

    def test_node_lookup(self):
        _, dispatcher = _cluster()
        assert dispatcher.node("n1").name == "n1"
        with pytest.raises(KeyError):
            dispatcher.node("nope")


class TestRouting:
    def test_arrivals_place_and_complete(self):
        sim, dispatcher = _cluster()
        queries = [make_query(cpu=0.2, io=0.1, sql="oltp:q") for _ in range(6)]
        for query in queries:
            dispatcher.submit(query)
        dispatcher.run(1.0, drain=60.0)
        assert dispatcher.arrivals == 6
        assert dispatcher.completions == 6
        assert all(q.state is QueryState.COMPLETED for q in queries)
        assert dispatcher.outstanding_work() == 0

    def test_saturated_cluster_queues_then_drains(self):
        sim, dispatcher = _cluster(count=2, max_outstanding=1)
        queries = [make_query(cpu=1.0, io=0.0, sql="oltp:q") for _ in range(5)]
        for query in queries:
            dispatcher.submit(query)
        # 2 placed (one per node), 3 wait at the cluster level
        assert dispatcher.cluster_queue_depth == 3
        dispatcher.run(1.0, drain=120.0)
        assert dispatcher.completions == 5
        assert dispatcher.cluster_queue_depth == 0

    def test_bounded_queue_rejects_overflow(self):
        sim, dispatcher = _cluster(count=1, max_outstanding=1, max_queue_depth=1)
        queries = [make_query(cpu=1.0, io=0.0, sql="oltp:q") for _ in range(4)]
        for query in queries:
            dispatcher.submit(query)
        assert dispatcher.rejections == 2  # 1 placed + 1 queued + 2 rejected
        rejected = [q for q in queries if q.state is QueryState.REJECTED]
        assert len(rejected) == 2
        dispatcher.run(1.0, drain=60.0)
        assert dispatcher.completions == 2
        assert dispatcher.completions + dispatcher.rejections == dispatcher.arrivals

    def test_rejection_notifies_listeners(self):
        seen = []
        sim, dispatcher = _cluster(count=1, max_outstanding=1, max_queue_depth=0)
        dispatcher.add_completion_listener(seen.append)
        for _ in range(3):
            dispatcher.submit(make_query(cpu=1.0, io=0.0, sql="oltp:q"))
        assert dispatcher.rejections == 2
        assert len([q for q in seen if q.state is QueryState.REJECTED]) == 2


class TestNodeRejectionIsFinal:
    """A request a node's admission rejects ends REJECTED, once.

    Regression: the dispatcher used to intercept the rejection and
    re-place the request with the refusing node excluded; when every
    node refused, it bounced between the nodes and the cluster queue
    forever (61 re-placements by t=60 s on one node), recorded nowhere
    and reported to no client.
    """

    @pytest.mark.parametrize("count", [1, 2])
    @pytest.mark.parametrize("dispatch", ["push", "pull"])
    def test_rejected_everywhere_ends_rejected_once(self, dispatch, count):
        policy = AdmissionPolicy(reject_over_cost=1.0)
        sim = Simulator(seed=5)
        nodes = [
            ClusterNode(sim, name=f"n{i}", admission=ThresholdAdmission(policy))
            for i in range(count)
        ]
        dispatcher = ClusterDispatcher(
            sim, nodes, placement=make_policy("round-robin"), binding=BINDINGS[dispatch]()
        )
        seen = []
        dispatcher.add_completion_listener(seen.append)
        heavy = make_query(cpu=5.0, io=0.0, sql="bi:q")
        dispatcher.submit(heavy)
        dispatcher.run(60.0)
        assert heavy.state is QueryState.REJECTED
        assert seen == [heavy]
        (refuser,) = [n for n in nodes if n.manager.rejected_count]
        assert refuser.manager.rejected_count == 1
        (event,) = decisions_by(refuser.manager.decisions, action="reject")
        _, _, reason = policy.violation(heavy.estimated_cost.total_work, 0)
        assert (event.query_id, event.detail) == (heavy.query_id, reason)
        assert dispatcher.cluster_queue_depth == 0
        assert dispatcher.outstanding_work() == 0

    @pytest.mark.parametrize("dispatch", ["push", "pull"])
    def test_a_refused_backlog_drains_without_recursing(self, dispatch):
        # each refusal frees the slot it was placed in and calls back
        # into the binding: a backlog deeper than the interpreter's
        # recursion limit must still drain in one loop
        sim = Simulator(seed=5)
        gate = ThresholdAdmission(AdmissionPolicy(reject_over_cost=1.0))
        node = ClusterNode(sim, name="n0", mpl=1, max_outstanding=1, admission=gate)
        dispatcher = ClusterDispatcher(sim, [node], binding=BINDINGS[dispatch]())
        seen = []
        dispatcher.add_completion_listener(seen.append)
        dispatcher.submit(make_query(cpu=0.5, io=0.0, sql="oltp:q"))  # saturates n0
        backlog = [make_query(cpu=5.0, io=0.0, sql="bi:q") for _ in range(1500)]
        for query in backlog:
            dispatcher.submit(query)
        assert dispatcher.cluster_queue_depth == len(backlog)
        dispatcher.run(10.0)
        assert all(query.state is QueryState.REJECTED for query in backlog)
        assert node.manager.rejected_count == len(backlog)
        assert len(seen) == len(backlog) + 1
        assert dispatcher.cluster_queue_depth == 0


class DoorHold(AdmissionController):
    """A front-door gate that delays everything."""

    def decide(self, query, context):
        return AdmissionDecision.delay("hold at the door", wait=self)


class ExitCounting(AdmissionController):
    """Accepts ``oltp`` and rejects ``bi``; records every exit it hears."""

    def __init__(self):
        self.exits = []

    def decide(self, query, context):
        if query.sql.startswith("bi:"):
            return AdmissionDecision.reject("no bi at the door")
        return AdmissionDecision.accept()

    def notify_exit(self, query, context):
        self.exits.append(query)


class TestFrontDoor:
    """The cluster's front door is an ``AdmissionController`` (``admission=``)."""

    @pytest.mark.parametrize("dispatch", ["push", "pull"])
    def test_a_cost_gate_rejects_at_the_door(self, dispatch):
        policy = AdmissionPolicy(reject_over_cost=1.0)
        sim, dispatcher = _cluster(
            count=2, admission=ThresholdAdmission(policy), binding=BINDINGS[dispatch]()
        )
        cheap = [make_query(cpu=0.5, io=0.0, sql="oltp:q") for _ in range(3)]
        dear = [make_query(cpu=5.0, io=0.0, sql="bi:q") for _ in range(2)]
        for query in (cheap[0], dear[0], cheap[1], dear[1], cheap[2]):
            dispatcher.submit(query)
        dispatcher.run(10.0, drain=10.0)
        assert all(query.state is QueryState.COMPLETED for query in cheap)
        assert all(query.state is QueryState.REJECTED for query in dear)
        # no node saw a dear request
        assert sum(node.placed_count for node in dispatcher.nodes) == len(cheap)
        assert all(not node.manager.decisions for node in dispatcher.nodes)
        _, _, reason = policy.violation(dear[0].estimated_cost.total_work, 0)
        assert decisions_by(dispatcher.metrics.decisions, action="reject") == [
            ControlEvent(0.0, "ThresholdAdmission", "reject", query.query_id, "bi", reason)
            for query in dear
        ]
        assert dispatcher.rejections == len(dear)

    @pytest.mark.parametrize("dispatch", ["push", "pull"])
    def test_a_delay_at_the_door_is_a_rejection(self, dispatch):
        sim, dispatcher = _cluster(count=2, admission=DoorHold(), binding=BINDINGS[dispatch]())
        seen = []
        dispatcher.add_completion_listener(seen.append)
        held = make_query(cpu=0.5, io=0.0, sql="oltp:q")
        dispatcher.submit(held)
        assert held.state is QueryState.REJECTED and seen == [held]
        (event,) = decisions_by(dispatcher.metrics.decisions, action="reject")
        assert (event.controller, event.query_id, event.detail) == (
            "DoorHold", held.query_id, "hold at the door",
        )
        assert dispatcher.outstanding_work() == 0

    @pytest.mark.parametrize("dispatch", ["push", "pull"])
    def test_the_gate_hears_each_request_it_accepted_exit_once(self, dispatch):
        gate = ExitCounting()
        sim, dispatcher = _cluster(
            count=2, admission=gate, max_queue_depth=0, binding=BINDINGS[dispatch]()
        )
        # two nodes of two slots take four; the fifth finds no room
        accepted = [make_query(cpu=1.0, io=0.0, sql="oltp:q") for _ in range(5)]
        refused = [make_query(cpu=1.0, io=0.0, sql="bi:q") for _ in range(2)]
        for query in accepted[:3] + refused + accepted[3:]:
            dispatcher.submit(query)
        full = accepted[-1]
        assert full.state is QueryState.REJECTED
        assert gate.exits == [full]  # heard at its outcome, not at completion
        dispatcher.run(10.0, drain=10.0)
        assert all(query.state is QueryState.REJECTED for query in refused)
        assert sorted(q.query_id for q in gate.exits) == [q.query_id for q in accepted]
        reasons = [e.detail for e in decisions_by(dispatcher.metrics.decisions, action="reject")]
        assert reasons == ["no bi at the door"] * 2 + ["cluster queue full (0)"]


class TestHeadOfLineBlocking:
    def test_picky_head_does_not_starve_placeable_tail(self):
        """A queued head the node refuses ends REJECTED at its turn; the
        request behind it is placed in the same drain and completes."""
        sim = Simulator(seed=5)
        gate = ThresholdAdmission(AdmissionPolicy(reject_over_cost=1.0))
        node = ClusterNode(sim, name="n0", mpl=1, max_outstanding=1, admission=gate)
        dispatcher = ClusterDispatcher(sim, [node], placement=make_policy("round-robin"))
        blocker = make_query(cpu=0.5, io=0.0, sql="oltp:first")
        picky = make_query(cpu=5.0, io=0.0, sql="bi:head")
        tail = make_query(cpu=0.5, io=0.0, sql="oltp:tail")
        dispatcher.submit(blocker)  # saturates the node
        dispatcher.submit(picky)  # queues; the node will refuse it
        dispatcher.submit(tail)  # queues behind the picky head
        assert dispatcher.cluster_queue_depth == 2
        dispatcher.run(10.0, drain=60.0)
        assert picky.state is QueryState.REJECTED
        assert tail.state is QueryState.COMPLETED
        assert dispatcher.cluster_queue_depth == 0
        assert dispatcher.completions == 2
        assert node.manager.rejected_count == 1

    def test_blocked_head_keeps_its_queue_position(self):
        sim = Simulator(seed=5)
        node = ClusterNode(sim, name="n0", mpl=1, max_outstanding=1)
        dispatcher = ClusterDispatcher(sim, [node], placement=make_policy("round-robin"))
        dispatcher.submit(make_query(cpu=50.0, io=0.0, sql="oltp:run"))
        head = make_query(cpu=1.0, io=0.0, sql="bi:head")
        tail = make_query(cpu=1.0, io=0.0, sql="oltp:tail")
        dispatcher.submit(head)
        dispatcher.submit(tail)
        dispatcher.binding.drain()  # scan while the node is saturated
        assert dispatcher.binding.queue.queued_queries() == [head, tail]


class TestSaturatedNode:
    def test_saturated_node_finishes_but_takes_nothing_new(self):
        sim, dispatcher = _cluster(count=2, policy="round-robin", max_outstanding=1)
        first = make_query(cpu=2.0, io=0.0, sql="oltp:q")
        dispatcher.submit(first)  # -> n0, which it saturates
        victim = dispatcher.node("n0")
        assert victim.outstanding_work == 1
        assert not victim.accepting
        placed_before = victim.placed_count
        for _ in range(4):
            dispatcher.submit(make_query(cpu=0.5, io=0.0, sql="oltp:q"))
        assert victim.placed_count == placed_before
        dispatcher.run(0.0, drain=60.0)
        assert first.state is QueryState.COMPLETED
        assert dispatcher.completions == 5
