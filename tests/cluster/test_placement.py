"""Placement-policy tests: determinism, eligibility, SLA scoring.

Property tests (hypothesis) assert the two cluster-level invariants
that matter for reproducibility and correctness: a seeded arrival
sequence always produces the identical placement sequence, and no
policy ever places work onto a DOWN or saturated node (the
dispatcher's eligibility filter holds under arbitrary health churn).
The SLA-aware placer's scoring is unit-tested directly, against the
SLAs the ``cluster_overload`` scenario declares.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterDispatcher,
    ClusterNode,
    CostBalancedPlacement,
    LeastOutstandingPlacement,
    NodeHealth,
    RoundRobinPlacement,
    SLAAwarePlacement,
    make_policy,
    predict_response_time,
)
from repro.engine.simulator import Simulator
from repro.errors import ConfigurationError
from repro.scenarios import get_scenario
from repro.scenarios.runner import scenario_slas

from tests.conftest import make_query

SLAS = scenario_slas(get_scenario("cluster_overload"))


class FakeNode:
    """Duck-typed node exposing exactly what policies read."""

    def __init__(self, name, est=0.0, rate=6.0, speed=1.0, outstanding=0):
        self.name = name
        self.outstanding_estimated_work = est
        self.rate_capacity = rate
        self.speed_factor = speed
        self.outstanding_work = outstanding
        self.accepting = True


def _placement_order(policy, nodes):
    """What the dispatcher hands ``choose``: a fresh stable sort of the
    eligible nodes by ``policy.rank``."""
    return sorted((node for node in nodes if policy.rank(node) is not None), key=policy.rank)


# (cpu, io, priority, workload) per arriving query
query_descriptions = st.lists(
    st.tuples(
        st.floats(min_value=0.01, max_value=4.0),
        st.floats(min_value=0.0, max_value=4.0),
        st.integers(min_value=1, max_value=3),
        st.sampled_from(["oltp", "bi"]),
    ),
    min_size=1,
    max_size=25,
)

policy_names = st.sampled_from(["round-robin", "least", "cost", "sla"])


def _build(seed, policy, healths):
    sim = Simulator(seed=seed)
    nodes = [
        ClusterNode(sim, name=f"n{i}", mpl=2, max_outstanding=4)
        for i in range(len(healths))
    ]
    for node, health in zip(nodes, healths):
        # every node starts UP; DOWN is reached as in a run
        if health is NodeHealth.DOWN:
            node.crash()
    dispatcher = ClusterDispatcher(sim, nodes, placement=make_policy(policy, slas=SLAS))
    return sim, dispatcher


def _drive(seed, policy, rows, healths):
    sim, dispatcher = _build(seed, policy, healths)
    placements = []
    original_place = dispatcher._place

    def spy(query, node):
        placements.append((query.query_id, node.name))
        original_place(query, node)

    dispatcher._place = spy
    for index, (cpu, io, priority, workload) in enumerate(rows):
        query = make_query(
            cpu=cpu, io=io, priority=priority, sql=f"{workload}:q"
        )
        sim.schedule_at(0.2 * index, lambda q=query: dispatcher.submit(q))
    sim.run_until(0.2 * len(rows) + 60.0)
    dispatcher.shutdown()
    sim.run()
    return dispatcher, placements


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(rows=query_descriptions, policy=policy_names, seed=st.integers(0, 2**16))
def test_placement_sequence_is_deterministic(rows, policy, seed):
    healths = [NodeHealth.UP] * 3
    _, first = _drive(seed, policy, rows, healths)
    _, second = _drive(seed, policy, rows, healths)
    assert [name for _, name in first] == [name for _, name in second]


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    rows=query_descriptions,
    policy=policy_names,
    healths=st.lists(
        st.sampled_from(list(NodeHealth)),
        min_size=2,
        max_size=4,
    ).filter(lambda hs: NodeHealth.UP in hs),
)
def test_never_places_onto_unavailable_nodes(rows, policy, healths):
    dispatcher, placements = _drive(3, policy, rows, healths)
    unavailable = {
        f"n{i}" for i, h in enumerate(healths) if h is not NodeHealth.UP
    }
    placed_names = {name for _, name in placements}
    assert placed_names.isdisjoint(unavailable)
    for node in dispatcher.nodes:
        if node.name in unavailable:
            assert node.placed_count == 0


class TestRoundRobin:
    def test_rotates_in_order(self):
        nodes = [FakeNode("a"), FakeNode("b"), FakeNode("c")]
        policy = RoundRobinPlacement()
        query = make_query()
        chosen = [policy.choose(query, nodes).name for _ in range(6)]
        assert chosen == ["a", "b", "c", "a", "b", "c"]


class TestLeastOutstanding:
    def test_picks_fewest_requests_with_name_tiebreak(self):
        nodes = [
            FakeNode("b", outstanding=2),
            FakeNode("a", outstanding=1),
            FakeNode("c", outstanding=1),
        ]
        policy = LeastOutstandingPlacement()
        assert policy.choose(make_query(), _placement_order(policy, nodes)).name == "a"


class TestCostBalanced:
    def test_normalizes_by_rate_capacity(self):
        # 12 device-seconds on a fast node drains sooner than 8 on a slow one
        nodes = [FakeNode("fast", est=12.0, rate=12.0), FakeNode("slow", est=8.0, rate=4.0)]
        policy = CostBalancedPlacement()
        assert policy.choose(make_query(), _placement_order(policy, nodes)).name == "fast"


class TestSLAScoring:
    def _policy(self):
        return SLAAwarePlacement(SLAS, default_deadline=60.0)

    def test_deadline_prefers_p95_then_average(self):
        policy = self._policy()
        assert policy.deadline_for(make_query(sql="oltp:q")) == 2.0  # p95
        assert policy.deadline_for(make_query(sql="bi:q")) == 120.0  # average
        assert policy.deadline_for(make_query(sql="other:q")) == 60.0  # default

    def test_workload_name_attribute_wins_over_sql_tag(self):
        policy = self._policy()
        query = make_query(sql="bi:q", workload="oltp")
        assert policy.deadline_for(query) == 2.0

    def test_prediction_combines_backlog_and_service(self):
        node = FakeNode("n", est=12.0, rate=6.0)
        query = make_query(cpu=2.0, io=1.0)  # nominal duration 2.0
        assert predict_response_time(node, query) == pytest.approx(4.0)

    def test_degraded_node_predicts_slower(self):
        healthy = FakeNode("h", est=0.0)
        slow = FakeNode("s", est=0.0, speed=0.5)
        query = make_query(cpu=2.0, io=0.0)
        assert predict_response_time(slow, query) == pytest.approx(
            2 * predict_response_time(healthy, query)
        )

    def test_tightest_fit_picks_busiest_feasible_node(self):
        # deadline 2.0 for oltp: idle (0.1s) and busy (1.5s) both feasible,
        # overloaded (10s) is not -> busiest feasible wins
        idle = FakeNode("idle", est=0.0)
        busy = FakeNode("busy", est=8.0, rate=6.0)      # ~1.43s
        overloaded = FakeNode("over", est=60.0, rate=6.0)
        query = make_query(cpu=0.1, io=0.0, sql="oltp:q")
        chosen = self._policy().choose(query, [idle, busy, overloaded])
        assert chosen.name == "busy"

    def test_falls_back_to_fastest_when_infeasible(self):
        a = FakeNode("a", est=60.0, rate=6.0)   # 10s backlog
        b = FakeNode("b", est=30.0, rate=6.0)   # 5s backlog
        query = make_query(cpu=0.1, io=0.0, sql="oltp:q")  # 2s deadline
        assert self._policy().choose(query, [a, b]).name == "b"


class TestMakePolicy:
    def test_registry_round_trip(self):
        for name, cls in (
            ("round-robin", RoundRobinPlacement),
            ("least", LeastOutstandingPlacement),
            ("cost", CostBalancedPlacement),
            ("sla", SLAAwarePlacement),
        ):
            assert isinstance(make_policy(name, slas=SLAS), cls)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            make_policy("dart-throwing")


class TestNodeLockStreams:
    def test_node_streams_are_independent(self):
        def first_draws(nodes, drain=0):
            sim = Simulator(seed=9)
            built = {name: ClusterNode(sim, name) for name in nodes}
            if drain:
                built["b"].manager.engine.lock_manager._rng.random(drain)
            return built["a"].manager.engine.lock_manager._rng.random(5).tolist()

        alone = first_draws(["a"])
        # draining another node's stream does not perturb node a
        assert first_draws(["a", "b"], drain=1000) == alone
        assert first_draws(["b", "a"], drain=1000) == alone
        assert alone == Simulator(seed=9).rng("node:a/locks").random(5).tolist()

    def test_empty_lock_stream_rejected(self):
        with pytest.raises(ConfigurationError, match="lock_stream"):
            ClusterNode(Simulator(seed=1), "n0", lock_stream="")
