"""The ranked node index: whole-run audits, a property, a cost guard.

The fresh full sort the index replaced survives here as the oracle:
every read of a :class:`RankedNodes` in a whole run (the matcher's and
the dispatcher's eligible set, in placement order) is compared
with a fresh sort of the nodes that have a ``rank``, and every
load-ranked placement with the old ``min`` over the candidate list.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from functools import partial
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.admission.threshold import ThresholdAdmission
from repro.cluster import ClusterDispatcher, ClusterNode, PullBinding, PushBinding, make_policy
from repro.core.policy import AdmissionPolicy
from repro.cluster.matcher import Matcher
from repro.cluster.placement import CostBalancedPlacement, LoadRankedPlacement
from repro.cluster.ranked import RankedNodes
from repro.engine.simulator import Simulator
from repro.scenarios import arm_scenario, get_policy, get_scenario, run_scenario

from tests.conftest import make_query


def _oracle(index: RankedNodes) -> list:
    ranked = [(index._rank(node), node) for node in index._position]
    return [node for rank, node in sorted(
        (pair for pair in ranked if pair[0] is not None), key=lambda pair: pair[0]
    )]


@contextmanager
def _audit():
    """Check every index read and every load-ranked pick against a scan."""
    real_read = RankedNodes.read
    real_choose = LoadRankedPlacement.choose
    seen = SimpleNamespace(reads=0, picks=0)

    def audited_read(index):
        seen.reads += 1
        got = real_read(index)
        assert got == _oracle(index), "ranked read diverged from a fresh sort"
        return got

    def audited_choose(policy, query, nodes):
        seen.picks += 1
        got = real_choose(policy, query, nodes)
        assert got is min(nodes, key=policy.load_key), "pick != min over candidates"
        return got

    with mock.patch.object(RankedNodes, "read", audited_read), mock.patch.object(
        LoadRankedPlacement, "choose", audited_choose
    ):
        yield seen


def _run(dispatch, policy, seed, mpl=2, actions=()):
    """The EXP18 overload plus arbitrary timed dispatcher actions."""
    result = arm_scenario(
        get_scenario("cluster_overload", horizon=10.0, mpl=mpl),
        get_policy(f"{dispatch}/{policy}"),
        seed=seed,
    )
    dispatcher = result.dispatcher
    for at, action in actions:
        dispatcher.sim.schedule_at(
            at, lambda act=action: act(dispatcher, dispatcher.node("n1"))
        )
    return result.run().dispatcher


def _matcher_run(dispatch, nodes):
    return run_scenario(
        get_scenario("matcher_stress", nodes=nodes, horizon=15.0),
        get_policy(f"{dispatch}/cost"),
        seed=42,
        drain=30.0,
    ).dispatcher


BINDINGS = [("pull", "cost"), ("push", "least"), ("push", "cost")]

CHURN = {
    # mpl=1 puts max_outstanding at 4: slot and saturation edges flip
    # constantly without any fault
    "clean_mpl1": dict(mpl=1),
    "kill_recover": dict(
        actions=[
            (3.0, lambda d, n: d.crash_node(n)),
            (6.0, lambda d, n: d.activate_node(n)),
        ]
    ),
    "degrade_restore": dict(
        actions=[
            (2.0, lambda d, n: d.degrade_node(n, 0.4)),
            (6.0, lambda d, n: d.degrade_node(n, 1.0)),
        ]
    ),
    # n1 crashes and comes back inside its degrade window: it recovers
    # slow, and the restore is a speed edge on a node that was DOWN
    "crash_inside_degrade": dict(
        actions=[
            (2.0, lambda d, n: d.degrade_node(n, 0.4)),
            (3.0, lambda d, n: d.crash_node(n)),
            (5.0, lambda d, n: d.activate_node(n)),
            (6.0, lambda d, n: d.degrade_node(n, 1.0)),
        ]
    ),
}


class TestWholeRunAudit:
    @pytest.mark.parametrize("dispatch,policy", BINDINGS)
    @pytest.mark.parametrize("churn", sorted(CHURN))
    def test_every_read_equals_a_fresh_sort(self, dispatch, policy, churn):
        with _audit() as seen:
            dispatcher = _run(dispatch, policy, seed=11, **CHURN[churn])
        assert dispatcher.completions > 100
        assert seen.reads > dispatcher.completions // 2
        if dispatch == "push":
            assert seen.picks >= dispatcher.completions

    @pytest.mark.parametrize("dispatch,policy", BINDINGS)
    def test_idle_cluster_sees_every_health_and_speed_edge(self, dispatch, policy):
        # no traffic: nothing but the edge's own notification can dirty n1
        sim = Simulator(seed=3)
        binding = PullBinding() if dispatch == "pull" else PushBinding()
        nodes = [ClusterNode(sim, name=f"n{i}") for i in range(3)]
        d = ClusterDispatcher(sim, nodes, placement=make_policy(policy), binding=binding)
        if dispatch == "pull":
            indexes = [d.binding.matcher._hungry]
        else:  # the eligible set is built at its first read
            d._eligible_for()
            indexes = [d._eligible]
        n1 = d.node("n1")
        with _audit() as seen:
            for edge in (
                lambda: d.degrade_node(n1, 0.5),
                lambda: d.crash_node(n1),  # a crash inside the degrade window
                lambda: d.activate_node(n1),
                lambda: d.degrade_node(n1, 1.0),
                lambda: d.crash_node(n1),
                lambda: d.activate_node(n1),
                n1.crash,
                n1.activate,
                lambda: n1.submit(make_query(cpu=9.0, io=0.0, sql="bi:q")),
            ):
                for index in indexes:
                    index.read()
                edge()
                for index in indexes:
                    index.read()
        assert seen.reads >= 18 * len(indexes)

    @pytest.mark.parametrize("dispatch,policy", BINDINGS)
    def test_node_rejections_keep_every_index_exact(self, dispatch, policy):
        # a refused placement adds and takes back its estimate, (t+e)-e,
        # which need not round back to t: the refusal must re-mark the node
        sim = Simulator(seed=9)
        policy_gate = AdmissionPolicy(reject_over_cost=1.0)
        nodes = [
            ClusterNode(sim, f"n{i}", mpl=2, admission=ThresholdAdmission(policy_gate))
            for i in range(3)
        ]
        binding = PullBinding() if dispatch == "pull" else PushBinding()
        d = ClusterDispatcher(sim, nodes, placement=make_policy(policy), binding=binding)
        rng = random.Random(4)
        for i in range(400):
            cost = rng.choice([0.1, 0.2, 0.3, 0.7]) if i % 3 else 1.1 + rng.random()
            query = make_query(cpu=cost, io=cost / 3, sql="q")
            sim.schedule_at(i * 0.01, partial(d.submit, query))
        with _audit() as seen:
            d.run(30.0)
        rejected = sum(node.manager.rejected_count for node in nodes)
        assert rejected > 100 and d.completions > 200
        assert seen.reads > rejected

    @pytest.mark.parametrize("policy", ["least", "cost"])
    def test_excluded_node_is_skipped_in_rank_order(self, policy):
        sim = Simulator(seed=7)
        first = ClusterNode(sim, name="a-first")  # ranks first on every tie
        loaded, idle = ClusterNode(sim, name="b"), ClusterNode(sim, name="c")
        dispatcher = ClusterDispatcher(
            sim, [first, loaded, idle], placement=make_policy(policy)
        )
        dispatcher.crash_node(first)  # out of the eligible set
        with _audit() as seen:
            loaded.submit(make_query(cpu=3.0, io=0.0, sql="bi:q"))
            dispatcher.submit(make_query(cpu=5.0, io=0.0, sql="bi:q"))
        # the pick walked past the crashed node and the loaded one
        assert seen.picks == 1
        assert (first.running, loaded.running, idle.running) == (0, 1, 1)


class _Item:
    """A stand-in node: a mutable key and membership bit."""

    def __init__(self, name):
        self.name, self.load, self.member = name, 0, True

    def on_change(self, listener):
        """The property below touches by hand."""


def _item_rank(item):
    return (item.load,) if item.member else None


# (item, new load, new membership) | (item,) = touch without change | () = read
_ops = st.lists(
    st.one_of(
        st.tuples(st.integers(0, 5), st.integers(0, 3), st.booleans()),
        st.tuples(st.integers(0, 5)),
        st.just(()),
    ),
    max_size=60,
)


class TestRankedNodesProperty:
    @settings(max_examples=200, deadline=None)
    @given(ops=_ops, touch_twice=st.booleans())
    def test_reads_equal_the_sorted_oracle(self, ops, touch_twice):
        items = [_Item(f"i{i}") for i in range(6)]
        # loads collide on purpose: ties must break by position, as the
        # stable sort breaks them
        index = RankedNodes(items, _item_rank)
        members = index.read()
        for op in ops:
            if not op:
                # every read refreshes and returns the one list it keeps
                assert index.read() is members
                assert members == _oracle(index)
                continue
            item = items[op[0]]
            if len(op) == 3:
                _, item.load, item.member = op
            index.touch(item)
            if touch_twice:
                index.touch(item)
        assert index.read() == _oracle(index)

    def test_untouched_mutation_is_not_seen(self):
        # the contract is touch-before-read, not polling
        items = [_Item("a"), _Item("b")]
        index = RankedNodes(items, _item_rank)
        assert index.read() == items
        items[0].load = 9
        assert index.read() == items
        index.touch(items[0])
        assert index.read() == items[::-1]

    def test_a_refresh_ranks_each_touched_node_once(self):
        items = [_Item(f"i{i}") for i in range(4)]
        calls = []

        def rank(item):
            calls.append(item)
            return _item_rank(item)

        index = RankedNodes(items, rank)
        index.read()
        assert sorted(calls, key=items.index) == items
        calls.clear()
        items[1].member = False
        index.touch(items[1])
        index.touch(items[1])
        index.touch(items[3])
        assert index.read() == [items[0], items[2], items[3]]
        assert sorted(calls, key=items.index) == [items[1], items[3]]
        calls.clear()
        index.read()  # nothing touched: nothing ranked
        assert calls == []


class TestCostGuard:
    """Deterministic per-binding work: counts repeat exactly, so this
    holds on a shared runner where wall time cannot be gated.  The
    per-binding full sort did ~``nodes`` of each per binding."""

    BOUND = 8
    NODES = 64

    def test_pull_slot_checks_and_key_builds_per_binding(self):
        with mock.patch.object(
            Matcher, "has_slot", wraps=Matcher.has_slot
        ) as has_slot, mock.patch.object(
            Matcher, "_rank", wraps=Matcher._rank
        ) as rank:
            dispatcher = _matcher_run("pull", self.NODES)
        bindings = dispatcher.binding.matcher.matches
        assert bindings > 1000
        assert has_slot.call_count <= self.BOUND * bindings
        assert rank.call_count <= self.BOUND * bindings

    def test_push_cost_key_builds_per_binding(self):
        with mock.patch.object(
            CostBalancedPlacement, "load_key", wraps=CostBalancedPlacement.load_key
        ) as load_key:
            dispatcher = _matcher_run("push", self.NODES)
        bindings = sum(node.placed_count for node in dispatcher.nodes)
        assert bindings > 1000
        assert load_key.call_count <= self.BOUND * bindings
