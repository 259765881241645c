"""The ranked node index: whole-run audits, a property, a cost guard.

The fresh full sort the index replaced survives here as the oracle:
every read of a :class:`RankedNodes` in a whole run is compared with
``sorted(filter(member, nodes), key=key)``, and every load-ranked
placement with the old ``min`` over the candidate list.
"""

from __future__ import annotations

from contextlib import contextmanager
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterDispatcher, ClusterNode, PullBinding, PushBinding, make_policy
from repro.cluster.matcher import Matcher
from repro.cluster.placement import CostBalancedPlacement, LoadRankedPlacement
from repro.cluster.ranked import RankedNodes
from repro.engine.simulator import Simulator
from repro.scenarios import arm_scenario, get_policy, get_scenario, run_scenario

from tests.conftest import make_query


def _oracle(index: RankedNodes) -> list:
    return sorted(filter(index._member, index._position), key=index._key)


@contextmanager
def _audit():
    """Check every index read and every load-ranked pick against a scan."""
    real_iter, real_len = RankedNodes.__iter__, RankedNodes.__len__
    real_choose = LoadRankedPlacement.choose
    seen = SimpleNamespace(reads=0, picks=0)

    def audited_iter(index):
        seen.reads += 1
        got = list(real_iter(index))
        assert got == _oracle(index), "ranked read diverged from a fresh sort"
        return iter(got)

    def audited_len(index):
        got = real_len(index)
        assert got == len(_oracle(index)), "ranked size diverged from a fresh scan"
        return got

    def audited_choose(policy, query, nodes):
        seen.picks += 1
        got = real_choose(policy, query, nodes)
        assert got is min(nodes, key=policy.load_key), "pick != min over candidates"
        return got

    with mock.patch.object(RankedNodes, "__iter__", audited_iter), mock.patch.object(
        RankedNodes, "__len__", audited_len
    ), mock.patch.object(LoadRankedPlacement, "choose", audited_choose):
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
        index = d.binding.matcher._hungry if dispatch == "pull" else d.placement._ranked
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
                list(index)
                edge()
                list(index)
        assert seen.reads >= 18

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
        index = RankedNodes(items, lambda i: i.member, lambda i: (i.load,))
        for op in ops:
            if not op:
                assert list(index) == _oracle(index)
                assert len(index) == len(_oracle(index))
                continue
            item = items[op[0]]
            if len(op) == 3:
                _, item.load, item.member = op
            index.touch(item)
            if touch_twice:
                index.touch(item)
        assert list(index) == _oracle(index)

    def test_untouched_mutation_is_not_seen(self):
        # the contract is touch-before-read, not polling
        items = [_Item("a"), _Item("b")]
        index = RankedNodes(items, lambda i: i.member, lambda i: (i.load,))
        assert list(index) == items
        items[0].load = 9
        assert list(index) == items
        index.touch(items[0])
        assert list(index) == items[::-1]


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
