"""The eligible-node index: its edges and a whole-run audit."""

from __future__ import annotations

from unittest import mock

from repro.cluster import ClusterDispatcher, ClusterNode, make_policy
from repro.engine.simulator import Simulator
from repro.scenarios import get_policy, get_scenario, run_scenario

from tests.conftest import make_query, next_instant


def _query(qid: int, cost: float = 0.1):
    del qid  # query ids are assigned by the factory
    return make_query(cpu=cost, io=cost, sql="oltp:q", workload="oltp")


def _fresh(dispatcher):
    """The eligible set from scratch: a stable sort of the nodes with a
    placement rank, by it (round-robin ranks all alike: cluster order)."""
    rank = dispatcher.placement.rank
    return sorted((node for node in dispatcher.nodes if rank(node) is not None), key=rank)


def _cluster(sim, count, policy, mpl, max_outstanding):
    nodes = [ClusterNode(sim, f"n{i}", mpl, max_outstanding) for i in range(count)]
    return ClusterDispatcher(sim, nodes, placement=make_policy(policy))


class TestCacheInvalidation:
    def setup_method(self):
        self.sim = Simulator(seed=3)
        self.dispatcher = _cluster(
            self.sim, count=3, policy="round-robin", mpl=2, max_outstanding=2
        )

    def _assert_fresh(self, names):
        got = self.dispatcher.eligible_nodes()
        assert got == _fresh(self.dispatcher)
        assert [n.name for n in got] == names

    def test_cache_populated_on_first_scan_and_reused(self):
        # the eligible index is built at the first read, then kept: a
        # read returns the index's own list, the same object every time
        assert self.dispatcher._eligible is None
        first = self.dispatcher._eligible_for()
        index = self.dispatcher._eligible
        assert index is not None
        assert [n.name for n in first] == ["n0", "n1", "n2"]
        assert self.dispatcher._eligible_for() is first
        assert self.dispatcher._eligible is index

    def test_crash_and_recovery_invalidate(self):
        self._assert_fresh(["n0", "n1", "n2"])
        node = self.dispatcher.nodes[1]
        node.crash()
        self._assert_fresh(["n0", "n2"])
        node.activate()
        self._assert_fresh(["n0", "n1", "n2"])

    def test_saturation_and_crash_invalidate(self):
        self._assert_fresh(["n0", "n1", "n2"])
        self.dispatcher.nodes[0].submit(_query(1))
        self._assert_fresh(["n0", "n1", "n2"])
        self.dispatcher.nodes[0].submit(_query(2))  # max_outstanding=2: n0 saturates
        self._assert_fresh(["n1", "n2"])
        self.dispatcher.nodes[2].crash()
        self._assert_fresh(["n1"])

    def test_saturation_edge_crossing_invalidates(self):
        # max_outstanding=2: the second query saturates a node, which
        # must drop out of the eligible set; completion re-adds it.
        node = self.dispatcher.nodes[0]
        for qid in (1, 2):
            node.submit(_query(qid))
        assert not node.accepting
        assert node.name not in {
            n.name for n in self.dispatcher.eligible_nodes()
        }
        # drain: outstanding drops back under the bound (bounded run —
        # the dispatcher's periodic tick keeps the queue non-empty)
        self.sim.run_until(30.0)
        assert node.accepting
        assert node.name in {n.name for n in self.dispatcher.eligible_nodes()}

    def test_drain_queue_sees_capacity_freed_by_completing_query(self):
        # Regression: the manager pings backlog listeners *before*
        # completion listeners run, so the dispatcher's completion-time
        # queue drain observes the just-freed slot.  With the stale
        # ordering (invalidate after notify) the parked query waits for
        # the next periodic tick instead.
        sim = Simulator(seed=5)
        dispatcher = _cluster(sim, count=1, policy="least", mpl=1, max_outstanding=1)
        dispatcher.eligible_nodes()  # build the index
        dispatcher.submit(_query(1, cost=0.3))  # occupies the only slot
        dispatcher.submit(_query(2, cost=0.3))  # parks in the cluster queue
        assert dispatcher.cluster_queue_depth == 1
        while dispatcher.completions == 0:
            assert next_instant(sim), "first query never completed"
        # same event as the first completion: the queue already drained
        assert dispatcher.cluster_queue_depth == 0

    def test_cached_set_always_equals_fresh_scan(self):
        # Interleave placements, faults and time; the index must always
        # agree with a from-scratch sort.
        checks = 0
        for step, action in enumerate(
            [
                lambda: self.dispatcher.submit(_query(100, cost=2.0)),
                lambda: self.dispatcher.nodes[1].crash(),
                lambda: self.sim.run_until(self.sim.now + 3.0),
                lambda: self.dispatcher.nodes[1].activate(),
                lambda: self.dispatcher.submit(_query(101, cost=0.1)),
                lambda: self.sim.run_until(self.sim.now + 10.0),
            ]
        ):
            action()
            cached = [n.name for n in self.dispatcher.eligible_nodes()]
            fresh = [n.name for n in _fresh(self.dispatcher)]
            assert cached == fresh, f"diverged after step {step}"
            checks += 1
        assert checks == 6


def _audited_run(seed, policy, **scenario) -> int:
    """Run the EXP18 overload with every ``_eligible_for`` call checked
    against a from-scratch sort; returns the calls audited."""
    cached_lookup = ClusterDispatcher._eligible_for
    calls = 0

    def audited(dispatcher):
        nonlocal calls
        calls += 1
        got = cached_lookup(dispatcher)
        assert got == _fresh(dispatcher), (
            f"eligible set diverged from a fresh sort at t={dispatcher.sim.now}"
        )
        return got

    with mock.patch.object(ClusterDispatcher, "_eligible_for", audited):
        run_scenario(
            get_scenario("cluster_overload", horizon=10.0, **scenario),
            get_policy(f"push/{policy}"),
            seed=seed,
        )
    return calls


class TestCacheAudit:
    def test_clean_run_matches_fresh_scan(self):
        # mpl=1 puts max_outstanding at 4, so nodes cross the saturation
        # edge in both directions without any fault
        assert _audited_run(seed=11, nodes=4, policy="least", mpl=1) > 0

    def test_node_kill_run_matches_fresh_scan(self):
        crashes = ((0.3, "n1", 0.6),)
        assert _audited_run(seed=13, nodes=3, policy="cost", crashes=crashes) > 0

    def test_pull_run_never_builds_the_eligible_index(self):
        # only push routing reads the eligible set
        dispatcher = run_scenario(
            get_scenario("cluster_overload", horizon=10.0, nodes=3),
            get_policy("pull/cost"),
            seed=11,
        ).dispatcher
        assert dispatcher.completions > 0
        assert dispatcher._eligible is None
