"""TaskQueue unit tests: ordering, shares, removal."""

import pytest

from repro.cluster.taskqueue import TaskQueue
from repro.engine.query import workload_key

from tests.conftest import make_query


def _push(queue, n=1, **query_kwargs):
    queries = [make_query(**query_kwargs) for _ in range(n)]
    for query in queries:
        queue.push(query)
    return queries


def _class_of(query):
    return workload_key(query).split("/", 1)[0]


def _depths(queue):
    return {name: len(heap) for name, heap in queue.buckets.items() if heap}


class TestOrdering:
    def test_fifo_within_a_priority_level(self):
        queue = TaskQueue()
        queries = _push(queue, n=3, sql="oltp:q", priority=2)
        popped = [queue.match() for _ in range(3)]
        assert popped == queries

    def test_higher_priority_first(self):
        queue = TaskQueue()
        low = _push(queue, sql="oltp:q", priority=1)[0]
        high = _push(queue, sql="oltp:q", priority=5)[0]
        assert queue.match() is high
        assert queue.match() is low

    def test_empty_queue_matches_nothing(self):
        queue = TaskQueue()
        assert queue.match() is None
        assert len(queue) == 0

    def test_class_key_from_workload_then_sql_prefix(self):
        queue = TaskQueue()
        tagged = make_query(sql="select 1", workload="bi")
        prefixed = make_query(sql="oltp:q1")
        bare = make_query(sql="select 2")
        for query in (tagged, prefixed, bare):
            queue.push(query)
        assert _depths(queue) == {"<unassigned>": 1, "bi": 1, "oltp": 1}


class TestShares:
    def test_shares_split_dispatches_under_contention(self):
        queue = TaskQueue({"oltp": 3.0, "bi": 1.0})
        _push(queue, n=30, sql="oltp:q")
        _push(queue, n=30, sql="bi:q")
        first_12 = [_class_of(queue.match()) for _ in range(12)]
        # deficit scheduling: ~3 oltp dispatches per bi dispatch
        assert first_12.count("oltp") == 9
        assert first_12.count("bi") == 3

    def test_uncontended_class_is_served_regardless_of_share(self):
        queue = TaskQueue({"bi": 0.001})
        _push(queue, n=2, sql="bi:q")
        assert queue.match() is not None
        assert queue.match() is not None

    def test_invalid_shares_rejected(self):
        with pytest.raises(ValueError):
            TaskQueue({"oltp": 0.0})
        with pytest.raises(ValueError):
            TaskQueue({"bi": -1.0})

    def test_no_deficit_credit_while_drained(self):
        """Regression: an empty class must not bank share credit.

        ``bi`` drains to empty, ``oltp`` is then served many times, and
        ``bi`` refills.  Before the refill fix, bi's frozen deficit sat
        far below oltp's grown one, so bi monopolized every dispatch
        slot until it "caught up" on share it had no work for.  The fair
        1:1 split must apply from the refill onward instead.
        """
        queue = TaskQueue({"oltp": 1.0, "bi": 1.0})
        _push(queue, n=1, sql="bi:q")
        assert _class_of(queue.match()) == "bi"  # bi drains to empty
        _push(queue, n=100, sql="oltp:q")
        for _ in range(50):
            assert _class_of(queue.match()) == "oltp"
        _push(queue, n=40, sql="bi:q")  # refill mid-backlog
        next_20 = [_class_of(queue.match()) for _ in range(20)]
        # equal shares -> alternating split, not a bi monopoly
        assert next_20.count("bi") == 10
        assert next_20.count("oltp") == 10

    def test_refill_with_no_contention_keeps_credit_semantics(self):
        """A refill with nothing else queued leaves deficits untouched."""
        queue = TaskQueue({"oltp": 1.0, "bi": 1.0})
        _push(queue, n=2, sql="bi:q")
        queue.match()
        queue.match()
        served_before = queue.served["bi"]
        _push(queue, n=1, sql="bi:q")  # refill against an empty queue
        assert queue.served["bi"] == served_before


class TestTenantKeys:
    def test_key_fn_buckets_by_tenant(self):
        queue = TaskQueue({"acme": 1.0, "zeta": 1.0}, key=_class_of)
        _push(queue, n=10, sql="acme/oltp:q")
        _push(queue, n=10, sql="zeta/bi:q")
        assert _depths(queue) == {"acme": 10, "zeta": 10}
        first_10 = [_class_of(queue.match()) for _ in range(10)]
        assert first_10.count("acme") == 5
        assert first_10.count("zeta") == 5


class TestMaintenance:
    def test_remove_withdraws_by_id(self):
        queue = TaskQueue()
        queries = _push(queue, n=3, sql="oltp:q")
        victim = queries[1]
        assert queue.remove(victim.query_id) is victim
        assert len(queue) == 2
        assert queue.remove(victim.query_id) is None
        remaining = [queue.match() for _ in range(2)]
        assert remaining == [queries[0], queries[2]]

    def test_snapshots_are_deterministic(self):
        queue = TaskQueue()
        oltp = _push(queue, n=2, sql="oltp:q")
        bi = _push(queue, n=2, sql="bi:q", priority=4)
        snapshot = queue.queued_queries()
        assert snapshot == queue.queued_queries() == oltp + bi  # bucket by bucket, first seen
        queue.match()
        assert {name: n for name, n in queue.served.items() if n} == {"bi": 1}
