"""One partitioned-queue core under both tiers' bucket rules.

``PartitionedQueue`` replaced two implementations of the paper's §3.3
"multiple wait queues": the cluster's own task queue and the node's
list-based multi-queue sweep.  Both are kept here, test-local, as
oracles (``tests/scheduling/test_socket.py`` keeps the deleted
``rank(now)`` loop the same way), and hypothesis drives old and new
through the same random operation sequences: the same pops, the same
``queued_queries()`` order and the same served counts.
"""

import heapq
from dataclasses import dataclass, field
from typing import Dict, List

from hypothesis import given, settings, strategies as st

from repro.cluster.taskqueue import TaskQueue
from repro.engine.query import tenant_key, workload_key
from repro.scheduling.queues import MultiQueueScheduler, TenantShareScheduler, tenant_mpl_caps

from tests.conftest import make_query

UNTENANTED = "<untenanted>"


# ----------------------------------------------------------------------
# the cluster task queue as it was, minus requirement tags
# ----------------------------------------------------------------------
@dataclass
class _ClassBucket:
    share: float
    served: float = 0.0
    heap: List[tuple] = field(default_factory=list)  # ((-priority, seq), query)

    @property
    def deficit(self) -> float:
        return self.served / max(self.share, 1e-9)


class OldTaskQueue:
    def __init__(self, class_shares=None, key_fn=None):
        self.class_shares = dict(class_shares or {})
        self.key_fn = key_fn
        self._buckets: Dict[str, _ClassBucket] = {}
        self._seq = 0

    def _class_key(self, query):
        if self.key_fn is not None:
            return self.key_fn(query)
        key = workload_key(query)
        return "<unassigned>" if key is None else key

    def push(self, query):
        workload = self._class_key(query)
        bucket = self._buckets.get(workload)
        if bucket is None:
            bucket = self._buckets[workload] = _ClassBucket(self.class_shares.get(workload, 1.0))
        if not bucket.heap:
            active = [o.deficit for o in self._buckets.values() if o.heap and o is not bucket]
            if active and bucket.deficit < min(active):
                bucket.served = min(active) * max(bucket.share, 1e-9)
        heapq.heappush(bucket.heap, ((-query.priority, self._seq), query))
        self._seq += 1

    def match(self, blocked=None):
        ranked = sorted(
            (bucket.deficit, bucket.heap[0][0][0], workload)
            for workload, bucket in self._buckets.items()
            if bucket.heap
        )
        for _, _, workload in ranked:
            bucket = self._buckets[workload]
            skipped, found = [], None
            while bucket.heap:
                item = heapq.heappop(bucket.heap)
                if not (blocked is not None and blocked(item[1])):
                    found = item[1]
                    break
                skipped.append(item)
            for item in skipped:
                heapq.heappush(bucket.heap, item)
            if found is not None:
                bucket.served += 1
                return found
        return None

    def remove(self, query_id):
        for bucket in self._buckets.values():
            for index, (_, query) in enumerate(bucket.heap):
                if query.query_id == query_id:
                    bucket.heap[index] = bucket.heap[-1]
                    bucket.heap.pop()
                    heapq.heapify(bucket.heap)
                    return query
        return None

    def __len__(self):
        return sum(len(bucket.heap) for bucket in self._buckets.values())

    def queued_queries(self):
        return [q for w in sorted(self._buckets) for _, q in sorted(self._buckets[w].heap)]

    def served_counts(self):
        return {w: b.served for w, b in self._buckets.items() if b.served}


# ----------------------------------------------------------------------
# the node's multi-queue scheduler as it was: one list per workload
# ----------------------------------------------------------------------
class OldMultiQueue:
    def __init__(self, key, global_mpl=None, per_workload_mpl=None, default_workload_mpl=None):
        self.key = key
        self.global_mpl = global_mpl
        self.per_workload_mpl = dict(per_workload_mpl or {})
        self.default_workload_mpl = default_workload_mpl
        self._queues: Dict[str, List] = {}

    def enqueue(self, query, context):
        self._queues.setdefault(self.key(query), []).append(query)

    def next_batch(self, context):
        limit = self.global_mpl
        running_by_workload: Dict[str, int] = {}
        for query in context.engine.running_queries():
            key = self.key(query)
            running_by_workload[key] = running_by_workload.get(key, 0) + 1
        running_total = context.engine.running_count

        def head_priority(workload):
            queue = self._queues[workload]
            return queue[0].priority if queue else -1

        batch: List = []
        progressed, at_global_limit = True, False
        while progressed and not at_global_limit:
            progressed = False
            for workload in sorted(self._queues, key=head_priority, reverse=True):
                queue = self._queues[workload]
                if not queue:
                    continue
                if limit is not None and running_total + len(batch) >= limit:
                    at_global_limit = True
                    break
                workload_limit = self.per_workload_mpl.get(workload, self.default_workload_mpl)
                in_flight = running_by_workload.get(workload, 0)
                if workload_limit is not None and in_flight >= workload_limit:
                    continue
                batch.append(queue.pop(0))
                running_by_workload[workload] = in_flight + 1
                progressed = True
        return batch

    def queued_count(self):
        return sum(len(q) for q in self._queues.values())

    def queued_queries(self):
        return [q for queue in self._queues.values() for q in queue]

    def remove(self, query_id):
        for queue in self._queues.values():
            for index, query in enumerate(queue):
                if query.query_id == query_id:
                    return queue.pop(index)
        return None


def _old_workload_key(query):
    return query.workload_name or "<unassigned>"


def _old_tenant_key(query):
    tenant = tenant_key(query)
    return tenant if tenant is not None else workload_key(query) or "<unassigned>"


class _Engine:
    def __init__(self):
        self.running: List = []

    def running_queries(self):
        return list(self.running)

    @property
    def running_count(self):
        return len(self.running)


class _Context:
    def __init__(self):
        self.engine = _Engine()


# ----------------------------------------------------------------------
# the drives
# ----------------------------------------------------------------------
SQLS = ["oltp:q", "bi:q", "etl:q", "acme/oltp:q", "zeta/bi:q", "acme/bi:q", "select 1"]
NAMES = [None, "oltp", "bi", "acme/oltp", "zeta/bi", "zeta/etl"]

ORDINAL = st.integers(0, 40)
TASK_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.sampled_from(SQLS), st.integers(0, 4)),
        st.tuples(st.just("match"), st.none() | st.frozensets(ORDINAL, max_size=8)),
        st.tuples(st.just("remove"), ORDINAL),
    ),
    max_size=60,
)
SHARES = st.dictionaries(
    st.sampled_from(["oltp", "bi", "etl", "acme", "zeta", UNTENANTED]),
    st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0]),
)


@settings(max_examples=150, deadline=None)
@given(TASK_OPS, SHARES, st.booleans())
def test_task_queue_matches_the_old_one(ops, shares, by_tenant):
    if by_tenant:
        key = lambda query: tenant_key(query) or UNTENANTED  # noqa: E731
        old, new = OldTaskQueue(shares, key_fn=key), TaskQueue(shares, key=key)
    else:
        old, new = OldTaskQueue(shares), TaskQueue(shares)
    pushed = []
    for op in ops:
        if op[0] == "push":
            query = make_query(sql=op[1], priority=op[2])
            pushed.append(query)
            old.push(query)
            new.push(query)
        elif op[0] == "match":
            blocked = None
            if op[1] is not None:
                ids = {pushed[i].query_id for i in op[1] if i < len(pushed)}
                blocked = lambda query: query.query_id in ids  # noqa: E731
            assert new.match(blocked) is old.match(blocked)
        elif op[1] < len(pushed):
            query_id = pushed[op[1]].query_id
            assert new.remove(query_id) is old.remove(query_id)
        assert len(new) == len(old)
        assert [q.query_id for q in new.queued_queries()] == [
            q.query_id for q in old.queued_queries()
        ]
        assert {name: n for name, n in new.served.items() if n} == old.served_counts()


NODE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("enqueue"), st.sampled_from(NAMES), st.integers(0, 4)),
        st.tuples(st.just("next_batch")),
        st.tuples(st.just("finish"), ORDINAL),
        st.tuples(st.just("remove"), ORDINAL),
    ),
    max_size=60,
)
CAPS = st.dictionaries(st.sampled_from(["oltp", "bi", "acme/oltp", "zeta/bi"]), st.integers(1, 3))


def _drive_node(old, new, ops):
    context, pushed = _Context(), []
    for op in ops:
        if op[0] == "enqueue":
            query = make_query(workload=op[1], priority=op[2])
            pushed.append(query)
            old.enqueue(query, context)
            new.enqueue(query, context)
        elif op[0] == "next_batch":
            batch = new.next_batch(context)
            assert [q.query_id for q in batch] == [q.query_id for q in old.next_batch(context)]
            context.engine.running.extend(batch)
        elif op[0] == "finish":
            running = context.engine.running
            if running:
                running.pop(op[1] % len(running))
        elif op[1] < len(pushed):
            query_id = pushed[op[1]].query_id
            assert new.remove(query_id) is old.remove(query_id)
        assert new.queued_count() == old.queued_count()
        assert [q.query_id for q in new.queued_queries()] == [
            q.query_id for q in old.queued_queries()
        ]


@settings(max_examples=150, deadline=None)
@given(NODE_OPS, st.none() | st.integers(1, 6), CAPS, st.none() | st.integers(1, 3))
def test_multi_queue_sweep_matches_the_old_one(ops, global_mpl, caps, default_cap):
    old = OldMultiQueue(_old_workload_key, global_mpl, caps, default_cap)
    new = MultiQueueScheduler(global_mpl, caps, default_cap)
    _drive_node(old, new, ops)


@settings(max_examples=100, deadline=None)
@given(
    NODE_OPS,
    st.integers(1, 6),
    st.dictionaries(st.sampled_from(["acme", "zeta"]), st.sampled_from([0.5, 1.0, 2.0]), min_size=1),
)
def test_tenant_share_sweep_matches_the_old_one(ops, mpl, shares):
    old = OldMultiQueue(_old_tenant_key, mpl, tenant_mpl_caps(mpl, shares))
    new = TenantShareScheduler(mpl, shares)
    _drive_node(old, new, ops)


def test_a_drained_bucket_keeps_its_first_seen_place():
    scheduler = MultiQueueScheduler(global_mpl=1)
    context = _Context()
    first, second, third = (make_query(workload=name) for name in ("a", "b", "a"))
    for query in (first, second):
        scheduler.enqueue(query, context)
    assert scheduler.next_batch(context) == [first]  # equal heads: first seen wins
    context.engine.running.clear()
    scheduler.enqueue(third, context)  # "a" refills behind "b"'s arrival
    assert list(scheduler.queue.buckets) == ["a", "b"]
    assert scheduler.queued_queries() == [third, second]
    assert scheduler.next_batch(context) == [third]


def test_an_empty_sweep_reads_nothing():
    class Untouchable:
        @property
        def engine(self):
            raise AssertionError("an empty queue must not read the engine")

    assert MultiQueueScheduler(global_mpl=2).next_batch(Untouchable()) == []
