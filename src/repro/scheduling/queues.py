"""Partitioned wait queues (paper §3.3, queue management).

"After passing through an admission control (if any), requests are
placed in a wait queue or classified into multiple wait queues
according to their performance objectives and/or business priorities.
A scheduler then orders requests from the wait queue(s)."

The single wait queue (arrival, priority, shortest-job and WSPT order)
is :class:`repro.core.manager.WaitQueue`.  The multiple wait queues are
one core, :class:`PartitionedQueue`, which each tier drains under its
own bucket rule:

* :class:`MultiQueueScheduler` — one queue per workload with
  per-workload MPLs plus a global MPL (Teradata-style object throttles);
* :class:`TenantShareScheduler` — the same sweep keyed by tenant, with
  caps apportioned from share weights;
* :class:`repro.cluster.taskqueue.TaskQueue` — the cluster's pull-side
  queue, buckets served by share deficit.

The global MPL is an int (static threshold) or an
:class:`~repro.core.interfaces.MplController` (dynamic determination).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Callable, Dict, List, Optional

from repro.core.interfaces import ManagerContext, MplController, MplLike, Scheduler
from repro.core.manager import QueueKey
from repro.engine.query import Query, tenant_key, workload_key


class PartitionedQueue:
    """Requests classified into multiple wait queues, one per bucket.

    ``key(query)`` names a request's bucket.  Each bucket is a heap of
    ``(rank, arrival, query)`` ordered as
    :class:`~repro.core.manager.WaitQueue` orders its one queue: by
    ``order(query)`` (``None``: arrival order), arrival order within
    equal ranks.  :attr:`buckets` keeps the order buckets were first
    seen in, drained ones included: the node sweep breaks ties by it and
    crash evacuation reads it.
    """

    def __init__(self, key: Callable[[Query], str], order: Optional[QueueKey] = None) -> None:
        self.key = key
        self.order = order
        self.buckets: Dict[str, List[tuple]] = {}
        self._arrivals = 0
        self._len = 0

    def push(self, query: Query) -> None:
        name = self.key(query)
        heap = self.buckets.get(name)
        if not heap:
            heap = self._refill(name)
        self._arrivals += 1
        rank = 0 if self.order is None else self.order(query)
        heappush(heap, (rank, self._arrivals, query))
        self._len += 1

    def _refill(self, name: str) -> List[tuple]:
        """The heap of bucket ``name``, empty or new, about to take a request."""
        return self.buckets.setdefault(name, [])

    def __len__(self) -> int:
        return self._len

    def queued_queries(self) -> List[Query]:
        """The waiting requests, bucket by bucket, each in pop order."""
        return [entry[2] for heap in self.buckets.values() for entry in sorted(heap)]

    def remove(self, query_id: int) -> Optional[Query]:
        for heap in self.buckets.values():
            for index, entry in enumerate(heap):
                if entry[2].query_id == query_id:
                    del heap[index]
                    heapify(heap)
                    self._len -= 1
                    return entry[2]
        return None


def _workload_bucket(query: Query) -> str:
    return query.workload_name or "<unassigned>"


def _tenant_bucket(query: Query) -> str:
    tenant = tenant_key(query)
    return tenant if tenant is not None else workload_key(query) or "<unassigned>"


class MultiQueueScheduler(Scheduler):
    """One wait queue per workload, per-workload MPLs, global MPL.

    Dispatch sweeps workloads by descending priority of their queue
    heads, one request per workload per round; within a workload FIFO.
    This is the structure of Teradata's workload-definition concurrency
    throttles and DB2's concurrent-activities thresholds.
    """

    def __init__(
        self,
        global_mpl: MplLike = None,
        per_workload_mpl: Optional[Dict[str, int]] = None,
        default_workload_mpl: Optional[int] = None,
    ) -> None:
        self.global_mpl = MplController.of(global_mpl)
        self.per_workload_mpl = dict(per_workload_mpl or {})
        self.default_workload_mpl = default_workload_mpl
        self.queue = PartitionedQueue(_workload_bucket)

    def attach(self, context: ManagerContext) -> None:
        self.global_mpl.attach(context)

    def notify_exit(self, query: Query, context: ManagerContext) -> None:
        self.global_mpl.notify_completion()

    def enqueue(self, query: Query, context: ManagerContext) -> None:
        self.queue.push(query)

    def next_batch(self, context: ManagerContext) -> List[Query]:
        queue = self.queue
        if not len(queue):
            return []
        limit = self.global_mpl.current_limit(context)
        room = float("inf") if limit is None else limit - context.engine.running_count
        key = queue.key
        running: Dict[str, int] = {}
        for query in context.engine.running_queries():
            name = key(query)
            running[name] = running.get(name, 0) + 1
        caps, default = self.per_workload_mpl, self.default_workload_mpl

        batch: List[Query] = []
        progressed = True
        while progressed:
            progressed = False
            # non-empty buckets by head priority descending, first seen first
            heads = sorted(
                [
                    (-heap[0][2].priority, index, name, heap)
                    for index, (name, heap) in enumerate(queue.buckets.items())
                    if heap
                ]
            )
            for _, _, name, heap in heads:
                if room <= 0:
                    return batch
                cap = caps.get(name, default)
                in_flight = running.get(name, 0)
                if cap is not None and in_flight >= cap:
                    continue
                batch.append(heappop(heap)[2])
                queue._len -= 1
                running[name] = in_flight + 1
                room -= 1
                progressed = True
        return batch

    def queued_count(self) -> int:
        return len(self.queue)

    def queued_queries(self) -> List[Query]:
        return self.queue.queued_queries()

    def remove(self, query_id: int) -> Optional[Query]:
        return self.queue.remove(query_id)


def tenant_mpl_caps(mpl: int, shares: Dict[str, float]) -> Dict[str, int]:
    """Apportion ``mpl`` execution slots to tenants by share weight.

    Largest-remainder apportionment with a floor of one slot per tenant
    (a tenant with any share may always run *something*), deterministic
    tie-break by tenant name.  The caps are the per-tenant MPL limits a
    :class:`TenantShareScheduler` enforces — strict reservations, so a
    noisy tenant's backlog cannot consume a quiet tenant's slots.
    """
    if mpl < 1:
        raise ValueError(f"mpl must be >= 1, got {mpl}")
    if not shares:
        return {}
    for tenant, share in shares.items():
        if share <= 0:
            raise ValueError(f"share for {tenant!r} must be > 0")
    total = sum(shares.values())
    caps: Dict[str, int] = {}
    remainders: List[tuple] = []
    assigned = 0
    for tenant in sorted(shares):
        raw = mpl * shares[tenant] / total
        caps[tenant] = max(1, int(raw))
        assigned += caps[tenant]
        remainders.append((-(raw - int(raw)), tenant))
    remainders.sort()
    index = 0
    while assigned < mpl and remainders:
        _, tenant = remainders[index % len(remainders)]
        caps[tenant] += 1
        assigned += 1
        index += 1
    return caps


class TenantShareScheduler(MultiQueueScheduler):
    """Per-tenant MPL reservations on one node (multi-tenant isolation).

    One wait queue per *tenant* — the part of ``workload_name`` before
    the first ``/`` — with per-tenant MPL caps apportioned from share
    weights (:func:`tenant_mpl_caps`) under the node's global MPL.
    Dispatch sweeps tenants by queue-head priority exactly like
    :class:`MultiQueueScheduler` sweeps workloads, so a flash-crowding
    tenant saturates its own reservation and then *waits*, leaving the
    other tenants' slots untouched — the node-tier half of the scenario
    suite's isolation story (the cluster-tier half is tenant admission
    quotas + task-queue tenant shares).  Untenanted work queues by
    workload, uncapped.
    """

    def __init__(self, mpl: int, shares: Dict[str, float]) -> None:
        super().__init__(global_mpl=mpl, per_workload_mpl=tenant_mpl_caps(mpl, shares))
        self.queue.key = _tenant_bucket
