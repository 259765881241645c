"""Partitioned wait queues (paper §3.3, queue management).

"After passing through an admission control (if any), requests are
placed in a wait queue or classified into multiple wait queues
according to their performance objectives and/or business priorities.
A scheduler then orders requests from the wait queue(s)."

Both are one structure,
:class:`~repro.core.interfaces.PartitionedQueue`: the single wait queue
(:class:`repro.core.manager.WaitQueue`) is its one-bucket case.  The
multiple wait queues are that core drained under each owner's bucket
rule:

* :class:`MultiQueueScheduler` — one queue per workload with
  per-workload MPLs plus a global MPL (Teradata-style object throttles);
* :class:`TenantShareScheduler` — the same sweep keyed by tenant, with
  caps apportioned from share weights;
* :class:`repro.scheduling.utility.UtilityScheduler` — one queue per
  service class under utility-chosen cost limits;
* :class:`repro.cluster.taskqueue.TaskQueue` — the cluster's pull-side
  queue, buckets served by share deficit.

The order within a bucket is a key function, the discipline a
single-queue scheduler is named by: :func:`by_priority`,
:func:`shortest_job`, :func:`wspt`.  The global MPL is an int (static
threshold) or an :class:`~repro.core.interfaces.MplController`
(dynamic determination).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, List, Optional

from repro.core.interfaces import (
    MplController,
    MplLike,
    PartitionedQueue,
    QueueKey,
    Scheduler,
)
from repro.core.manager import WorkloadManager
from repro.engine.query import Query, QueryState, tenant_key, workload_key


def by_priority(query: Query) -> int:
    """Higher business priority first; FIFO within a priority level."""
    return -query.priority


def shortest_job(aging_weight: float = 0.0) -> QueueKey:
    """Smallest estimated total work first — the simplest rank function
    of [24], starvation-prone by design.  ``aging_weight`` credits each
    second already waited: the rank ``work - w * (now - submit)`` orders
    any two waiting requests as ``work + w * submit`` does, ``w * now``
    being common to both."""

    def key(query: Query) -> float:
        return query.estimated_cost.total_work + aging_weight * (query.submit_time or 0.0)

    return key


def wspt(query: Query) -> float:
    """Weighted shortest processing time (rank = estimated work /
    priority): the optimal serial order for priority-weighted total
    completion time and the canonical batch rank function [24]."""
    return query.estimated_cost.total_work / max(query.priority, 1)


_first = itemgetter(0)


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

    Caps are read against a tally, by bucket, of the requests this
    scheduler popped and has not seen leave for good, so a sweep costs
    one look per bucket.  Everything on the engine came through here
    (the pump, or suspend/resume restarting a request it popped, which
    is why a suspension keeps its place), so the tally is the running
    set exactly when it holds ``engine.running_count`` requests.  When
    it holds more (one scheduler under two managers, a suspension not
    yet restarted, a pump between an exit and its :meth:`notify_exit`)
    the sweep recounts (:meth:`_recount`).  Nothing renames a running
    request's workload, so its bucket is fixed once it is popped.
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
        self._popped: Dict[int, str] = {}  # query id -> bucket, until it leaves
        self._in_flight: Dict[str, int] = {}  # bucket -> requests in _popped

    def attach(self, context: WorkloadManager) -> None:
        self.global_mpl.attach(context)

    def notify_exit(self, query: Query, context: WorkloadManager) -> None:
        self.global_mpl.notify_completion()
        # A suspended request keeps its place: suspend/resume restarts it
        # on the engine itself, not through this queue.
        if query.state is not QueryState.SUSPENDED:
            self._release(query.query_id)

    def enqueue(self, query: Query, context: WorkloadManager) -> None:
        if query.query_id in self._popped:  # a suspended request re-queued
            self._release(query.query_id)
        self.queue.push(query)

    def _release(self, query_id: int) -> None:
        name = self._popped.pop(query_id, None)
        if name is not None:
            self._in_flight[name] -= 1

    def _recount(self, context: WorkloadManager) -> Dict[str, int]:
        """The engine's running requests by bucket, counted afresh."""
        key = self.queue.key
        running: Dict[str, int] = {}
        for query in context.engine.running_queries():
            name = key(query)
            running[name] = running.get(name, 0) + 1
        return running

    def next_batch(self, context: WorkloadManager) -> List[Query]:
        queue = self.queue
        if not len(queue):
            return []
        busy = context.engine.running_count
        limit = self.global_mpl.current_limit(context)
        room = float("inf") if limit is None else limit - busy
        if room <= 0:
            return []
        tally, popped = self._in_flight, self._popped
        running = tally if len(popped) == busy else self._recount(context)
        caps, default = self.per_workload_mpl, self.default_workload_mpl

        batch: List[Query] = []
        while True:
            # Buckets below their cap, by head priority descending, first
            # seen first (the sort is stable).  Only a popped bucket's
            # count moves in a round, so a bucket capped at the round's
            # start stays capped.
            heads = []
            for name, heap in queue.buckets.items():
                if heap:
                    cap = caps.get(name, default)
                    if cap is None or running.get(name, 0) < cap:
                        heads.append((-heap[0][2].priority, name))
            if not heads:
                return batch
            heads.sort(key=_first)
            for _, name in heads:
                query = queue.pop(name)
                batch.append(query)
                popped[query.query_id] = name
                running[name] = running.get(name, 0) + 1
                if running is not tally:
                    tally[name] = tally.get(name, 0) + 1
                room -= 1
                if room <= 0:
                    return batch


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
